"""End-to-end query telemetry: span tracing, metrics, EXPLAIN ANALYZE.

Every surface reads one substrate: the **query record**,
``ExecutionResult.profile`` (:class:`~repro.hardware.traffic.Profile`)
— each launch and transfer of the query, and one row per pipeline run
plus ``finalize``, written always, with no flag.  The stats objects on
a result hold their tier's facts and read everything else off that
record when asked (``docs/observability.md``, "Read, not copied").  The
surfaces:

* **Tracing** (:mod:`repro.telemetry.trace`) — hierarchical spans
  (``query → plan → pipeline[i] → compile/placement/transfer/kernel``)
  carrying host wall-clock and simulated device time plus the
  byte/atomic counters, every one read off the record and the serving
  stats; per query on ``ExecutionResult.trace``; exportable as Chrome
  trace-event JSON (Perfetto) or JSONL.
* **Metrics** (:mod:`repro.telemetry.metrics`) — counters, gauges, and
  log-bucket latency histograms with a Prometheus text exposition
  (``Server.metrics_text()``, ``repro metrics``); ``observe_result``
  folds each finished query into a registry.
* **EXPLAIN ANALYZE** (:mod:`repro.telemetry.explain`) —
  ``Session.explain(sql, analyze=True)`` / ``repro explain --analyze``:
  render the record's per-pipeline movement/time table.

Plus the durable observability layer on top:

* **Events** (:mod:`repro.telemetry.events`) — typed JSON entries
  of the query record (admission, planning, placement evictions,
  retries, faults, optimizer decisions): noted into the record where
  they happen or read off the result, ``result.events()``; a flight
  recorder lands them with each flight, ``--events-out`` writes them
  and ``repro log`` tails them.
* **Flight recorder** (:mod:`repro.telemetry.recorder`) — compact
  per-query records; failures (and chaos misses) produce self-contained
  post-mortem bundles replayable byte-for-byte via ``repro replay``.
* **Simulated-clock pin** (:mod:`repro.telemetry.baseline`) — one
  committed store of 627 cases (plan x engine x compression, and the
  fleet), one row each; ``repro baseline record`` writes it and
  ``repro baseline check`` compares it exactly, gating CI against
  silent cost-model or executor drift.

Tracing is off by default and costs nothing until a trace is read:
the record is written either way, and a noted event, host phase or
kernel lookup costs one list append.  See ``docs/observability.md``.
"""

from .baseline import (
    DriftReport,
    check_baselines,
    load_baselines,
    record_baselines,
)
from .events import Event
from .explain import explain_analyze, render_explain_analyze
from .recorder import (
    FlightRecord,
    FlightRecorder,
    ReplayReport,
    replay_bundle,
    table_checksum,
    write_postmortem_bundle,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    count_query,
    observe_result,
    parse_prometheus_text,
    render_prometheus,
)
from .trace import QueryTrace, Span, tracing, tracing_enabled

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DriftReport",
    "Event",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "QueryTrace",
    "ReplayReport",
    "Span",
    "check_baselines",
    "count_query",
    "explain_analyze",
    "load_baselines",
    "observe_result",
    "parse_prometheus_text",
    "record_baselines",
    "render_explain_analyze",
    "render_prometheus",
    "replay_bundle",
    "table_checksum",
    "tracing",
    "tracing_enabled",
    "write_postmortem_bundle",
]
