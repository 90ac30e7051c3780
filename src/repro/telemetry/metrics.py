"""Prometheus-style metrics: counters, gauges, log-bucket histograms.

A :class:`MetricsRegistry` holds metric families keyed by name; each
family holds one instrument per label set.  The registry renders in
the Prometheus text exposition format (``render_prometheus``), and the
module ships a deliberately small :func:`parse_prometheus_text` so CI
and tests can check that what we expose actually parses.

:func:`observe_result` is the one place a finished query becomes
samples: ``Session._execute`` — the lifecycle a
:class:`~repro.serving.Server`'s workers run too — calls it once per
completed query, so both front doors count the same families the same
way.

Histograms use **fixed log-2 buckets** (sub-millisecond to tens of
seconds by default) so percentile queries are O(buckets).  A reader
takes a :class:`HistogramSnapshot`, whose ``percentile`` returns the
upper bound of the bucket containing the requested rank — the standard
Prometheus ``histogram_quantile`` resolution.

All instruments are thread-safe (serving workers record concurrently).
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "count_query",
    "live_devices_gauge",
    "observe_result",
    "parse_prometheus_text",
    "render_prometheus",
]

#: Default latency buckets in milliseconds: 2^-4 .. 2^15 (0.0625 ms to
#: ~32.8 s), 20 buckets.  Log-2 spacing keeps relative error bounded at
#: every magnitude a simulated or host-side query latency can take.
DEFAULT_LATENCY_BUCKETS_MS = tuple(2.0 ** exp for exp in range(-4, 16))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_ESCAPE_RE = re.compile(r'\\([n"\\])')


class Counter:
    """A monotonically increasing count."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Sync to a monotonic total a component owns (a scrape-time
        collector of, e.g., a buffer pool's or a flight recorder's
        counts).  A per-query fact is counted by :func:`observe_result`
        instead."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable copy of a histogram's state.

    ``counts`` holds per-bucket (non-cumulative) observation counts,
    with one extra overflow slot for observations above the last bound.
    """

    buckets: tuple
    counts: tuple
    count: int
    sum: float

    def percentile(self, q: float) -> float:
        """The upper bucket bound covering quantile ``q`` in (0, 1]."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = math.ceil(q * self.count)
        seen = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            seen += bucket_count
            if seen >= target:
                return bound
        # Overflow bucket: report the largest finite bound.
        return self.buckets[-1]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self, unit: str = "ms") -> str:
        return (
            f"n={self.count}  mean {self.mean:.3f} {unit}  "
            f"p50 {self.p50:.3g} {unit}  p95 {self.p95:.3g} {unit}  "
            f"p99 {self.p99:.3g} {unit}"
        )


class Histogram:
    """A fixed-bucket histogram; read it through :meth:`snapshot`."""

    def __init__(self, buckets=None):
        bounds = tuple(sorted(buckets)) if buckets else DEFAULT_LATENCY_BUCKETS_MS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow slot
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    # -- accessors ------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                buckets=self.buckets,
                counts=tuple(self._counts),
                count=self._count,
                sum=self._sum,
            )


@dataclass
class _Family:
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    instances: dict  # label tuple -> instrument


class MetricsRegistry:
    """A named collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call registers the family (name, help text, type), later calls with
    the same name and labels return the same instrument.  A reader may
    leave ``help`` empty; the first caller that gives one sets it.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._instrument("counter", name, help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._instrument("gauge", name, help, labels, Gauge)

    def histogram(
        self, name: str, help: str = "", buckets=None, **labels
    ) -> Histogram:
        return self._instrument(
            "histogram", name, help, labels, lambda: Histogram(buckets)
        )

    def _instrument(self, kind, name, help, labels, factory):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind=kind, help=help, instances={})
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            family.help = family.help or help
            instrument = family.instances.get(key)
            if instrument is None:
                instrument = factory()
                family.instances[key] = instrument
            return instrument

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition of every registered family."""
        return render_prometheus(self)

    def families(self) -> dict:
        with self._lock:
            return dict(self._families)


# ----------------------------------------------------------------------
# text exposition
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in pairs)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    """Inverse of :func:`_escape`, in one left-to-right pass (so an
    escaped backslash never re-triggers on the next character)."""
    return _ESCAPE_RE.sub(lambda match: "\n" if match[1] == "n" else match[1], value)


def render_prometheus(registry: MetricsRegistry) -> str:
    lines: list[str] = []
    for name, family in sorted(registry.families().items()):
        if family.help:
            # HELP lines escape backslash and newline (Prometheus text
            # format); quotes stay literal outside label values.
            help_text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {family.kind}")
        for key in sorted(family.instances):
            instrument = family.instances[key]
            pairs = list(key)
            if family.kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_format_labels(pairs)} "
                    f"{_format_value(instrument.value)}"
                )
            else:  # histogram
                snap = instrument.snapshot()
                cumulative = 0
                for bound, bucket_count in zip(snap.buckets, snap.counts):
                    cumulative += bucket_count
                    bucket_pairs = pairs + [("le", _format_value(bound))]
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_pairs)} {cumulative}"
                    )
                bucket_pairs = pairs + [("le", "+Inf")]
                lines.append(
                    f"{name}_bucket{_format_labels(bucket_pairs)} {snap.count}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(pairs)} {_format_value(snap.sum)}"
                )
                lines.append(f"{name}_count{_format_labels(pairs)} {snap.count}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# tiny parser (validation for CI and tests)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict:
    """Parse Prometheus text exposition into
    ``{metric_name: [(labels_dict, value), ...]}``.

    Raises :class:`ValueError` on any malformed line — this is the
    check CI runs against ``Server.metrics_text()`` output.
    """
    samples: dict[str, list] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 2)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {number}: malformed comment {raw!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {number}: malformed sample {raw!r}")
        labels: dict[str, str] = {}
        body = match.group("labels")
        if body:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(body):
                labels[pair.group(1)] = _unescape(pair.group(2))
                consumed = pair.end()
            remainder = body[consumed:].strip().strip(",")
            if remainder:
                raise ValueError(f"line {number}: malformed labels {body!r}")
        value_text = match.group("value")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


# ----------------------------------------------------------------------
# the per-query fold
# ----------------------------------------------------------------------
def count_query(metrics: MetricsRegistry, status: str) -> None:
    """Count one query that ended in ``status``."""
    metrics.counter(
        "repro_queries_total", "Queries by final status", status=status
    ).inc()


def observe_result(metrics: MetricsRegistry, result, **labels) -> None:
    """Fold one finished ``ExecutionResult`` into ``metrics``, reading
    only the result: ``serving``, ``compression``, ``scaleout`` (shares
    and recovery) and ``optimizer``.  ``labels`` (a server worker's
    ``worker=``) go on the scale-out, fault and optimizer families."""
    count_query(metrics, "completed")
    serving = result.serving
    if serving is not None:
        metrics.histogram(
            "repro_query_latency_ms",
            "End-to-end query latency: queue wait + plan + execute (host ms)",
        ).observe(serving.total_ms)
        hit = serving.plan_cache_hit
        if hit is not None:  # a plan object bypasses the cache
            for outcome, value in (("hit", hit), ("miss", not hit)):
                metrics.counter(
                    "repro_plan_cache_lookups_total", "Plan-cache outcomes",
                    outcome=outcome,
                ).inc(value)
        for outcome, value in (
            ("hit", serving.compile_hits), ("miss", serving.compile_misses)
        ):
            metrics.counter(
                "repro_kernel_cache_lookups_total",
                "Compiled-kernel cache outcomes", outcome=outcome,
            ).inc(value)
    if result.compression is not None:
        _observe_compression(metrics, result.compression)
    if result.scaleout is not None:
        _observe_scaleout(metrics, result.scaleout, labels)
    if result.optimizer is not None:
        _observe_optimizer(metrics, result.optimizer, labels)


def _observe_compression(metrics: MetricsRegistry, stats) -> None:
    for name, help, value in (
        ("raw_bytes", "Pre-compression bytes of link transfers", stats.raw_bytes),
        ("wire_bytes", "Bytes actually moved over the interconnect", stats.wire_bytes),
        ("saved_bytes", "Link bytes avoided by columnar compression",
         max(stats.saved_bytes, 0)),
        ("decode_kernels", "Decompression kernels launched on-device",
         stats.decode_kernels),
        ("compressed_scans", "Predicate conjuncts executed directly on wire images",
         stats.compressed_scans),
        ("scan_blocks_skipped",
         "Packed blocks skipped via min/max tests during compressed scans",
         stats.scan_blocks_skipped),
        ("deferred_decodes",
         "Columns whose raw form never materialized in device memory",
         stats.deferred_columns),
        ("partial_decode_bytes",
         "Raw bytes' worth of values decoded in registers by consuming kernels",
         stats.partial_decode_bytes),
        ("host_decode_bytes", "Raw bytes of D2H partials decoded host-side",
         stats.host_decode_bytes),
    ):
        metrics.counter(f"repro_compression_{name}_total", help).inc(value)
    metrics.histogram(
        "repro_compression_ratio",
        "Per-query raw/wire compression ratio",
        buckets=(1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0),
    ).observe(stats.ratio)
    for codec, count in stats.codecs.items():
        metrics.counter(
            "repro_compression_columns_total",
            "Columns transferred, by wire codec", codec=codec,
        ).inc(count)


def live_devices_gauge(metrics: MetricsRegistry, **labels) -> Gauge:
    """The fleet health gauge: devices in service after the most recent
    query (a fault-armed server worker's reads its fleet size until the
    worker has run one)."""
    return metrics.gauge(
        "repro_faults_live_devices",
        "Devices in service after the most recent query", **labels,
    )


def _observe_scaleout(metrics: MetricsRegistry, stats, labels: dict) -> None:
    from ..faults.recovery import RecoveryStats

    metrics.gauge(
        "repro_scaleout_devices", "Fleet size of the scale-out executor", **labels
    ).set(stats.devices)
    metrics.counter(
        "repro_scaleout_queries_total", "Queries executed by the fleet", **labels
    ).inc()
    metrics.counter(
        "repro_scaleout_fallbacks_total",
        "Queries that ran unpartitioned on one device", **labels,
    ).inc(stats.fallback)
    shares = {share.device: share for share in stats.shares}
    # Every fleet device gets a sample, the ones that ran nothing a 0.
    for device in range(stats.devices):
        share = shares.get(device)
        for name, help in (
            ("morsels", "Fact morsels executed per device"),
            ("busy_ms", "Simulated busy milliseconds per device"),
            ("pcie_bytes", "PCIe bytes (h2d + d2h) per device"),
        ):
            metrics.counter(
                f"repro_scaleout_device_{name}_total", help,
                device=str(device), **labels,
            ).inc(getattr(share, name) if share is not None else 0)
    # The unpartitioned fallback bypasses recovery: all zeros.
    recovery = (stats.recovery or RecoveryStats()).tally()
    lost = len(recovery["degraded_devices"])
    live_devices_gauge(metrics, **labels).set(stats.devices - lost)
    for kind, count in recovery["injected"].items():
        metrics.counter(
            "repro_faults_injected_total",
            "Injected faults fired, by kind", kind=kind, **labels,
        ).inc(count)
    for name, help, value in (
        ("retries", "Same-device morsel retries", recovery["retries"]),
        ("backoff_ms", "Simulated retry backoff milliseconds", recovery["backoff_ms"]),
        ("redistributed_morsels", "Morsels re-scheduled onto surviving devices",
         recovery["redistributed_morsels"]),
        ("timeouts", "Morsel attempts abandoned past the morsel timeout",
         recovery["timeouts"]),
        ("lost_devices", "Device losses suffered across all queries", lost),
        ("host_fallbacks", "Queries degraded to the host out-of-core fallback",
         recovery["host_fallback"]),
        ("queries", "Queries that saw any fault or recovery action",
         recovery["faulted"]),
    ):
        metrics.counter(f"repro_faults_{name}_total", help, **labels).inc(value)


def _observe_optimizer(metrics: MetricsRegistry, decision, labels: dict) -> None:
    metrics.counter(
        "repro_optimizer_decisions_total",
        "Strategy decisions made by the adaptive optimizer", **labels,
    ).inc()
    metrics.counter(
        "repro_optimizer_oom_fallbacks_total",
        "Auto executions that hit the DeviceMemoryError safety net", **labels,
    ).inc(decision.oom_fallback)
    metrics.counter(
        "repro_optimizer_strategies_total", "Executions by chosen strategy",
        strategy=decision.chosen.describe(), **labels,
    ).inc()
    metrics.histogram(
        "repro_optimizer_advise_ms",
        "Advisor planning overhead per query (ms)", **labels,
    ).observe(decision.advise_ms)
    error = decision.error_fraction()
    if error is not None:
        metrics.histogram(
            "repro_optimizer_prediction_error",
            "Relative predicted-vs-observed latency error", **labels,
        ).observe(error)
    accuracy = decision.accuracy
    metrics.gauge(
        "repro_optimizer_calibration_samples",
        "Prediction/observation pairs in the accuracy window", **labels,
    ).set(accuracy.samples)
    for name, help, value in (
        ("byte", "Median relative predicted-vs-observed PCIe byte error",
         accuracy.median_byte_error),
        ("time", "Median relative predicted-vs-observed latency error",
         accuracy.median_time_error),
    ):
        if value is not None:
            metrics.gauge(
                f"repro_optimizer_median_{name}_error", help, **labels
            ).set(value)
