"""Telemetry tests: span tracing, Chrome trace export, metrics,
Prometheus exposition, and EXPLAIN ANALYZE reconciliation."""

import contextlib
import json
import time

import pytest

from repro.api import Session, connect
from repro.hardware import GTX970, KernelTrace, MemoryLevel, TrafficMeter
from repro.serving import Server
from repro.hardware.traffic import Profile
from repro.serving import ServingStats
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    QueryTrace,
    parse_prometheus_text,
    render_explain_analyze,
    tracing,
    tracing_enabled,
)
from repro.workloads import SSB_QUERIES

QUERY = (
    "select sum(lo_revenue) as r from lineorder, date "
    "where lo_orderdate = d_datekey and d_year = 1993"
)


@pytest.fixture()
def traced_result(ssb_db):
    session = connect(ssb_db)
    with tracing():
        result = session.execute(QUERY)
    return result


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_by_default(self, ssb_db):
        assert not tracing_enabled()
        result = connect(ssb_db).execute(QUERY)
        assert result.trace is None
        assert result.timeline() == []

    def test_span_nesting(self):
        """Each span hangs under the innermost span running when it
        began: a timed phase holds what started inside it, a point
        stays a point, a launch lasts back to the span before it."""
        serving = ServingStats(started=time.perf_counter())
        record = Profile()
        outer = time.perf_counter()
        inner = time.perf_counter()
        record.phase("tick", "compile")
        record.phase("inner", "phase", inner)
        record.phase("outer", "phase", outer)
        record.append(KernelTrace("launch", "scan", 1, TrafficMeter(), time_ms=0.5))
        trace = QueryTrace(serving, record)
        spans = trace.timeline()
        assert [s.name for s in spans] == ["query", "outer", "inner", "tick", "kernel launch"]
        outer, inner, tick, launch = spans[1:]
        assert inner in outer.children and tick in inner.children
        assert outer.start_us <= inner.start_us <= inner.end_us <= outer.end_us
        assert tick.duration_us == 0 and launch in trace.root.children
        assert launch.start_us == outer.end_us < launch.end_us
        assert trace.spans("kernel")[0].sim_ms == 0.5

    def test_flag_is_read_once_per_query(self, ssb_db):
        """A query that starts traced keeps its host phases when the
        flag goes off while it runs — as another thread's ``with
        tracing():`` block exiting turns it off.  A plan-cache hook
        stands in for that thread, right after planning."""
        session = connect(ssb_db, residency=True)
        session.execute(SSB_QUERIES["q2.1"])  # warm: the pool holds it all
        lookup = session.plan_cache.lookup
        with tracing(), contextlib.ExitStack() as other_thread:

            def lookup_then_flag_off(*args):
                planned = lookup(*args)
                other_thread.enter_context(tracing(False))
                return planned

            session.plan_cache.lookup = lookup_then_flag_off
            result = session.execute(SSB_QUERIES["q2.1"])
            assert not tracing_enabled()
        serving, placement = result.serving, result.placement
        lookups = serving.compile_hits + serving.compile_misses
        acquired = placement.hits + placement.table_hits
        assert (lookups, placement.hits, placement.table_hits) == (1, 4, 3)
        assert len(result.trace.spans("compile")) == lookups
        assert len(result.trace.spans("placement")) == acquired

    def test_execution_attaches_span_tree(self, traced_result):
        names = [span.category for span in traced_result.timeline()]
        assert names[0] == "query"
        assert "plan" in names
        assert "pipeline" in names
        assert "kernel" in names
        assert "finalize" in names
        # One pipeline span per executed pipeline, kernels nested inside.
        pipelines = traced_result.trace.spans("pipeline")
        assert pipelines
        assert all(p.find("kernel") or p.attrs["kernels"] == 0 for p in pipelines)

    def test_timeline_is_document_order(self, traced_result):
        spans = traced_result.timeline()
        assert spans[0] is traced_result.trace.root
        assert spans == list(traced_result.trace.root.walk())


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_round_trip_parses_and_nests(self, traced_result):
        payload = json.loads(traced_result.trace.chrome_json())
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X"}

        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) >= len(traced_result.timeline())
        for event in complete:
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            json.dumps(event["args"])  # attrs must all be JSON-clean

        # Host-track events must nest: every non-root interval lies
        # inside some enclosing interval (its parent span).
        host = [e for e in complete if e["tid"] == 1]
        root = max(host, key=lambda e: e["dur"])
        for event in host:
            if event is root:
                continue
            enclosing = [
                e for e in host
                if e is not event
                and e["ts"] <= event["ts"]
                and e["ts"] + e["dur"] >= event["ts"] + event["dur"]
            ]
            assert enclosing, f"unparented event {event['name']}"

    def test_device_track_is_serial_sim_time(self, traced_result):
        events = json.loads(traced_result.trace.chrome_json())["traceEvents"]
        device = [e for e in events if e.get("tid") == 2 and e["ph"] == "X"]
        assert device  # kernels + transfers exist for this query
        cursor = None
        for event in device:
            if cursor is not None:
                assert event["ts"] >= cursor - 1e-6  # laid out serially
            cursor = event["ts"] + event["dur"]
        # dur values are rounded to 3 decimals in the export.
        sim_total_us = sum(e["dur"] for e in device)
        expected_us = traced_result.total_ms * 1e3
        assert sim_total_us == pytest.approx(expected_us, abs=1e-3 * len(device))

    def test_jsonl_one_object_per_span(self, traced_result):
        lines = traced_result.trace.jsonl().strip().splitlines()
        assert len(lines) == len(traced_result.timeline())
        first = json.loads(lines[0])
        assert first["name"] == "query"
        assert first["depth"] == 0


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------
class TestExplainAnalyze:
    def test_pipeline_bytes_reconcile_exactly(self, traced_result):
        pipelines = traced_result.trace.spans("pipeline")
        total = sum(span.attrs["global_bytes"] for span in pipelines)
        assert total == traced_result.profile.bytes_at(MemoryLevel.GLOBAL)

    def test_render_has_no_reconciliation_warning(self, traced_result):
        text = render_explain_analyze(traced_result)
        assert "EXPLAIN ANALYZE" in text
        assert "WARNING" not in text

    def test_session_explain_analyze(self, ssb_db):
        text = Session(ssb_db).explain(QUERY, analyze=True)
        assert "rows out" in text
        assert "kernel cache" in text
        assert not tracing_enabled()  # flag restored after the run

    def test_plan_cache_outcome(self, ssb_db):
        """SQL misses then hits; a plan object never probes the cache,
        so its footer says so instead of a "miss" on every run."""
        from repro.workloads.microbench import aggregation_query

        session = Session(ssb_db)
        assert "plan cache: miss" in session.explain(QUERY, analyze=True)
        assert "plan cache: hit" in session.explain(QUERY, analyze=True)
        plan = aggregation_query(0)
        for _ in range(2):
            assert "plan cache: bypassed" in session.explain(plan, analyze=True)

    def test_render_without_trace(self, ssb_db):
        """EXPLAIN ANALYZE reads the query record: an untraced result
        renders (it used to raise), with the rows of a traced one."""
        result = connect(ssb_db).execute(QUERY)
        assert result.trace is None
        text = render_explain_analyze(result)
        assert "rows out" in text and "[result]" in text and "WARNING" not in text

    def test_out_of_core_execution_has_pipeline_rows(self, ssb_db):
        """A streamed query runs the same per-pipeline spans as any
        other (it used to render "(no per-pipeline spans ...)")."""
        small = GTX970.with_overrides(memory_capacity=150_000)
        session = connect(ssb_db, device=small, residency=True)
        with tracing():
            result = session.execute(QUERY)
        assert result.placement.out_of_core
        pipelines = result.trace.spans("pipeline")
        assert [span.name for span in pipelines] == ["pipeline[0]", "pipeline[1]"]
        assert sum(span.attrs["global_bytes"] for span in pipelines) == (
            result.profile.bytes_at(MemoryLevel.GLOBAL)
        )
        build = pipelines[0].attrs
        assert build["kernels"] == 1 and "resident" not in build
        # The second execution is served the date table by the pool:
        # its build keeps a row — resident, nothing launched, the
        # table's rows out — and the spans still reconcile.
        with tracing():
            warm = session.execute(QUERY)
        spans = warm.trace.spans("pipeline")
        assert [span.name for span in spans] == ["pipeline[0]", "pipeline[1]"]
        resident = spans[0].attrs
        assert resident["resident"] is True
        assert (resident["kernels"], resident["sim_ms"], resident["pcie_bytes"]) == (0, 0, 0)
        assert resident["rows_out"] == build["rows_out"] > 0
        assert sum(span.attrs["global_bytes"] for span in spans) == (
            warm.profile.bytes_at(MemoryLevel.GLOBAL)
        )
        text = session.explain(QUERY, analyze=True)
        assert "[1]" in text and "rows out" in text
        assert "[resident]" in text and "resident tables 1/1" in text
        assert "no per-pipeline spans" not in text

    def test_pipeline_rows_attrs(self, traced_result):
        pipelines = traced_result.trace.spans("pipeline")
        # The probe pipeline scans lineorder and aggregates to one group.
        assert any(span.attrs["rows_in"] > 0 for span in pipelines)
        assert all(span.attrs["kernels"] >= 1 for span in pipelines)


# ----------------------------------------------------------------------
# Metrics + Prometheus
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_percentiles_are_bucket_bounds(self):
        hist = Histogram()
        for ms in (0.3, 0.7, 3.0, 40.0):
            hist.observe(ms)
        snap = hist.snapshot()
        assert snap.count == 4
        assert snap.sum == pytest.approx(44.0)
        # Log-2 buckets: upper bounds are powers of two.
        assert snap.p50 == 1.0
        assert snap.p99 == 64.0
        assert "p95" in snap.summary()

    def test_registry_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "A counter", status="ok").inc(3)
        registry.gauge("repro_test_depth", "A gauge").set(7)
        registry.histogram("repro_test_ms", "A histogram").observe(2.5)
        parsed = parse_prometheus_text(registry.render())
        assert parsed["repro_test_total"] == [({"status": "ok"}, 3.0)]
        assert parsed["repro_test_depth"] == [({}, 7.0)]
        assert ({}, 1.0) in parsed["repro_test_ms_count"]
        buckets = dict(
            (labels["le"], value) for labels, value in parsed["repro_test_ms_bucket"]
        )
        assert buckets["+Inf"] == 1.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not prometheus\n")

    def test_empty_histogram_percentile_is_zero(self):
        """No observations -> 0.0, not an exception or a bucket bound."""
        snap = Histogram().snapshot()
        assert snap.count == 0
        assert snap.percentile(0.5) == 0.0
        assert snap.p99 == 0.0

    def test_percentile_rejects_bad_quantile(self):
        snap = Histogram().snapshot()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                snap.percentile(bad)

    def test_label_values_escaped_in_exposition(self):
        """Backslash, quote, and newline in label values must render as
        \\\\, \\" and \\n — and round-trip through the parser."""
        registry = MetricsRegistry()
        hostile = 'a\\b"c\nd'
        registry.counter("repro_test_total", "A counter", path=hostile).inc()
        text = registry.render()
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        # The rendered exposition stays one-sample-per-line.
        samples = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(samples) == 1
        parsed = parse_prometheus_text(text)
        assert parsed["repro_test_total"] == [({"path": hostile}, 1.0)]

    def test_help_text_newlines_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "line one\nline two").inc()
        text = registry.render()
        help_lines = [
            line for line in text.splitlines() if line.startswith("# HELP")
        ]
        assert help_lines == ["# HELP repro_test_total line one\\nline two"]
        parse_prometheus_text(text)  # still a valid exposition

    def test_session_metrics_histogram_counts_queries(self, ssb_db):
        registry = MetricsRegistry()
        session = connect(ssb_db, metrics=registry)
        for _ in range(3):
            session.execute(QUERY)
        parsed = parse_prometheus_text(registry.render())
        assert parsed["repro_query_latency_ms_count"] == [({}, 3.0)]
        assert ({"status": "completed"}, 3.0) in parsed["repro_queries_total"]


class TestServerMetrics:
    def test_latency_count_matches_completed(self, ssb_db):
        with Server(ssb_db, workers=2, queue_size=16) as server:
            server.execute_many([QUERY] * 5)
            stats = server.stats()
            text = server.metrics_text()
        parsed = parse_prometheus_text(text)
        assert stats.completed == 5
        assert parsed["repro_query_latency_ms_count"] == [({}, 5.0)]
        completed = dict(
            (labels["status"], value)
            for labels, value in parsed["repro_queries_total"]
        )
        assert completed["completed"] == 5.0
        assert completed["failed"] == 0.0

    def test_summary_shows_percentiles_and_queue(self, ssb_db):
        with Server(ssb_db, workers=1, queue_size=8) as server:
            server.execute_many([QUERY] * 3)
            summary = server.stats().summary()
        assert "queue depth" in summary
        assert "cancelled" in summary
        assert "p50" in summary and "p99" in summary

    def test_traced_server_attaches_trace(self, ssb_db):
        with Server(ssb_db, workers=1, queue_size=8) as server:
            with tracing():
                result = server.execute(QUERY)
            untraced = server.execute(QUERY)
        assert result.trace is not None
        categories = [span.category for span in result.timeline()]
        assert "queue" in categories
        assert "pipeline" in categories
        assert untraced.trace is None
