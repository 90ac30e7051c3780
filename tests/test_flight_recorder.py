"""Flight recorder: records, post-mortem bundles, deterministic replay.

The acceptance criteria live here: a failed scale-out query produces a
self-contained bundle whose replay reproduces the recorded error, and a
captured success bundle replays **byte-identically** (per-column sha256
checksums) — including under an armed fault plan.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.api import Session
from repro.errors import ConfigurationError, MorselExhaustedError
from repro.faults import FaultPlan
from repro.hardware.profiles import GTX970
from repro.serving import Server
from repro.telemetry import (
    FlightRecorder,
    replay_bundle,
    table_checksum,
    tracing,
    write_postmortem_bundle,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import BUNDLE_MANIFEST, FlightRecord
from repro.workloads import SSB_QUERIES

SSB_RECIPE = {"workload": "ssb", "scale_factor": 0.004, "seed": 7}


@pytest.fixture
def recorder(tmp_path):
    return FlightRecorder(
        postmortem_dir=str(tmp_path / "postmortems"),
        database_recipe=SSB_RECIPE,
    )


class TestFlightRecords:
    def test_ok_record_has_strategy_metrics_checksum(self, ssb_db, recorder):
        session = Session(ssb_db, engine="resolution", recorder=recorder)
        result = session.execute(SSB_QUERIES["q1.1"])
        record = recorder.last()
        assert record.status == "ok"
        assert record.sql == SSB_QUERIES["q1.1"]
        assert record.strategy["engine"] == "resolution"
        assert record.strategy["device"] == "GTX970"
        assert record.metrics["rows"] == result.table.num_rows
        assert record.metrics["sim_ms"] > 0
        assert record.metrics["kernel_launches"] > 0
        assert record.expected["checksum"] == table_checksum(result.table)
        # The record carries its own event-log tail.
        kinds = [event["kind"] for event in record.events]
        assert "query.executed" in kinds
        assert all(
            event["query"] == record.query_id for event in record.events
        )

    def test_per_request_engine_alias_reaches_the_record(self, ssb_db, recorder):
        """Regression: Server.submit turned the alias into an instance
        before enqueueing, so the flight (and its replay recipe) named
        the server default instead of the engine that ran."""
        with Server(ssb_db, workers=1, recorder=recorder) as server:
            server.submit(SSB_QUERIES["q1.1"], engine="multipass").result()
        assert recorder.last().strategy["engine"] == "multipass"
        session = Session(ssb_db, engine="resolution", recorder=recorder)
        session.execute(SSB_QUERIES["q1.1"], engine="multipass")
        assert recorder.last().strategy["engine"] == "multipass"

    def test_session_flight_notes_plan_identity(self, ssb_db, recorder):
        """Regression: only Server-side flights noted the plan
        fingerprint and the plan-cache outcome."""
        from repro.serving import PlanCache

        session = Session(ssb_db, plan_cache=PlanCache(), recorder=recorder)
        session.execute(SSB_QUERIES["q1.1"])
        session.execute(SSB_QUERIES["q1.1"])
        cold, warm = recorder.records()
        assert (cold.strategy["cache_hit"], warm.strategy["cache_hit"]) == (
            False, True,
        )
        assert cold.strategy["plan_fingerprint"] == warm.strategy["plan_fingerprint"]

    def test_ring_is_bounded(self, ssb_db, tmp_path):
        rec = FlightRecorder(
            capacity=2, postmortem_dir=str(tmp_path / "pm"),
        )
        session = Session(ssb_db, engine="resolution", recorder=rec)
        for _ in range(4):
            session.execute(SSB_QUERIES["q1.1"])
        assert len(rec.records()) == 2

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)

    @pytest.mark.parametrize("event_tail", [-1, True, 2.0, "8"])
    def test_event_tail_validated(self, event_tail):
        with pytest.raises(ConfigurationError, match=repr(event_tail)):
            FlightRecorder(event_tail=event_tail)
        FlightRecorder(event_tail=0)  # keep no events: allowed

    def test_events_are_numbered_as_flights_land(self, ssb_db, tmp_path):
        """``seq`` climbs across flights in landing order; a record keeps
        the newest ``event_tail`` of its query's events, and what it cuts
        is counted, as are the events per kind."""
        rec = FlightRecorder(event_tail=1, postmortem_dir=str(tmp_path / "pm"))
        session = Session(ssb_db, engine="resolution", recorder=rec)
        for name in ("q1.1", "q2.1"):
            session.execute(SSB_QUERIES[name])
        first, second = rec.records()
        assert (first.query_id, second.query_id) == ("q-000001", "q-000002")
        assert [event["seq"] for event in first.events + second.events] == [2, 4]
        assert [event["kind"] for event in second.events] == ["query.executed"]
        metrics = MetricsRegistry()
        rec.observe_metrics(metrics)
        text = metrics.render()
        assert 'repro_events_total{kind="query.planned"} 2' in text
        assert "repro_events_dropped_total 2" in text

    def test_concurrent_landings_number_every_event_once(self, tmp_path):
        """Server workers land flights on one recorder at once: every
        flight gets its own id, every event one ``seq``, the ring keeps
        landing order and the per-kind counts add up."""
        import sys
        import threading

        from repro.telemetry.events import Event

        rec = FlightRecorder(capacity=1000, postmortem_dir=str(tmp_path))
        events = [Event(1, 0.0, "query.planned", None), Event(2, 0.0, "query.executed", None)]

        def worker():
            for _ in range(100):
                flight = rec.start("select 1")
                rec.fail(flight, RuntimeError("boom"), events, write_bundle=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        records = rec.records()
        assert len({record.query_id for record in records}) == 400
        landed = [event["seq"] for record in records for event in record.events]
        assert landed == list(range(1, 801))
        assert all(
            {event["query"] for event in record.events} == {record.query_id}
            for record in records
        )
        metrics = MetricsRegistry()
        rec.observe_metrics(metrics)
        assert 'repro_events_total{kind="query.planned"} 400' in metrics.render()

    def test_jsonl_export(self, ssb_db, recorder):
        session = Session(ssb_db, engine="resolution", recorder=recorder)
        session.execute(SSB_QUERIES["q1.1"])
        lines = recorder.jsonl().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "ok"

    def test_observe_metrics(self, ssb_db, recorder):
        session = Session(ssb_db, engine="resolution", recorder=recorder)
        session.execute(SSB_QUERIES["q1.1"])
        metrics = MetricsRegistry()
        recorder.observe_metrics(metrics)
        text = metrics.render()
        assert "repro_flights_total 1" in text
        assert "repro_postmortems_total 0" in text
        assert 'repro_events_total{kind="query.executed"} 1' in text


class TestFailureBundle:
    """A genuinely failing scale-out query writes a replayable bundle."""

    @pytest.fixture
    def tiny_profile(self):
        # 120 KB of device memory: the build sides fit, every fact
        # morsel fails with a genuine (non-injected) OOM on every
        # device, which exhausts the morsel blacklist ->
        # MorselExhaustedError (the host fallback only engages on
        # device *loss*).
        return replace(GTX970, name="tiny970", memory_capacity=120_000)

    def test_failed_query_writes_bundle(self, ssb_db, recorder, tiny_profile):
        session = Session(
            ssb_db, engine="resolution", device=tiny_profile, devices=2,
            recorder=recorder,
        )
        with tracing(), pytest.raises(MorselExhaustedError):
            session.execute(SSB_QUERIES["q2.1"])
        record = recorder.last()
        assert record.status == "failed"
        assert record.error_type == "MorselExhaustedError"
        assert record.expected == {
            "status": "failed", "error_type": "MorselExhaustedError",
        }
        bundle = record.strategy["bundle"]
        assert os.path.isdir(bundle)
        assert recorder.postmortems == 1
        manifest = json.load(open(os.path.join(bundle, BUNDLE_MANIFEST)))
        assert manifest["bundle_version"] == 1
        assert manifest["replay"]["sql"] == SSB_QUERIES["q2.1"]
        assert manifest["replay"]["database"] == SSB_RECIPE
        assert manifest["replay"]["devices"] == 2
        assert "events.jsonl" in manifest["contents"]
        # The bundled events: what the morsels run before the failure
        # noted, then the terminal failure event.
        lines = open(os.path.join(bundle, "events.jsonl")).read().splitlines()
        events = [json.loads(line) for line in lines]
        kinds = [event["kind"] for event in events]
        assert "morsel.redistributed" in kinds
        assert kinds.index("morsel.redistributed") < len(kinds) - 1
        last = events[-1]
        assert last["kind"] == "query.executed"
        assert last["attrs"]["status"] == "failed"
        assert last["attrs"]["error"] == "MorselExhaustedError"
        # The bundled trace weaves the devices' partial record.
        trace = json.load(open(os.path.join(bundle, "trace.json")))
        categories = [event.get("cat") for event in trace["traceEvents"]]
        assert "kernel" in categories and "transfer" in categories
        assert "redistribute" in [event["name"] for event in trace["traceEvents"]]

    def test_replay_reproduces_the_failure(self, ssb_db, recorder, tiny_profile):
        session = Session(
            ssb_db, engine="resolution", device=tiny_profile, devices=2,
            recorder=recorder,
        )
        with pytest.raises(MorselExhaustedError):
            session.execute(SSB_QUERIES["q2.1"])
        bundle = recorder.last().strategy["bundle"]
        report = replay_bundle(bundle, device=tiny_profile)
        assert report.matched
        assert "MorselExhaustedError" in report.observed_status
        assert "MATCH" in report.render()

    def test_server_failure_writes_bundle(self, ssb_db, recorder, tiny_profile):
        with Server(
            ssb_db, device=tiny_profile, devices=2, workers=1,
            queue_size=4, recorder=recorder,
        ) as server:
            with pytest.raises(MorselExhaustedError):
                server.execute(SSB_QUERIES["q2.1"])
        record = recorder.last()
        assert record.status == "failed"
        assert os.path.isdir(record.strategy["bundle"])
        # Recorder counters surface in the server's exposition.
        with Server(
            ssb_db, device=tiny_profile, workers=1, queue_size=4,
            recorder=recorder,
        ) as server:
            text = server.metrics_text()
        assert "repro_postmortems_total 1" in text


class TestByteIdenticalReplay:
    def test_capture_and_replay_fault_free(self, ssb_db, recorder):
        session = Session(ssb_db, engine="resolution", recorder=recorder)
        session.execute(SSB_QUERIES["q3.2"])
        bundle = recorder.capture(recorder.last(), name="ok-plain")
        report = replay_bundle(bundle)
        assert report.matched
        assert any("byte-identical" in detail for detail in report.details)

    def test_capture_and_replay_under_fault_plan(self, ssb_db, recorder):
        """Success bundles replay byte-identically even when the replay
        re-runs the whole recovery dance (deterministic fault plan)."""
        plan = FaultPlan.generate(seed=303, devices=2, morsels=8)
        session = Session(
            ssb_db, engine="resolution", devices=2, fault_plan=plan,
            recorder=recorder,
        )
        session.execute(SSB_QUERIES["q4.1"])
        record = recorder.last()
        assert record.status == "ok"
        bundle = recorder.write_bundle(
            record, fault_plan=plan, name="ok-faulted",
        )
        assert os.path.exists(os.path.join(bundle, "fault_plan.json"))
        report = replay_bundle(bundle)
        assert report.matched, report.render()

    def test_replay_rebuilds_compression_and_residency(
        self, ssb_db, recorder, monkeypatch
    ):
        """Regression: the recipe dropped ``compression`` and
        ``residency``, so a compressed / pooled flight replayed on a
        different code path.  ``"lazy"`` is recorded as the policy it
        resolves to; a bundle written while it was a mode of its own
        still replays.  Bundles without the keys (written before they
        were recorded) replay at the Session defaults."""
        import repro.api

        built = []

        class SpySession(Session):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        session = Session(
            ssb_db, compression="lazy", residency=True, recorder=recorder
        )
        session.execute(SSB_QUERIES["q1.1"])
        record = recorder.last()
        assert record.strategy["compression"] == "auto"
        assert record.strategy["residency"] is True
        bundle = recorder.capture(record, name="lazy-pooled")
        monkeypatch.setattr(repro.api, "Session", SpySession)
        assert replay_bundle(bundle).matched
        assert built[-1]["compression"] == "auto"
        assert built[-1]["residency"] is True

        manifest_path = os.path.join(bundle, BUNDLE_MANIFEST)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["replay"]["compression"] = "lazy"  # an older bundle
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        assert replay_bundle(bundle).matched
        assert built[-1]["compression"] == "lazy"
        for key in ("compression", "residency"):
            del manifest["replay"][key]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        assert replay_bundle(bundle).matched
        assert "compression" not in built[-1] and "residency" not in built[-1]
        replayed = SpySession(ssb_db, **built[-1])
        assert replayed.compression is None and replayed.pool is None

    def test_trace_rides_along_in_bundle(self, ssb_db, recorder):
        session = Session(ssb_db, engine="resolution", recorder=recorder)
        with tracing():
            result = session.execute(SSB_QUERIES["q1.1"])
        bundle = recorder.write_bundle(
            recorder.last(), trace=result.trace, name="with-trace",
        )
        trace = json.load(open(os.path.join(bundle, "trace.json")))
        assert trace["traceEvents"], "Chrome trace has events"

    def test_replay_detects_checksum_divergence(self, ssb_db, recorder, tmp_path):
        session = Session(ssb_db, engine="resolution", recorder=recorder)
        session.execute(SSB_QUERIES["q1.1"])
        record = recorder.last()
        # Corrupt the recorded checksum: replay must flag the column.
        tampered = dict(record.expected)
        tampered["checksum"] = {
            column: "0" * 64 for column in record.expected["checksum"]
        }
        record.expected = tampered
        bundle = recorder.capture(record, name="tampered")
        report = replay_bundle(bundle)
        assert not report.matched
        assert any("recorded" in detail for detail in report.details)


class TestReplayErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read bundle"):
            replay_bundle(str(tmp_path / "nope"))

    def test_bundle_without_sql(self, tmp_path):
        record = FlightRecord(
            query_id="q-1", sql=None, status="ok", started_at=0.0,
        )
        bundle = write_postmortem_bundle(
            str(tmp_path), record, replay={"seed": 42}, name="nosql",
        )
        with pytest.raises(ConfigurationError, match="no replayable SQL"):
            replay_bundle(bundle)

    def test_bundle_without_database_recipe(self, tmp_path):
        record = FlightRecord(
            query_id="q-1", sql="SELECT 1", status="ok", started_at=0.0,
        )
        bundle = write_postmortem_bundle(
            str(tmp_path), record,
            replay={"sql": "SELECT 1", "seed": 42}, name="nodb",
        )
        with pytest.raises(ConfigurationError, match="data-dir"):
            replay_bundle(bundle)

    def test_data_dir_override(self, ssb_db, recorder, tmp_path):
        from repro.storage import save_database

        directory = str(tmp_path / "db")
        save_database(ssb_db, directory)
        session = Session(ssb_db, engine="resolution", recorder=recorder)
        session.execute(SSB_QUERIES["q1.1"])
        bundle = recorder.capture(recorder.last(), name="from-disk")
        report = replay_bundle(bundle, data_dir=directory)
        assert report.matched
