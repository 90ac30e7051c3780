"""Structured events: the JSONL form, and the events of each query.

Unit tests for :mod:`repro.telemetry.events` plus integration checks
that each query's events are read off its own record and result —
Session planning and execution, Server admission, scale-out fault
recovery, placement eviction, the adaptive optimizer — and land in the
flight recorder of the session that ran it, and in no other.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Session
from repro.faults import FaultPlan
from repro.serving import Server
from repro.telemetry import FlightRecorder
from repro.telemetry.events import Event, load_jsonl
from repro.workloads import SSB_QUERIES


def _kinds(events) -> list:
    return [event.kind for event in events]


class TestEventLog:
    def test_jsonl_round_trip(self, tmp_path):
        event = Event(7, 1.5, "query.executed", "q-7", {"status": "ok", "rows": 3})
        path = tmp_path / "events.jsonl"
        path.write_text(event.to_json() + "\n")
        events = load_jsonl(str(path))
        assert events == [event]
        assert events[0].attrs == {"status": "ok", "rows": 3}

    def test_load_jsonl_names_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: malformed"):
            load_jsonl(str(path))

    def test_load_jsonl_rejects_non_event_objects(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(ValueError, match="malformed event line"):
            load_jsonl(str(path))

    def test_attrs_coerced_to_json_types(self):
        event = Event(1, 0.0, "k", None, dict(
            count=np.int64(3), share=np.float64(0.5), devices=(0, 1),
        ))
        data = json.loads(event.to_json())
        assert data["attrs"] == {"count": 3, "share": 0.5, "devices": [0, 1]}


class TestSessionEmission:
    def test_planned_and_executed_events(self, fresh_ssb):
        session = Session(fresh_ssb, engine="resolution")
        events = session.execute(SSB_QUERIES["q1.1"]).events()
        assert _kinds(events) == ["query.planned", "query.executed"]
        planned, executed = events
        assert planned.attrs["cache_hit"] is False
        assert executed.attrs["status"] == "ok"
        assert [event.seq for event in events] == [1, 2]
        assert all(event.query is None for event in events)  # no recorder

    def test_optimizer_decision_event(self, ssb_db):
        session = Session(ssb_db, engine="auto")
        events = session.execute(SSB_QUERIES["q1.1"]).events()
        assert _kinds(events) == [
            "query.planned", "optimizer.decision", "query.executed",
        ]
        decision = events[1]
        assert "strategy" in decision.attrs
        assert decision.attrs["predicted_ms"] >= 0

    def test_fault_events_carry_correlation_id(self, ssb_db, tmp_path):
        """A recorded flight stamps its query id on every event of the
        query, the fleet's fault events included."""
        plan = FaultPlan.generate(seed=101, devices=2, morsels=8)
        recorder = FlightRecorder(postmortem_dir=str(tmp_path))
        session = Session(
            ssb_db, engine="resolution", devices=2, fault_plan=plan,
            recorder=recorder,
        )
        result = session.execute(SSB_QUERIES["q2.1"])
        record = recorder.last()
        fired = [event for event in record.events if event["kind"] == "fault.fired"]
        assert fired, "the seed-101 plan fires at least once"
        assert record.query_id == "q-000001"
        assert all(event["query"] == record.query_id for event in record.events)
        assert [event["kind"] for event in record.events] == _kinds(result.events())

    def test_placement_eviction_event(self, ssb_db):
        from dataclasses import replace

        from repro.hardware.profiles import GTX970

        # A pool small enough that residency must evict between queries.
        tiny = replace(GTX970, name="tiny-pool", memory_capacity=600_000)
        session = Session(ssb_db, engine="resolution", device=tiny,
                          residency=True)
        evictions = [
            event
            for name in ("q1.1", "q2.1", "q3.2")
            for event in session.execute(SSB_QUERIES[name]).events()
            if event.kind == "placement.evicted"
        ]
        assert evictions
        assert all("bytes" in event.attrs for event in evictions)
        assert len(evictions) == session.placement_stats().evictions


class TestServerEmission:
    def test_admitted_planned_executed(self, ssb_db):
        with Server(ssb_db, workers=2, queue_size=8) as server:
            results = server.execute_many([SSB_QUERIES["q1.1"], SSB_QUERIES["q2.1"]])
        for result in results:
            events = result.events()
            assert _kinds(events) == [
                "query.admitted", "query.planned", "query.executed",
            ]
            admitted = events[0]
            assert 1 <= admitted.attrs["queue_depth"] <= 8
            assert admitted.attrs["queue_capacity"] == 8
            assert events[-1].attrs["worker"] == result.serving.worker

    def test_cache_hit_flag_on_repeat(self, fresh_ssb):
        with Server(fresh_ssb, workers=1, queue_size=4) as server:
            results = [server.execute(SSB_QUERIES["q1.1"]) for _ in range(2)]
        planned = [result.events()[1] for result in results]
        assert [event.kind for event in planned] == ["query.planned"] * 2
        assert [event.attrs["cache_hit"] for event in planned] == [False, True]


class TestRecordIsolation:
    def test_each_recorder_holds_its_own_queries_events(self, ssb_db, tmp_path):
        """Regression: every recorder installed its event log as the one
        process-wide sink, so the last recorder built took the events of
        every session's queries and the others recorded none."""
        first = FlightRecorder(postmortem_dir=str(tmp_path / "a"))
        second = FlightRecorder(postmortem_dir=str(tmp_path / "b"))
        mine = Session(ssb_db, engine="resolution", recorder=first)
        theirs = Session(ssb_db, engine="resolution", recorder=second)
        mine.execute(SSB_QUERIES["q1.1"])
        theirs.execute(SSB_QUERIES["q2.1"])
        # A session without a recorder lands nothing anywhere.
        Session(ssb_db, engine="resolution").execute(SSB_QUERIES["q3.1"])
        for recorder, sql in ((first, "q1.1"), (second, "q2.1")):
            [record] = recorder.records()
            assert record.sql == SSB_QUERIES[sql]
            assert [event["kind"] for event in record.events] == [
                "query.planned", "query.executed",
            ]
            assert {event["query"] for event in record.events} == {record.query_id}
            assert [event["seq"] for event in record.events] == [1, 2]
            assert recorder.events_jsonl().count("\n") == 2
