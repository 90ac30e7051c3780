"""Chrome trace-event export: schema validation.

A generic validator over the trace-event JSON format (the subset
Perfetto/chrome://tracing require), applied to the gnarliest trace the
runtime produces: a scale-out query under an armed fault plan, where
retries, redistribution waves, and per-device lanes all emit spans.

Checks: required keys per phase type, non-negative timestamps and
durations, per-track monotonicity of the simulated lanes (the sim
cursor only moves forward), begin/end pairing for any duration events,
and interval containment (proper nesting) on every track.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.faults import FaultPlan
from repro.telemetry import tracing
from repro.workloads import SSB_QUERIES

#: Required keys by phase type ("X" complete, "M" metadata, "B"/"E"
#: duration, "i" instant) — the fields the viewers actually need.
_REQUIRED = {
    "X": ("name", "cat", "ts", "dur", "pid", "tid"),
    "B": ("name", "ts", "pid", "tid"),
    "E": ("ts", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid"),
    "M": ("name", "pid", "args"),
}


def validate_chrome_trace(trace: dict) -> list:
    """Validate a Chrome trace-event object; returns the 'X' events."""
    assert isinstance(trace, dict)
    assert trace.get("displayTimeUnit") in ("ms", "ns")
    events = trace["traceEvents"]
    assert isinstance(events, list) and events

    depth: dict = {}
    for event in events:
        ph = event.get("ph")
        assert ph in _REQUIRED, f"unknown phase {ph!r} in {event}"
        for key in _REQUIRED[ph]:
            assert key in event, f"{ph} event missing {key!r}: {event}"
        if ph in ("X", "B", "E", "i"):
            assert event["ts"] >= 0, event
        if ph == "X":
            assert event["dur"] >= 0, event
        # Duration events must pair up per track, never closing early.
        if ph == "B":
            track = (event["pid"], event["tid"])
            depth[track] = depth.get(track, 0) + 1
        elif ph == "E":
            track = (event["pid"], event["tid"])
            depth[track] = depth.get(track, 0) - 1
            assert depth[track] >= 0, f"E without B on track {track}"
    assert all(count == 0 for count in depth.values()), "unclosed B events"
    return [event for event in events if event["ph"] == "X"]


def assert_tracks_nest(complete_events: list) -> None:
    """On every (pid, tid) track, 'X' intervals either nest or are
    disjoint — partial overlap renders as garbage in the viewers."""
    tracks: dict = {}
    for event in complete_events:
        tracks.setdefault((event["pid"], event["tid"]), []).append(
            (event["ts"], event["ts"] + event["dur"])
        )
    epsilon = 1e-3  # export rounds to 3 decimals (microseconds)
    for track, intervals in tracks.items():
        intervals.sort()
        for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
            disjoint = b0 >= a1 - epsilon
            nested = b1 <= a1 + epsilon
            assert disjoint or nested, (
                f"partial overlap on track {track}: "
                f"({a0}, {a1}) vs ({b0}, {b1})"
            )


def assert_sim_tracks_monotonic(complete_events: list) -> None:
    """Simulated lanes are laid end-to-end by a forward-only cursor:
    in emission order, each sim event starts at or after the previous
    event's start on the same track."""
    cursors: dict = {}
    seen = 0
    for event in complete_events:
        if not event["cat"].startswith("sim_"):
            continue
        seen += 1
        track = (event["pid"], event["tid"])
        last = cursors.get(track, -1.0)
        assert event["ts"] >= last - 1e-3, (
            f"sim track {track} went backwards: {event['ts']} < {last}"
        )
        cursors[track] = event["ts"]
    assert seen, "no simulated-lane events in trace"


@pytest.fixture(scope="module")
def faulted_trace(ssb_db_module):
    """A scale-out + fault-plan query's Chrome trace (the recovery
    machinery exercises retries and redistribution events)."""
    plan = FaultPlan.generate(seed=101, devices=2, morsels=8)
    session = Session(
        ssb_db_module, engine="resolution", devices=2, fault_plan=plan,
    )
    with tracing():
        result = session.execute(SSB_QUERIES["q2.1"])
    recovery = result.scaleout.recovery
    assert recovery is not None and recovery.faulted
    return result.trace


@pytest.fixture(scope="module")
def ssb_db_module():
    from repro.workloads import generate_ssb

    return generate_ssb(scale_factor=0.004, seed=7)


class TestChromeTraceSchema:
    def test_faulted_scaleout_trace_validates(self, faulted_trace):
        complete = validate_chrome_trace(faulted_trace.chrome_trace())
        assert_tracks_nest(complete)
        assert_sim_tracks_monotonic(complete)

    def test_device_lanes_present(self, faulted_trace):
        trace = faulted_trace.chrome_trace()
        labels = [
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        ]
        assert any("host" in label for label in labels)
        assert any("simulated" in label for label in labels)

    def test_device_lane_leaves_show_host_time(self, faulted_trace):
        """Kernel and transfer spans are read from the query record:
        on each device's *host* lane they last as long as the host took
        to produce them (they were zero-duration points), and every one
        also sits on that device's simulated lane."""
        events = validate_chrome_trace(faulted_trace.chrome_trace())
        lanes = {
            event["tid"] for event in events if event["cat"] == "device"
        }
        assert len(lanes) == 2
        for host_tid in lanes:
            kernels = [
                e for e in events if e["tid"] == host_tid and e["cat"] == "kernel"
            ]
            assert kernels and all(e["dur"] > 0 for e in kernels)
            simulated = [
                e for e in events
                if e["tid"] == host_tid + 1 and e["cat"] == "sim_kernel"
            ]
            assert [e["name"] for e in simulated] == [e["name"] for e in kernels]

    def test_fault_events_appear_on_trace(self, faulted_trace):
        trace = faulted_trace.chrome_trace()
        categories = {
            event["cat"]
            for event in trace["traceEvents"]
            if event["ph"] == "X"
        }
        assert "fault" in categories or "sim_fault" in categories

    def test_json_round_trips(self, faulted_trace):
        parsed = json.loads(faulted_trace.chrome_json())
        validate_chrome_trace(parsed)

    def test_plain_session_trace_validates(self, ssb_db):
        session = Session(ssb_db, engine="resolution")
        with tracing():
            result = session.execute(SSB_QUERIES["q1.1"])
        complete = validate_chrome_trace(result.trace.chrome_trace())
        assert_tracks_nest(complete)
        assert_sim_tracks_monotonic(complete)
