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
from collections import Counter
from pathlib import Path

import pytest

from repro.api import Session
from repro.errors import MorselExhaustedError
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import GTX970
from repro.placement.executor import base_column_bytes
from repro.plan import extract_pipelines
from repro.telemetry import FlightRecorder, tracing
from repro.workloads import SSB_QUERIES
from repro.workloads.ssb import ssb_plan

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


# ----------------------------------------------------------------------
# the trace pin: what each span is called and where it hangs
# ----------------------------------------------------------------------
#: Per run, the Chrome trace's ``(name, cat)`` multiset and each span's
#: parent name.  ``python tests/test_trace_schema.py --write`` re-records
#: it; do that only for a change that means to move the trace.
PINNED_PATH = Path(__file__).parent / "trace_pinned.json"


def _pinned_runs(database, tmp_dir):
    """``(run, QueryTrace, Chrome trace)`` of each pinned run."""
    q21 = SSB_QUERIES["q2.1"]
    session = Session(database, engine="resolution", residency=True)
    for warmth in ("cold", "warm"):
        with tracing():
            result = session.execute(q21)
        yield f"resolution pooled {warmth}", result.trace

    with tracing():
        result = Session(database, engine="auto").execute(SSB_QUERIES["q3.1"])
    yield "auto", result.trace

    lost = FaultPlan([FaultSpec("device-loss", device=1, op="build")])
    session = Session(database, engine="resolution", devices=3, fault_plan=lost)
    with tracing():
        result = session.execute(q21)
    assert result.scaleout.recovery.degraded_devices == [1]
    yield "fleet device 1 lost", result.trace

    need = base_column_bytes(extract_pipelines(ssb_plan("q2.1", database), database), database)
    small = GTX970.with_overrides(name="small", memory_capacity=int(need * 1.05))
    session = Session(database, engine="resolution", residency=True, device=small)
    with tracing():
        result = session.execute(q21)
    assert result.placement.out_of_core
    yield "pooled oom to out-of-core", result.trace

    recorder = FlightRecorder(postmortem_dir=str(tmp_dir))
    traces = []
    fail = recorder.fail
    recorder.fail = lambda *args, **kwargs: traces.append(kwargs["trace"]) or fail(*args, **kwargs)
    tiny = GTX970.with_overrides(name="tiny970", memory_capacity=20_000)
    session = Session(database, engine="resolution", device=tiny, devices=2, recorder=recorder)
    with tracing(), pytest.raises(MorselExhaustedError):
        session.execute(q21)
    bundle = recorder.last().strategy["bundle"]
    with open(Path(bundle) / "trace.json") as source:
        yield "failed bundle", traces[0], json.load(source)


def _shape(trace, chrome=None) -> dict:
    chrome = trace.chrome_trace() if chrome is None else chrome
    events = Counter(
        f"{event.get('cat', '')}:{event['name']}" for event in chrome["traceEvents"]
    )
    parents = Counter(
        f"{span.name} < {child.name}" for span in trace.timeline() for child in span.children
    )
    return {"chrome": dict(sorted(events.items())), "parents": dict(sorted(parents.items()))}


def _observe_pinned(database, tmp_dir) -> dict:
    return {run[0]: _shape(*run[1:]) for run in _pinned_runs(database, tmp_dir)}


def test_trace_pin(ssb_db_module, tmp_path):
    """Every pinned run's spans: same names, categories and parents."""
    pinned = json.loads(PINNED_PATH.read_text())
    observed = _observe_pinned(ssb_db_module, tmp_path)
    assert list(observed) == list(pinned)
    for run, shape in observed.items():
        for part in ("chrome", "parents"):
            got, want = Counter(shape[part]), Counter(pinned[run][part])
            assert got == want, (run, part, got - want, want - got)


if __name__ == "__main__":
    import sys
    import tempfile

    from repro.workloads import generate_ssb

    if "--write" in sys.argv:
        with tempfile.TemporaryDirectory() as tmp_dir:
            shapes = _observe_pinned(generate_ssb(scale_factor=0.004, seed=7), tmp_dir)
        PINNED_PATH.write_text(json.dumps(shapes, indent=0) + "\n")
        print(f"wrote {PINNED_PATH}")
