"""Hierarchical span tracing for query execution.

The paper argues entirely from profiler timelines (nvprof/CodeXL);
this module is the reproduction's equivalent of that tooling: a
:class:`QueryTrace` is a tree of :class:`Span` objects per query —

::

    query
    ├─ queue_wait                (a server's admission queue)
    ├─ plan                      (SQL parse + pipeline extraction)
    ├─ pipeline[0] ...
    │   ├─ compile <kernel>      (kernel lookup; cache_hit attr)
    │   ├─ placement <col>       (buffer-pool hit/miss)
    │   ├─ transfer <col>        (h2d, simulated ms as attr)
    │   └─ kernel <name>         (launch; traffic counters as attrs)
    ├─ pipeline[1] ...
    └─ finalize                  (result assembly, d2h)

Every span is read off what the query keeps anyway: the root,
``queue_wait`` and ``plan`` off its
:class:`~repro.serving.ServingStats`, the rest off its query record
(:class:`~repro.hardware.traffic.Profile`) — pipeline records,
launches, transfers, stalls, recovery events, and the host phases the
record times where they happen (kernel lookups, pool acquisitions,
fault firings, a fleet's ``partition`` / ``device[i]`` / ``merge``) —
woven in when the tree is first read.

Spans carry **host wall-clock** timestamps (``start_us``/``end_us``,
microseconds since the query began) for nesting, plus **simulated
device time** and the :class:`~repro.hardware.traffic.TrafficMeter`
byte/atomic counters as attributes.  A finished trace exports as
Chrome trace-event JSON (loadable in Perfetto / ``about://tracing``)
or as JSONL, one span per line.

Tracing is **off by default**; :func:`tracing` turns it on, and a
query that starts with it on carries a trace (``Session._execute``
reads the flag once, when the query starts).
"""

from __future__ import annotations

import bisect
import contextlib
import json
import operator
import time
from dataclasses import dataclass, field

from ..hardware.traffic import KernelTrace, MemoryLevel
from .events import _jsonable

__all__ = ["QueryTrace", "Span", "tracing", "tracing_enabled"]

#: Module-level enable flag, read once per query.
_enabled = False


def tracing_enabled() -> bool:
    return _enabled


@contextlib.contextmanager
def tracing(on: bool = True):
    """Temporarily enable (or disable) tracing::

        with tracing():
            result = session.execute(sql)
        result.trace.chrome_json()
    """
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous


@dataclass
class Span:
    """One node of a query trace.

    ``start_us``/``end_us`` are host wall-clock microseconds since the
    query began; simulated device milliseconds (when
    the span covers device work) live in ``attrs["sim_ms"]``.
    """

    name: str
    category: str
    start_us: float
    end_us: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    @property
    def sim_ms(self) -> float:
        """Simulated device milliseconds covered by this span (0 for
        pure host phases)."""
        return float(self.attrs.get("sim_ms", 0.0))

    def walk(self):
        """Depth-first pre-order iteration over this span and its
        descendants — document order of the trace."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, category: str) -> list["Span"]:
        return [span for span in self.walk() if span.category == category]

    def to_dict(self, depth: int = 0) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "start_us": round(self.start_us, 3),
            "duration_us": round(self.duration_us, 3),
            "depth": depth,
            "attrs": {key: _jsonable(value) for key, value in self.attrs.items()},
        }


class QueryTrace:
    """A per-query span tree, attached as ``ExecutionResult.trace`` when
    the query started with tracing on: the root (attributes
    ``origin``), ``queue_wait`` and ``plan`` spans of ``serving`` (its
    :class:`~repro.serving.ServingStats`), and — woven in on first read
    — the spans of ``profile``, its query record (none: a query that
    failed before it reached a device)."""

    def __init__(self, serving, profile=None, **origin):
        self._epoch = serving.started
        self._root = Span("query", "query", 0.0, self._micros(time.perf_counter()), origin)
        if serving.worker >= 0:
            wait = dict(wait_ms=serving.queue_wait_ms, sim_ms=0.0)
            self._root.children.append(Span("queue_wait", "queue", 0.0, 0.0, wait))
        if serving.planned_at:
            planned = self._micros(serving.planned_at)
            hit = {"cache_hit": bool(serving.plan_cache_hit)}
            self._root.children.append(
                Span("plan", "plan", planned - serving.plan_ms * 1e3, planned, hit)
            )
        self._profile = profile

    def _micros(self, seconds: float) -> float:
        """A host clock reading as microseconds since the query began."""
        return (seconds - self._epoch) * 1e6

    @property
    def root(self) -> Span:
        profile, self._profile = self._profile, None
        if profile is not None:
            _weave(self._root, profile, self._micros)
        return self._root

    def timeline(self) -> list[Span]:
        """All spans in document (depth-first, start-time) order."""
        return list(self.root.walk())

    def spans(self, category: str | None = None) -> list[Span]:
        if category is None:
            return self.timeline()
        return self.root.find(category)

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event object (Perfetto-loadable).

        Two tracks are emitted per lane: ``host`` carries the span tree
        on host wall-clock time (complete ``"X"`` events, nesting by
        interval containment), and ``device (simulated)`` lays the
        kernel and transfer events out serially on the simulated device
        clock so the paper's modeled timeline is visible next to the
        host one.

        Scale-out traces carry a ``device_lane`` attribute on each
        per-device subtree (the executor's ``device[i]`` spans); such
        subtrees render on their own host + simulated track pair: the
        host tracks show the devices simulated one after another, the
        simulated tracks the modeled concurrent clocks.  Single-device
        traces have no
        ``device_lane`` anywhere and keep the original two tracks.
        """
        events: list[dict] = [
            _meta("process_name", {"name": "repro"}),
            _meta("thread_name", {"name": "host"}, tid=_HOST_TID),
            _meta("thread_name", {"name": "device (simulated)"}, tid=_DEVICE_TID),
        ]
        named_lanes: set[int] = set()

        def lane_tids(lane: int | None) -> tuple[int, int]:
            """(host tid, simulated tid) for a device lane."""
            if lane is None:
                return _HOST_TID, _DEVICE_TID
            tids = _LANE_BASE + 2 * lane, _LANE_BASE + 2 * lane + 1
            if lane not in named_lanes:
                named_lanes.add(lane)
                for tid, track in zip(tids, ("host", "(simulated)")):
                    name = {"name": f"device[{lane}] {track}"}
                    events.append(_meta("thread_name", name, tid=tid))
            return tids

        def complete(span: Span, category: str, ts: float, dur: float, tid: int) -> None:
            events.append(
                {
                    "name": span.name,
                    "cat": category,
                    "ph": "X",
                    "ts": round(ts, 3),
                    "dur": dur,
                    "pid": _PID,
                    "tid": tid,
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )

        # (span, lane) in document order; lanes inherit down the tree.
        placed: list[tuple[Span, int | None]] = []

        def place(span: Span, lane: int | None) -> None:
            lane = span.attrs.get("device_lane", lane)
            placed.append((span, lane))
            for child in span.children:
                place(child, lane)

        place(self.root, None)
        for span, lane in placed:
            complete(
                span, span.category, span.start_us, round(span.duration_us, 3),
                lane_tids(lane)[0],
            )
        # Each lane's simulated clock starts where its subtree starts
        # (device clocks run concurrently); the default lane starts at
        # the query root.  The cursor advances by the *rounded* duration
        # so consecutive exported events abut exactly — rounding ts and
        # dur independently of the cursor can make neighbours appear to
        # overlap by more than the export precision.
        cursors: dict[int | None, float] = {None: round(self.root.start_us, 3)}
        for span, lane in placed:
            if span.category not in ("kernel", "transfer"):
                continue
            if lane not in cursors:
                cursors[lane] = round(span.start_us, 3)
            dur_us = round(span.sim_ms * 1e3, 3)
            complete(span, f"sim_{span.category}", cursors[lane], dur_us, lane_tids(lane)[1])
            cursors[lane] += dur_us
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def chrome_json(self, indent: int | None = None) -> str:
        return json.dumps(self.chrome_trace(), indent=indent)

    def jsonl(self) -> str:
        """One JSON object per span, pre-order, with nesting depth."""
        lines = []
        stack = [(self.root, 0)]
        while stack:
            span, depth = stack.pop()
            lines.append(json.dumps(span.to_dict(depth)))
            for child in reversed(span.children):
                stack.append((child, depth + 1))
        return "\n".join(lines) + "\n"


def _weave(root: Span, profile, micros) -> None:
    """Hang the query record ``profile`` into the span tree in host-time
    order (``micros`` turns its clock into the tree's), each span under
    the innermost span running when it began.  A pipeline / ``finalize``
    record and a timed host phase (a fleet's ``device[i]``) last their
    interval; a kernel lookup and a host point (a pool acquisition, a
    fault firing) stay points; a launch, a transfer, a stall and a
    recovery event (a retry, a lost device, a redistribution, the host
    fallback) last from the end of the span before them to the moment
    they were logged."""
    timed = [
        _record_span(record, micros(record.started), micros(record.ended))
        for record in profile.pipelines
    ] + [
        Span(name, category, micros(started), micros(ended),
             dict(attrs, sim_ms=0.0) if started == ended else dict(attrs))
        for started, ended, name, category, attrs in profile.phases
    ] + [_lookup_span(lookup, micros(lookup.at)) for lookup in profile.lookups]
    logged = [_leaf(entry, micros(entry.at)) for entry in profile.entries] + [
        Span(_FAULT_SPANS[kind].format(**attrs), "fault", micros(at), micros(at),
             dict(attrs, sim_ms=0.0))
        for at, kind, attrs in profile.events
        if kind in _FAULT_SPANS
    ]
    spans = [(span, False) for span in timed] + [(span, True) for span in logged]
    for span, stretch in sorted(spans, key=lambda pair: pair[0].start_us):
        parent = root
        while True:
            siblings = parent.children
            at = bisect.bisect_right(siblings, span.start_us, key=_START_US)
            if not at or span.start_us >= siblings[at - 1].end_us:
                break
            parent = siblings[at - 1]
        if stretch:
            # At least one export tick inside its parent: a viewer that
            # sorts intervals by (start, end) keeps the parent outside.
            before = siblings[at - 1].end_us if at else parent.start_us + 1e-3
            span.start_us = min(before, span.end_us)
        siblings.insert(at, span)


_START_US = operator.attrgetter("start_us")
#: The record's events a trace shows, as ``fault`` spans of these names.
_FAULT_SPANS = {
    "morsel.retry": "retry p{morsel}",
    "device.lost": "device {device} lost",
    "morsel.redistributed": "redistribute",
    "fallback.host": "host fallback",
}


def _record_span(record, start_us: float, end_us: float) -> Span:
    """A pipeline's (or ``finalize``'s) row of the query record as a
    span: what EXPLAIN ANALYZE prints of it, as attributes."""
    if record.pipeline is None:
        category, attrs = "finalize", {"rows": record.rows_out}
    else:
        category, pipeline = "pipeline", record.pipeline
        attrs = dict(
            shape=record.shape, source=pipeline.source, sink=pipeline.output_name
        )
        if record.resident:
            attrs["resident"] = True
        if record.fused_into is not None:
            attrs["fused_into"] = f"pipeline[{record.fused_into}]"
        attrs.update(rows_in=record.rows_in, rows_out=record.rows_out)
    attrs.update(
        kernels=len(record.kernels),
        global_bytes=record.bytes_at(MemoryLevel.GLOBAL),
        onchip_bytes=record.bytes_at(MemoryLevel.ONCHIP),
        atomics=record.atomic_count,
        pcie_bytes=record.transfer_bytes(),
        kernel_ms=record.kernel_time_ms,
        sim_ms=record.total_time_ms,
    )
    return Span(record.name, category, start_us, end_us, attrs)


def _lookup_span(lookup, at_us: float) -> Span:
    """A kernel lookup as a point: a hit, or a miss and its compile ms."""
    attrs = dict(cache_hit=lookup.hit, kind=lookup.kind)
    if not lookup.hit:
        attrs["compile_ms"] = lookup.compile_ms
    attrs["sim_ms"] = 0.0
    return Span(f"compile {lookup.name}", "compile", at_us, at_us, attrs)


def _leaf(entry, logged_us: float) -> Span:
    """One log entry as a span ending when it was logged: a launch, a
    transfer, or a stall."""
    if isinstance(entry, KernelTrace):
        name, category = f"kernel {entry.name}", "kernel"
        attrs = dict(
            kind=entry.kind,
            elements=entry.elements,
            global_bytes=entry.global_bytes,
            onchip_bytes=entry.onchip_bytes,
            atomics=entry.meter.atomic_count,
            bound_by=entry.bound_by,
        )
    elif entry.direction == "stall":
        name, category, attrs = f"stall {entry.label}", "fault", {}
    else:
        name, category = f"transfer {entry.label}".rstrip(), "transfer"
        attrs = dict(nbytes=entry.nbytes, direction=entry.direction)
        if entry.codec:
            attrs.update(codec=entry.codec, raw_nbytes=entry.raw_nbytes)
    attrs["sim_ms"] = entry.time_ms
    return Span(name, category, logged_us, logged_us, attrs)


_PID = 1
_HOST_TID = 1
_DEVICE_TID = 2
#: Scale-out device lanes get tid pairs (host, simulated) starting here
#: so they sort below the default host/device tracks.
_LANE_BASE = 10


def _meta(name: str, args: dict, tid: int | None = None) -> dict:
    event = {"name": name, "ph": "M", "pid": _PID, "args": args}
    if tid is not None:
        event["tid"] = tid
    return event
