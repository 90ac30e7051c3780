"""Hierarchical span tracing for query execution.

The paper argues entirely from profiler timelines (nvprof/CodeXL);
this module is the reproduction's equivalent of that tooling: a
:class:`QueryTrace` is a tree of :class:`Span` objects per query —

::

    query
    ├─ plan                      (SQL parse + pipeline extraction)
    ├─ pipeline[0] ...
    │   ├─ compile <kernel>      (codegen; cache_hit attr)
    │   ├─ transfer <col>        (h2d, simulated ms as attr)
    │   ├─ placement <col>       (buffer-pool hit/miss)
    │   └─ kernel <name>         (launch; traffic counters as attrs)
    ├─ pipeline[1] ...
    └─ finalize                  (result assembly, d2h)

A :class:`Tracer` records only the host phases nothing else times
(``plan``, ``compile``, ``placement``, a fleet's ``device[i]`` ...);
the ``pipeline`` / ``finalize`` / ``kernel`` / ``transfer`` spans, and
the ``fault`` spans of stalls and of a fleet's recovery events, are
the query record every execution writes anyway
(:class:`~repro.hardware.traffic.Profile`), woven in when the tree is
first read.

Spans carry **host wall-clock** timestamps (``start_us``/``end_us``,
microseconds since the trace epoch) for nesting, plus **simulated
device time** and the :class:`~repro.hardware.traffic.TrafficMeter`
byte/atomic counters as attributes.  A finished trace exports as
Chrome trace-event JSON (loadable in Perfetto / ``about://tracing``)
or as JSONL, one span per line.

Tracing is **off by default**: the instrumentation points go through
:func:`active_tracer`, which returns :data:`NO_TRACER` — every method a
no-op — unless tracing was enabled *and* a tracer was activated on the
current thread.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import operator
import threading
import time
from dataclasses import dataclass, field

from ..hardware.traffic import KernelTrace, MemoryLevel

__all__ = [
    "NO_TRACER",
    "QueryTrace",
    "Span",
    "Tracer",
    "active_tracer",
    "disable_tracing",
    "enable_tracing",
    "tracing",
    "tracing_enabled",
]

#: Module-level enable flag.  Checked before the thread-local lookup so
#: the disabled fast path is one global read.
_enabled = False
_local = threading.local()


def enable_tracing() -> None:
    """Turn span tracing on process-wide."""
    global _enabled
    _enabled = True


def disable_tracing() -> None:
    """Turn span tracing off process-wide (the default)."""
    global _enabled
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


def active_tracer() -> "Tracer | _NoTracer":
    """The tracer bound to the current thread, else :data:`NO_TRACER`.

    This is the hook the instrumentation points call; it is the *only*
    cost tracing adds when disabled.
    """
    if not _enabled:
        return NO_TRACER
    return getattr(_local, "tracer", NO_TRACER)


@dataclass
class Span:
    """One node of a query trace.

    ``start_us``/``end_us`` are host wall-clock microseconds relative
    to the owning tracer's epoch; simulated device milliseconds (when
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


class Tracer:
    """Records one query's span tree.

    The tracer owns a span stack; :meth:`span` pushes a child of the
    current top, :meth:`event` records a zero-duration child (used for
    point events whose host duration is not separately measurable, e.g.
    a simulated kernel launch — its *simulated* duration rides along as
    the ``sim_ms`` attribute).  :meth:`activate` binds the tracer to
    the current thread so the device/codegen instrumentation points
    find it via :func:`active_tracer`.
    """

    def __init__(self, name: str = "query", **attrs):
        self._epoch = time.perf_counter()
        self.root = Span(name=name, category="query", start_us=0.0, attrs=dict(attrs))
        self._stack: list[Span] = [self.root]
        self._finished = False

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    @contextlib.contextmanager
    def span(self, name: str, category: str = "phase", **attrs):
        """Open a nested span for the duration of the ``with`` body.

        Yields the :class:`Span` so the body can attach attributes
        computed while (or after) the work runs.
        """
        span = Span(
            name=name, category=category, start_us=self._now_us(), attrs=dict(attrs)
        )
        self._stack[-1].children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_us = self._now_us()
            self._stack.pop()

    def event(self, name: str, category: str, sim_ms: float = 0.0, **attrs) -> Span:
        """Record an instantaneous child of the current span."""
        now = self._now_us()
        span = Span(name=name, category=category, start_us=now, end_us=now, attrs=attrs)
        span.attrs["sim_ms"] = sim_ms
        self._stack[-1].children.append(span)
        return span

    @contextlib.contextmanager
    def activate(self):
        """Bind this tracer to the current thread for the scope."""
        previous = active_tracer()
        _local.tracer = self
        try:
            yield self
        finally:
            _local.tracer = previous

    def finish(self, profile=None) -> "QueryTrace":
        """Close the root span and package the finished trace over
        ``profile``, the query record of the execution it timed (none:
        a failed query keeps its host phases)."""
        if not self._finished:
            self.root.end_us = self._now_us()
            self._finished = True
        return QueryTrace(self.root, profile, self._epoch)


class _NoTracer:
    """The tracer of a thread that is not tracing: spans, events and
    activation do nothing, and :meth:`finish` has no trace to give."""

    #: Attributes a call site attaches to its span: never read.
    attrs: dict = {}

    def span(self, *args, **attrs) -> "_NoTracer":
        return self

    def event(self, *args, **attrs) -> None:
        return None

    activate = __enter__ = span
    finish = __exit__ = event


NO_TRACER = _NoTracer()


class QueryTrace:
    """A per-query span tree, attached as ``ExecutionResult.trace`` when
    tracing is enabled: the host phases a :class:`Tracer` recorded, and
    — woven in on first read — the ``pipeline`` / ``finalize`` /
    ``kernel`` / ``transfer`` / stall / recovery-event spans of the
    query record."""

    def __init__(self, root: Span, profile=None, epoch: float = 0.0):
        self._root = root
        self._profile = profile
        self._epoch = epoch

    @property
    def root(self) -> Span:
        profile, self._profile = self._profile, None
        if profile is not None:
            _weave(self._root, profile, self._epoch)
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


def _weave(root: Span, profile, epoch: float) -> None:
    """Hang the query record ``profile`` into the host span tree, in
    host-time order: a pipeline / ``finalize`` record becomes a span
    under the innermost host span running when it began (a fleet's
    ``device[i]``) and adopts the host events of its interval; a log
    entry becomes a leaf that lasts from the end of the span before it
    to the moment it was logged; so does a recovery event (a retry, a
    lost device, a redistribution, the host fallback)."""

    def micros(seconds: float) -> float:
        return (seconds - epoch) * 1e6

    notes = [
        Span(_FAULT_SPANS[kind].format(**attrs), "fault", micros(at), micros(at),
             dict(attrs, sim_ms=0.0))
        for at, kind, attrs in profile.events
        if kind in _FAULT_SPANS
    ]
    spans = [
        _record_span(record, micros(record.started), micros(record.ended))
        for record in profile.pipelines
    ] + [_leaf(entry, micros(entry.at)) for entry in profile.entries] + notes
    for span in sorted(spans, key=_START_US):
        parent, leaf = root, span.category not in ("pipeline", "finalize")
        while True:
            siblings = parent.children
            at = bisect.bisect_right(siblings, span.start_us, key=_START_US)
            if not at or span.start_us >= siblings[at - 1].end_us:
                break
            parent = siblings[at - 1]
        if leaf:
            # At least one export tick inside its parent: a viewer that
            # sorts intervals by (start, end) keeps the parent outside.
            before = siblings[at - 1].end_us if at else parent.start_us + 1e-3
            span.start_us = min(before, span.end_us)
        else:
            stop = at
            while stop < len(siblings) and siblings[stop].end_us <= span.end_us:
                stop += 1
            span.children, siblings[at:stop] = siblings[at:stop], []
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


def _jsonable(value):
    """Coerce span attributes (possibly numpy scalars) to JSON types."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)
