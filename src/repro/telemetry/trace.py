"""Hierarchical span tracing for query execution.

The paper argues entirely from profiler timelines (nvprof/CodeXL);
this module is the reproduction's equivalent of that tooling: a
:class:`Tracer` records a tree of :class:`Span` objects per query —

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

Spans carry **host wall-clock** timestamps (``start_us``/``end_us``,
microseconds since the trace epoch) for nesting, plus **simulated
device time** and the :class:`~repro.hardware.traffic.TrafficMeter`
byte/atomic counters as attributes.  A finished trace exports as
Chrome trace-event JSON (loadable in Perfetto / ``about://tracing``)
or as JSONL, one span per line.

Tracing is **off by default** and near-zero-cost when disabled: the
instrumentation points (kernel launch, transfer, placement lookup,
kernel compile) all go through :func:`active_tracer`, which returns
``None`` after a single module-flag check unless tracing was enabled
*and* a tracer was activated on the current thread.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import dataclass, field

__all__ = [
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


def active_tracer() -> "Tracer | None":
    """The tracer bound to the current thread, or ``None``.

    This is the hook the instrumentation points call; it is the *only*
    cost tracing adds when disabled.
    """
    if not _enabled:
        return None
    return getattr(_local, "tracer", None)


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

    @property
    def current(self) -> Span:
        return self._stack[-1]

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
        previous = getattr(_local, "tracer", None)
        _local.tracer = self
        try:
            yield self
        finally:
            _local.tracer = previous

    def finish(self) -> "QueryTrace":
        """Close the root span and package the finished trace."""
        if not self._finished:
            self.root.end_us = self._now_us()
            self._finished = True
        return QueryTrace(root=self.root)


@dataclass
class QueryTrace:
    """A finished per-query span tree, attached as
    ``ExecutionResult.trace`` when tracing is enabled."""

    root: Span

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
            if lane not in named_lanes:
                named_lanes.add(lane)
                host_tid, sim_tid = _LANE_BASE + 2 * lane, _LANE_BASE + 2 * lane + 1
                events.append(
                    _meta("thread_name", {"name": f"device[{lane}] host"}, tid=host_tid)
                )
                events.append(
                    _meta(
                        "thread_name",
                        {"name": f"device[{lane}] (simulated)"},
                        tid=sim_tid,
                    )
                )
            return _LANE_BASE + 2 * lane, _LANE_BASE + 2 * lane + 1

        # (span, lane) in document order; lanes inherit down the tree.
        placed: list[tuple[Span, int | None]] = []

        def place(span: Span, lane: int | None) -> None:
            lane = span.attrs.get("device_lane", lane)
            placed.append((span, lane))
            for child in span.children:
                place(child, lane)

        place(self.root, None)
        for span, lane in placed:
            host_tid, _ = lane_tids(lane)
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": round(span.start_us, 3),
                    "dur": round(span.duration_us, 3),
                    "pid": _PID,
                    "tid": host_tid,
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
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
            _, sim_tid = lane_tids(lane)
            dur_us = round(span.sim_ms * 1e3, 3)
            events.append(
                {
                    "name": span.name,
                    "cat": f"sim_{span.category}",
                    "ph": "X",
                    "ts": round(cursors[lane], 3),
                    "dur": dur_us,
                    "pid": _PID,
                    "tid": sim_tid,
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
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
