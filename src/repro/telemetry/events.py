"""Structured query event log: a bounded ring of typed JSON events.

Every noteworthy runtime transition — query admitted/planned/executed,
plan-cache hit/miss, placement eviction, morsel retry/redistribution,
fault firings, optimizer decisions — is emitted as a typed
:class:`Event` into one process-wide :class:`EventLog` (a thread-safe
ring buffer, oldest events dropped past capacity).  Events carry a
**per-query correlation id** so the log can be filtered to one query
and joined against its spans (the id is stamped on the tracer root)
and flight record.

Emission goes through :func:`record_event`, which is a single
module-global ``None`` check when no log is installed, so an
instrumented hot loop pays nothing until observability is switched on.

Event kinds (see ``docs/observability.md`` for the full schema):

=====================  ==================================================
kind                   emitted by / meaning
=====================  ==================================================
``query.admitted``     ``Server.submit`` accepted the query
``query.planned``      plan ready; ``cache_hit`` says whether the plan
                       cache served it
``query.executed``     terminal state; ``status`` is ``ok``/``failed``
``placement.evicted``  buffer pool evicted a resident (``entry``: column / table)
``morsel.retry``       same-device retry of a failed fact morsel
``morsel.redistributed``  failed morsels re-scheduled onto survivors
``fault.fired``        an armed :class:`~repro.faults.FaultPlan` fired
``device.lost``        a fleet device dropped out mid-query
``fallback.host``      every device lost; host out-of-core fallback
``optimizer.decision``  the adaptive optimizer chose a strategy
``accounting.mismatch``  launches / transfers outside every pipeline and
                       ``finalize`` row of the query record
                       (``unaccounted`` of ``entries``)
=====================  ==================================================
"""

from __future__ import annotations

import collections
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Event",
    "EventLog",
    "current_query",
    "install_log",
    "installed_log",
    "load_jsonl",
    "new_query_id",
    "query_scope",
    "record_event",
    "uninstall_log",
]

#: The process-wide event sink.  ``None`` (the default) is the fast
#: path: :func:`record_event` returns after this one global read.
_log: "EventLog | None" = None
_local = threading.local()
_query_counter = itertools.count(1)


@dataclass(frozen=True)
class Event:
    """One structured log entry.

    ``ts`` is Unix seconds (wall clock); ``seq`` is the log's monotonic
    sequence number (gaps mean the ring dropped older events); ``query``
    is the correlation id (``None`` for events outside any query scope).
    """

    seq: int
    ts: float
    kind: str
    query: str | None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": round(self.ts, 6),
            "kind": self.kind,
            "query": self.query,
            "attrs": {key: _jsonable(value) for key, value in self.attrs.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(
            seq=int(data.get("seq", 0)),
            ts=float(data.get("ts", 0.0)),
            kind=str(data["kind"]),
            query=data.get("query"),
            attrs=dict(data.get("attrs", {})),
        )


class EventLog:
    """Bounded, thread-safe ring buffer of :class:`Event` objects.

    Appends are O(1); past ``capacity`` the oldest event is dropped and
    counted in :attr:`dropped` (sequence numbers keep climbing, so a
    reader can tell how much history the ring no longer holds).
    Cumulative per-kind counts survive ring eviction — they feed the
    ``repro_events_total`` metric family.
    """

    def __init__(self, capacity: int = 2048):
        if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
            from ..errors import ConfigurationError

            raise ConfigurationError(
                f"event-log capacity must be an integer >= 1, got {capacity!r}"
            )
        self.capacity = capacity
        self._ring: collections.deque = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._dropped = 0
        self._counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def emit(self, kind: str, query: str | None = None, **attrs) -> Event:
        """Append one event; ``query`` defaults to the thread's scope."""
        if query is None:
            query = current_query()
        with self._lock:
            self._seq += 1
            if len(self._ring) == self.capacity:
                self._dropped += 1
            event = Event(
                seq=self._seq, ts=time.time(), kind=kind, query=query, attrs=attrs
            )
            self._ring.append(event)
            self._counts[kind] = self._counts.get(kind, 0) + 1
        return event

    # ------------------------------------------------------------------
    def events(
        self,
        kind: str | None = None,
        query: str | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """Snapshot of buffered events, oldest first, optionally
        filtered by kind and/or correlation id; ``limit`` keeps the
        newest N after filtering."""
        with self._lock:
            snapshot = list(self._ring)
        if kind is not None:
            snapshot = [event for event in snapshot if event.kind == kind]
        if query is not None:
            snapshot = [event for event in snapshot if event.query == query]
        if limit is not None and limit >= 0:
            snapshot = snapshot[len(snapshot) - limit:]
        return snapshot

    def tail(self, n: int = 20) -> list[Event]:
        return self.events(limit=n)

    def counts(self) -> dict[str, int]:
        """Cumulative events per kind (not capped by the ring)."""
        with self._lock:
            return dict(self._counts)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # ------------------------------------------------------------------
    def jsonl(
        self, kind: str | None = None, query: str | None = None
    ) -> str:
        """The buffered events as JSONL, one event per line."""
        lines = [event.to_json() for event in self.events(kind=kind, query=query)]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str) -> int:
        """Dump the buffer to ``path``; returns the event count."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(event.to_json() + "\n")
        return len(events)

    def observe_metrics(self, metrics, **labels) -> None:
        """Export ``repro_events_total{kind=...}`` (+ drop counter)."""
        for kind, count in sorted(self.counts().items()):
            metrics.counter(
                "repro_events_total",
                "Structured log events emitted, by kind",
                kind=kind,
                **labels,
            ).set_total(count)
        metrics.counter(
            "repro_events_dropped_total",
            "Events evicted from the bounded event-log ring",
            **labels,
        ).set_total(self.dropped)


# ----------------------------------------------------------------------
# process-wide installation + the instrumentation-point entry
# ----------------------------------------------------------------------
def install_log(log: EventLog) -> None:
    """Make ``log`` the process-wide sink for :func:`record_event`."""
    global _log
    _log = log


def uninstall_log(log: EventLog | None = None) -> None:
    """Remove the installed sink (if ``log`` is given, only when it is
    the currently-installed one — lets owners uninstall idempotently)."""
    global _log
    if log is None or _log is log:
        _log = None


def installed_log() -> EventLog | None:
    return _log


def record_event(kind: str, query: str | None = None, **attrs) -> None:
    """Emit an event into the installed log, if any.

    This is the call the instrumentation points make; when no log is
    installed it is a single module-global read — the only cost the
    event layer adds to an unobserved run.
    """
    log = _log
    if log is None:
        return
    log.emit(kind, query=query, **attrs)


# ----------------------------------------------------------------------
# per-query correlation
# ----------------------------------------------------------------------
def new_query_id() -> str:
    """A process-unique query correlation id (``q-000001``, ...)."""
    return f"q-{next(_query_counter):06d}"


def current_query() -> str | None:
    """The correlation id bound to the current thread, or ``None``."""
    return getattr(_local, "query", None)


class query_scope:
    """Bind a correlation id to the current thread for a ``with`` block.

    Events emitted on this thread without an explicit ``query=`` pick
    the id up automatically."""

    def __init__(self, query_id: str | None):
        self.query_id = query_id
        self._previous: str | None = None

    def __enter__(self) -> str | None:
        self._previous = getattr(_local, "query", None)
        _local.query = self.query_id
        return self.query_id

    def __exit__(self, *_exc) -> None:
        _local.query = self._previous


# ----------------------------------------------------------------------
# JSONL loading (the ``repro log`` tail command)
# ----------------------------------------------------------------------
def load_jsonl(path: str) -> list[Event]:
    """Parse an event-log JSONL file (as written by
    :meth:`EventLog.write_jsonl` or found in a post-mortem bundle).

    Raises :class:`ValueError` naming the offending line on malformed
    input, so callers can turn it into a clean CLI error."""
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict) or "kind" not in data:
                    raise ValueError("not an event object")
                events.append(Event.from_dict(data))
            except (ValueError, KeyError, TypeError) as error:
                raise ValueError(
                    f"{path}:{number}: malformed event line ({error})"
                ) from None
    return events


def _jsonable(value):
    """Coerce attribute values (possibly numpy scalars) to JSON types."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return str(value)
