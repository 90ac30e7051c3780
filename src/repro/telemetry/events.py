"""Structured query events: typed JSON entries of one query's record.

There is no event store.  What only the query record can hold (faults,
retries, evictions ...) is noted into the device log where it happens
(:meth:`~repro.hardware.traffic.Profile.note`); what the result already
knows (admission, planning, the optimizer's choice, the outcome) is
read off it.  :func:`query_events` joins the two; a
:class:`~repro.telemetry.FlightRecorder` lands the list with each
flight, stamping query id and ``seq`` (``docs/observability.md``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = ["Event", "load_jsonl", "query_events"]


@dataclass(frozen=True)
class Event:
    """One event: ``ts`` is Unix seconds; ``seq`` the order a recorder
    landed it in (in one query's own list: 1, 2, ...); ``query`` the
    recorder's query id (``None`` outside a recorder)."""

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
        seq, ts, kind = int(data.get("seq", 0)), float(data.get("ts", 0.0)), data["kind"]
        return cls(seq, ts, str(kind), data.get("query"), dict(data.get("attrs", {})))


def query_events(serving=None, record=None, optimizer=None, error=None) -> list[Event]:
    """One query's events, oldest first: admission and planning from
    ``serving`` (its :class:`~repro.serving.ServingStats`, partial for a
    failed query), the ``optimizer`` decision, the notes of ``record``
    (its :class:`~repro.hardware.traffic.Profile`), then the terminal
    ``query.executed`` — ``status=failed`` when ``error`` is given."""
    planned = serving.planned_at if serving is not None else 0.0
    rows = []
    if serving is not None and serving.admission is not None:
        admitted = serving.started - serving.queue_wait_ms / 1e3
        rows.append((admitted, "query.admitted", serving.admission))
    if planned:
        hit, plan_ms = bool(serving.plan_cache_hit), round(serving.plan_ms, 3)
        rows.append((planned, "query.planned", dict(cache_hit=hit, plan_ms=plan_ms)))
    if optimizer is not None:
        predicted = round(optimizer.predicted_ms, 6)
        decision = dict(strategy=optimizer.chosen.describe(), predicted_ms=predicted)
        rows.append((planned, "optimizer.decision", decision))
    rows += record.events if record is not None else []
    if error is not None:
        failed = dict(status="failed", error=type(error).__name__)
        rows.append((time.perf_counter(), "query.executed", failed))
    elif planned:
        took = serving.execute_ms
        ok = dict(status="ok", execute_ms=round(took, 3), worker=serving.worker)
        rows.append((planned + took / 1e3, "query.executed", ok))
    wall = time.time() - time.perf_counter()  # host clock -> Unix seconds
    return [Event(seq, wall + at, kind, None, dict(attrs))
            for seq, (at, kind, attrs) in enumerate(rows, 1)]


def load_jsonl(path: str) -> list[Event]:
    """Parse an event JSONL file (``--events-out``, a bundle's events);
    malformed input raises :class:`ValueError` naming the line."""
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict) or "kind" not in data:
                    raise ValueError("not an event object")
                events.append(Event.from_dict(data))
            except (ValueError, KeyError, TypeError) as error:
                message = f"{path}:{number}: malformed event line ({error})"
                raise ValueError(message) from None
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
