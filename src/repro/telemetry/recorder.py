"""Always-on flight recorder: per-query records + post-mortem bundles.

A :class:`FlightRecorder` keeps a bounded ring of compact
:class:`FlightRecord` objects — one per query, holding the plan
fingerprint, the resolved execution strategy, the traffic/recovery
numbers, the result checksum, and the query's events
(:mod:`repro.telemetry.events`), read off its record when the flight
lands.  The ring is cheap enough to leave on in production serving: no
span trees, no tables, just a few hundred bytes per query.

On a query **failure** (or an explicit :meth:`FlightRecorder.capture`,
which the chaos suite uses for byte-identity misses) the recorder
writes a self-contained **post-mortem bundle** directory::

    postmortems/<stamp>-<query_id>/
        manifest.json     flight record + error + expected outcome
        events.jsonl      the query's events (the record's tail)
        trace.json        Chrome trace (when tracing was enabled)
        fault_plan.json   the armed FaultPlan (when any)
        optimizer.txt     the optimizer decision render (when any)

``manifest.json`` embeds a **replay recipe** — workload generator
parameters (or a data dir), device profile, engine, fleet shape, fault
plan, retry policy, and seed — so :func:`replay_bundle` (the
``repro replay`` CLI) can re-execute the query deterministically and
verify the outcome byte-for-byte against the recorded column checksums
(or reproduce the recorded failure).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import deque
from copy import copy
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .events import Event

__all__ = [
    "BUNDLE_MANIFEST",
    "FlightRecord",
    "FlightRecorder",
    "ReplayReport",
    "replay_bundle",
    "table_checksum",
    "write_postmortem_bundle",
]

BUNDLE_MANIFEST = "manifest.json"
_BUNDLE_VERSION = 1
#: The :class:`~repro.api.Session` keywords a flight's strategy records
#: (``Session._strategy``) and :func:`replay_bundle` passes back; a key
#: a bundle lacks (older bundles) replays at the Session default.
REPLAY_KEYS = (
    "engine", "device", "devices", "partitioning", "compression", "residency",
)


# ----------------------------------------------------------------------
# checksums (the byte-identity currency of bundles and replay)
# ----------------------------------------------------------------------
def table_checksum(table) -> dict:
    """Per-column sha256 over dtype + raw values of a result table.

    Two tables with equal checksums are byte-identical in the chaos
    suite's sense: same columns, same dtypes, same values, same order.
    """
    out = {}
    for name in table.column_names:
        values = np.ascontiguousarray(table.column(name).values)
        digest = hashlib.sha256()
        digest.update(str(values.dtype).encode())
        digest.update(values.tobytes())
        out[name] = digest.hexdigest()
    return out


def plan_fingerprint(physical) -> str:
    """Stable digest of a physical plan's pipeline decomposition."""
    return hashlib.sha256(physical.describe().encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
@dataclass
class FlightRecord:
    """One query's compact forensic summary: opened in flight by
    :meth:`FlightRecorder.start`, landed by :meth:`FlightRecorder.complete`
    or :meth:`FlightRecorder.fail`."""

    query_id: str
    sql: str | None
    status: str  # "in-flight" | "ok" | "failed"
    started_at: float  # wall clock
    host_ms: float = 0.0
    error_type: str | None = None
    error_message: str | None = None
    #: Resolved strategy + plan identity (engine, devices, fingerprint...).
    strategy: dict = field(default_factory=dict)
    #: Simulated traffic/recovery numbers (sim_ms, pcie_bytes, ...).
    metrics: dict = field(default_factory=dict)
    #: Expected outcome for replay (status, checksums, error type).
    expected: dict = field(default_factory=dict)
    #: The query's events, the newest ``event_tail`` of them (as
    #: dicts, oldest first).
    events: list = field(default_factory=list)
    #: ``perf_counter`` origin of ``host_ms``.
    started: float = field(default=0.0, repr=False, compare=False)

    def note(self, **attrs) -> None:
        """Merge strategy/plan facts learned after takeoff (plan
        fingerprint, cache hit, chosen optimizer strategy, ...)."""
        self.strategy.update(attrs)

    def to_dict(self) -> dict:
        out = {f.name: copy(getattr(self, f.name)) for f in fields(self) if f.name != "started"}
        out["started_at"] = round(self.started_at, 6)
        out["host_ms"] = round(self.host_ms, 3)
        return out


class FlightRecorder:
    """Bounded per-query flight-record ring + post-mortem bundle writer.

    A recorder serves the sessions (and servers) it is handed to and
    nothing else: it issues their query ids (``q-000001``, ...), lands
    each query's events with its flight, numbering them (``seq``) in
    landing order, and counts them per kind.

    Parameters
    ----------
    capacity:
        Flight records retained (ring; oldest dropped).
    event_tail:
        How many of a query's events its record keeps (the newest).
    postmortem_dir:
        Where failure bundles land (created on first write).
    database_recipe:
        Optional replay recipe for the database, e.g.
        ``{"workload": "ssb", "scale_factor": 0.002, "seed": 7}`` or
        ``{"data_dir": "/path"}`` — embedded in bundles so
        :func:`replay_bundle` can rebuild the exact input.
    """

    def __init__(
        self,
        capacity: int = 256,
        event_tail: int = 64,
        postmortem_dir: str = "postmortems",
        database_recipe: dict | None = None,
    ):
        from ..errors import ConfigurationError

        for name, value, least in (("capacity", capacity, 1), ("event_tail", event_tail, 0)):
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigurationError(
                    f"flight-record {name} must be an integer >= {least}, got {value!r}"
                )
        self.event_tail = event_tail
        self.postmortem_dir = postmortem_dir
        self.database_recipe = dict(database_recipe) if database_recipe else None
        self._records: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._postmortems = 0
        self._flights = 0
        #: Events landed (the last ``seq`` issued), per kind, and cut
        #: from their record past ``event_tail``.
        self._events = 0
        self._kinds: dict[str, int] = {}
        self._cut = 0

    # ``with FlightRecorder() as recorder:`` scopes a recorder like any
    # other resource; there is nothing to set up or tear down.
    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    # ------------------------------------------------------------------
    # the per-query lifecycle
    # ------------------------------------------------------------------
    def start(self, query, seed: int = 42, **strategy) -> FlightRecord:
        """Open a flight under a fresh query id; ``query`` may be SQL
        text or a plan object."""
        with self._lock:
            self._flights += 1
            query_id = f"q-{self._flights:06d}"
        return FlightRecord(
            query_id=query_id,
            sql=query if isinstance(query, str) else None,
            status="in-flight",
            started_at=time.time(),
            strategy=dict(strategy, seed=seed),
            started=time.perf_counter(),
        )

    def complete(self, record: FlightRecord, result) -> FlightRecord:
        """Land a successful query: record strategy, traffic, checksum
        and the query's events (``result.events()``)."""
        record.status = "ok"
        if result.optimizer is not None:
            record.strategy["optimizer"] = result.optimizer.chosen.describe()
        record.metrics = _result_metrics(result)
        record.expected = {
            "status": "ok",
            "row_count": result.table.num_rows,
            "checksum": table_checksum(result.table),
        }
        self._land(record, result.events())
        return record

    def fail(
        self,
        record: FlightRecord,
        error: BaseException,
        events: list,
        trace=None,
        fault_plan=None,
        retry_policy=None,
        write_bundle: bool = True,
    ) -> FlightRecord:
        """Land a failed query with its ``events`` (built from what it
        left: :func:`~repro.telemetry.events.query_events` over its
        partial serving stats and record, ending ``status=failed``);
        writes a post-mortem bundle by default.

        Returns the record; the bundle path (when written) is in
        ``record.strategy["bundle"]``."""
        record.status = "failed"
        record.error_type = type(error).__name__
        record.error_message = str(error)
        record.expected = {"status": "failed", "error_type": record.error_type}
        self._land(record, events)
        if write_bundle:
            path = self.write_bundle(
                record, trace=trace, fault_plan=fault_plan,
                retry_policy=retry_policy,
            )
            record.strategy["bundle"] = path
        return record

    def _land(self, record: FlightRecord, events: list[Event]) -> None:
        """Number ``events`` after every event landed before, stamp the
        query id, keep the newest ``event_tail`` on ``record`` and ring
        it."""
        record.host_ms = (time.perf_counter() - record.started) * 1e3
        cut = max(0, len(events) - self.event_tail)
        with self._lock:
            first, self._events = self._events, self._events + len(events)
            for event in events:
                self._kinds[event.kind] = self._kinds.get(event.kind, 0) + 1
            self._cut += cut
            record.events = [
                replace(event, seq=first + event.seq, query=record.query_id).to_dict()
                for event in events[cut:]
            ]
            self._records.append(record)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def records(self, status: str | None = None) -> list[FlightRecord]:
        with self._lock:
            snapshot = list(self._records)
        if status is not None:
            snapshot = [record for record in snapshot if record.status == status]
        return snapshot

    def last(self) -> FlightRecord | None:
        with self._lock:
            return self._records[-1] if self._records else None

    def jsonl(self) -> str:
        return "".join(json.dumps(record.to_dict()) + "\n" for record in self.records())

    def events_jsonl(self) -> str:
        """The buffered flights' events as JSONL, in ``seq`` order
        (what ``--events-out`` writes)."""
        return "".join(
            json.dumps(event) + "\n" for record in self.records() for event in record.events
        )

    @property
    def postmortems(self) -> int:
        with self._lock:
            return self._postmortems

    def observe_metrics(self, metrics, **labels) -> None:
        """Export flight/event counters into a
        :class:`~repro.telemetry.metrics.MetricsRegistry`."""
        with self._lock:
            flights = self._flights
            postmortems = self._postmortems
            buffered = len(self._records)
            kinds, cut = dict(self._kinds), self._cut
        metrics.counter(
            "repro_flights_total", "Queries tracked by the flight recorder",
            **labels,
        ).set_total(flights)
        metrics.counter(
            "repro_postmortems_total", "Post-mortem bundles written",
            **labels,
        ).set_total(postmortems)
        metrics.gauge(
            "repro_flight_records", "Flight records currently buffered",
            **labels,
        ).set(buffered)
        for kind, count in sorted(kinds.items()):
            metrics.counter(
                "repro_events_total",
                "Structured log events emitted, by kind",
                kind=kind,
                **labels,
            ).set_total(count)
        metrics.counter(
            "repro_events_dropped_total",
            "Events cut from their flight record past its event tail",
            **labels,
        ).set_total(cut)

    # ------------------------------------------------------------------
    # bundles
    # ------------------------------------------------------------------
    def capture(
        self, record: FlightRecord, name: str | None = None, **extra
    ) -> str:
        """Force a bundle for any record (e.g. a chaos byte-identity
        miss on a query that technically 'succeeded')."""
        return self.write_bundle(record, name=name, **extra)

    def write_bundle(
        self,
        record: FlightRecord,
        trace=None,
        fault_plan=None,
        retry_policy=None,
        name: str | None = None,
        manifest_extra: dict | None = None,
    ) -> str:
        replay = self._replay_recipe(record, retry_policy=retry_policy)
        path = write_postmortem_bundle(
            self.postmortem_dir,
            record=record,
            replay=replay,
            events=record.events,
            trace=trace,
            fault_plan=fault_plan,
            name=name,
            manifest_extra=manifest_extra,
        )
        with self._lock:
            self._postmortems += 1
        return path

    def _replay_recipe(self, record: FlightRecord, retry_policy=None) -> dict:
        recipe: dict = {"sql": record.sql, "seed": record.strategy.get("seed", 42)}
        if self.database_recipe:
            recipe["database"] = dict(self.database_recipe)
        for key in REPLAY_KEYS:
            if key in record.strategy:
                recipe[key] = record.strategy[key]
        if retry_policy is not None:
            recipe["retry_policy"] = {
                "max_retries": retry_policy.max_retries,
                "backoff_base_ms": retry_policy.backoff_base_ms,
                "backoff_cap_ms": retry_policy.backoff_cap_ms,
                "morsel_timeout_ms": retry_policy.morsel_timeout_ms,
            }
        return recipe


def _result_metrics(result) -> dict:
    """The simulated-clock numbers of one execution, rounded for the
    flight record (the simulated-clock pin keeps exact text instead)."""
    metrics = {
        "sim_ms": round(result.total_ms, 6),
        "kernel_ms": round(result.kernel_ms, 6),
        "pcie_bytes": int(result.input_bytes + result.output_bytes),
        "global_bytes": int(result.global_memory_bytes),
        "kernel_launches": len(result.profile.kernels),
        "rows": int(result.table.num_rows),
        "plan_cache_hit": bool(result.serving.plan_cache_hit),
    }
    if result.scaleout is not None:
        metrics["makespan_ms"] = round(result.scaleout.makespan_ms, 6)
        recovery = result.scaleout.recovery
        tally = recovery.tally() if recovery is not None else {}
        if tally.get("faulted"):
            metrics["recovery"] = {
                key: value for key, value in tally.items()
                if key not in ("backoff_ms", "faulted")
            }
    return metrics


# ----------------------------------------------------------------------
# the bundle writer (module-level so the chaos suite can call it
# without owning a recorder)
# ----------------------------------------------------------------------
def write_postmortem_bundle(
    directory: str,
    record: FlightRecord,
    replay: dict | None = None,
    events: list | None = None,
    trace=None,
    fault_plan=None,
    name: str | None = None,
    manifest_extra: dict | None = None,
) -> str:
    """Write one self-contained bundle directory; returns its path.

    ``events`` are a flight record's event dicts; ``trace`` a
    :class:`~repro.telemetry.trace.QueryTrace` or a pre-built Chrome
    trace dict; ``fault_plan`` a :class:`~repro.faults.FaultPlan` or a
    plan dict.
    """
    slug = name or f"{time.strftime('%Y%m%dT%H%M%S')}-{record.query_id}"
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", slug)
    path = os.path.join(directory, slug)
    os.makedirs(path, exist_ok=True)
    manifest = {
        "bundle_version": _BUNDLE_VERSION,
        "written_at": round(time.time(), 3),
        "record": record.to_dict(),
        "expected": dict(record.expected),
        "replay": dict(replay) if replay else {},
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    contents = [BUNDLE_MANIFEST]

    def put(name: str, text: str) -> None:
        with open(os.path.join(path, name), "w", encoding="utf-8") as out:
            out.write(text)
        contents.append(name)

    if events is not None:
        put("events.jsonl", "".join(json.dumps(event) + "\n" for event in events))
    if trace is not None:
        put("trace.json", json.dumps(trace if isinstance(trace, dict) else trace.chrome_trace()))
    if fault_plan is not None:
        put("fault_plan.json", json.dumps(fault_plan, indent=2)
            if isinstance(fault_plan, dict) else fault_plan.to_json())
    if record.strategy.get("optimizer_render"):
        put("optimizer.txt", record.strategy["optimizer_render"])
    manifest["contents"] = sorted(set(contents))
    put(BUNDLE_MANIFEST, json.dumps(manifest, indent=2, sort_keys=True))
    return path


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Outcome of re-executing a bundle's query."""

    bundle: str
    matched: bool
    expected_status: str
    observed_status: str
    details: list = field(default_factory=list)

    def render(self) -> str:
        verdict = "MATCH" if self.matched else "MISMATCH"
        lines = [
            f"replay of {self.bundle}: {verdict}",
            f"  expected: {self.expected_status}",
            f"  observed: {self.observed_status}",
        ]
        return "\n".join(lines + [f"  {detail}" for detail in self.details])


def replay_bundle(
    bundle: str,
    data_dir: str | None = None,
    device=None,
) -> ReplayReport:
    """Re-execute a post-mortem bundle's query and verify the outcome.

    The database is ``data_dir`` (``--data-dir``) if given, else the
    bundle's recipe (:func:`repro.workloads.database_from_recipe`).  Success bundles must
    reproduce the recorded per-column checksums exactly; failure
    bundles must reproduce the recorded error type.  ``device``
    overrides the recipe's profile (for bundles recorded on a custom
    profile object).
    """
    from ..errors import ConfigurationError, ReproError

    manifest_path = os.path.join(bundle, BUNDLE_MANIFEST)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"cannot read bundle manifest {manifest_path}: {error}"
        ) from None
    replay = manifest.get("replay", {})
    expected = manifest.get("expected", {})
    sql = replay.get("sql")
    if not sql:
        raise ConfigurationError(
            f"bundle {bundle} has no replayable SQL (plan-object queries "
            "cannot be replayed from a bundle)"
        )
    from ..workloads import database_from_recipe

    recipe = {"data_dir": data_dir} if data_dir else replay.get("database") or {}
    database = database_from_recipe(recipe)
    fault_path = os.path.join(bundle, "fault_plan.json")
    fault_plan = fault_path if os.path.exists(fault_path) else None
    retry_policy = None
    if replay.get("retry_policy"):
        from ..faults import RetryPolicy

        retry_policy = RetryPolicy(**replay["retry_policy"])
    from ..api import Session

    config = {
        key: replay[key] for key in REPLAY_KEYS if replay.get(key) is not None
    }
    if device is not None:
        config["device"] = device
    session = Session(
        database, fault_plan=fault_plan, retry_policy=retry_policy, **config
    )
    expected_status = expected.get("status", "ok")
    details: list[str] = []
    try:
        result = session.execute(sql, seed=replay.get("seed", 42))
    except ReproError as error:
        observed_error = type(error).__name__
        observed_status = f"failed ({observed_error})"
        matched = (
            expected_status == "failed"
            and expected.get("error_type") == observed_error
        )
        details.append(f"error: {observed_error}: {error}")
        if expected_status == "failed" and not matched:
            details.append(
                f"expected error type {expected.get('error_type')!r}, "
                f"got {observed_error!r}"
            )
    else:
        if expected_status == "failed":
            matched, observed_status = False, "ok"
            details.append(
                f"expected failure {expected.get('error_type')!r} but the "
                "query succeeded"
            )
        else:
            observed = table_checksum(result.table)
            recorded = expected.get("checksum", {})
            matched = observed == recorded
            observed_status = f"ok ({result.table.num_rows} rows)"
            for column in sorted(set(recorded) | set(observed)):
                want, got = recorded.get(column), observed.get(column)
                if want != got:
                    details.append(
                        f"column {column!r}: recorded {want}, replayed {got}"
                    )
            if matched:
                details.append(
                    f"byte-identical: {result.table.num_rows} rows, "
                    f"{len(observed)} column checksums match"
                )
    rows = expected.get("row_count")
    if expected_status == "failed":
        expected_status = f"failed ({expected.get('error_type')})"
    else:
        expected_status = "ok" if rows is None else f"ok ({rows} rows)"
    return ReplayReport(bundle, matched, expected_status, observed_status, details)
