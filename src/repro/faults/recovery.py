"""Recovery knobs and accounting: :class:`RetryPolicy`, :class:`RecoveryStats`.

Kept import-light (no injection machinery) so :mod:`repro.scaleout.stats`
can embed a :class:`RecoveryStats` in every result object.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..hardware.traffic import Profile


@dataclass(frozen=True)
class RetryPolicy:
    """Per-morsel retry behaviour of the recovering scale-out executor.

    A failing morsel is retried on the *same* device up to
    ``max_retries`` times with capped exponential backoff
    (``backoff_base_ms * 2**(attempt-1)``, capped at
    ``backoff_cap_ms``); once the device's retries are exhausted the
    morsel is re-scheduled onto a surviving device that has not failed
    it yet.  Backoff is charged to :class:`RecoveryStats` (and the
    trace), not slept on the host — chaos runs stay fast and exactly
    reproducible.

    ``morsel_timeout_ms`` promotes any injected straggler stall at or
    above the bound to a :class:`~repro.errors.MorselTimeoutError`
    (``None`` disables the timeout).
    """

    max_retries: int = 2
    backoff_base_ms: float = 1.0
    backoff_cap_ms: float = 32.0
    morsel_timeout_ms: float | None = None

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_retries, bool)
            or not isinstance(self.max_retries, int)
            or self.max_retries < 0
        ):
            raise ConfigurationError(
                f"max_retries must be an integer >= 0, got {self.max_retries!r}"
            )
        if self.backoff_base_ms < 0:
            raise ConfigurationError(
                f"backoff_base_ms must be >= 0, got {self.backoff_base_ms!r}"
            )
        if self.backoff_cap_ms < self.backoff_base_ms:
            raise ConfigurationError(
                f"backoff_cap_ms ({self.backoff_cap_ms!r}) must be >= "
                f"backoff_base_ms ({self.backoff_base_ms!r})"
            )
        if self.morsel_timeout_ms is not None and self.morsel_timeout_ms <= 0:
            raise ConfigurationError(
                f"morsel_timeout_ms must be > 0 (or None), got "
                f"{self.morsel_timeout_ms!r}"
            )

    @property
    def max_attempts(self) -> int:
        """Attempts per device per wave (first try + retries)."""
        return self.max_retries + 1

    def backoff_ms(self, attempt: int) -> float:
        """Backoff charged before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff_cap_ms, self.backoff_base_ms * 2.0 ** (attempt - 1))


def _tallied(key: str, doc: str) -> property:
    """A :class:`RecoveryStats` number read through its one walk."""
    return property(lambda self: self.tally()[key], doc=doc)


@dataclass
class RecoveryStats:
    """Per-query fault and recovery accounting.

    Attached as ``ScaleOutStats.recovery`` on every partitioned
    scale-out execution; :func:`~repro.telemetry.metrics.observe_result`
    sums these per-query values into the ``repro_faults_*`` counters.
    The fields are what only the executor knows; the recovery actions
    are read off the notes of the query record ``log``.
    """

    #: Faults actually fired this query, by kind (injected only).
    injected: dict = field(default_factory=dict)
    #: Scatter waves executed (1 = fault-free single wave).
    waves: int = 1
    #: Morsel timeouts (stragglers promoted to failures).
    timeouts: int = 0

    #: The query record.  Not a field: ``asdict`` / ``==`` / ``repr``
    #: carry the executor's own facts only.
    log = Profile()

    def tally(self) -> dict:
        """Every recovery number, in one walk over the record's notes:
        the executor's facts and what the notes say (``morsel.retry``,
        ``morsel.redistributed``, ``device.lost``, ``fallback.host``)."""
        notes = defaultdict(list)
        for _, kind, attrs in self.log.events:
            notes[kind].append(attrs)
        retries = notes["morsel.retry"]
        tally = {
            "injected": dict(self.injected),
            "retries": len(retries),
            "backoff_ms": sum((note["backoff_ms"] for note in retries), 0.0),
            "redistributed_morsels": sum(
                note["morsels"] for note in notes["morsel.redistributed"]
            ),
            "degraded_devices": sorted(note["device"] for note in notes["device.lost"]),
            "waves": self.waves,
            "timeouts": self.timeouts,
            "host_fallback": bool(notes["fallback.host"]),
        }
        # Any fault or recovery action at all (one wave is none).
        tally["faulted"] = any(
            value for key, value in tally.items() if key not in ("waves", "backoff_ms")
        )
        return tally

    retries = _tallied("retries", "Same-device morsel retries (injected or genuine).")
    backoff_ms = _tallied("backoff_ms", "Backoff charged across all retries.")
    redistributed_morsels = _tallied(
        "redistributed_morsels", "Morsels re-scheduled onto surviving devices."
    )
    degraded_devices = _tallied("degraded_devices", "Devices lost (sorted).")
    host_fallback = _tallied("host_fallback", "The whole query ran on the host fallback.")
    faulted = _tallied("faulted", "Any fault or recovery action at all.")

    def summary(self) -> str:
        tally = self.tally()
        if not tally["faulted"]:
            return "no faults"
        kinds = ", ".join(
            f"{count}x {kind}" for kind, count in sorted(self.injected.items())
        ) or "none injected"
        tail = " -> host fallback" if tally["host_fallback"] else ""
        return (
            f"faults {kinds}; {tally['retries']} retries "
            f"(backoff {tally['backoff_ms']:.1f} ms), "
            f"{tally['redistributed_morsels']} morsels redistributed over "
            f"{self.waves} waves, lost devices "
            f"{tally['degraded_devices'] or '[]'}{tail}"
        )
