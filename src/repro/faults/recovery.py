"""Recovery knobs and accounting: :class:`RetryPolicy`, :class:`RecoveryStats`.

Kept import-light (dataclasses only) so :mod:`repro.scaleout.stats` can
embed a :class:`RecoveryStats` without pulling the injection machinery
into every result object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError


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


@dataclass
class RecoveryStats:
    """Per-query fault and recovery accounting.

    Attached as ``ScaleOutStats.recovery`` on every partitioned
    scale-out execution; :func:`~repro.telemetry.metrics.observe_result`
    sums these per-query values into the ``repro_faults_*`` counters.
    """

    #: Faults actually fired this query, by kind (injected only).
    injected: dict = field(default_factory=dict)
    #: Same-device morsel retries (injected *and* genuine failures).
    retries: int = 0
    #: Exponential-backoff delay charged across all retries.
    backoff_ms: float = 0.0
    #: Morsels re-scheduled onto surviving devices.
    redistributed_morsels: int = 0
    #: Scatter waves executed (1 = fault-free single wave).
    waves: int = 1
    #: Devices lost during the query (sorted).
    degraded_devices: list = field(default_factory=list)
    #: Morsel timeouts (stragglers promoted to failures).
    timeouts: int = 0
    #: The whole query fell back to the host out-of-core executor
    #: because no device survived.
    host_fallback: bool = False

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def faulted(self) -> bool:
        """Did this query see any fault or recovery action at all?"""
        return bool(
            self.injected
            or self.retries
            or self.redistributed_morsels
            or self.degraded_devices
            or self.timeouts
            or self.host_fallback
        )

    def record_injected(self, kind: str, count: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + count

    def summary(self) -> str:
        if not self.faulted:
            return "no faults"
        kinds = ", ".join(
            f"{count}x {kind}" for kind, count in sorted(self.injected.items())
        ) or "none injected"
        tail = " -> host fallback" if self.host_fallback else ""
        return (
            f"faults {kinds}; {self.retries} retries "
            f"(backoff {self.backoff_ms:.1f} ms), "
            f"{self.redistributed_morsels} morsels redistributed over "
            f"{self.waves} waves, lost devices "
            f"{self.degraded_devices or '[]'}{tail}"
        )
