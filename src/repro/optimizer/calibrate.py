"""Online calibration: close the loop between predicted and observed.

After every execution the auto executor reports the advisor's
prediction alongside the measured result (wall time from
:class:`ExecutionResult`, exact PCIe bytes from the traffic profile).
The :class:`Calibrator` maintains one bounded-EWMA correction factor
per ``(device, engine, macro)`` bucket:

    factor <- (1 - alpha) * factor + alpha * clamp(observed / predicted)

Predictions are multiplied by the bucket's factor before ranking, so a
systematic bias in the per-engine byte shapes (say, a device whose real
launch overhead is double the profile's constant) is corrected after a
handful of queries without ever letting one outlier sample (GC pause,
cold cache) swing the model: per-sample ratios are clamped to
``sample_clamp`` and the accumulated factor to ``factor_clamp``.

Byte-level accuracy is tracked separately (predictions of PCIe traffic
vs. the meter's exact accounting) because bytes are deterministic —
their error measures the cardinality model, not host noise — and the
acceptance gate ("median byte error < 5% after 50 queries") reads it
via :meth:`Calibrator.median_byte_error`.
"""

from __future__ import annotations

import statistics
import threading
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class CalibrationSample:
    """One prediction/observation pair."""

    device: str
    engine: str
    macro: str
    predicted_ms: float
    observed_ms: float
    predicted_bytes: int | None = None
    observed_bytes: int | None = None

    @property
    def time_ratio(self) -> float:
        if self.predicted_ms <= 0:
            return 1.0
        return self.observed_ms / self.predicted_ms

    @property
    def byte_error(self) -> float | None:
        if self.predicted_bytes is None or not self.observed_bytes:
            return None
        return abs(self.predicted_bytes - self.observed_bytes) / self.observed_bytes


class Calibrator:
    """Per-(device, engine, macro) bounded-EWMA correction factors."""

    def __init__(
        self,
        alpha: float = 0.3,
        factor_clamp: tuple[float, float] = (0.25, 4.0),
        sample_clamp: tuple[float, float] = (0.1, 10.0),
        history: int = 256,
    ):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if factor_clamp[0] <= 0 or factor_clamp[0] > factor_clamp[1]:
            raise ValueError("factor_clamp must be a positive (low, high) pair")
        self.alpha = alpha
        self.factor_clamp = factor_clamp
        self.sample_clamp = sample_clamp
        self._lock = threading.Lock()
        self._factors: dict[tuple[str, str, str], float] = {}
        self._byte_errors: deque[float] = deque(maxlen=history)
        self._time_errors: deque[float] = deque(maxlen=history)
        self.samples = 0

    # ------------------------------------------------------------------
    def _bucket(self, device: str, strategy) -> tuple[str, str, str]:
        return (device, strategy.engine, strategy.macro)

    def factor(self, device: str, strategy) -> float:
        """Multiplier applied to raw predictions for this bucket."""
        with self._lock:
            return self._factors.get(self._bucket(device, strategy), 1.0)

    def observe(
        self,
        device: str,
        strategy,
        predicted_ms: float,
        observed_ms: float,
        predicted_bytes: int | None = None,
        observed_bytes: int | None = None,
    ) -> CalibrationSample:
        """Fold one execution into the bucket's EWMA."""
        sample = CalibrationSample(
            device=device,
            engine=strategy.engine,
            macro=strategy.macro,
            predicted_ms=predicted_ms,
            observed_ms=observed_ms,
            predicted_bytes=predicted_bytes,
            observed_bytes=observed_bytes,
        )
        low, high = self.sample_clamp
        ratio = min(high, max(low, sample.time_ratio))
        floor, ceiling = self.factor_clamp
        key = self._bucket(device, strategy)
        with self._lock:
            current = self._factors.get(key, 1.0)
            updated = (1.0 - self.alpha) * current + self.alpha * ratio
            self._factors[key] = min(ceiling, max(floor, updated))
            if observed_ms > 0 and predicted_ms > 0:
                self._time_errors.append(
                    abs(predicted_ms - observed_ms) / observed_ms
                )
            byte_error = sample.byte_error
            if byte_error is not None:
                self._byte_errors.append(byte_error)
            self.samples += 1
        return sample

    # ------------------------------------------------------------------
    def median_byte_error(self) -> float | None:
        """Median relative PCIe-byte error over the recent window."""
        with self._lock:
            if not self._byte_errors:
                return None
            return statistics.median(self._byte_errors)

    def median_time_error(self) -> float | None:
        with self._lock:
            if not self._time_errors:
                return None
            return statistics.median(self._time_errors)

    def snapshot(self) -> dict[tuple[str, str, str], float]:
        """Copy of the factor table (for metrics / EXPLAIN)."""
        with self._lock:
            return dict(self._factors)

    def reset(self) -> None:
        with self._lock:
            self._factors.clear()
            self._byte_errors.clear()
            self._time_errors.clear()
            self.samples = 0
