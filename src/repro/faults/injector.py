"""The runtime half of fault injection: arming a plan over a fleet.

A :class:`FaultInjector` is created per query execution (the plan
itself stays immutable and replayable).  The scale-out executor calls
its three hooks at the injection points:

* :meth:`on_build` — before a device runs the broadcast build sides;
* :meth:`before_morsel` — before each fact-morsel attempt (device
  loss / OOM / straggler stall / timeout fire here);
* :meth:`deliver` — on the gathered partial of a morsel (corruption
  fires here: the partial is bit-flipped and the checksum verification
  in the executor flags the mismatch).

Spec matching is keyed by device/morsel/op, and each spec carries a
finite ``times`` budget, so firings are a deterministic function of the
execution schedule — retries of the same morsel consume budget in
order, which is what makes "fail twice then succeed" expressible.

The executor runs the devices of a wave one after another on the
calling thread, so the hooks fire in one total order — wave, then
device, then morsel, then attempt — and :attr:`FaultInjector.fired`
repeats exactly from run to run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import DeviceMemoryError, MorselTimeoutError, TransferCorruptionError
from .plan import FaultPlan, FaultSpec
from .recovery import RetryPolicy


def partial_checksum(arrays: dict) -> int:
    """CRC-32 over a gathered partial (column names + raw bytes).

    Computed device-side before the d2h transfer and re-verified on the
    host, so in-flight corruption is detected deterministically.
    """
    crc = 0
    for name in sorted(arrays):
        crc = zlib.crc32(name.encode("utf-8"), crc)
        values = np.ascontiguousarray(np.asarray(arrays[name]))
        crc = zlib.crc32(values.tobytes(), crc)
    return crc


@dataclass(frozen=True)
class FiredFault:
    """One fault firing (the injector's replay log)."""

    kind: str
    device: int
    morsel: int | None
    op: str


class FaultInjector:
    """Per-query armed state of a :class:`~repro.faults.plan.FaultPlan`."""

    def __init__(self, plan: FaultPlan, policy: RetryPolicy | None = None):
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        #: Remaining firings per spec (parallel to ``plan.specs``).
        self._remaining = [spec.times for spec in plan.specs]
        #: Every fault fired so far, in firing order.
        self.fired: list[FiredFault] = []

    # ------------------------------------------------------------------
    def _take(
        self,
        op: str,
        device: int,
        morsel: int | None,
        corruption: bool = False,
    ) -> list[FaultSpec]:
        """Consume (and log) every spec matching this execution event.

        Corruption specs fire at the gather point (:meth:`deliver`),
        every other kind at the pre-execution points, so each call
        consumes one phase's kinds only.
        """
        taken: list[FaultSpec] = []
        for index, spec in enumerate(self.plan.specs):
            if (spec.kind == "corruption") != corruption:
                continue
            if self._remaining[index] < 1 or not spec.matches(op, device, morsel):
                continue
            self._remaining[index] -= 1
            self.fired.append(
                FiredFault(kind=spec.kind, device=device, morsel=morsel, op=op)
            )
            taken.append(spec)
        return taken

    def counts(self) -> dict:
        """Faults fired so far, by kind."""
        out: dict = {}
        for fired in self.fired:
            out[fired.kind] = out.get(fired.kind, 0) + 1
        return out

    def fired_count(self) -> int:
        """Total firings so far (marker for :meth:`fired_matching`)."""
        return len(self.fired)

    def fired_matching(
        self, start: int, device: int, morsel: int | None = None
    ) -> bool:
        """Did any firing since marker ``start`` hit this device (and
        morsel, when given)?  The executor uses this to tell injected
        failures (finite budgets — worth a fresh round) from genuine
        ones (which exhaust)."""
        return any(
            fired.device == device
            and (morsel is None or fired.morsel == morsel)
            for fired in self.fired[start:]
        )

    # ------------------------------------------------------------------
    # injection points
    # ------------------------------------------------------------------
    def on_build(self, device_index: int, device) -> None:
        """Fire build-phase faults for ``device_index`` (may raise)."""
        self._apply(self._take("build", device_index, None), device_index, None, device)

    def before_morsel(self, device_index: int, morsel: int, device) -> None:
        """Fire pre-execution faults for one morsel attempt (may raise)."""
        self._apply(
            self._take("morsel", device_index, morsel), device_index, morsel, device
        )

    def deliver(self, device_index: int, morsel: int, produced: dict, device) -> dict:
        """The gathered partial as it arrives on the host: corrupted
        when a corruption fault fires, untouched otherwise.  The caller
        verifies the checksum and raises on mismatch."""
        specs = self._take("morsel", device_index, morsel, corruption=True)
        if not specs:
            return produced
        _log_firing(device, "corruption", device_index, morsel)
        return _corrupt(produced)

    # ------------------------------------------------------------------
    def _apply(
        self,
        specs: list[FaultSpec],
        device_index: int,
        morsel: int | None,
        device,
    ) -> None:
        """Apply already-consumed non-corruption specs, raising the
        strongest failure last-wins order: loss > oom > timeout."""
        error = None
        for spec in specs:
            if spec.kind == "straggler":
                _log_firing(
                    device, "straggler", device_index, morsel, delay_ms=spec.delay_ms
                )
                device.stall(
                    spec.delay_ms,
                    label=f"fault.straggler"
                    + (f".p{morsel}" if morsel is not None else ".build"),
                )
                timeout = self.policy.morsel_timeout_ms
                if (
                    timeout is not None
                    and morsel is not None
                    and spec.delay_ms >= timeout
                ):
                    error = MorselTimeoutError(
                        device_index, morsel, spec.delay_ms, timeout
                    )
            elif spec.kind == "oom":
                _log_firing(device, "oom", device_index, morsel)
                capacity = device.profile.memory_capacity
                available = capacity - device.allocated_bytes
                error = DeviceMemoryError(available + 1, available, capacity)
            elif spec.kind == "device-loss":
                _log_firing(device, "device-loss", device_index, morsel)
                # Mark the device dead and let the engine trip over it at
                # its next allocation/transfer/launch — loss lands
                # mid-morsel, exercising the partial-state cleanup path.
                device.mark_lost()
        if error is not None:
            raise error


def _log_firing(device, kind: str, index: int, morsel: int | None, **attrs) -> None:
    """Note a firing on ``device``'s query record, where it happens."""
    where = f"p{morsel}" if morsel is not None else "build"
    device.log.phase(
        f"fault {kind} {where}", "fault", device=index, morsel=morsel, kind=kind, **attrs
    )


def _corrupt(produced: dict) -> dict:
    """A copy of ``produced`` with one byte flipped in the first
    non-empty column (simulated in-flight corruption)."""
    corrupted = {name: np.array(values, copy=True) for name, values in produced.items()}
    for values in corrupted.values():
        view = values.view(np.uint8).reshape(-1)
        if view.size:
            view[0] ^= 0xFF
            return corrupted
    return corrupted
