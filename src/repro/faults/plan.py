"""Deterministic fault schedules: :class:`FaultSpec` and :class:`FaultPlan`.

A fault plan is a *data* description of every fault a run will see,
keyed by device / morsel / operation, so a chaos run replays exactly:
the same plan against the same database and device count produces the
same injected faults, the same recovery decisions, and — the headline
guarantee — the same bytes in the result table as a fault-free run
whenever at least one device survives.

Plans serialize to JSON (``to_json``/``from_json``) so a failing CI
seed can be replayed locally (see ``docs/fault-tolerance.md``), and
:meth:`FaultPlan.generate` derives a random-but-reproducible plan from
an integer seed, always leaving at least one device alive.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from ..errors import ConfigurationError

#: Injectable failure kinds.
#:
#: * ``device-loss`` — the device drops out before the matched op; the
#:   engine fails mid-morsel at its next device operation and the
#:   device stays dead for the rest of the query.
#: * ``oom`` — the matched op raises
#:   :class:`~repro.errors.DeviceMemoryError`.
#: * ``corruption`` — the gathered partial of the matched morsel is
#:   corrupted in flight; the checksum verification flags it and the
#:   morsel is re-executed.
#: * ``straggler`` — the device's simulated clock stalls ``delay_ms``
#:   before the matched op; if the delay exceeds the retry policy's
#:   ``morsel_timeout_ms`` it is promoted to a
#:   :class:`~repro.errors.MorselTimeoutError`.
FAULT_KINDS = ("device-loss", "oom", "corruption", "straggler")

#: Operations a fault can bind to: the broadcast build phase of one
#: device, or the execution of one fact morsel.
FAULT_OPS = ("build", "morsel")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``device``/``morsel`` select where it fires: a morsel-op spec must
    pin at least one of the two (both ``None`` would hit whichever
    morsel the host happens to simulate first — an artifact of the
    schedule, not a place in the modeled fleet); a build-op spec must
    pin the device.
    ``times`` is how many matched executions the fault fires on before
    burning out — retries of the same morsel consume firings, which is
    how a plan distinguishes "fails once, retry succeeds" (``times=1``)
    from "fails everywhere" (a large ``times``).
    """

    kind: str
    device: int | None = None
    morsel: int | None = None
    op: str = "morsel"
    times: int = 1
    #: Straggler stall in simulated milliseconds (``straggler`` only).
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            choices = ", ".join(FAULT_KINDS)
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; valid choices: {choices}"
            )
        if self.op not in FAULT_OPS:
            choices = ", ".join(FAULT_OPS)
            raise ConfigurationError(
                f"unknown fault op {self.op!r}; valid choices: {choices}"
            )
        if self.op == "build":
            if self.device is None:
                raise ConfigurationError(
                    "build-op faults must name a device (the build phase "
                    "runs on every device concurrently)"
                )
            if self.morsel is not None:
                raise ConfigurationError(
                    "build-op faults cannot name a morsel"
                )
        elif self.device is None and self.morsel is None:
            raise ConfigurationError(
                "morsel-op faults must pin a device and/or a morsel "
                "(a fully wildcarded fault would fire non-deterministically)"
            )
        if self.kind == "corruption" and self.op != "morsel":
            raise ConfigurationError(
                "corruption faults apply to gathered morsel partials only"
            )
        if not isinstance(self.times, int) or isinstance(self.times, bool) or self.times < 1:
            raise ConfigurationError(
                f"fault times must be an integer >= 1, got {self.times!r}"
            )
        if self.delay_ms < 0:
            raise ConfigurationError(
                f"fault delay_ms must be >= 0, got {self.delay_ms!r}"
            )
        if self.kind == "straggler" and self.delay_ms == 0:
            raise ConfigurationError(
                "straggler faults need a positive delay_ms"
            )

    # ------------------------------------------------------------------
    def matches(self, op: str, device: int, morsel: int | None) -> bool:
        """Does this spec bind to the given execution event?"""
        if self.op != op:
            return False
        if self.device is not None and self.device != device:
            return False
        if self.morsel is not None and self.morsel != morsel:
            return False
        return True

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "op": self.op, "times": self.times}
        if self.device is not None:
            out["device"] = self.device
        if self.morsel is not None:
            out["morsel"] = self.morsel
        if self.delay_ms:
            out["delay_ms"] = self.delay_ms
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault spec must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"kind", "op", "times", "device", "morsel", "delay_ms"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault spec keys: {', '.join(sorted(unknown))}"
            )
        if "kind" not in data:
            raise ConfigurationError("fault spec is missing 'kind'")
        return cls(
            kind=data["kind"],
            device=data.get("device"),
            morsel=data.get("morsel"),
            op=data.get("op", "morsel"),
            times=data.get("times", 1),
            delay_ms=data.get("delay_ms", 0.0),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable fault schedule for one (or more) queries.

    The plan itself is stateless; each query execution arms a fresh
    :class:`~repro.faults.injector.FaultInjector` over it, so the same
    executor can replay the plan query after query.
    """

    specs: tuple = ()
    #: The generator seed (replay breadcrumb; not used at match time).
    seed: int | None = None
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"fault plan entries must be FaultSpec, got {spec!r}"
                )

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def max_firings(self) -> int:
        """Upper bound on faults this plan can inject (sum of times)."""
        return sum(spec.times for spec in self.specs)

    @property
    def lost_devices(self) -> set:
        """Devices a full replay of the plan would take down."""
        return {
            spec.device for spec in self.specs
            if spec.kind == "device-loss" and spec.device is not None
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {"specs": [spec.to_dict() for spec in self.specs]}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.note:
            out["note"] = self.note
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault plan must be an object, got {type(data).__name__}"
            )
        specs = data.get("specs", [])
        if not isinstance(specs, list):
            raise ConfigurationError("fault plan 'specs' must be a list")
        return cls(
            specs=tuple(FaultSpec.from_dict(entry) for entry in specs),
            seed=data.get("seed"),
            note=data.get("note", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"fault plan is not valid JSON: {error}")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the CLI's ``--fault-plan``)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ConfigurationError(f"cannot read fault plan {path!r}: {error}")
        return cls.from_json(text)

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        devices: int,
        morsels: int,
        max_faults: int = 6,
        kinds: tuple = FAULT_KINDS,
        straggler_ms: tuple = (0.5, 8.0),
        note: str = "",
    ) -> "FaultPlan":
        """A reproducible random plan that leaves >= 1 device alive.

        The same ``(seed, devices, morsels)`` always yields the same
        plan; at most ``devices - 1`` distinct devices are ever lost,
        so a surviving device (and therefore an exact result) is
        guaranteed by construction.
        """
        if devices < 1:
            raise ConfigurationError(f"devices must be >= 1, got {devices}")
        if morsels < 1:
            raise ConfigurationError(f"morsels must be >= 1, got {morsels}")
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        lost: set[int] = set()
        for _ in range(rng.randint(1, max(1, max_faults))):
            kind = rng.choice(list(kinds))
            if kind == "device-loss":
                candidates = [d for d in range(devices) if d not in lost]
                if len(lost) >= devices - 1 or not candidates:
                    kind = "straggler"  # keep the survivor guarantee
                else:
                    device = rng.choice(candidates)
                    lost.add(device)
                    if rng.random() < 0.25:
                        specs.append(
                            FaultSpec(kind="device-loss", device=device, op="build")
                        )
                    else:
                        specs.append(
                            FaultSpec(
                                kind="device-loss",
                                device=device,
                                morsel=rng.randrange(morsels) if rng.random() < 0.5 else None,
                            )
                        )
                    continue
            morsel = rng.randrange(morsels)
            device = rng.randrange(devices) if rng.random() < 0.3 else None
            if kind == "straggler":
                low, high = straggler_ms
                specs.append(
                    FaultSpec(
                        kind="straggler",
                        device=device,
                        morsel=morsel,
                        times=rng.randint(1, 2),
                        delay_ms=round(rng.uniform(low, high), 3),
                    )
                )
            else:
                specs.append(
                    FaultSpec(
                        kind=kind,
                        device=device,
                        morsel=morsel,
                        times=rng.randint(1, 2),
                    )
                )
        return cls(specs=tuple(specs), seed=seed, note=note)

    def summary(self) -> str:
        if not self.specs:
            return "empty fault plan (injection armed, nothing scheduled)"
        kinds: dict[str, int] = {}
        for spec in self.specs:
            kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
        parts = ", ".join(f"{count}x {kind}" for kind, count in sorted(kinds.items()))
        seed = f" (seed {self.seed})" if self.seed is not None else ""
        return f"{len(self.specs)} faults: {parts}{seed}"
