"""Strategy advisor: enumerate the candidate lattice, prune dominated
options, rank the rest by predicted time.

The advisor turns the paper's hand-run crossover experiments into an
automatic decision.  For a compiled :class:`PhysicalQuery` it builds the
cross product of

* micro engine (:data:`~repro.optimizer.cost.MICRO_ENGINES`),
* macro model (run-to-finish vs. streaming out-of-core),
* device count 1..N with the configured partitioning scheme,
* placement (pooled residency vs. transient transfers),

drops candidates that are *provably* wrong before estimating them
(out-of-core when the working set fits comfortably; multi-device when a
single device already beats the fixed merge overhead; streaming for
engines the batch executor cannot run), prices the rest through the
:class:`~repro.optimizer.cost.CostEstimator`, and returns an
:class:`OptimizerDecision` whose ``candidates`` list is the full
explainable breakdown.

Pinned dimensions are respected: a caller that fixes ``engine=
"pipelined"`` but leaves ``devices="auto"`` gets a lattice where only
the free dimensions vary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..hardware.interconnect import Interconnect
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import Profile
from ..plan.physical import AggregateSink, MaterializeSink, PhysicalQuery
from ..storage.database import Database
from .cost import (
    MACRO_MODELS,
    MICRO_ENGINES,
    PLACEMENTS,
    STREAMABLE_ENGINES,
    CostEstimate,
    CostEstimator,
    StrategyChoice,
)
from .stats import StatisticsCatalog

#: Largest fleet the lattice enumerates when ``devices`` is left free.
MAX_DEVICES = 4

#: Fraction of device memory below which out-of-core streaming is
#: provably dominated by run-to-finish (same kernel traffic, plus
#: per-block overhead) and is pruned without estimation.
OOC_PRUNE_FRACTION = 0.5

#: Fraction of device memory above which run-to-finish is considered
#: at risk of failing allocation mid-query; candidates above it are
#: kept only if nothing safer is feasible.
FIT_SAFETY_FRACTION = 0.9

#: Why the auto executor's safety net prunes the pick it had to stream.
OUT_OF_MEMORY = "ran out of device memory"


@dataclass
class PrunedCandidate:
    """A lattice point eliminated before (or after) estimation."""

    strategy: StrategyChoice
    reason: str


@dataclass
class OptimizerDecision:
    """The advisor's output: the pick plus the explainable breakdown."""

    chosen: StrategyChoice
    estimate: CostEstimate
    #: Feasible candidates, ranked best-first by predicted time.
    candidates: list[CostEstimate] = field(default_factory=list)
    pruned: list[PrunedCandidate] = field(default_factory=list)
    #: Advisor wall-clock (ms) — the planning overhead.
    advise_ms: float = 0.0
    #: Observed execution time, attached post-run by the executor.
    observed_ms: float | None = None
    observed_pcie_bytes: int | None = None
    #: The executor's :class:`~repro.optimizer.auto.Accuracy` window
    #: right after this query's observation joined it.
    accuracy: object | None = None

    @property
    def predicted_ms(self) -> float:
        return self.estimate.total_ms

    @property
    def oom_fallback(self) -> bool:
        """Did the run hit the out-of-memory safety net?"""
        return any(pruned.reason == OUT_OF_MEMORY for pruned in self.pruned)

    def error_fraction(self) -> float | None:
        """Relative |predicted - observed| / observed, once observed."""
        if not self.observed_ms:
            return None
        return abs(self.predicted_ms - self.observed_ms) / self.observed_ms

    def describe(self) -> str:
        return self.chosen.describe()

    def render(self, limit: int = 8) -> str:
        """Human-readable candidate table for EXPLAIN output."""
        lines = [
            f"strategy: {self.chosen.describe()}  "
            f"(predicted {self.predicted_ms:.3f} ms, "
            f"advise {self.advise_ms:.3f} ms)"
        ]
        if self.observed_ms is not None:
            error = self.error_fraction()
            lines.append(
                f"observed: {self.observed_ms:.3f} ms "
                f"(error {100.0 * error:.1f}%)"
            )
        header = (
            f"  {'candidate':<44} {'pred ms':>9} {'pcie MB':>9} "
            f"{'global MB':>10} {'peak MB':>9}"
        )
        lines.append(header)
        for estimate in self.candidates[:limit]:
            marker = "*" if estimate.strategy == self.chosen else " "
            lines.append(
                f" {marker}{estimate.strategy.describe():<44} "
                f"{estimate.total_ms:>9.3f} "
                f"{estimate.pcie_bytes / 1e6:>9.3f} "
                f"{estimate.global_bytes / 1e6:>10.3f} "
                f"{estimate.peak_device_bytes / 1e6:>9.1f}"
            )
        hidden = len(self.candidates) - limit
        if hidden > 0:
            lines.append(f"  ... {hidden} more candidates")
        for pruned in self.pruned[:limit]:
            lines.append(
                f"  x {pruned.strategy.describe():<43} {pruned.reason}"
            )
        # Late-materialization decisions (compression="lazy"): which
        # predicate columns scan compressed and which decode.
        notes = [
            f"  {pipe.name}: {note}"
            for pipe in self.estimate.pipelines
            for note in pipe.scan_notes
        ]
        if notes:
            lines.append("late materialization:")
            lines.extend(notes[:limit])
            if len(notes) > limit:
                lines.append(f"  ... {len(notes) - limit} more columns")
        return "\n".join(lines)


class Advisor:
    """Ranks execution strategies for compiled queries."""

    def __init__(
        self,
        profile: DeviceProfile,
        interconnect: Interconnect | None = None,
        statistics: StatisticsCatalog | None = None,
        block_bytes: int = 2 * 1024 * 1024,
        compression=None,
    ):
        self.profile = profile
        self.statistics = statistics if statistics is not None else StatisticsCatalog()
        self.estimator = CostEstimator(
            profile, interconnect, self.statistics, block_bytes=block_bytes,
            compression=compression,
        )

    # ------------------------------------------------------------------
    def candidate_strategies(
        self,
        query: PhysicalQuery,
        *,
        engine: str | None = None,
        macro: str | None = None,
        devices: int | None = None,
        partitioning: str = "range",
        placement: str | None = None,
    ) -> tuple[list[StrategyChoice], list[PrunedCandidate]]:
        """The lattice for ``query`` with pinned dimensions frozen.

        Returns ``(candidates, pruned)`` where ``pruned`` holds lattice
        points eliminated by static feasibility (no cost estimate
        needed): non-streamable engines under out-of-core, and any
        partitioned macro over a virtual-table final pipeline.
        """
        final = query.final_pipeline
        streaming_ok = not final.source_is_virtual and isinstance(
            final.sink, (MaterializeSink, AggregateSink)
        )
        scaleout_ok = not final.source_is_virtual

        engines = [engine] if engine else list(MICRO_ENGINES)
        macros = [macro] if macro else list(MACRO_MODELS)
        if devices is not None:
            device_counts = [devices]
        else:
            device_counts = list(range(1, MAX_DEVICES + 1))
        placements = [placement] if placement else list(PLACEMENTS)

        candidates: list[StrategyChoice] = []
        pruned: list[PrunedCandidate] = []
        for candidate_engine in engines:
            for candidate_macro in macros:
                for count in device_counts:
                    for candidate_placement in placements:
                        choice = StrategyChoice(
                            engine=candidate_engine,
                            macro=candidate_macro,
                            devices=count,
                            partitioning=partitioning,
                            placement=candidate_placement,
                        )
                        reason = self._static_infeasibility(
                            choice, streaming_ok, scaleout_ok
                        )
                        if reason:
                            pruned.append(PrunedCandidate(choice, reason))
                        else:
                            candidates.append(choice)
        return candidates, pruned

    def _static_infeasibility(
        self, choice: StrategyChoice, streaming_ok: bool, scaleout_ok: bool
    ) -> str | None:
        if choice.macro == "out-of-core":
            if choice.devices > 1:
                return "out-of-core streaming is single-device"
            if not streaming_ok:
                return "plan is not streamable (virtual final pipeline)"
            if choice.engine not in STREAMABLE_ENGINES:
                return "engine has no compound streaming mode"
        if choice.devices > 1 and not scaleout_ok:
            return "virtual-table final pipeline cannot be partitioned"
        return None

    # ------------------------------------------------------------------
    def advise(
        self,
        query: PhysicalQuery,
        database: Database,
        *,
        engine: str | None = None,
        macro: str | None = None,
        devices: int | None = None,
        partitioning: str = "range",
        placement: str | None = None,
        resident_columns: frozenset = frozenset(),
        resident_tables: frozenset[int] = frozenset(),
        record: Profile | None = None,
    ) -> OptimizerDecision:
        """Pick the cheapest feasible strategy for ``query``.
        ``resident_columns`` / ``resident_tables``: what a pooled device
        already holds of it; ``record``: where the kernel lookups of the
        pricing are logged (see :meth:`CostEstimator.estimate
        <repro.optimizer.cost.CostEstimator.estimate>`)."""
        started = time.perf_counter()
        capacity = self.profile.memory_capacity
        candidates, pruned = self.candidate_strategies(
            query,
            engine=engine,
            macro=macro,
            devices=devices,
            partitioning=partitioning,
            placement=placement,
        )
        if not candidates and not pruned:
            raise ConfigurationError("no candidate strategies to rank")

        estimates: list[CostEstimate] = []
        fits_comfortably = False
        run_to_finish_available = any(
            choice.macro == "run-to-finish" for choice in candidates
        )
        for choice in candidates:
            estimate = self.estimator.estimate(
                query, database, choice, resident_columns=resident_columns,
                resident_tables=resident_tables, record=record,
            )
            if not estimate.feasible:
                pruned.append(PrunedCandidate(choice, estimate.reason))
                continue
            if (
                choice.macro == "run-to-finish"
                and estimate.peak_device_bytes
                <= OOC_PRUNE_FRACTION * capacity
            ):
                fits_comfortably = True
            if estimate.peak_device_bytes > capacity:
                if choice.macro == "run-to-finish":
                    pruned.append(PrunedCandidate(
                        choice,
                        f"working set {estimate.peak_device_bytes / 1e6:.0f}MB"
                        f" exceeds device memory {capacity / 1e6:.0f}MB",
                    ))
                    continue
            estimates.append(estimate)

        if fits_comfortably and run_to_finish_available:
            kept: list[CostEstimate] = []
            for estimate in estimates:
                if estimate.strategy.macro == "out-of-core":
                    pruned.append(PrunedCandidate(
                        estimate.strategy,
                        "dominated: working set fits in "
                        f"<{OOC_PRUNE_FRACTION:.0%} of device memory",
                    ))
                else:
                    kept.append(estimate)
            estimates = kept

        if not estimates:
            raise ConfigurationError(
                "no feasible execution strategy for this plan; "
                "pruned: "
                + "; ".join(
                    f"{p.strategy.describe()} ({p.reason})" for p in pruned[:4]
                )
            )

        # Risky run-to-finish candidates (near-capacity working sets)
        # only win if no safer candidate exists at all.
        safe = [
            estimate
            for estimate in estimates
            if estimate.strategy.macro == "out-of-core"
            or estimate.peak_device_bytes <= FIT_SAFETY_FRACTION * capacity
        ]
        pool = safe if safe else estimates
        pool.sort(key=_rank_key)
        best = pool[0]
        ranked = sorted(estimates, key=_rank_key)
        decision = OptimizerDecision(
            chosen=best.strategy,
            estimate=best,
            candidates=ranked,
            pruned=pruned,
            advise_ms=(time.perf_counter() - started) * 1e3,
        )
        return decision


def _rank_key(estimate: CostEstimate) -> tuple:
    """Predicted time, with deterministic tie-breaks: fewer devices,
    pooled before transient, run-to-finish before streaming."""
    strategy = estimate.strategy
    return (
        round(estimate.total_ms, 9),
        strategy.devices,
        0 if strategy.placement == "pooled" else 1,
        0 if strategy.macro == "run-to-finish" else 1,
        strategy.engine,
    )
