"""The ``engine="auto"`` execution driver.

:class:`AutoExecutor` owns everything a self-tuning session needs: the
statistics catalog, the advisor, the accuracy window, a pooled device
(with a :class:`~repro.placement.BufferPool` attached), a pool-less
transient device, and lazily-built scale-out executors per device count.  For
each compiled query it

1. asks the :class:`~repro.optimizer.advisor.Advisor` for the cheapest
   feasible :class:`~repro.optimizer.cost.StrategyChoice` (discounting
   the h2d charge for columns already pool-resident, and the whole of a
   build pipeline whose hash table is),
2. runs that point through :func:`repro.placement.executor.dispatch`
   — the one ladder a pinned session uses too
   (:class:`~repro.scaleout.ScaleOutExecutor`,
   :func:`~repro.macro.batch.execute_out_of_core`,
   :func:`~repro.placement.execute_with_placement`, or the bare
   ``Engine.execute``) so results are byte-identical to pinned runs by
   construction,
3. records the prediction beside the observed time and exact PCIe
   bytes in its :class:`AccuracyWindow` (reported, never fed back),
   and attaches the full
   :class:`~repro.optimizer.advisor.OptimizerDecision` to
   ``result.optimizer``.

A safety net guarantees the advisor can never strand a query on an
infeasible pick: any run-to-finish execution that still raises
:class:`~repro.errors.DeviceMemoryError` (the estimate was wrong) is
retried on the streaming out-of-core path, and the miss is recorded
(``fallbacks``, and a pruned candidate on the decision).
"""

from __future__ import annotations

import statistics
import threading
from collections import deque
from typing import NamedTuple

from ..compression import resolve_compression
from ..engines import make_engine
from ..engines.base import Engine, ExecutionResult
from ..errors import DeviceMemoryError
from ..hardware.device import VirtualCoprocessor
from ..hardware.interconnect import PCIE3, Interconnect
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import Profile
from ..placement.executor import base_columns, dispatch
from ..plan.physical import PhysicalQuery
from ..storage.database import Database
from .advisor import OUT_OF_MEMORY, Advisor, OptimizerDecision, PrunedCandidate
from .cost import StrategyChoice, merge_overhead_ms
from .stats import StatisticsCatalog


class Accuracy(NamedTuple):
    """An :class:`AccuracyWindow` as one observation left it."""

    samples: int
    median_time_error: float | None
    median_byte_error: float | None


class AccuracyWindow:
    """Relative time and link-byte errors of the last ``history``
    predictions.  What the metrics and the benchmark report — no
    decision reads it: an estimate is a pure function of (plan,
    statistics, policy, pool contents)."""

    def __init__(self, history: int = 256):
        self._lock = threading.Lock()
        self._time_errors: deque[float] = deque(maxlen=history)
        self._byte_errors: deque[float] = deque(maxlen=history)
        self.samples = 0

    def observe(
        self, predicted_ms, observed_ms, predicted_bytes=None, observed_bytes=None
    ) -> Accuracy:
        with self._lock:
            if observed_ms > 0 and predicted_ms > 0:
                self._time_errors.append(abs(predicted_ms - observed_ms) / observed_ms)
            if predicted_bytes is not None and observed_bytes:
                self._byte_errors.append(
                    abs(predicted_bytes - observed_bytes) / observed_bytes
                )
            self.samples += 1
            return Accuracy(
                self.samples, _median(self._time_errors), _median(self._byte_errors)
            )

    def median_time_error(self) -> float | None:
        with self._lock:
            return _median(self._time_errors)

    def median_byte_error(self) -> float | None:
        with self._lock:
            return _median(self._byte_errors)


def _median(values) -> float | None:
    return statistics.median(values) if values else None


class AutoExecutor:
    """Adaptive executor behind ``engine="auto"`` / ``devices="auto"``.

    ``engine``/``devices``/``placement`` pin individual
    lattice dimensions (``None`` leaves them to the advisor); e.g.
    ``engine="auto", devices=2`` fixes the fleet size but lets the
    advisor pick micro model, macro model, and placement.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        interconnect: Interconnect = PCIE3,
        engine: str | None = None,
        devices: int | None = None,
        partitioning: str = "range",
        placement: str | None = None,
        statistics: StatisticsCatalog | None = None,
        compression=None,
    ):
        self.profile = profile
        self.interconnect = interconnect
        self.compression = resolve_compression(compression)
        self.statistics = statistics if statistics is not None else StatisticsCatalog()
        #: Estimate accuracy over this executor's recent queries (named
        #: for the correction loop it outlived: the benchmark reads it).
        self.calibrator = AccuracyWindow()
        self.advisor = Advisor(
            profile,
            interconnect,
            statistics=self.statistics,
            compression=self.compression,
        )
        self.pinned_engine = engine
        self.pinned_devices = devices
        self.pinned_placement = placement
        self.partitioning = partitioning
        self._lock = threading.Lock()
        self._engines: dict[str, Engine] = {}
        self._scaleout: dict[int, object] = {}
        self._devices: dict[bool, VirtualCoprocessor] = {}
        self.decisions = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # lazily-built execution resources
    # ------------------------------------------------------------------
    def _engine(self, name: str) -> Engine:
        with self._lock:
            engine = self._engines.get(name)
            if engine is None:
                engine = make_engine(name)
                self._engines[name] = engine
            return engine

    def _device(self, pooled: bool) -> VirtualCoprocessor:
        """The executor's device with (``pooled``) or without a
        :class:`~repro.placement.BufferPool`, built on first use."""
        with self._lock:
            device = self._devices.get(pooled)
            if device is None:
                device = VirtualCoprocessor(
                    self.profile, interconnect=self.interconnect
                )
                device.compression = self.compression
                if pooled:
                    from ..placement import BufferPool

                    BufferPool(device)
                self._devices[pooled] = device
            return device

    def _scaleout_executor(self, devices: int):
        with self._lock:
            executor = self._scaleout.get(devices)
            if executor is None:
                from ..scaleout import ScaleOutExecutor

                executor = ScaleOutExecutor(
                    devices,
                    profile=self.profile,
                    interconnect=self.interconnect,
                    partitioning=self.partitioning,
                    residency=True,
                    compression=self.compression,
                )
                self._scaleout[devices] = executor
            return executor

    # ------------------------------------------------------------------
    def _residency(
        self, query: PhysicalQuery, database: Database
    ) -> tuple[frozenset, frozenset[int]]:
        """What of the plan is already on the pooled device: the base
        columns, ``(table, column)``, the pipelines that run read and
        the pool holds — which ones, not only their bytes, because a
        pipeline loads iff one of its first reads is missing — and the
        build pipelines whose hash tables are resident (they will not
        run)."""
        device = self._devices.get(True)
        if device is None:
            return frozenset(), frozenset()
        pool = device.placement_pool
        serial = database.fingerprint()[0]
        tables = pool.resident_builds(query.pipelines, database)
        resident = frozenset(
            (table, name)
            for table, name, _column in base_columns(query, database, skip=tables)
            if (serial, table, name) in pool
        )
        return resident, tables

    # ------------------------------------------------------------------
    def advise(
        self, query: PhysicalQuery, database: Database, record: Profile | None = None
    ) -> OptimizerDecision:
        """The advisor's pick for ``query``; the kernel lookups pricing
        makes are logged on ``record`` (if any)."""
        resident_columns, resident_tables = self._residency(query, database)
        return self.advisor.advise(
            query,
            database,
            engine=self.pinned_engine,
            devices=self.pinned_devices,
            partitioning=self.partitioning,
            placement=self.pinned_placement,
            resident_columns=resident_columns,
            resident_tables=resident_tables,
            record=record,
        )

    def execute(
        self, query: PhysicalQuery, database: Database, seed: int = 42
    ) -> ExecutionResult:
        """Advise, run, observe — the full adaptive loop for one query."""
        advice = Profile()
        decision = self.advise(query, database, advice)
        strategy = decision.chosen
        result = self._dispatch(strategy, query, database, seed, decision)
        result.profile.carry(advice)
        observed_ms = result.total_ms
        if result.scaleout is not None:
            # Simulated clock only: the estimator's merge model, not the
            # wall-clock merge, or decisions stop being repeatable.
            observed_ms = result.scaleout.makespan_ms + merge_overhead_ms(
                result.scaleout.partitions
            )
        decision.observed_ms = observed_ms
        decision.observed_pcie_bytes = result.input_bytes + result.output_bytes
        decision.accuracy = self.calibrator.observe(
            predicted_ms=decision.predicted_ms,
            observed_ms=observed_ms,
            predicted_bytes=decision.estimate.pcie_bytes,
            observed_bytes=decision.observed_pcie_bytes,
        )
        result.optimizer = decision
        with self._lock:
            self.decisions += 1
        return result

    def _dispatch(
        self,
        strategy: StrategyChoice,
        query: PhysicalQuery,
        database: Database,
        seed: int,
        decision: OptimizerDecision,
    ) -> ExecutionResult:
        """Run the advised point through the shared ladder
        (:func:`repro.placement.executor.dispatch`), with the auto-only
        safety net around the bare run-to-finish path."""
        engine = self._engine(strategy.engine)
        fleet = device = None
        if strategy.devices > 1:
            fleet = self._scaleout_executor(strategy.devices)
        else:
            device = self._device(pooled=strategy.placement == "pooled")
        block_bytes = self.advisor.estimator.stream_block_bytes()
        try:
            return dispatch(
                engine, query, database, device, seed, fleet=fleet,
                macro=strategy.macro, block_bytes=block_bytes,
            )
        except DeviceMemoryError as error:
            # The fleet, the streaming executor and the buffer pool own
            # their recovery; only the bare engine needs the net.
            if (
                fleet is not None
                or strategy.macro == "out-of-core"
                or device.placement_pool is not None
            ):
                raise
            # Safety net: the fit estimate was wrong.  Stream instead.
            with self._lock:
                self.fallbacks += 1
            decision.pruned.append(PrunedCandidate(strategy, OUT_OF_MEMORY))
            result = dispatch(
                engine, query, database, device, seed,
                macro="out-of-core", block_bytes=block_bytes,
            )
            result.profile.carry(getattr(error, "record", None))
            return result

    def placement_stats(self):
        device = self._devices.get(True)
        return device.placement_pool.stats() if device is not None else None
