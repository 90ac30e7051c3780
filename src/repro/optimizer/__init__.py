"""Adaptive cost-based optimizer (see ``docs/optimizer.md``).

Turns the paper's hand-run crossover experiments — multi-pass vs.
compound vs. local-resolution, run-to-finish vs. out-of-core, one
device vs. a fleet, pooled vs. transient placement — into an automatic
decision per query:

* :mod:`~repro.optimizer.stats` — fingerprint-cached table/column
  statistics feeding selectivity and group-count estimates;
* :mod:`~repro.optimizer.cost` — per-strategy predictions of bytes per
  memory level, atomic pressure, and PCIe traffic: the engines' own
  kernels run over estimated cardinalities, priced through the same
  :class:`~repro.hardware.costmodel.KernelCostModel` the simulator
  uses;
* :mod:`~repro.optimizer.advisor` — lattice enumeration, dominance
  pruning, ranked :class:`StrategyChoice` with explainable breakdown;
* :mod:`~repro.optimizer.auto` — the ``engine="auto"`` executor wiring
  it all into the session/serving paths, and the window of predicted
  vs. observed errors the metrics report (it feeds no decision).
"""

from .advisor import Advisor, OptimizerDecision, PrunedCandidate
from .auto import AccuracyWindow, AutoExecutor
from .cost import (
    MACRO_MODELS,
    MICRO_ENGINES,
    PLACEMENTS,
    CostEstimate,
    CostEstimator,
    PipelineEstimate,
    StrategyChoice,
)
from .stats import (
    ColumnStats,
    StatisticsCatalog,
    TableStats,
    collect_table_stats,
)

__all__ = [
    "AccuracyWindow",
    "Advisor",
    "AutoExecutor",
    "ColumnStats",
    "CostEstimate",
    "CostEstimator",
    "MACRO_MODELS",
    "MICRO_ENGINES",
    "OptimizerDecision",
    "PLACEMENTS",
    "PipelineEstimate",
    "PrunedCandidate",
    "StatisticsCatalog",
    "StrategyChoice",
    "TableStats",
    "collect_table_stats",
]
