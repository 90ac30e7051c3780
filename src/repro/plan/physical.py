"""Physical pipelines (fusion operators).

The translation layer replaces a sequence of conventional operators
with *fusion operators* (Section 4.1).  A :class:`Pipeline` is one
fusion operator: a source table streamed through cardinality-changing
and mapping stages into a sink.  Sinks are the pipeline breakers of
the produce/consume model: hash-table builds, aggregations, and result
materialization.

Engines interpret (or compile kernels for) these structures; the
structures themselves are engine-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..expressions.expr import Expr
from .logical import AggSpec, PlanSchema, SortKey

#: Name under which the final pipeline's output is registered.
RESULT_NAME = "__result__"


@dataclass
class FilterStage:
    """Drop rows failing ``predicate`` (a `select` relational primitive)."""

    predicate: Expr


@dataclass
class MapStage:
    """Extend the scope with ``name = expr`` (a `map` primitive)."""

    name: str
    expr: Expr


@dataclass
class ProbeStage:
    """Probe a hash table built by an earlier pipeline (`join probe`).

    ``payload`` columns are fetched from the matched build row into the
    probe scope.  ``kind`` gives the join semantics; ``residual`` is an
    optional predicate evaluated after payload columns are in scope.
    """

    table_id: str
    probe_keys: list[Expr]
    payload: list[str] = field(default_factory=list)
    kind: str = "inner"
    payload_defaults: dict[str, float] = field(default_factory=dict)
    residual: Expr | None = None


@dataclass
class MaterializeSink:
    """Aligned write of the scope's output columns to a dense result."""

    outputs: list[str]


@dataclass
class BuildSink:
    """Build a join hash table over the pipeline's surviving rows."""

    table_id: str
    keys: list[Expr]
    payload: list[str] = field(default_factory=list)


@dataclass
class AggregateSink:
    """Grouped (or single-tuple) aggregation of the surviving rows."""

    group_keys: list[tuple[str, Expr]]
    aggregates: list[AggSpec]

    @property
    def accumulators(self) -> int:
        """Reduction targets: AVG keeps a running sum and a count."""
        return sum(2 if spec.op == "avg" else 1 for spec in self.aggregates)

    def entry_bytes(self, output_schema: PlanSchema) -> int:
        """Bytes of one aggregation-table entry: the group key plus all
        accumulators (AVG: 8-byte sum + 4-byte count; COUNT: 4; else 8)."""
        key_bytes = sum(output_schema.dtypes[name].itemsize for name, _ in self.group_keys)
        sizes = {"avg": 12, "count": 4}
        return max(key_bytes + sum(sizes.get(spec.op, 8) for spec in self.aggregates), 8)


Stage = FilterStage | MapStage | ProbeStage
Sink = MaterializeSink | BuildSink | AggregateSink


@dataclass
class Pipeline:
    """One fusion operator: source -> stages -> sink."""

    name: str
    source: str
    source_is_virtual: bool
    stages: list[Stage]
    sink: Sink
    #: Source columns the pipeline actually reads.
    required_columns: list[str]
    #: Scope schema after all stages (pre-sink).
    scope_schema: PlanSchema
    #: Name of the produced artifact: a hash-table id for builds, a
    #: virtual-table name for intermediate results, RESULT_NAME for the
    #: final pipeline.
    output_name: str
    #: Schema of the produced table (None for hash-table builds).
    output_schema: PlanSchema | None = None
    #: scope column name -> base table column name, for renamed scans.
    source_rename: dict[str, str] = field(default_factory=dict)
    #: What execution resolved for this pipeline *object* and would
    #: resolve identically again: its compiled kernels by kind
    #: (:mod:`repro.kernels.codegen`) and the pipelines derived from it
    #: at run time (:meth:`derive`).  Not part of the pipeline's value —
    #: a ``dataclasses.replace`` clone starts empty — and held by
    #: nothing else, so both die with the plan that owns the pipeline.
    kernels: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def is_final(self) -> bool:
        return self.output_name == RESULT_NAME

    def derive(self, key, build):
        """``build()`` once per ``key`` on this pipeline object: the
        partial-merge rewrite, a morsel's clone.  A pipeline derived
        once keeps its identity across executions of a cached plan, and
        with it the kernels already compiled for it."""
        try:
            return self.derived[key]
        except KeyError:
            # Two workers racing here build equal values; either stays.
            return self.derived.setdefault(key, build())

    def base_columns(self) -> list[tuple[str, str]]:
        """``(table, base column)`` of every column the pipeline reads
        from a catalog table (none for a virtual source)."""
        if self.source_is_virtual:
            return []
        rename = self.source_rename
        return [(self.source, rename.get(name, name)) for name in self.required_columns]

    def build_signature(self, probed: dict[str, str | None]) -> str | None:
        """What the hash table this build pipeline leaves is a function
        of besides the catalog: source table, renames, stages, sink keys
        and payload names — the structure, not the plan-local names, so
        the same dimension filtered the same way in two plans has one
        signature.  A probe stage stands for the signature of the table
        it probes (``probed``: table id -> signature of the builds that
        ran before).  ``None`` when the table cannot be named that way:
        the source, or a probed table, is a virtual (per-query) one."""

        def signature() -> str | None:
            if self.source_is_virtual or not isinstance(self.sink, BuildSink):
                return None
            parts = [f"{self.source}{sorted(self.source_rename.items())!r}"]
            for stage in self.stages:
                if isinstance(stage, FilterStage):
                    parts.append(f"filter({stage.predicate!r})")
                elif isinstance(stage, MapStage):
                    parts.append(f"map({stage.name}={stage.expr!r})")
                else:
                    table = probed.get(stage.table_id)
                    if table is None:
                        return None
                    parts.append(
                        f"probe[{table}]({stage.kind}, {stage.probe_keys!r}, "
                        f"{stage.payload!r}, {sorted(stage.payload_defaults.items())!r}, "
                        f"{stage.residual!r})"
                    )
            parts.append(f"build({self.sink.keys!r}, {self.sink.payload!r})")
            return " | ".join(parts)

        return self.derive("build-signature", signature)

    def describe(self) -> str:
        """A one-line summary, e.g. ``lineorder |filter|probe|probe| -> agg``."""
        parts = []
        for stage in self.stages:
            if isinstance(stage, FilterStage):
                parts.append("filter")
            elif isinstance(stage, MapStage):
                parts.append(f"map:{stage.name}")
            else:
                parts.append(f"probe:{stage.table_id}")
        sink = type(self.sink).__name__.replace("Sink", "").lower()
        chain = "|".join(parts) or "-"
        return f"{self.source} |{chain}| -> {sink}({self.output_name})"


@dataclass
class PhysicalQuery:
    """A full query: an ordered list of pipelines plus host post-ops.

    Pipelines execute in order; later pipelines may probe hash tables
    or scan virtual tables produced earlier.  Sorting and limiting run
    host-side afterwards, as in the paper's CoGaDB integration
    (Section 7).
    """

    pipelines: list[Pipeline]
    sort_keys: list[SortKey] = field(default_factory=list)
    limit: int | None = None
    output_columns: list[str] = field(default_factory=list)
    output_schema: PlanSchema | None = None
    #: Sizes of the runs of :attr:`pipelines` that execute as one group
    #: (``Engine.run_group``): sibling builds of one dependency wave
    #: (:func:`~repro.plan.waves.group_sibling_builds`).  Empty — the
    #: paper's translation — runs every pipeline alone.
    groups: tuple[int, ...] = ()
    #: Per-pipeline cost estimates the optimizer derived for this plan
    #: *object*, keyed by everything else they are a function of.  Like
    #: :attr:`Pipeline.kernels`: not part of its value, gone with it.
    estimates: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def final_pipeline(self) -> Pipeline:
        return self.pipelines[-1]

    def grouped(self) -> list[list[Pipeline]]:
        """:attr:`pipelines` cut into their execution groups, in order."""
        sizes = self.groups or (1,) * len(self.pipelines)
        assert sum(sizes) == len(self.pipelines), "groups do not cover the pipelines"
        groups, start = [], 0
        for size in sizes:
            groups.append(self.pipelines[start:start + size])
            start += size
        return groups

    def describe(self) -> str:
        lines = []
        for group in self.grouped():
            if len(group) > 1:
                lines.append(f"fused {len(group)} builds:")
            lines.extend(
                ("  " if len(group) > 1 else "") + pipeline.describe() for pipeline in group
            )
        if self.sort_keys:
            keys = ", ".join(
                f"{key.column}{'' if key.ascending else ' desc'}" for key in self.sort_keys
            )
            lines.append(f"host sort: {keys}")
        if self.limit is not None:
            lines.append(f"host limit: {self.limit}")
        return "\n".join(lines)
