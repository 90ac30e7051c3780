"""Logical query plans.

A logical plan is a tree of relational operators.  The translation
layer (Section 7) turns it into *fusion operators* — pipelines — via
the produce/consume model; see :mod:`repro.plan.pipelines`.

Join nodes are hash joins with an explicit build side (the side that
becomes a hash table in GPU global memory) and probe side (the side
that streams through the pipeline).  ``kind`` distinguishes inner,
semi, anti, and left joins; semi/anti are what the paper's Appendix F
rewrites ``EXISTS`` / ``NOT EXISTS`` into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanError, SchemaError
from ..expressions.expr import ColumnRef, Expr
from ..expressions.schema import infer_dtype
from ..storage.database import Database
from ..storage.dictionary import Dictionary
from ..storage.dtypes import DType

JOIN_KINDS = ("inner", "semi", "anti", "left")
AGG_OPS = ("sum", "count", "min", "max", "avg")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``op(expr) AS name`` (``expr`` None for COUNT(*))."""

    op: str
    expr: Expr | None
    name: str

    def __post_init__(self) -> None:
        if self.op not in AGG_OPS:
            raise PlanError(f"unknown aggregate op {self.op!r}")
        if self.expr is None and self.op != "count":
            raise PlanError(f"aggregate {self.op} requires an input expression")


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY key."""

    column: str
    ascending: bool = True


@dataclass
class PlanSchema:
    """Column types plus dictionaries flowing out of a plan node."""

    dtypes: dict[str, DType]
    dictionaries: dict[str, Dictionary]

    def copy(self) -> "PlanSchema":
        return PlanSchema(dict(self.dtypes), dict(self.dictionaries))


class LogicalPlan:
    """Base class of logical operator nodes."""

    #: What :func:`repro.serving.plan_cache.resolve_plan` extracted this
    #: plan *object* to: ``(database fingerprint, PhysicalQuery)``.  Not
    #: a dataclass field of any node, so not part of its value: an equal
    #: plan built anew starts with ``None``.  A plan is read, never
    #: edited, once it has run; change a query by building a new plan.
    resolved: tuple | None = None

    def schema(self, database: Database) -> PlanSchema:
        raise NotImplementedError

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()


@dataclass
class Scan(LogicalPlan):
    """Read a base table (optionally renaming columns for self-joins)."""

    table: str
    rename: dict[str, str] = field(default_factory=dict)

    def schema(self, database: Database) -> PlanSchema:
        table = database.table(self.table)
        dtypes: dict[str, DType] = {}
        dictionaries: dict[str, Dictionary] = {}
        for name, column in table.columns.items():
            out = self.rename.get(name, name)
            dtypes[out] = column.dtype
            if column.dictionary is not None:
                dictionaries[out] = column.dictionary
        return PlanSchema(dtypes, dictionaries)


@dataclass
class Filter(LogicalPlan):
    """Keep rows satisfying a predicate."""

    child: LogicalPlan
    predicate: Expr

    def schema(self, database: Database) -> PlanSchema:
        return self.child.schema(database)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass
class Map(LogicalPlan):
    """Extend the scope with a computed column ``name = expr``."""

    child: LogicalPlan
    name: str
    expr: Expr

    def schema(self, database: Database) -> PlanSchema:
        schema = self.child.schema(database).copy()
        schema.dtypes[self.name] = infer_dtype(self.expr, schema.dtypes)
        if isinstance(self.expr, ColumnRef) and self.expr.name in schema.dictionaries:
            schema.dictionaries[self.name] = schema.dictionaries[self.expr.name]
        return schema

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass
class Project(LogicalPlan):
    """Restrict (and optionally compute) output columns, in order."""

    child: LogicalPlan
    outputs: list[tuple[str, Expr]]

    def schema(self, database: Database) -> PlanSchema:
        child = self.child.schema(database)
        dtypes: dict[str, DType] = {}
        dictionaries: dict[str, Dictionary] = {}
        for name, expr in self.outputs:
            dtypes[name] = infer_dtype(expr, child.dtypes)
            if isinstance(expr, ColumnRef) and expr.name in child.dictionaries:
                dictionaries[name] = child.dictionaries[expr.name]
        return PlanSchema(dtypes, dictionaries)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass
class Join(LogicalPlan):
    """Hash join: build a table over ``build``, probe from ``probe``.

    ``payload`` lists build-side columns carried into the probe scope
    (empty for semi/anti joins).  For ``kind="left"``, probe rows
    without a match survive with ``payload_defaults`` values.
    ``residual`` is an optional post-probe predicate over the combined
    scope (for non-equi conditions such as Q21's ``suppkey <>``).
    """

    build: LogicalPlan
    probe: LogicalPlan
    build_keys: list[Expr]
    probe_keys: list[Expr]
    payload: list[str] = field(default_factory=list)
    kind: str = "inner"
    payload_defaults: dict[str, float] = field(default_factory=dict)
    residual: Expr | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {self.kind!r}")
        if len(self.build_keys) != len(self.probe_keys):
            raise PlanError("build/probe key counts differ")
        if not self.build_keys:
            raise PlanError("joins need at least one key")
        if self.kind in ("semi", "anti") and self.payload:
            raise PlanError(f"{self.kind} joins cannot carry payload columns")
        if self.kind == "left":
            missing = [name for name in self.payload if name not in self.payload_defaults]
            if missing:
                raise PlanError(f"left join payload columns need defaults: {missing}")
        if self.residual is not None and self.kind != "inner":
            raise PlanError(
                "residual predicates are only supported on inner joins "
                "(they drop rows after payload fetch)"
            )

    def schema(self, database: Database) -> PlanSchema:
        build = self.build.schema(database)
        probe = self.probe.schema(database).copy()
        for name in self.payload:
            if name not in build.dtypes:
                raise SchemaError(f"payload column {name!r} not in build side")
            if name in probe.dtypes:
                raise SchemaError(f"payload column {name!r} collides with probe side")
            probe.dtypes[name] = build.dtypes[name]
            if name in build.dictionaries:
                probe.dictionaries[name] = build.dictionaries[name]
        return probe

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.build, self.probe)


@dataclass
class Aggregate(LogicalPlan):
    """Grouped (or, with no keys, single-tuple) aggregation."""

    child: LogicalPlan
    group_keys: list[tuple[str, Expr]]
    aggregates: list[AggSpec]

    def __post_init__(self) -> None:
        if not self.group_keys and not self.aggregates:
            raise PlanError("aggregate needs group keys or aggregates")
        names = [name for name, _ in self.group_keys] + [
            spec.name for spec in self.aggregates
        ]
        if len(names) != len(set(names)):
            raise PlanError(f"duplicate output names in aggregate: {names}")

    def schema(self, database: Database) -> PlanSchema:
        child = self.child.schema(database)
        dtypes: dict[str, DType] = {}
        dictionaries: dict[str, Dictionary] = {}
        for name, expr in self.group_keys:
            dtypes[name] = infer_dtype(expr, child.dtypes)
            if isinstance(expr, ColumnRef) and expr.name in child.dictionaries:
                dictionaries[name] = child.dictionaries[expr.name]
        for spec in self.aggregates:
            dtypes[spec.name] = aggregate_dtype(spec, child.dtypes)
        return PlanSchema(dtypes, dictionaries)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass
class Sort(LogicalPlan):
    """ORDER BY — executed host-side by the original engine (Section 7)."""

    child: LogicalPlan
    keys: list[SortKey]

    def schema(self, database: Database) -> PlanSchema:
        return self.child.schema(database)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass
class Limit(LogicalPlan):
    """Keep the first ``count`` rows (after any sort)."""

    child: LogicalPlan
    count: int

    def schema(self, database: Database) -> PlanSchema:
        return self.child.schema(database)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


def aggregate_dtype(spec: AggSpec, schema: dict[str, DType]) -> DType:
    if spec.op == "count":
        return DType.INT64
    assert spec.expr is not None
    input_dtype = infer_dtype(spec.expr, schema)
    if spec.op == "avg":
        return DType.FLOAT64
    if spec.op == "sum":
        if input_dtype in (DType.FLOAT32, DType.FLOAT64):
            return DType.FLOAT64
        return DType.INT64
    return input_dtype


def walk(plan: LogicalPlan):
    """Pre-order traversal of a plan tree."""
    yield plan
    for child in plan.children():
        yield from walk(child)
