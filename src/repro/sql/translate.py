"""Translate a parsed SQL query into a logical plan.

Implements the paper's workflow (1): SQL -> query plan -> fusion
operators (Section 7).  The planner handles single-table queries and
*star joins* — one fact table (the one every join touches; the largest
on a tie) equi-joined with any number of dimension tables, each
carrying its own local predicates.  Snowflake shapes and subqueries go
through the plan builder or JSON plans (workflow 2), exactly as in the
paper.  HAVING is supported over the query's output column names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SqlError
from ..expressions.expr import BooleanOp, ColumnRef, Comparison, Expr
from ..plan.builder import PlanBuilder
from ..plan.logical import AggSpec, LogicalPlan
from ..storage.database import Database
from .parser import AggCall, QueryAst, parse_query


@dataclass
class _JoinEdge:
    dim_table: str
    dim_columns: list[str]
    fact_columns: list[str]


@dataclass
class _TableInfo:
    name: str
    columns: set[str]
    rows: int
    local_predicates: list[Expr] = field(default_factory=list)


def translate(ast: QueryAst, database: Database) -> LogicalPlan:
    """Turn a :class:`QueryAst` into a :class:`LogicalPlan`."""
    return _Translator(ast, database).run()


def plan_sql(text: str, database: Database) -> LogicalPlan:
    """Parse and translate a SQL string in one step."""
    return translate(parse_query(text), database)


class _Translator:
    def __init__(self, ast: QueryAst, database: Database):
        self.ast = ast
        self.database = database
        self.tables: dict[str, _TableInfo] = {}
        for name in ast.tables:
            table = database.table(name)
            if name in self.tables:
                raise SqlError(
                    f"table {name} listed twice; the SQL front-end has no aliases "
                    "(use the plan builder for self-joins)"
                )
            self.tables[name] = _TableInfo(
                name=name, columns=set(table.column_names), rows=table.num_rows
            )
        self.join_edges: list[tuple[str, str, str, str]] = []

    # ------------------------------------------------------------------
    def run(self) -> LogicalPlan:
        self._classify_where()
        builder = self._build_joins()
        builder = self._apply_output(builder)
        if self.ast.having is not None:
            builder = self._apply_having(builder)
        if self.ast.order_by:
            builder = builder.order_by(
                [(item.column, item.ascending) for item in self.ast.order_by]
            )
        if self.ast.limit is not None:
            builder = builder.limit(self.ast.limit)
        return builder.build()

    # ------------------------------------------------------------------
    def _owner(self, column: str) -> str:
        owners = [info.name for info in self.tables.values() if column in info.columns]
        if not owners:
            raise SqlError(f"column {column!r} not found in any FROM table")
        if len(owners) > 1:
            raise SqlError(f"column {column!r} is ambiguous across {owners}")
        return owners[0]

    def _tables_of(self, expr: Expr) -> set[str]:
        return {self._owner(column) for column in expr.columns()}

    def _classify_where(self) -> None:
        if self.ast.where is None:
            return
        conjuncts: list[Expr] = []
        _flatten_and(self.ast.where, conjuncts)
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op == "=="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                left_table = self._owner(conjunct.left.name)
                right_table = self._owner(conjunct.right.name)
                if left_table != right_table:
                    self.join_edges.append(
                        (left_table, conjunct.left.name, right_table, conjunct.right.name)
                    )
                    continue
            owners = self._tables_of(conjunct)
            if len(owners) != 1:
                raise SqlError(
                    f"predicate {conjunct!r} spans tables {sorted(owners)}; only "
                    "equi-join predicates may cross tables"
                )
            self.tables[owners.pop()].local_predicates.append(conjunct)

    # ------------------------------------------------------------------
    def _build_joins(self) -> PlanBuilder:
        # The fact table is the one every equi-join touches (the star's
        # centre); row count only breaks ties (a single join, no join).
        centres = [
            info for info in self.tables.values()
            if all(info.name in (left, right) for left, _, right, _ in self.join_edges)
        ]
        fact = max(centres or self.tables.values(), key=lambda info: info.rows)
        dims = [info for info in self.tables.values() if info.name != fact.name]
        if dims and not self.join_edges:
            raise SqlError("multiple tables but no join predicates (cross products unsupported)")

        builder = PlanBuilder.scan(fact.name)
        if fact.local_predicates:
            builder = builder.filter(_and_all(fact.local_predicates))

        # Group the join edges per dimension; every edge must touch the
        # fact table (star shape).
        edges_by_dim: dict[str, _JoinEdge] = {}
        for left_table, left_col, right_table, right_col in self.join_edges:
            if left_table == fact.name:
                dim, dim_col, fact_col = right_table, right_col, left_col
            elif right_table == fact.name:
                dim, dim_col, fact_col = left_table, left_col, right_col
            else:
                raise SqlError(
                    f"join {left_table}.{left_col} = {right_table}.{right_col} does "
                    "not touch the fact table; snowflake joins need the plan builder"
                )
            edge = edges_by_dim.setdefault(dim, _JoinEdge(dim, [], []))
            edge.dim_columns.append(dim_col)
            edge.fact_columns.append(fact_col)

        referenced = self._referenced_columns()
        # Attach dimensions in FROM-clause order.
        for info in (self.tables[name] for name in self.ast.tables):
            if info.name == fact.name:
                continue
            edge = edges_by_dim.get(info.name)
            if edge is None:
                raise SqlError(f"table {info.name} has no join predicate to the fact table")
            build = PlanBuilder.scan(info.name)
            if info.local_predicates:
                build = build.filter(_and_all(info.local_predicates))
            payload = sorted(referenced & info.columns)
            builder = builder.join(
                build,
                build_keys=edge.dim_columns,
                probe_keys=edge.fact_columns,
                payload=payload,
            )
        return builder

    def _referenced_columns(self) -> set[str]:
        """Columns needed downstream of the joins (select/group exprs)."""
        needed: set[str] = set()
        for item in self.ast.items:
            if isinstance(item.value, AggCall):
                if item.value.expr is not None:
                    needed |= item.value.expr.columns()
            else:
                needed |= item.value.columns()
        for expr in self.ast.group_by:
            needed |= expr.columns()
        return needed

    # ------------------------------------------------------------------
    def _apply_output(self, builder: PlanBuilder) -> PlanBuilder:
        # Bind every referenced column early for a clear error message.
        for column in sorted(self._referenced_columns()):
            self._owner(column)
        has_aggregates = any(isinstance(item.value, AggCall) for item in self.ast.items)
        if not has_aggregates and not self.ast.group_by:
            outputs = []
            for index, item in enumerate(self.ast.items):
                name = item.alias or _default_name(item.value, index)
                outputs.append((name, item.value))
            return builder.project(outputs)

        group_keys: list[tuple[str, Expr]] = []
        aggregates: list[AggSpec] = []
        key_exprs = {repr(expr): expr for expr in self.ast.group_by}
        matched_keys: set[str] = set()
        ordered_names: list[str] = []
        for index, item in enumerate(self.ast.items):
            if isinstance(item.value, AggCall):
                name = item.alias or f"{item.value.op}_{index}"
                aggregates.append(AggSpec(item.value.op, item.value.expr, name))
                ordered_names.append(name)
            else:
                key = repr(item.value)
                if key not in key_exprs:
                    raise SqlError(
                        f"select item {item.value!r} is neither aggregated nor in GROUP BY"
                    )
                name = item.alias or _default_name(item.value, index)
                group_keys.append((name, item.value))
                matched_keys.add(key)
                ordered_names.append(name)
        for key, expr in key_exprs.items():
            if key not in matched_keys:
                group_keys.append((f"group_{len(group_keys)}", expr))
        builder = builder.aggregate(group_by=group_keys, aggregates=aggregates)
        default_order = [name for name, _ in group_keys] + [spec.name for spec in aggregates]
        if ordered_names != default_order[: len(ordered_names)]:
            builder = builder.project(ordered_names)
        return builder


    def _apply_having(self, builder: PlanBuilder) -> PlanBuilder:
        """HAVING predicates reference the query's *output* columns
        (group keys or aggregate aliases) by name."""
        having = self.ast.having
        assert having is not None
        output_names = set()
        for index, item in enumerate(self.ast.items):
            if isinstance(item.value, AggCall):
                output_names.add(item.alias or f"{item.value.op}_{index}")
            else:
                output_names.add(item.alias or _default_name(item.value, index))
        unknown = having.columns() - output_names
        if unknown:
            raise SqlError(
                f"HAVING references {sorted(unknown)}; only output column "
                f"names are allowed ({sorted(output_names)})"
            )
        if not self.ast.group_by and not any(
            isinstance(item.value, AggCall) for item in self.ast.items
        ):
            raise SqlError("HAVING requires GROUP BY or aggregates")
        return builder.filter(having)


def _default_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    return f"column_{index}"


def _flatten_and(expr: Expr, out: list[Expr]) -> None:
    if isinstance(expr, BooleanOp) and expr.op == "and":
        for operand in expr.operands:
            _flatten_and(operand, out)
    else:
        out.append(expr)


def _and_all(predicates: list[Expr]) -> Expr:
    if len(predicates) == 1:
        return predicates[0]
    return BooleanOp("and", tuple(predicates))
