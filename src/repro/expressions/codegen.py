"""Python code fragments for expression trees.

The kernel code generator instances relational templates into a code
frame (Section 4.3).  This module emits the expression fragments: a
resolved expression tree becomes a single vectorized Python expression
over a scope dict, e.g.

    pi(revenue <- price * discount)
    ->  "(scope['price'] * scope['discount'])"

mirroring the paper's ``revenue[wp] = price[tid] * discount[tid];``.
"""

from __future__ import annotations

import math

from ..errors import ExpressionError
from .expr import (
    Between,
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    Not,
)

_PY_BOOL_OPS = {"and": "&", "or": "|"}


def literal_source(value) -> str:
    """Python source for a numeric constant.  ``inf`` and ``nan`` have no
    literal (their ``repr`` is a free name), so a non-finite float is
    spelled as the ``float`` call that makes it."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({repr(float(value))!r})"
    return repr(value)


def to_source(expr: Expr, scope_var: str = "scope") -> str:
    """Emit a vectorized Python expression string for ``expr``.

    The generated fragment references columns as
    ``{scope_var}['name']`` and assumes ``np`` (numpy) is in scope.
    String literals must have been resolved to codes beforehand.
    """
    if isinstance(expr, ColumnRef):
        return f"{scope_var}[{expr.name!r}]"
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, str):
            raise ExpressionError(
                f"unresolved string literal {value!r} reached code generation"
            )
        return literal_source(value)
    if isinstance(expr, BinaryOp):
        left = to_source(expr.left, scope_var)
        right = to_source(expr.right, scope_var)
        if expr.op == "/":
            return f"(np.float64({left}) / np.float64({right}))"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, Comparison):
        left = to_source(expr.left, scope_var)
        right = to_source(expr.right, scope_var)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, BooleanOp):
        joiner = f" {_PY_BOOL_OPS[expr.op]} "
        parts = [f"({to_source(operand, scope_var)})" for operand in expr.operands]
        return "(" + joiner.join(parts) + ")"
    if isinstance(expr, Not):
        return f"(~({to_source(expr.operand, scope_var)}))"
    if isinstance(expr, Between):
        operand = to_source(expr.operand, scope_var)
        low = to_source(expr.low, scope_var)
        high = to_source(expr.high, scope_var)
        return f"(({operand} >= {low}) & ({operand} <= {high}))"
    if isinstance(expr, InList):
        operand = to_source(expr.operand, scope_var)
        values = ", ".join(literal_source(option.value) for option in expr.options)
        return f"np.isin({operand}, np.array([{values}]))"
    raise ExpressionError(f"cannot generate code for {type(expr).__name__}")
