"""Vectorized evaluation of (string-resolved) expression trees."""

from __future__ import annotations

import numpy as np

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


def over_rows(values, shape: tuple, dtype=None) -> np.ndarray:
    """``values`` as an array of ``shape`` (one entry per row).  A
    column, or anything computed from one, has that shape already and
    comes back as it is; only an expression over literals alone is a
    scalar that needs broadcasting (a read-only view)."""
    values = np.asarray(values, dtype=dtype)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def evaluate(expr: Expr, scope: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate ``expr`` over a scope of equal-length numpy arrays.

    String predicates must have been rewritten to code comparisons with
    :func:`repro.expressions.resolve.resolve_strings` first; a leftover
    string literal raises :class:`ExpressionError`.
    """
    if isinstance(expr, ColumnRef):
        try:
            return scope[expr.name]
        except KeyError:
            known = ", ".join(sorted(scope))
            raise ExpressionError(
                f"column {expr.name!r} not in scope; available: {known}"
            ) from None
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            raise ExpressionError(
                f"unresolved string literal {expr.value!r}; run resolve_strings first"
            )
        return np.asarray(expr.value)
    if isinstance(expr, BinaryOp):
        left = evaluate(expr.left, scope)
        right = evaluate(expr.right, scope)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return np.asarray(left, dtype=np.float64) / np.asarray(right, dtype=np.float64)
        if expr.op == "//":
            return left // right
        if expr.op == "%":
            return left % right
        raise ExpressionError(f"unknown arithmetic operator {expr.op!r}")
    if isinstance(expr, Comparison):
        left = evaluate(expr.left, scope)
        right = evaluate(expr.right, scope)
        if expr.op == "==":
            return left == right
        if expr.op == "!=":
            return left != right
        if expr.op == "<":
            return left < right
        if expr.op == "<=":
            return left <= right
        if expr.op == ">":
            return left > right
        if expr.op == ">=":
            return left >= right
        raise ExpressionError(f"unknown comparison operator {expr.op!r}")
    if isinstance(expr, BooleanOp):
        result = evaluate(expr.operands[0], scope).astype(bool)
        for operand in expr.operands[1:]:
            value = evaluate(operand, scope).astype(bool)
            result = (result & value) if expr.op == "and" else (result | value)
        return result
    if isinstance(expr, Not):
        return ~evaluate(expr.operand, scope).astype(bool)
    if isinstance(expr, Between):
        operand = evaluate(expr.operand, scope)
        low = evaluate(expr.low, scope)
        high = evaluate(expr.high, scope)
        return (operand >= low) & (operand <= high)
    if isinstance(expr, InList):
        operand = evaluate(expr.operand, scope)
        options = np.array([option.value for option in expr.options])
        return np.isin(operand, options)
    raise ExpressionError(f"cannot evaluate expression node {type(expr).__name__}")
