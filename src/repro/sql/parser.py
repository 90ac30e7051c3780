"""Recursive-descent parser for the SQL subset.

Grammar (roughly)::

    query     := SELECT item (',' item)* FROM ident (',' ident)*
                 [WHERE disjunction] [GROUP BY expr (',' expr)*]
                 [HAVING disjunction]
                 [ORDER BY ident [ASC|DESC] (',' ...)*] [LIMIT number]
    item      := agg '(' ['*'|expr] ')' [AS ident] | expr [AS ident]
    disjunction := conjunction (OR conjunction)*
    conjunction := predicate (AND predicate)*
    predicate := NOT predicate | '(' disjunction ')'
               | expr (=|<>|<|<=|>|>=) expr
               | expr BETWEEN expr AND expr
               | expr IN '(' literal (',' literal)* ')'
    expr      := additive arithmetic over primaries

The subset covers the star schema benchmark and the simple TPC-H
queries; everything else uses the builder or JSON plans, matching the
paper's two translation workflows (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SqlError
from ..expressions.expr import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    Not,
)
from .lexer import Token, tokenize

_AGG_OPS = {"sum", "count", "min", "max", "avg"}

_COMPARISON_TOKENS = {
    "EQ": "==",
    "NE": "!=",
    "LT": "<",
    "LE": "<=",
    "GT": ">",
    "GE": ">=",
}


@dataclass
class AggCall:
    """An aggregate call in the select list (``expr`` None for COUNT(*))."""

    op: str
    expr: Expr | None


@dataclass
class SelectItem:
    value: Expr | AggCall
    alias: str | None


@dataclass
class OrderItem:
    column: str
    ascending: bool


@dataclass
class QueryAst:
    items: list[SelectItem]
    tables: list[str]
    where: Expr | None
    group_by: list[Expr]
    having: Expr | None
    order_by: list[OrderItem]
    limit: int | None


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            wanted = value or kind
            raise SqlError(
                f"expected {wanted!r} at offset {actual.position}, got {actual.value!r}"
            )
        return token

    # ------------------------------------------------------------------
    def parse_query(self) -> QueryAst:
        self.expect("KEYWORD", "select")
        items = [self.parse_select_item()]
        while self.accept("COMMA"):
            items.append(self.parse_select_item())
        self.expect("KEYWORD", "from")
        tables = [self.expect("IDENT").value]
        while self.accept("COMMA"):
            tables.append(self.expect("IDENT").value)
        where = None
        if self.accept("KEYWORD", "where"):
            where = self.parse_disjunction()
        group_by: list[Expr] = []
        if self.accept("KEYWORD", "group"):
            self.expect("KEYWORD", "by")
            group_by.append(self.parse_additive())
            while self.accept("COMMA"):
                group_by.append(self.parse_additive())
        having = None
        if self.accept("KEYWORD", "having"):
            having = self.parse_disjunction()
        order_by: list[OrderItem] = []
        if self.accept("KEYWORD", "order"):
            self.expect("KEYWORD", "by")
            order_by.append(self.parse_order_item())
            while self.accept("COMMA"):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept("KEYWORD", "limit"):
            limit = int(self.expect("NUMBER").value)
        self.accept("SEMI")
        self.expect("EOF")
        return QueryAst(
            items=items,
            tables=tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
        )

    def parse_select_item(self) -> SelectItem:
        token = self.peek()
        if token.kind == "KEYWORD" and token.value in _AGG_OPS:
            self.advance()
            self.expect("LPAREN")
            if self.accept("STAR"):
                if token.value != "count":
                    raise SqlError(f"{token.value}(*) is not valid")
                call = AggCall("count", None)
            else:
                call = AggCall(token.value, self.parse_additive())
            self.expect("RPAREN")
            alias = self.parse_alias()
            return SelectItem(call, alias)
        expr = self.parse_additive()
        return SelectItem(expr, self.parse_alias())

    def parse_alias(self) -> str | None:
        if self.accept("KEYWORD", "as"):
            return self.expect("IDENT").value
        token = self.accept("IDENT")
        return token.value if token else None

    def parse_order_item(self) -> OrderItem:
        name = self.expect("IDENT").value
        ascending = True
        if self.accept("KEYWORD", "desc"):
            ascending = False
        else:
            self.accept("KEYWORD", "asc")
        return OrderItem(name, ascending)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def parse_disjunction(self) -> Expr:
        operands = [self.parse_conjunction()]
        while self.accept("KEYWORD", "or"):
            operands.append(self.parse_conjunction())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("or", tuple(operands))

    def parse_conjunction(self) -> Expr:
        operands = [self.parse_predicate()]
        while self.accept("KEYWORD", "and"):
            operands.append(self.parse_predicate())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("and", tuple(operands))

    def parse_predicate(self) -> Expr:
        if self.accept("KEYWORD", "not"):
            return Not(self.parse_predicate())
        # Parenthesized boolean vs parenthesized arithmetic: try boolean
        # first by lookahead for a comparison after the closing paren.
        if self.peek().kind == "LPAREN" and self._paren_is_boolean():
            self.expect("LPAREN")
            inner = self.parse_disjunction()
            self.expect("RPAREN")
            return inner
        left = self.parse_additive()
        token = self.peek()
        if token.kind in _COMPARISON_TOKENS:
            self.advance()
            right = self.parse_additive()
            return Comparison(_COMPARISON_TOKENS[token.kind], left, right)
        if self.accept("KEYWORD", "between"):
            low = self.parse_additive()
            self.expect("KEYWORD", "and")
            high = self.parse_additive()
            return BooleanOp(
                "and", (Comparison(">=", left, low), Comparison("<=", left, high))
            )
        if self.accept("KEYWORD", "in"):
            self.expect("LPAREN")
            options = [self.parse_literal()]
            while self.accept("COMMA"):
                options.append(self.parse_literal())
            self.expect("RPAREN")
            return InList(left, tuple(options))
        raise SqlError(
            f"expected a comparison at offset {token.position}, got {token.value!r}"
        )

    def _paren_is_boolean(self) -> bool:
        """Lookahead: does this parenthesized group contain AND/OR/NOT or
        a comparison at depth 1?"""
        depth = 0
        for token in self.tokens[self.pos :]:
            if token.kind == "LPAREN":
                depth += 1
            elif token.kind == "RPAREN":
                depth -= 1
                if depth == 0:
                    return False
            elif depth >= 1:
                if token.kind == "KEYWORD" and token.value in ("and", "or", "not", "between", "in"):
                    return True
                if token.kind in _COMPARISON_TOKENS:
                    return True
            if token.kind == "EOF":
                break
        return False

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            if self.accept("PLUS"):
                left = BinaryOp("+", left, self.parse_multiplicative())
            elif self.accept("MINUS"):
                left = BinaryOp("-", left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            if self.accept("STAR"):
                left = BinaryOp("*", left, self.parse_unary())
            elif self.accept("SLASH"):
                left = BinaryOp("/", left, self.parse_unary())
            elif self.accept("PERCENT"):
                left = BinaryOp("%", left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        if self.accept("MINUS"):
            operand = self.parse_unary()
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return BinaryOp("-", Literal(0), operand)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value)
        if token.kind == "STRING":
            self.advance()
            return Literal(token.value)
        if token.kind == "IDENT":
            self.advance()
            return ColumnRef(token.value)
        if token.kind == "LPAREN":
            self.advance()
            inner = self.parse_additive()
            self.expect("RPAREN")
            return inner
        raise SqlError(
            f"unexpected token {token.value!r} at offset {token.position}"
        )

    def parse_literal(self) -> Literal:
        expr = self.parse_unary()
        if not isinstance(expr, Literal):
            raise SqlError("IN lists accept only literals")
        return expr


def parse_query(text: str) -> QueryAst:
    """Parse a SELECT statement into a :class:`QueryAst`."""
    return _Parser(tokenize(text)).parse_query()


def parse_expression(text: str) -> Expr:
    """Parse a standalone (boolean or arithmetic) expression.

    Used by the JSON plan loader for predicate and projection strings.
    """
    parser = _Parser(tokenize(text))
    # Heuristic: try a boolean predicate first, fall back to arithmetic.
    try:
        expr = parser.parse_disjunction()
    except SqlError:
        parser = _Parser(tokenize(text))
        expr = parser.parse_additive()
    parser.accept("SEMI")
    parser.expect("EOF")
    return expr
