"""Tokenizer for the SQL subset."""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from ..errors import SqlError

KEYWORDS = {
    "select",
    "from",
    "where",
    "group",
    "order",
    "by",
    "having",
    "as",
    "and",
    "or",
    "not",
    "between",
    "in",
    "asc",
    "desc",
    "limit",
    "sum",
    "count",
    "min",
    "max",
    "avg",
}

_PUNCT = {
    "<=": "LE",
    ">=": "GE",
    "<>": "NE",
    "!=": "NE",
    "=": "EQ",
    "<": "LT",
    ">": "GT",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "%": "PERCENT",
    ";": "SEMI",
}


class Token(NamedTuple):
    kind: str  # KEYWORD, IDENT, NUMBER, STRING, or a punct kind
    value: str
    position: int


#: Every punctuation token, longest first: ``<=`` wins over ``<``.
_PUNCT_PATTERN = "|".join(map(re.escape, sorted(_PUNCT, key=len, reverse=True)))


def _token_pattern(digit: str, alpha: str) -> re.Pattern:
    """The tokenizer's one regex over ``digit`` (``str.isdigit``) and
    ``alpha`` (``str.isalpha``) characters: one token a match, with the
    whitespace before it (``\\s`` is ``str.isspace`` and ``\\w`` is
    ``str.isalnum`` or ``_``, exactly)."""
    return re.compile(
        r"\s*(?:(?P<string>'[^']*')"
        r"|(?P<open>')"
        rf"|(?P<number>(?={digit}|\.{digit}){digit}*(?:\.{digit}*)?)"
        rf"|(?P<word>(?:{alpha}|_)\w*)"
        rf"|(?P<punct>{_PUNCT_PATTERN})"
        r"|(?P<other>\S))"
    )


_ASCII_TOKENS = _token_pattern("[0-9]", "[A-Za-z]")
_ASCII = frozenset(map(chr, range(128)))


@functools.lru_cache(maxsize=256)
def _tokens_beyond_ascii(characters: str) -> re.Pattern:
    """The pattern for text whose non-ASCII characters are
    ``characters``: its ``str.isdigit`` / ``str.isalpha`` classes are
    ASCII's plus those of ``characters`` that pass, which is exact for
    that text (about 1 ms to build; no code point is enumerated)."""
    digit = "".join(re.escape(char) for char in characters if char.isdigit())
    alpha = "".join(re.escape(char) for char in characters if char.isalpha())
    return _token_pattern(f"[0-9{digit}]", f"[A-Za-z{alpha}]")


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text, lowercasing keywords and identifiers."""
    tokens: list[Token] = []
    if text.isascii():
        pattern = _ASCII_TOKENS
    else:
        pattern = _tokens_beyond_ascii("".join(sorted(set(text) - _ASCII)))
    # Only whitespace is left where no token matches: at the end.
    for match in pattern.finditer(text):
        kind = match.lastgroup
        value, start = match.group(kind), match.start(kind)
        if kind == "word":
            word = value.lower()
            tokens.append(Token("KEYWORD" if word in KEYWORDS else "IDENT", word, start))
        elif kind == "punct":
            tokens.append(Token(_PUNCT[value], value, start))
        elif kind == "number":
            tokens.append(Token("NUMBER", value, start))
        elif kind == "string":
            tokens.append(Token("STRING", value[1:-1], start))
        elif kind == "open":
            raise SqlError(f"unterminated string literal at offset {start}")
        else:
            raise SqlError(f"unexpected character {value!r} at offset {start}")
    tokens.append(Token("EOF", "", len(text)))
    return tokens
