"""The regex tokenizer and SQL normalizer against the loops they replaced.

``tokenize`` and ``normalize_sql`` are each one compiled regex; the
per-character loops they replaced stay here as the reference.  Tokens,
offsets and ``SqlError`` messages must be identical on any text:
non-ASCII letters, digits and spaces, ``.5`` and ``1.2.3``, ``!=`` and
``<>``, doubled quotes and unterminated strings.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError
from repro.serving import normalize_sql
from repro.sql.lexer import _PUNCT, KEYWORDS, Token, tokenize


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 1
            if j >= n:
                raise SqlError(f"unterminated string literal at offset {i}")
            tokens.append(Token("STRING", text[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j].lower()
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, i))
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT:
            tokens.append(Token(_PUNCT[two], two, i))
            i += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        raise SqlError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(Token("EOF", "", n))
    return tokens


def reference_normalize(text: str) -> str:
    out: list[str] = []
    in_string = False
    pending_space = False
    for ch in text.strip():
        if in_string:
            out.append(ch)
            if ch == "'":
                in_string = False
            continue
        if ch == "'":
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(ch)
            in_string = True
            continue
        if ch.isspace():
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(ch.lower())
    normalized = "".join(out)
    return normalized[:-1].rstrip() if normalized.endswith(";") else normalized


def _outcome(function, text: str):
    try:
        return function(text)
    except SqlError as error:
        return ("error", str(error))


#: SQL-shaped pieces plus the characters the per-character loops treat
#: specially: Unicode spaces, digits and letters that are not ASCII
#: (superscripts, Arabic-Indic digits, capital sigma, dotted I),
#: numeric characters that are neither, and stray punctuation.
_PIECES = st.sampled_from([
    "select", "SUM", "count", "Lo_Revenue", "from", "where", "and", "t1", "_x",
    " ", "  ", "\t", "\n", " ", " ", "\x1c", "　",
    "'", "''", "'ASIA'", "'a  b'", "'it''s'",
    "0", "42", "1.5", ".5", "1.", "1.2.3", "..", ".",
    "!=", "<>", "<=", ">=", "=", "<", ">", "!", "(", ")", ",", "+", "-", "*", "/", "%", ";",
    "²", "٣", "½", "Ⅷ", "Σ", "ΟΣ", "İ", "café",
    "一", "é", "@", "#", "\"", "\\", "[", "\U0001d7d8",
])
_TEXTS = st.one_of(
    st.lists(_PIECES, max_size=16).map("".join),
    st.text(max_size=40),
)


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
def test_tokenize_matches_the_character_loop(text):
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
def test_normalize_sql_matches_the_character_loop(text):
    assert normalize_sql(text) == reference_normalize(text)


def test_the_edges_the_loops_define():
    cases = [
        "select .5, 1.2.3 from t where a != 1 and b <> 2",
        "where r = 'it''s'",
        "where r = 'oops",
        "select ² from t",
        "select ½ from t",
        "SELECT ΟΣ FROM t",
        "select a ! b",
        "  SELECT  a ,\n b FROM 'X  Y' ; ",
    ]
    for text in cases:
        assert _outcome(tokenize, text) == _outcome(reference_tokenize, text), text
        assert normalize_sql(text) == reference_normalize(text), text


def test_every_punctuation_token_tokenizes_as_its_kind():
    """The pattern's punctuation alternation is built from ``_PUNCT``."""
    for text, kind in _PUNCT.items():
        assert tokenize(f"a{text}b")[1] == Token(kind, text, 1)
