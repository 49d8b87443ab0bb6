"""Plain-text polytope files.

Layout, whitespace-separated with ``#`` comments ignored to end of line::

    n m V
    A
    <m rows of n rationals>
    b
    <m rationals>
    vertices
    <V rows of n rationals>

Rationals are an optionally signed integer, or ``p/q`` with unsigned
positive ``q``, in ASCII digits; an integer longer than ``int`` converts
(``sys.get_int_max_str_digits()``) is refused with its line.  The file is
read as one flat list of tokens, with no line numbers: a token's line is
looked up only when something is refused.  A section (``A``, ``b``,
vertices) is read at a time: one regex and one length test check all its
tokens, and only a section that fails them is checked token by token, in
order, to word its first error.  Rows go straight into ints, rationals
scaled a coordinate column at a time (``core._scaled``), and are validated
on them; ``Fraction`` tuples wait until a caller reads them.  Output is
deterministic: same section order, one row per line, rationals in lowest
terms.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable
from itertools import groupby, repeat
from math import gcd
from operator import itemgetter

from .core import Polytope, ValidationError, _scaled

__all__ = ["format_polytope", "parse_polytope"]

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")
_INTEGER = re.compile(r"[+-]?[0-9]+\Z")
# valid rationals joined by single spaces: no denominator is zero
_SECTION = re.compile(r"(?:[+-]?[0-9]+(?:/0*[1-9][0-9]*)?(?: |\Z))*")


def _tokens(text: str) -> list[tuple[int, str]]:
    """Every token outside comments, in order, with its line number."""
    return [(line_no, tok) for line_no, line in enumerate(text.splitlines(), start=1)
            for tok in line.split("#", 1)[0].split()]


class _Cursor:
    """The tokens of ``text`` as one flat list, read in order from ``at``; the
    line of token i is looked up (``line(i)``) only to word a refusal."""

    def __init__(self, text: str) -> None:
        self.text, self.at = text, 0
        self.toks = " ".join(line.partition("#")[0] for line in text.splitlines()).split()

    def line(self, i: int) -> int:
        return _tokens(self.text)[i][0]


class _Misaligned(ValidationError):
    """The input ran out early or ran on, so some row may hold the wrong count."""


def _ragged_row(text: str, n: int, m: int, v_count: int) -> str:
    """Names the first of the m A rows and V vertex rows whose line does not
    hold n entries; a line holding a section marker starts a section."""
    sections = {"A": ("A row", m), "b": (None, 0), "vertices": ("vertex", v_count)}
    label, rows, k = None, 0, 0
    for line, items in groupby(_tokens(text), key=lambda item: item[0]):
        toks = [tok for _, tok in items]
        markers = [tok for tok in toks if tok in sections]
        if markers:
            (label, rows), k = sections[markers[-1]], 0
        elif k < rows:
            if len(toks) != n:
                return f"; line {line} holds {len(toks)} entries for {label} {k}, expected {n}"
            k += 1
    return ""


def _take(cur: _Cursor, what: str) -> tuple[int, str]:
    """The position of the next token, and the token."""
    if cur.at >= len(cur.toks):
        raise _Misaligned(f"unexpected end of input: expected {what}")
    cur.at += 1
    return cur.at - 1, cur.toks[cur.at - 1]


def _integer(cur: _Cursor, what: str) -> int:
    i, tok = _take(cur, what)
    if not _INTEGER.match(tok):
        raise ValidationError(f"line {cur.line(i)}: expected integer for {what}, got {tok!r}")
    if (limit := sys.get_int_max_str_digits()) and len(tok.lstrip("+-")) > limit:
        raise ValidationError(f"line {cur.line(i)}: {what} has more than {limit} digits")
    return int(tok)


def _literal(cur: _Cursor, word: str) -> None:
    i, tok = _take(cur, f"section marker {word!r}")
    if tok != word:
        raise ValidationError(f"line {cur.line(i)}: expected section marker {word!r}, got {tok!r}")


def _refuse(items: list[tuple[int, str]], rows: int, width: int,
            what: Callable[[int, int], str]) -> None:
    """Raises the first error in a section's tokens, a row at a time: in a row,
    its first malformed entry or zero denominator, then its running short, then
    its first integer past ``int``'s digit limit (0: none).  Returns if none."""
    limit = sys.get_int_max_str_digits()
    for k in range(rows):
        row, too_long = items[k * width:(k + 1) * width], ""
        for i, (line, tok) in enumerate(row):
            if not _RATIONAL.match(tok):
                raise ValidationError(f"line {line}: malformed rational for {what(k, i)}: {tok!r}")
            if "/" in tok and not tok.partition("/")[2].strip("0"):
                raise ValidationError(f"line {line}: zero denominator for {what(k, i)}: {tok!r}")
            if (limit and len(tok) > limit and not too_long
                    and max(len(part.lstrip("+-")) for part in tok.split("/")) > limit):
                too_long = f"line {line}: {what(k, i)} has more than {limit} digits"
        if len(row) < width:
            raise _Misaligned(f"unexpected end of input: expected {what(k, len(row))}")
        if too_long:
            raise ValidationError(too_long)


def _section(cur: _Cursor, rows: int, width: int,
             what: Callable[[int, int], str]) -> list[tuple[int, tuple[int, ...]]]:
    """The next ``rows`` rows of ``width`` rationals, each as ``(scale, ints)``:
    the least scale that makes the row integral, and the row times it.  One
    regex and one length test check the section; only when one fails, or the
    input runs short, does ``_refuse`` check it token by token, with each
    token's line.  A section holding a ``p/q`` is scaled a coordinate column at
    a time (``core._scaled``).  ``what(k, i)`` names entry i of row k in an
    error message."""
    start = cur.at
    toks = cur.toks[start:start + rows * width]
    cur.at += len(toks)
    joined, limit = " ".join(toks), sys.get_int_max_str_digits()
    if (len(toks) < rows * width or not _SECTION.fullmatch(joined)
            or limit and max(map(len, toks), default=0) > limit):
        _refuse(_tokens(cur.text)[start:cur.at], rows, width, what)
    if "/" not in joined:
        return _scaled(list(map(int, toks)), [1] * len(toks), rows)
    parts = list(map(str.partition, toks, repeat("/")))
    return _scaled(list(map(int, map(itemgetter(0), parts))),
                   [int(q) if q else 1 for _, _, q in parts], rows)


def parse_polytope(text: str) -> Polytope:
    """Parse and validate; raises ValidationError with line diagnostics."""
    cur = _Cursor(text)
    n = _integer(cur, "coordinate count n")
    m = _integer(cur, "equality row count m")
    v_count = _integer(cur, "vertex count V")
    if n < 1:
        raise ValidationError(f"coordinate count must be at least 1, got {n}")
    if m < 0:
        raise ValidationError(f"equality row count must be nonnegative, got {m}")
    if v_count < 1:
        raise ValidationError(f"vertex count must be at least 1, got {v_count}")

    try:
        _literal(cur, "A")
        A = _section(cur, m, n, lambda j, i: f"A row {j} entry {i}")
        _literal(cur, "b")
        (b,) = _section(cur, 1, m, lambda _, j: f"b entry {j}")
        _literal(cur, "vertices")
        points = _section(cur, v_count, n, lambda k, i: f"vertex {k} coordinate {i + 1}")
        if cur.at < len(cur.toks):
            raise _Misaligned(
                f"line {cur.line(cur.at)}: trailing input starting at {cur.toks[cur.at]!r}")
    except _Misaligned as exc:
        raise ValidationError(f"{exc}{_ragged_row(text, n, m, v_count)}") from None
    return Polytope._of_ints(A, b, points)


def format_polytope(p: Polytope) -> str:
    """Deterministic text form; parses back to an equal polytope.  Printed from
    the int rows: entry x on scale s is x // g over s // g, with g = gcd(x, s)."""
    def line(scale: int, ints: tuple[int, ...]) -> str:  # as str(Fraction) spells each entry
        return " ".join(str(x // g) if (g := gcd(x, scale)) == scale else f"{x // g}/{scale // g}"
                        for x in ints)
    lines = [f"{p.n} {p.m} {p.vertex_count}", "A", *(line(*row) for row in p._rows), "b"]
    if p.m:
        lines.append(line(*p._rhs))
    lines += ["vertices", *(line(*point) for point in p._points)]
    return "\n".join(lines) + "\n"
