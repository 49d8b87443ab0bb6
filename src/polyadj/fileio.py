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
(``sys.get_int_max_str_digits()``) is refused with its line.  Each row is
read straight into ints and validated on them; ``Fraction`` tuples wait
until a caller reads them.  Output is deterministic: same section order,
one row per line, rationals in lowest terms.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Iterator
from itertools import groupby, islice
from math import gcd, lcm

from .core import Polytope, ValidationError

__all__ = ["format_polytope", "parse_polytope"]

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")
_INTEGER = re.compile(r"[+-]?[0-9]+\Z")
_Stream = Iterator[tuple[int, str]]  # (line number, token)


def _tokens(text: str) -> _Stream:
    """Every token outside comments, in order, with its line number."""
    return iter([(line_no, tok) for line_no, line in enumerate(text.splitlines(), start=1)
                 for tok in line.split("#", 1)[0].split()])


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


def _take(tokens: _Stream, what: str) -> tuple[int, str]:
    item = next(tokens, None)
    if item is None:
        raise _Misaligned(f"unexpected end of input: expected {what}")
    return item


def _integer(tokens: _Stream, what: str) -> int:
    line, tok = _take(tokens, what)
    if not _INTEGER.match(tok):
        raise ValidationError(f"line {line}: expected integer for {what}, got {tok!r}")
    if (limit := sys.get_int_max_str_digits()) and len(tok.lstrip("+-")) > limit:
        raise ValidationError(f"line {line}: {what} has more than {limit} digits")
    return int(tok)


def _literal(tokens: _Stream, word: str) -> None:
    line, tok = _take(tokens, f"section marker {word!r}")
    if tok != word:
        raise ValidationError(f"line {line}: expected section marker {word!r}, got {tok!r}")


def _row(tokens: _Stream, count: int, what: Callable[[int], str]) -> tuple[int, tuple[int, ...]]:
    """The next ``count`` rationals as ``(scale, ints)``: the lcm of their
    denominators in lowest terms, and the row times it.  Tokens are checked
    in order, and the first integer past ``int``'s digit limit (0: none) is
    refused only after the whole row is checked; ``what(i)`` names entry i
    in an error message."""
    items = list(islice(tokens, count))
    limit, too_long = sys.get_int_max_str_digits(), ""
    for i, (line, tok) in enumerate(items):
        if not _RATIONAL.match(tok):
            raise ValidationError(f"line {line}: malformed rational for {what(i)}: {tok!r}")
        if "/" in tok and not tok.partition("/")[2].strip("0"):
            raise ValidationError(f"line {line}: zero denominator for {what(i)}: {tok!r}")
        if (limit and len(tok) > limit and not too_long
                and max(len(part.lstrip("+-")) for part in tok.split("/")) > limit):
            too_long = f"line {line}: {what(i)} has more than {limit} digits"
    if len(items) < count:
        raise _Misaligned(f"unexpected end of input: expected {what(len(items))}")
    if too_long:
        raise ValidationError(too_long)
    toks = [tok for _, tok in items]
    if "/" not in "".join(toks):
        return 1, tuple(map(int, toks))
    ratios = [(int(num), int(den or 1)) for num, _, den in (tok.partition("/") for tok in toks)]
    scale = lcm(*(q for _, q in ratios))
    ints = [p * (scale // q) for p, q in ratios]
    g = gcd(scale, *ints)  # 1 when scale is the lcm of the denominators in lowest terms
    return scale // g, tuple(x // g for x in ints)


def parse_polytope(text: str) -> Polytope:
    """Parse and validate; raises ValidationError with line diagnostics."""
    tokens = _tokens(text)
    n = _integer(tokens, "coordinate count n")
    m = _integer(tokens, "equality row count m")
    v_count = _integer(tokens, "vertex count V")
    if n < 1:
        raise ValidationError(f"coordinate count must be at least 1, got {n}")
    if m < 0:
        raise ValidationError(f"equality row count must be nonnegative, got {m}")
    if v_count < 1:
        raise ValidationError(f"vertex count must be at least 1, got {v_count}")

    try:
        _literal(tokens, "A")
        A = [_row(tokens, n, lambda i: f"A row {j} entry {i}") for j in range(m)]
        _literal(tokens, "b")
        b = _row(tokens, m, lambda j: f"b entry {j}")
        _literal(tokens, "vertices")
        points = [_row(tokens, n, lambda i: f"vertex {k} coordinate {i + 1}")
                  for k in range(v_count)]
        extra = next(tokens, None)
        if extra is not None:
            raise _Misaligned(f"line {extra[0]}: trailing input starting at {extra[1]!r}")
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
