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
(``sys.get_int_max_str_digits()``) is refused with its line.  A section
(``A``, ``b``, vertices) is read at a time: one regex and one length test
check all its tokens, and only a section that fails them is checked token
by token, in order, to word its first error.  Rows go straight into ints
and are validated on them; ``Fraction`` tuples wait until a caller reads
them.  Output is deterministic: same section order, one row per line,
rationals in lowest terms.
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
# valid rationals joined by single spaces: no denominator is zero
_SECTION = re.compile(r"(?:[+-]?[0-9]+(?:/0*[1-9][0-9]*)?(?: |\Z))*")
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


def _lowest(toks: list[str]) -> tuple[int, tuple[int, ...]]:
    """Checked rationals as ``(scale, ints)`` in lowest terms."""
    ratios = [(int(num), int(den or 1)) for num, _, den in (tok.partition("/") for tok in toks)]
    scale = lcm(*(q for _, q in ratios))
    ints = [p * (scale // q) for p, q in ratios]
    g = gcd(scale, *ints)  # 1 when scale is the lcm of the denominators in lowest terms
    return scale // g, tuple(x // g for x in ints)


def _section(tokens: _Stream, rows: int, width: int,
             what: Callable[[int, int], str]) -> list[tuple[int, tuple[int, ...]]]:
    """The next ``rows`` rows of ``width`` rationals, each as ``(scale, ints)``:
    the lcm of its denominators in lowest terms, and the row times it.  One
    regex and one length test check the section; only when one fails, or the
    input runs short, does ``_refuse`` check it token by token.  ``what(k, i)``
    names entry i of row k in an error message."""
    items = list(islice(tokens, min(rows * width, sys.maxsize)))
    toks = [tok for _, tok in items]
    joined, limit = " ".join(toks), sys.get_int_max_str_digits()
    if (len(items) < rows * width or not _SECTION.fullmatch(joined)
            or limit and max(map(len, toks), default=0) > limit):
        _refuse(items, rows, width, what)
    if "/" not in joined:
        ints = list(map(int, toks))
        return [(1, tuple(ints[k * width:(k + 1) * width])) for k in range(rows)]
    return [_lowest(toks[k * width:(k + 1) * width]) for k in range(rows)]


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
        A = _section(tokens, m, n, lambda j, i: f"A row {j} entry {i}")
        _literal(tokens, "b")
        (b,) = _section(tokens, 1, m, lambda _, j: f"b entry {j}")
        _literal(tokens, "vertices")
        points = _section(tokens, v_count, n, lambda k, i: f"vertex {k} coordinate {i + 1}")
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
