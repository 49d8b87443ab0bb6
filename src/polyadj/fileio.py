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
looked up only when something is refused.  The header's counts fix every
section's position in that list, so the parser keeps no cursor: marker
``A`` is token 3, ``b`` token 4 + mn, ``vertices`` token 5 + mn + m, and the
input ends at 6 + mn + m + Vn.  Each section checks its own marker, then
one regex and one length test check all its tokens, and only a section
that fails them is checked token by token, in order, to word its first
error.  Rows go straight into ints, rationals scaled a coordinate column at
a time (``core._scaled``), and are validated on them; ``Fraction`` tuples
wait until a caller reads them.  Output is deterministic: same section
order, one row per line, rationals in lowest terms.
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
# each section's marker, and the name of entry i of its row k in a refusal
_SECTIONS = (("A", lambda k, i: f"A row {k} entry {i}"),
             ("b", lambda _, j: f"b entry {j}"),
             ("vertices", lambda k, i: f"vertex {k} coordinate {i + 1}"))


def _tokens(text: str) -> list[tuple[int, str]]:
    """Every token outside comments, in order, with its line number."""
    return [(line_no, tok) for line_no, line in enumerate(text.splitlines(), start=1)
            for tok in line.split("#", 1)[0].split()]


def _flat(text: str) -> list[str]:
    """Every token outside comments, in order, with no line numbers."""
    return " ".join(line.partition("#")[0] for line in text.splitlines()).split()


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


def _token(toks: list[str], i: int, what: str) -> str:
    if i >= len(toks):
        raise _Misaligned(f"unexpected end of input: expected {what}")
    return toks[i]


def _integer(toks: list[str], text: str, i: int, what: str) -> int:
    if not _INTEGER.match(tok := _token(toks, i, what)):
        raise ValidationError(f"line {_tokens(text)[i][0]}: expected integer for {what}, got {tok!r}")
    if (limit := sys.get_int_max_str_digits()) and len(tok.lstrip("+-")) > limit:
        raise ValidationError(f"line {_tokens(text)[i][0]}: {what} has more than {limit} digits")
    return int(tok)


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


def _section(toks: list[str], text: str, at: int, word: str, rows: int, width: int,
             what: Callable[[int, int], str]) -> list[tuple[int, tuple[int, ...]]]:
    """The section whose marker ``word`` is token ``at``: the ``rows`` rows of
    ``width`` rationals after it, each as ``(scale, ints)``: the least scale
    that makes the row integral, and the row times it.  One regex and one
    length test check the section; only when one fails, or the input runs
    short, does ``_refuse`` check it token by token, with each token's line.
    A section holding a ``p/q`` is scaled a coordinate column at a time
    (``core._scaled``).  ``what(k, i)`` names entry i of row k in an error
    message."""
    if (tok := _token(toks, at, f"section marker {word!r}")) != word:
        raise ValidationError(
            f"line {_tokens(text)[at][0]}: expected section marker {word!r}, got {tok!r}")
    span = slice(at + 1, at + 1 + rows * width)
    joined, limit = " ".join(sec := toks[span]), sys.get_int_max_str_digits()
    if (len(sec) < rows * width or not _SECTION.fullmatch(joined)
            or limit and max(map(len, sec), default=0) > limit):
        _refuse(_tokens(text)[span], rows, width, what)
    if "/" not in joined:
        return _scaled(list(map(int, sec)), [1] * len(sec), rows)
    parts = list(map(str.partition, sec, repeat("/")))
    return _scaled(list(map(int, map(itemgetter(0), parts))),
                   [int(q) if q else 1 for _, _, q in parts], rows)


def parse_polytope(text: str) -> Polytope:
    """Parse and validate; raises ValidationError with line diagnostics."""
    toks = _flat(text)
    n = _integer(toks, text, 0, "coordinate count n")
    m = _integer(toks, text, 1, "equality row count m")
    v_count = _integer(toks, text, 2, "vertex count V")
    if n < 1:
        raise ValidationError(f"coordinate count must be at least 1, got {n}")
    if m < 0:
        raise ValidationError(f"equality row count must be nonnegative, got {m}")
    if v_count < 1:
        raise ValidationError(f"vertex count must be at least 1, got {v_count}")

    at, sections = 3, []
    try:
        for (word, what), (rows, width) in zip(_SECTIONS, ((m, n), (1, m), (v_count, n))):
            sections.append(_section(toks, text, at, word, rows, width, what))
            at += 1 + rows * width
        if at < len(toks):
            raise _Misaligned(f"line {_tokens(text)[at][0]}: trailing input starting at {toks[at]!r}")
    except _Misaligned as exc:
        raise ValidationError(f"{exc}{_ragged_row(text, n, m, v_count)}") from None
    A, (b,), points = sections
    return Polytope._of_ints(A, b, points)


def format_polytope(p: Polytope) -> str:
    """Deterministic text form; parses back to an equal polytope.  Printed from
    the int rows: entry x on scale s is x // g over s // g, with g = gcd(x, s).
    The first entry, in file order, whose x // g or s // g has more digits than
    ``int`` converts raises ValueError, worded as the parser refuses it."""
    text = [f"{p.n} {p.m} {p.vertex_count}"]
    for (word, what), rows in zip(_SECTIONS, (p._rows, [p._rhs] if p.m else [], p._points)):
        text.append(word)
        for k, (scale, ints) in enumerate(rows):
            row: list[str] = []  # each entry as str(Fraction) spells it
            try:
                for x in ints:
                    g = gcd(x, scale)
                    row.append(str(x // g) if g == scale else f"{x // g}/{scale // g}")
            except ValueError:  # str of an int past sys.get_int_max_str_digits()
                limit = sys.get_int_max_str_digits()
                raise ValueError(f"{what(k, len(row))} has more than {limit} digits") from None
            text.append(" ".join(row))
    return "\n".join(text) + "\n"
