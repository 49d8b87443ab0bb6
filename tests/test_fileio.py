"""Polytope file parsing and deterministic formatting."""

import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import oracles as orc
import polyadj
from polyadj.core import ValidationError, ZeroSet, _integral_rows, _scaled
from polyadj.fileio import (_SECTION, _flat, _refuse, _section, _tokens, format_polytope,
                            parse_polytope)
from polyadj.generators import _GENERATORS, cube, truncated_cube

CUBE2_FILE = """\
4 2 4
A
1 0 1 0
0 1 0 1
b
1 1
vertices
0 0 1 1
0 1 1 0
1 0 0 1
1 1 0 0
"""


def test_format_cube2_golden():
    assert format_polytope(cube(2)) == CUBE2_FILE


def test_round_trip():
    for p in (cube(3), truncated_cube()):
        text = format_polytope(p)
        q = parse_polytope(text)
        assert q.A == p.A and q.b == p.b and q.vertices == p.vertices
        assert format_polytope(q) == text


def test_parse_accepts_comments_and_spacing():
    text = """
    # a square, loosely formatted
    4 2   4
    A
    1 0 1 0   # first row
    0 1 0 1
    b
    2/2 1
    vertices
    0 0 1 1
    0 1 1 0
    1 0 0 1
    1 1 0 0
    """
    p = parse_polytope(text)
    assert p.vertex_count == 4
    assert p.b == (Fraction(1), Fraction(1))


def test_output_in_lowest_terms():
    text = CUBE2_FILE.replace("0 0 1 1", "0/3 0 2/2 4/4", 1)
    assert format_polytope(parse_polytope(text)) == CUBE2_FILE


def test_parse_errors_name_the_spot():
    with pytest.raises(ValidationError, match="expected integer for coordinate count"):
        parse_polytope("x 2 4")
    with pytest.raises(ValidationError, match="expected section marker 'A'"):
        parse_polytope("4 2 4\nB\n")
    with pytest.raises(ValidationError, match="line 3: malformed rational for A row 0 entry 1"):
        parse_polytope("4 2 4\nA\n1 nope 1 0\n")
    with pytest.raises(ValidationError, match="line 3: zero denominator for A row 0 entry 0"):
        parse_polytope("4 2 4\nA\n1/0 0 1 0\n")
    with pytest.raises(ValidationError, match="malformed rational"):
        parse_polytope("4 2 4\nA\n1/-2 0 1 0\n")  # sign goes on the numerator
    with pytest.raises(ValidationError, match="unexpected end of input"):
        parse_polytope("4 2 4\nA\n1 0 1 0\n")
    with pytest.raises(ValidationError, match="trailing input"):
        parse_polytope(CUBE2_FILE + "\n9")
    with pytest.raises(ValidationError, match="coordinate count must be at least 1"):
        parse_polytope("0 0 1\nA\nb\nvertices\n")
    with pytest.raises(ValidationError, match="vertex count must be at least 1"):
        parse_polytope("2 1 0\nA\n1 1\nb\n1\nvertices\n")
    with pytest.raises(ValidationError, match="nonnegative"):
        parse_polytope("2 -1 1\nA\nb\nvertices\n1 0\n")


def test_parse_reads_ascii_digits_only():
    # Arabic-Indic digits match \d and int() reads them, but a file holds ASCII
    text = format_polytope(cube(3)).replace("1", "\u0661")
    with pytest.raises(ValidationError) as err:
        parse_polytope(text)
    assert str(err.value) == "line 3: malformed rational for A row 0 entry 0: '\u0661'"
    with pytest.raises(ValidationError) as err:
        parse_polytope("\u0664 2 4")
    assert str(err.value) == "line 1: expected integer for coordinate count n, got '\u0664'"


def test_parse_names_the_line_of_an_over_long_entry():
    # int() refuses these with no line; the process-wide limit is left alone
    limit = sys.get_int_max_str_digits()
    long = "7" * (limit + 1)
    cases = {
        f"{long} 2 4": "line 1: coordinate count n",
        CUBE2_FILE.replace("0 1 1 0", f"0 -{long} 1 0"): "line 9: vertex 1 coordinate 2",
        CUBE2_FILE.replace("1 1 0 0", f"1 1 0 0/{long}"): "line 11: vertex 3 coordinate 4",
        CUBE2_FILE.replace("b\n1 1", f"b\n1 1/{long}"): "line 6: b entry 1",
    }
    for text, where in cases.items():
        with pytest.raises(ValidationError) as err:
            parse_polytope(text)
        assert str(err.value) == f"{where} has more than {limit} digits"
    # the limit itself still converts
    at_limit = CUBE2_FILE.replace("0 0 1 1", f"-{'0' * limit} 0 1/{'0' * (limit - 1)}1 1")
    assert format_polytope(parse_polytope(at_limit)) == CUBE2_FILE
    assert sys.get_int_max_str_digits() == limit
    # the row's other refusals come first, as before any entry is converted
    with pytest.raises(ValidationError) as err:
        parse_polytope(CUBE2_FILE.replace("0 1 1 0", f"0 {long} 1 x"))
    assert str(err.value) == "line 9: malformed rational for vertex 1 coordinate 4: 'x'"


def test_format_refuses_an_entry_the_parser_would_refuse():
    # str(int) would refuse these with no entry; the first in file order is named
    limit = sys.get_int_max_str_digits()
    big, Polytope = 10**5000, polyadj.Polytope
    for p, where in ((Polytope([[1]], [big], [(big,)]), "b entry 0"),
                     (Polytope([[0]], [0], [(Fraction(1, big),)]), "vertex 0 coordinate 1"),
                     (Polytope([[big]], [big], [(1,)]), "A row 0 entry 0")):
        with pytest.raises(ValueError) as err:
            format_polytope(p)
        assert str(err.value) == f"{where} has more than {limit} digits"
    # an entry of the limit's digits still prints, and parses back equal
    top = int("9" * limit)
    for p in (Polytope([[1]], [top], [(top,)]), Polytope([[0]], [0], [(Fraction(1, top),)])):
        q = parse_polytope(format_polytope(p))
        assert (q._rows, q._rhs, q._points) == (p._rows, p._rhs, p._points)


def test_parse_keeps_the_refusal_order_across_rows():
    # a section is checked at once, but refused as a row at a time would be
    limit = sys.get_int_max_str_digits()
    long = "7" * 5000
    for text, message in (
        # a short last row is refused as short, before its over-long entry
        (f"4 2 4\nA\n1 0 1 0\n0 {long}",
         "unexpected end of input: expected A row 1 entry 2; "
         "line 4 holds 2 entries for A row 1, expected 4"),
        # a malformed entry in one row beats a zero denominator or an
        # over-long entry in the next row of its section
        (CUBE2_FILE.replace("0 0 1 1", "0 0 x 1").replace("0 1 1 0", "0 1/0 1 0"),
         "line 8: malformed rational for vertex 0 coordinate 3: 'x'"),
        (CUBE2_FILE.replace("0 0 1 1", "0 0 x 1").replace("0 1 1 0", f"0 {long} 1 0"),
         "line 8: malformed rational for vertex 0 coordinate 3: 'x'"),
        # an over-long entry in one row beats a malformed entry in the next
        (CUBE2_FILE.replace("1 0 1 0", f"1 0 {long} 0").replace("0 1 0 1", "0 x 0 1"),
         f"line 3: A row 0 entry 2 has more than {limit} digits"),
    ):
        with pytest.raises(ValidationError) as err:
            parse_polytope(text)
        assert str(err.value) == message


def test_parse_refuses_a_count_past_sys_maxsize_with_its_line():
    count = 10**20
    with pytest.raises(ValidationError) as err:
        parse_polytope(f"{count} 2 4\nA\n1 0 1 0\n")
    assert str(err.value) == ("unexpected end of input: expected A row 0 entry 4; "
                              f"line 3 holds 4 entries for A row 0, expected {count}")


def test_parse_gives_an_over_long_equality_as_its_digit_count():
    # entries of 3000 digits fit; row times vertex has 6000, past str(int)
    long = "7" * 3000
    with pytest.raises(ValidationError) as err:
        parse_polytope(f"1 1 1\nA\n{long}\nb\n1\nvertices\n{long}\n")
    assert str(err.value) == "vertex 0: equality row 0 gives <6000 digits>, expected 1"


def test_parse_reads_any_length_when_int_has_no_digit_limit():
    # a digit limit of 0 means none, so nothing is refused for its length
    long = "7" * 5000
    text = CUBE2_FILE.replace("1 0 1 0", f"1 0 1 0/{long}")
    code = ("import sys; from polyadj.fileio import parse_polytope; "
            "print(parse_polytope(sys.stdin.read()).vertex_count)")
    env = dict(os.environ, PYTHONPATH=str(Path(polyadj.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=0", "-c", code],
                          input=text, capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "4\n"


def test_parse_errors_name_a_ragged_row():
    lines = CUBE2_FILE.splitlines(keepends=True)
    extra = "".join(lines[:7] + ["9 " + lines[7]] + lines[8:])
    with pytest.raises(ValidationError) as err:
        parse_polytope(extra)
    assert str(err.value) == ("line 11: trailing input starting at '0'; "
                              "line 8 holds 5 entries for vertex 0, expected 4")
    missing = "".join(lines[:7] + ["0 1 1\n"] + lines[8:])
    with pytest.raises(ValidationError) as err:
        parse_polytope(missing)
    assert str(err.value) == ("unexpected end of input: expected vertex 3 coordinate 4; "
                              "line 8 holds 3 entries for vertex 0, expected 4")
    # a ragged A row with the rest made up below it
    short_a = CUBE2_FILE.replace("1 0 1 0\n0 1 0 1", "1 0 1\n0 0 1 0 1")
    with pytest.raises(ValidationError) as err:
        parse_polytope(short_a + "9")
    assert str(err.value) == ("line 12: trailing input starting at '9'; "
                              "line 3 holds 3 entries for A row 0, expected 4")
    # rows past the last one, and every other error, are worded as before
    for text, message in ((CUBE2_FILE + "\n9", "line 13: trailing input starting at '9'"),
                          ("4 2 4\nA\n1 0 1 0\n",
                           "unexpected end of input: expected A row 1 entry 0"),
                          ("4 2", "unexpected end of input: expected vertex count V")):
        with pytest.raises(ValidationError) as err:
            parse_polytope(text)
        assert str(err.value) == message


def test_parse_rejects_invalid_polytopes():
    bad_vertex = CUBE2_FILE.replace("1 1 0 0", "1 1 0 5")
    with pytest.raises(ValidationError, match="vertex 3: equality row 1"):
        parse_polytope(bad_vertex)


def test_zero_equality_rows():
    # m = 0 is legal: a single point pinned only by nonnegativity
    text = "1 0 1\nA\nb\nvertices\n0\n"
    p = parse_polytope(text)
    assert p.m == 0 and p.vertex_count == 1
    assert format_polytope(p) == text


def test_parse_keeps_the_first_error_and_reduces_tokens():
    for text, message in (
        # a short row that is also malformed: malformed wins
        ("4 2 4\nA\n1 x 1\n", "line 3: malformed rational for A row 0 entry 1: 'x'"),
        ("4 2 4\nA\n1 0 1 0\n0 1/0 0 y\n",
         "line 4: zero denominator for A row 1 entry 1: '1/0'"),
        # unreduced tokens of one point still collide
        ("2 1 2\nA\n1 1\nb\n1\nvertices\n1/2 1/2\n2/4 2/4\n", "vertices 0 and 1 are identical"),
    ):
        with pytest.raises(ValidationError) as err:
            parse_polytope(text)
        assert str(err.value) == message
    p = parse_polytope("4 0 1\nA\nb\nvertices\n+3 -0 0/7 6/4\n")
    assert p.vertices == ((Fraction(3), 0, 0, Fraction(3, 2)),)


_SIGNS = st.sampled_from(["", "+", "-"])


def _token(sign: str, num: int, den: int) -> str:
    return f"{sign}{num}" + (f"/{den}" if den else "")


@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.builds(_token, _SIGNS, st.integers(0, 30), st.integers(0, 12)),
                          min_size=n, max_size=n), max_size=3),
        st.lists(st.builds(_token, st.sampled_from(["", "+"]), st.integers(0, 30),
                           st.integers(0, 12)), min_size=n, max_size=n),
    )),
    st.integers(1, 6),
)
def test_parse_reads_tokens_as_fraction_does(rows_vertex, unreduce):
    rows, vertex = rows_vertex
    A = [[Fraction(tok) for tok in row] for row in rows]
    v = [Fraction(tok) for tok in vertex]
    b = [sum(a * x for a, x in zip(row, v)) for row in A]
    b_toks = [f"{x.numerator * unreduce}/{x.denominator * unreduce}" for x in b]
    text = "\n".join([f"{len(v)} {len(A)} 1", "A", *map(" ".join, rows), "b", " ".join(b_toks),
                      "vertices", " ".join(vertex)]) + "\n"
    p = parse_polytope(text)
    assert p.A == tuple(map(tuple, A)) and p.b == tuple(b) and p.vertices == (tuple(v),)
    assert p.zero_sets == (ZeroSet.of_point(v),)
    assert format_polytope(parse_polytope(format_polytope(p))) == format_polytope(p)


def _format_from_ints(p):
    """``format_polytope(p)``, checked to build none of the ``Fraction`` tuples."""
    text = format_polytope(p)
    assert not {"A", "b", "vertices"} & vars(p).keys()
    return text


def test_format_prints_the_int_rows_as_fraction_does():
    images = [build(d) for build, takes_dim in _GENERATORS.values() if takes_dim
              for d in range(1, 5)]
    images += [build() for build, takes_dim in _GENERATORS.values() if not takes_dim]
    for p in images:
        text = _format_from_ints(p)
        assert text == orc.fraction_text(p)
        q = parse_polytope(text)
        assert _format_from_ints(q) == text
    unreduced = CUBE2_FILE.replace("1 0 1 0", "3/3 0/5 6/6 -0", 1).replace("1 1\n", "4/4 2/2\n", 1)
    assert _format_from_ints(parse_polytope(unreduced)) == CUBE2_FILE


@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.builds(_token, _SIGNS, st.integers(0, 30), st.integers(1, 12)),
                          min_size=n, max_size=n), max_size=3),
        st.lists(st.builds(_token, st.just(""), st.integers(0, 30), st.integers(1, 12)),
                 min_size=n, max_size=n),
    )),
    st.integers(1, 6),
)
def test_format_reduces_signed_unreduced_entries(rows_vertex, unreduce):
    rows, vertex = rows_vertex
    A = [[Fraction(tok) for tok in row] for row in rows]
    v = [Fraction(tok) for tok in vertex]
    b = [sum(a * x for a, x in zip(row, v)) for row in A]
    b_toks = [f"{x.numerator * unreduce}/{x.denominator * unreduce}" for x in b]
    text = "\n".join([f"{len(v)} {len(A)} 1", "A", *map(" ".join, rows), "b", " ".join(b_toks),
                      "vertices", " ".join(vertex)]) + "\n"
    p = parse_polytope(text)
    assert _format_from_ints(p) == orc.fraction_text(p)


# an all-integer row, or a row with at least one p/q entry
_INT_ROW = st.builds(_token, st.sampled_from(["", "+"]), st.integers(0, 30), st.just(0))
_ANY_ENTRY = st.builds(_token, st.sampled_from(["", "+"]), st.integers(0, 30), st.integers(0, 12))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.one_of(st.lists(_INT_ROW, min_size=n, max_size=n),
              st.lists(_ANY_ENTRY, min_size=n, max_size=n).filter(
                  lambda row: any("/" in tok for tok in row))),
    min_size=1, max_size=6, unique_by=lambda row: tuple(map(Fraction, row)))))
def test_parse_reads_mixed_sections_as_fraction_does(rows):
    # m = 0: any distinct nonnegative points are the vertices of a polytope
    text = "\n".join([f"{len(rows[0])} 0 {len(rows)}", "A", "b", "vertices",
                      *map(" ".join, rows)]) + "\n"
    p = parse_polytope(text)
    want = tuple(tuple(map(Fraction, row)) for row in rows)
    assert p.vertices == want
    scales = [lcm(*(x.denominator for x in v)) for v in want]
    assert p._points == tuple((s, tuple(int(x * s) for x in v)) for s, v in zip(scales, want))
    assert format_polytope(parse_polytope(format_polytope(p))) == format_polytope(p)


# tokens with no whitespace, short of the digit limit: free strings over the
# alphabet, and signed p/q shapes whose q may be empty, zero or not ASCII
_SHAPED = st.builds("{}{}{}{}".format, _SIGNS, st.sampled_from(["", "0", "1", "07", "10"]),
                    st.sampled_from(["", "/"]),
                    st.sampled_from(["", "0", "00", "1", "07", "10", "x", "\u0661"])).filter(bool)
_GRAMMAR_TOKENS = st.one_of(_SHAPED, _SHAPED, st.text("0123456789+-/x\u0661", min_size=1,
                                                       max_size=8))


@given(st.lists(_GRAMMAR_TOKENS, max_size=3))
def test_section_regex_and_token_check_agree(toks):
    # the one-regex section check and the token-by-token refusal state the
    # rational grammar twice; on one full row they accept the same tokens
    try:
        _refuse([(1, tok) for tok in toks], 1, len(toks), lambda k, i: f"entry {i}")
        accepted = True
    except ValidationError:
        accepted = False
    assert (_SECTION.fullmatch(" ".join(toks)) is not None) == accepted


# -- a section scaled a coordinate column at a time ----------------------------

# numerators and denominators up to past 2**64; a denominator of 0 writes no "/"
_WIDE = st.one_of(st.integers(0, 30), st.integers(2**64, 2**70))
_WIDE_ENTRY = st.builds(_token, _SIGNS, _WIDE, st.one_of(st.just(0), _WIDE.filter(bool)))


@given(st.integers(0, 4).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.lists(_WIDE_ENTRY, min_size=width, max_size=width), max_size=5))))
@example((2, [["2/4", "-0/3"], ["+6/4", "0"], ["0/5", "-10/4"]]))
@example((3, [["0", "-0/7", "+0"]]))
@example((0, [[], [], []]))  # width 0
@example((3, []))  # zero rows
def test_sections_scale_as_fraction_then_integral(width_rows):
    width, rows = width_rows
    fractions = [[Fraction(tok) for tok in row] for row in rows]
    want = [_integral_rows([row])[0] for row in fractions]
    for (scale, ints), row in zip(want, fractions):  # the least scale that makes the row integral
        assert scale == lcm(*(x.denominator for x in row))
        assert ints == tuple(int(x * scale) for x in row)
    toks = [tok for row in rows for tok in row]
    text = " ".join(["rows", *toks])
    assert _section(_flat(text), text, 0, "rows", len(rows), width,
                    lambda k, i: f"row {k} entry {i}") == want
    parts = [tok.partition("/") for tok in toks]
    assert _scaled([int(num) for num, _, _ in parts], [int(den or 1) for _, _, den in parts],
                   len(rows)) == want


# -- one flat token list; line numbers only for a refusal -----------------------

# every line boundary of str.splitlines
_LINE_ENDS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _line_tokens(text):
    """(line, token) pairs as the parser read them line by line."""
    return [(line_no, tok) for line_no, line in enumerate(text.splitlines(), start=1)
            for tok in line.split("#", 1)[0].split()]


@pytest.mark.parametrize("end", _LINE_ENDS, ids=repr)
def test_a_comment_ends_at_every_line_boundary(end):
    text = f"1 2# one{end}3 #two 4{end}# three{end}5{end}"
    assert _flat(text) == ["1", "2", "3", "5"]
    assert _tokens(text) == _line_tokens(text) == [(1, "1"), (1, "2"), (2, "3"), (4, "5")]
    commented = CUBE2_FILE.replace("\n", f"  # note 9{end}")
    assert format_polytope(parse_polytope(commented)) == CUBE2_FILE
    with pytest.raises(ValidationError) as err:
        parse_polytope(commented.replace("0 1 1 0", "0 1 x 0"))
    assert str(err.value) == "line 9: malformed rational for vertex 1 coordinate 3: 'x'"


@given(st.lists(st.sampled_from(["1", "2/3", "x", " ", "\t", "#", "\x1f", *_LINE_ENDS]),
                max_size=30).map("".join))
def test_flat_tokens_are_the_line_tokens(text):
    assert _flat(text) == [tok for _, tok in _line_tokens(text)]
    assert _tokens(text) == _line_tokens(text)


def _after_comment_crlf(old: str, new: str) -> str:
    """CUBE2_FILE with line ``old`` made ``new`` behind a comment-only line, in CRLF."""
    lines = CUBE2_FILE.splitlines()
    k = lines.index(old)
    lines[k:k + 1] = ["# the next line is wrong", new]
    return "\r\n".join(lines) + "\r\n"


def test_refusals_name_their_line_after_a_comment_line_in_a_crlf_file():
    for text, message in (
        (_after_comment_crlf("4 2 4", "4 x 4"),
         "line 2: expected integer for equality row count m, got 'x'"),
        (_after_comment_crlf("A", "B"), "line 3: expected section marker 'A', got 'B'"),
        (_after_comment_crlf("0 1 0 1", "0 1 0 y"),
         "line 5: malformed rational for A row 1 entry 3: 'y'"),
        (_after_comment_crlf("1 1", "1 1/0"), "line 7: zero denominator for b entry 1: '1/0'"),
        (_after_comment_crlf("1 0 0 1", "1 0 0 z"),
         "line 11: malformed rational for vertex 2 coordinate 4: 'z'"),
        (_after_comment_crlf("1 0 0 1", "1 0 0 1 5"),
         "line 12: trailing input starting at '0'; "
         "line 11 holds 5 entries for vertex 2, expected 4"),
        (_after_comment_crlf("1 1 0 0", "1 1 0 0\r\n# trailing\r\n9"),
         "line 14: trailing input starting at '9'"),
    ):
        with pytest.raises(ValidationError) as err:
            parse_polytope(text)
        assert str(err.value) == message
