"""Slack embedding and the built-in fixtures."""

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles as orc
from polyadj.core import (
    Polytope, ValidationError, _bareiss, _integral_rows, _rref, detect_facets, is_simple,
)
from polyadj.generators import (
    _GENERATORS,
    HPolytope,
    _nullspace,
    bipyramid3,
    cube,
    prism3,
    simplex,
    slack_embed,
    truncated_cube,
)


def test_slack_embed_unit_interval():
    h = HPolytope(((-1,), (1,)), (0, 1), ((0,), (1,)))
    p = slack_embed(h)
    assert p.n == 2 and p.m == 1
    assert p.A == ((Fraction(1), Fraction(1)),)
    assert p.b == (Fraction(1),)
    assert p.vertices == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_cube3_standard_form():
    p = cube(3)
    assert (p.n, p.m, p.vertex_count) == (6, 3, 8)
    assert p.A == (
        (1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1),
    )
    assert p.b == (1, 1, 1)
    assert p.vertices[0] == (0, 0, 0, 1, 1, 1)  # corner at the origin
    assert p.vertices == tuple(sorted(p.vertices))


def test_vertices_always_sorted():
    for name, d in [("cube", 4), ("simplex", 3), ("prism3", None),
                    ("bipyramid3", None), ("truncated_cube", None)]:
        p = slack_embed(orc.fixture(name, d))
        assert p.vertices == tuple(sorted(p.vertices)), name


def test_cube_family_counts():
    for d in range(1, 6):
        p = cube(d)
        assert (p.n, p.m, p.vertex_count, p.dimension) == (2 * d, d, 2 ** d, d)
        if d >= 1:
            assert len(detect_facets(p)) == 2 * d
        assert is_simple(p)


def test_simplex_family():
    for d in range(1, 7):
        p = simplex(d)
        assert (p.n, p.m, p.vertex_count, p.dimension) == (d + 1, 1, d + 1, d)
        assert p.A == (tuple([1] * (d + 1)),)
        assert p.b == (1,)
        # vertices are exactly the unit vectors
        assert sorted(v.count(0) for v in p.vertices) == [d] * (d + 1)
        assert len(detect_facets(p)) == d + 1
        assert is_simple(p)


def test_prism_and_bipyramid_and_truncation_counts():
    p = prism3()
    assert (p.n, p.m, p.vertex_count, p.dimension) == (5, 2, 6, 3)
    assert len(detect_facets(p)) == 5

    p = bipyramid3()
    assert (p.n, p.m, p.vertex_count, p.dimension) == (6, 3, 5, 3)
    facets = detect_facets(p)
    assert len(facets) == 6
    assert not is_simple(p, facets)
    # apexes sit on three facets, the equator triangle on four
    assert sorted(len(z) for z in p.zero_sets) == [3, 3, 4, 4, 4]

    p = truncated_cube()
    assert (p.n, p.m, p.vertex_count, p.dimension) == (7, 4, 10, 3)
    assert len(detect_facets(p)) == 7
    assert is_simple(p)


def test_tight_iff_zero_slack():
    for name, d in [("cube", 3), ("bipyramid3", None), ("truncated_cube", None)]:
        h = orc.fixture(name, d)
        p = slack_embed(h)
        for k, x in enumerate(h.vertices):
            image = orc.slack_image(h, x)
            assert p.vertices[k] == image
            assert p.zero_sets[k].indices() == tuple(
                j + 1 for j, s in enumerate(image) if s == 0
            )


def test_generator_argument_errors():
    with pytest.raises(ValueError, match="d >= 1"):
        cube(0)
    with pytest.raises(ValueError, match="d >= 1"):
        simplex(-2)


def test_registry():
    assert set(_GENERATORS) == {"cube", "simplex", "prism3", "bipyramid3", "truncated_cube"}
    build, takes_dim = _GENERATORS["cube"]
    assert takes_dim and build(2).vertex_count == 4
    build, takes_dim = _GENERATORS["prism3"]
    assert not takes_dim


# -- embedding validation -----------------------------------------------------


def square_h(**overrides):
    data = dict(
        normals=((-1, 0), (0, -1), (1, 0), (0, 1)),
        offsets=(0, 0, 1, 1),
        vertices=((0, 0), (0, 1), (1, 0), (1, 1)),
    )
    data.update(overrides)
    return HPolytope(**data)


def test_embed_rejects_infeasible_vertex():
    with pytest.raises(ValidationError, match="vertex 3 violates inequality 2"):
        slack_embed(square_h(vertices=((0, 0), (0, 1), (1, 0), (2, 1))))


def test_embed_rejects_duplicate_vertices():
    with pytest.raises(ValidationError, match="duplicate"):
        slack_embed(square_h(vertices=((0, 0), (0, 1), (1, 0), (0, 0))))


def test_embed_rejects_flat_vertex_set():
    with pytest.raises(ValidationError, match="do not span"):
        slack_embed(square_h(vertices=((0, 0), (0, 1))))


def test_embed_rejects_slack_inequality():
    # x1 + x2 <= 3 holds strictly everywhere: tight on no vertex
    with pytest.raises(ValidationError, match="tight on no vertex"):
        slack_embed(
            square_h(
                normals=((-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)),
                offsets=(0, 0, 1, 1, 3),
            )
        )


def test_embed_rejects_vertex_tangent_inequality():
    # x1 + x2 <= 2 touches only the corner (1, 1): not facet-defining
    with pytest.raises(ValidationError, match="not facet-defining"):
        slack_embed(
            square_h(
                normals=((-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)),
                offsets=(0, 0, 1, 1, 2),
            )
        )


def test_embed_rejects_edge_tangent_inequality():
    # on cube(3), x1 + x2 <= 2 is tight on the whole edge x1 = x2 = 1
    h = orc.fixture("cube", 3)
    with pytest.raises(ValidationError, match="not facet-defining"):
        slack_embed(HPolytope(h.normals + ((1, 1, 0),), h.offsets + (2,), h.vertices))


def test_embed_merges_duplicated_facet_inequality():
    # x1 <= 1 twice: rows 2 and 4 name one facet, coordinates 3 and 5
    p = slack_embed(
        square_h(normals=((-1, 0), (0, -1), (1, 0), (0, 1), (1, 0)), offsets=(0, 0, 1, 1, 1))
    )
    facets = detect_facets(p)
    assert len(facets) == 4
    merged = [f for f in facets if len(f.coordinates) > 1]
    assert [f.coordinates.indices() for f in merged] == [(3, 5)]
    assert facets.non_facet_coordinates == ()


def test_embed_rejects_system_missing_a_facet():
    # x + y <= 2 only touches (1, 1); the facets x <= 1 and y <= 1 are
    # missing, so (0, 1) lies on a single facet of the rows
    with pytest.raises(ValidationError, match="vertex 1 lies on 1 < 2 facets"):
        slack_embed(square_h(normals=((-1, 0), (0, -1), (1, 1)), offsets=(0, 0, 2)))


def test_embed_errors_name_vertices_in_input_order():
    # same rows as above, with (1, 1) listed first: the standard form sorts
    # it last, and in that sorted order the first vertex on too few facets
    # is (0, 1); the error must still name input vertex 0
    with pytest.raises(ValidationError, match="vertex 0 lies on 1 < 2 facets"):
        slack_embed(square_h(normals=((-1, 0), (0, -1), (1, 1)), offsets=(0, 0, 2),
                             vertices=((1, 1), (0, 0), (1, 0), (0, 1))))


def test_embed_rejects_vertices_of_an_inscribed_tetrahedron():
    # all 6 rows of cube(3) are tight on two of these four corners each, so
    # every row is a maximal tight set and every vertex is on 3 of them, yet
    # the rows' polytope is the cube: the image's faces give dimension 2
    h = orc.fixture("cube", 3)
    for corners in (((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)),
                    ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))):
        with pytest.raises(ValidationError, match="dimension 2, not 3"):
            slack_embed(HPolytope(h.normals, h.offsets, corners))


def test_embed_needs_no_vertex_rank(monkeypatch):
    # the image's chain of faces proves the span on every valid input, so
    # the vertex-difference rank runs only to word a refusal
    expected = {(name, d): slack_embed(orc.fixture(name, d)).vertices
                for name, dims in (("cube", range(1, 6)), ("simplex", range(1, 6)),
                                   ("prism3", [None]), ("bipyramid3", [None]),
                                   ("truncated_cube", [None]))
                for d in dims}

    def refuse(matrix):
        raise AssertionError("rank called")

    monkeypatch.setattr("polyadj.generators.rank", refuse)
    for (name, d), vertices in expected.items():
        assert slack_embed(orc.fixture(name, d)).vertices == vertices


def test_embed_keeps_first_error_when_chain_undercounts():
    # cube(3) without row 0 (x0 >= 0) on four corners that span dimension 3:
    # their faces give a chain of only 2, yet the first error is still the
    # facet check, as when the span was decided by a rank alone
    h = orc.fixture("cube", 3)
    corners = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1))
    with pytest.raises(ValidationError, match="inequality 2 is not facet-defining"):
        slack_embed(HPolytope(h.normals[1:], h.offsets[1:], corners))


def test_embed_rejects_cube_without_one_facet_row():
    # cube(3) rows are x_i >= 0 then x_i <= 1; drop x1 <= 1 (row 3)
    h = orc.fixture("cube", 3)
    rows = [j for j in range(6) if j != 3]
    with pytest.raises(ValidationError, match="lies on 2 < 3 facets"):
        slack_embed(HPolytope(tuple(h.normals[j] for j in rows),
                              tuple(h.offsets[j] for j in rows), h.vertices))


def test_embed_rejects_normals_that_do_not_span():
    # both constraints bound x1 only; x2 is unconstrained (unbounded strip)
    with pytest.raises(ValidationError, match="normals do not span"):
        slack_embed(
            HPolytope(
                ((-1, 0), (1, 0)),
                (0, 1),
                ((0, 0), (1, 0), (0, 1), (1, 1)),
            )
        )


def test_hpolytope_shape_validation():
    with pytest.raises(ValidationError, match="^vertex 1: expected 2 coordinates, got 1$"):
        HPolytope(((-1, 0),), (0,), ((0, 0), (1,)))
    with pytest.raises(ValidationError, match="^inequality row 0: expected 2 entries, got 1$"):
        HPolytope(((-1,),), (0,), ((0, 0),))
    with pytest.raises(ValidationError, match="^offsets has 2 entries for 1 inequality rows$"):
        HPolytope(((-1, 0),), (0, 1), ((0, 0),))
    with pytest.raises(ValidationError, match="float"):
        HPolytope(((-1.0, 0),), (0,), ((0, 0),))


def test_hpolytope_refuses_an_empty_vertex_list_or_vertex():
    with pytest.raises(ValidationError, match="^at least one vertex is required$"):
        HPolytope(((-1,),), (0,), ())
    with pytest.raises(ValidationError, match="^vertices must have at least one coordinate$"):
        HPolytope((), (), ((),))


def test_polytope_and_hpolytope_refuse_each_shape_fault_alike():
    # one refusal per fault, in this order, for both forms; only the rows'
    # kind and the right-hand side's name differ
    cases = (
        ((), ((1, 0),), (0,), "at least one vertex is required"),
        (((),), (), (), "vertices must have at least one coordinate"),
        (((0, 0), (1,)), ((1, 0),), (0,), "vertex 1: expected 2 coordinates, got 1"),
        (((0, 0),), ((1, 0), (1,)), (0, 0), "{kind} row 1: expected 2 entries, got 1"),
        (((0, 0),), ((1, 0),), (0, 1), "{rhs} has 2 entries for 1 {kind} rows"),
        (((0, 0),), ((1, 0),), (), "{rhs} has 0 entries for 1 {kind} rows"),
        # a short vertex is named before a short row
        (((0, 0), (1,)), ((1,),), (0,), "vertex 1: expected 2 coordinates, got 1"),
    )
    for vertices, rows, rhs, message in cases:
        for build, kind, rhs_name in ((Polytope, "equality", "b"),
                                      (HPolytope, "inequality", "offsets")):
            with pytest.raises(ValidationError) as err:
                build(rows, rhs, vertices)
            assert str(err.value) == message.format(kind=kind, rhs=rhs_name)


# -- exact behaviour of the integer slack path --------------------------------


def test_embed_names_a_fractional_violation_exactly():
    cases = (
        (square_h(vertices=((0, 0), (0, 1), (1, 0), (1, Fraction(7, 6)))),
         "vertex 3 violates inequality 3 by 1/6"),
        # row 2 scales by 4 and the last vertex by 30: the excess is 12 / 120
        (HPolytope(((-1, 0), (0, -1), (Fraction(3, 2), 3)), (0, 0, Fraction(3, 4)),
                   ((0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 4)), (Fraction(1, 6), "1/5"))),
         "vertex 3 violates inequality 2 by 1/10"),
    )
    for h, message in cases:
        with pytest.raises(ValidationError) as err:
            slack_embed(h)
        assert str(err.value) == message


def test_embed_gives_an_over_long_violation_as_its_digit_count():
    # the excess long * long - 1 has 6000 digits, past what str(int) converts
    long = int("7" * 3000)
    with pytest.raises(ValidationError) as err:
        slack_embed(HPolytope(((long,), (-1,)), (1, 0), ((long,), (0,))))
    assert str(err.value) == "vertex 0 violates inequality 0 by <6000 digits>"


def test_embed_finds_duplicates_spelt_differently():
    triangle = dict(normals=((-1, 0), (0, -1), (1, 1)), offsets=(0, 0, 1))
    for vertices in (((0, 0), (1, 0), (0, 1), (Fraction(1, 2), 0), ("2/4", 0)),
                     ((0, 0), (Fraction(1, 3), "1/3"), (1, 0), (0, 1), ("2/6", Fraction(2, 6)))):
        with pytest.raises(ValidationError) as err:
            slack_embed(HPolytope(vertices=vertices, **triangle))
        assert str(err.value) == "duplicate vertices"


def test_embed_reports_a_violation_before_a_duplicate():
    with pytest.raises(ValidationError) as err:
        slack_embed(square_h(vertices=((0, 0), (0, 0), (0, 1), (1, 0), (1, Fraction(3, 2)))))
    assert str(err.value) == "vertex 4 violates inequality 3 by 1/2"


def test_embed_names_the_first_vertex_then_the_first_inequality_at_fault():
    # x <= 1, y <= 5, x + y <= 2, -x <= 0: (3, 0) breaks rows 0 and 2, (0, 7) rows 1 and 2,
    # (1, 3/2) only row 2; vertices are searched in order, each one's rows in order
    rows = dict(normals=((1, 0), (0, 1), (1, 1), (-1, 0)), offsets=(1, 5, 2, 0))
    cases = (
        (((0, 0), (3, 0), (0, 7)), "vertex 1 violates inequality 0 by 2"),
        (((0, 0), (0, 7), (3, 0)), "vertex 1 violates inequality 1 by 2"),
        (((0, 0), (1, Fraction(3, 2)), (3, 0)), "vertex 1 violates inequality 2 by 1/2"),
        (((3, 0), (0, 0), (0, 0)), "vertex 0 violates inequality 0 by 2"),  # before the duplicate
    )
    for vertices, message in cases:
        with pytest.raises(ValidationError) as err:
            slack_embed(HPolytope(vertices=vertices, **rows))
        assert str(err.value) == message


def test_embed_without_inequality_rows_is_degenerate():
    cases = (
        (((0, 0), (1, 0), (0, 1)), "degenerate input: inequality normals do not span"),
        (((0, 0), (1, 1)), "degenerate input: vertices do not span dimension 2"),
        (((0,),), "degenerate input: vertices do not span dimension 1"),
    )
    for vertices, message in cases:
        with pytest.raises(ValidationError) as err:
            slack_embed(HPolytope((), (), vertices))
        assert str(err.value) == message


def test_embed_rhs_is_the_exact_dot_product_in_lowest_terms():
    # 1/6 <= x <= 5/6 and 1/6 <= y <= 5/6 with scaled rows: every b entry is
    # a product whose denominator shares a factor with its numerator
    square = HPolytope(((-2, 0), (0, -3), (4, 0), (0, 6)),
                       (Fraction(-1, 3), Fraction(-1, 2), Fraction(10, 3), 5),
                       tuple((Fraction(x, 6), Fraction(y, 6)) for x in (1, 5) for y in (1, 5)))
    segment = HPolytope(((-1,), (1,)), (Fraction(-1, 6), Fraction(5, 6)),
                        ((Fraction(1, 6),), (Fraction(5, 6),)))
    hforms = [square, segment, orc.fixture("truncated_cube"), orc.fixture("bipyramid3")]
    for h in hforms:
        q = slack_embed(h)
        assert q.b == tuple(sum(a * g for a, g in zip(row, h.offsets)) for row in q.A)
        assert q._rhs == Polytope(q.A, q.b, q.vertices)._rhs
    assert slack_embed(segment).b == (Fraction(2, 3),)
    assert slack_embed(square).b == (Fraction(8, 3), 4)


_ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(_ENTRIES, min_size=d, max_size=d), min_size=1, max_size=7)))
def test_nullspace_basis_is_primitive_and_canonical(normals):
    columns = [list(col) for col in zip(*normals)]  # A N = 0: the nullspace of N transposed
    basis = _nullspace(columns)
    pivots = _rref([list(col) for col in columns])[1]
    free = [c for c in range(len(normals)) if c not in pivots]
    assert len(basis) == len(free)
    for f, vec in zip(free, basis):
        assert len(vec) == len(normals) and all(type(x) is int for x in vec)
        assert gcd(*vec) == 1 and vec[f] > 0
        assert all(vec[g] == 0 for g in free if g != f)
        assert all(sum(c * x for c, x in zip(col, vec)) == 0 for col in columns)


_DENSE = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60)))


@st.composite
def _matrices(draw):
    """Up to 8 rows of up to 40 entries, with zero, duplicate and proportional rows."""
    width = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["new", "new", "zero", "multiple"]))
        if kind == "zero":
            rows.append([Fraction(0)] * width)
        elif kind == "multiple" and rows:  # a multiple of 1 is a duplicate
            k = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(_DENSE, min_size=width, max_size=width)))
    return draw(st.permutations(rows))


def _sympy_basis(rows):
    """``sympy``'s nullspace basis, each vector scaled to primitive ints (its
    free column holds 1, so the scaled entry there is positive)."""
    basis = []
    for vec in sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in rows]).nullspace():
        scale = lcm(*(int(e.q) for e in vec))
        ints = [int(e * scale) for e in vec]
        g = gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return basis


def _last_pivot(rows):
    reduced, pivots = _bareiss([list(ints) for _, ints in _integral_rows(rows)])
    return reduced[0][pivots[0]] if pivots else 1


@settings(deadline=None)
@given(_matrices())
def test_nullspace_matches_sympy_on_dense_rationals(rows):
    # negating the row that takes the first pivot negates the last pivot D
    # and keeps the nullspace, so both signs of D are checked
    col = next((c for c in range(len(rows[0])) if any(row[c] for row in rows)), None)
    variants = [rows]
    if col is not None:
        i = next(i for i, row in enumerate(rows) if row[col])
        variants.append([[-x for x in row] if k == i else row for k, row in enumerate(rows)])
        assert _last_pivot(variants[0]) == -_last_pivot(variants[1])
    expected = _sympy_basis(rows)
    for matrix in variants:
        assert _nullspace([list(row) for row in matrix]) == expected


_POSITIVE = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@settings(deadline=None)
@given(st.sampled_from([("cube", 1), ("cube", 3), ("simplex", 2), ("simplex", 4), ("prism3", None),
                        ("bipyramid3", None), ("truncated_cube", None)]), st.data())
def test_embed_of_a_moved_fixture_lists_its_exact_slack_vectors(fixture, data):
    # x -> s x + t with rows times positive factors: every vertex and row gets its own
    # denominator, so a wrong common-scale factor shows in some slack
    h = orc.fixture(*fixture)
    s = data.draw(_POSITIVE)
    t = data.draw(st.lists(_ENTRIES, min_size=h.dim, max_size=h.dim))
    factors = data.draw(st.lists(_POSITIVE, min_size=len(h.normals), max_size=len(h.normals)))
    normals = tuple(tuple(f * c for c in row) for f, row in zip(factors, h.normals))
    offsets = tuple(f * (s * g + sum(c * x for c, x in zip(row, t)))
                    for f, row, g in zip(factors, h.normals, h.offsets))
    vertices = data.draw(st.permutations([tuple(s * x + y for x, y in zip(v, t))
                                          for v in h.vertices]))
    slacks = sorted(tuple(g - sum(c * x for c, x in zip(row, v)) for row, g in zip(normals, offsets))
                    for v in vertices)
    assert slack_embed(HPolytope(normals, offsets, tuple(vertices))).vertices == tuple(slacks)
