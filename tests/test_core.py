"""Zero sets, rank, faces, facets, complementarity."""

import re
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

import oracles as orc
from polyadj.adjacency import combinatorial_test, precompute
from polyadj.core import (
    Facet,
    Facets,
    Polytope,
    ValidationError,
    ZeroSet,
    _bits,
    _face,
    _meet,
    _shown,
    _transpose,
    as_fraction,
    detect_facets,
    face_dimension,
    is_simple,
    rank,
)
from polyadj.generators import HPolytope, cube, simplex, slack_embed
from polyadj.pairgraph import PairKind, all_complementary_pairs, pair_node

# enumerated by hand from the 8 corners of the unit cube: coordinates are
# (x1, x2, x3, 1-x1, 1-x2, 1-x3), vertices sorted lexicographically
CUBE3_ZERO_SETS = [
    (1, 2, 3), (1, 2, 6), (1, 3, 5), (1, 5, 6),
    (2, 3, 4), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]

POINT = Polytope([[1]], [0], [(0,)])  # {0} in one coordinate


def interval_with_duplicate_coordinate() -> Polytope:
    # x1 + x2 = 1, x3 = x1: coordinates 1 and 3 vanish on the same vertex
    return Polytope([[1, 1, 0], [-1, 0, 1]], [1, 0], [(0, 1, 0), (1, 0, 1)])


def interval_with_dead_coordinate() -> Polytope:
    # x3 = 0 everywhere: its face is the whole interval, not a facet
    return Polytope([[1, 1, 0], [0, 0, 1]], [1, 0], [(0, 1, 0), (1, 0, 0)])


# -- ZeroSet ----------------------------------------------------------------


def test_zero_set_of_point():
    z = ZeroSet.of_point((Fraction(0), Fraction(2), Fraction(0)))
    assert z == ZeroSet.of_indices(3, (1, 3))
    assert z.indices() == (1, 3)
    assert len(z) == 2
    assert 1 in z and 2 not in z and 3 in z
    assert 0 not in z and 4 not in z


def test_zero_set_ops():
    a = ZeroSet.of_indices(5, (1, 2, 3))
    b = ZeroSet.of_indices(5, (2, 3, 4))
    assert (a & b).indices() == (2, 3)
    assert a.issuperset(a & b)
    assert not (a & b).issuperset(a)
    assert a.issuperset(ZeroSet.of_indices(5, (1, 3)))
    assert not a.issuperset(b)


def test_zero_set_width_mismatch():
    with pytest.raises(ValueError, match="width mismatch"):
        ZeroSet(3, 0) & ZeroSet(4, 0)
    with pytest.raises(ValueError, match="width mismatch"):
        ZeroSet(3, 0).issuperset(ZeroSet(2, 0))


def test_zero_set_bounds():
    with pytest.raises(ValueError, match="out of range"):
        ZeroSet.of_indices(3, (4,))
    with pytest.raises(ValueError, match="out of range"):
        ZeroSet.of_indices(3, (0,))
    with pytest.raises(ValueError):
        ZeroSet(2, 4)
    with pytest.raises(ValueError):
        ZeroSet(-1, 0)


def test_as_fraction_refuses_floats():
    with pytest.raises(ValidationError, match="float"):
        as_fraction(0.5)
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(7) == Fraction(7)


@pytest.mark.parametrize("value", ["abc", "1/0", None, [1]])
def test_non_rationals_are_refused_by_name(value):
    message = re.escape(f"not a rational number: {value!r}")
    with pytest.raises(ValidationError, match=message):
        as_fraction(value)
    with pytest.raises(ValidationError, match=message):
        Polytope([[1]], [1], [(value,)])
    with pytest.raises(ValidationError, match=message):
        HPolytope(((-1,), (1,)), (0, 1), ((0,), (value,)))


def test_reprs():
    assert repr(ZeroSet.of_indices(3, (1, 3))) == "ZeroSet({1,3}, width=3)"
    assert repr(cube(3)) == "Polytope(n=6, m=3, vertices=8)"
    assert repr(precompute(cube(3))) == "AdjacencyOracle(dim=3, simple=True)"


# -- rank -------------------------------------------------------------------


def test_rank_hand_cases():
    # row-reduced by hand
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([(1, 0), (2, 0), (0, 1)]) == 2
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert rank([[half, third], [half / 2, third / 2]]) == 1


def test_rank_ragged_rejected():
    with pytest.raises(ValueError, match="ragged"):
        rank([[1, 2], [3]])


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_matches_sympy(rows):
    import sympy

    assert rank(rows) == sympy.Matrix(rows).rank()


# -- Polytope construction --------------------------------------------------


def test_polytope_rejects_negative_coordinate():
    with pytest.raises(ValidationError, match="vertex 1: coordinate 2 is negative"):
        Polytope([[1, 1]], [1], [(0, 1), (2, -1)])


def test_polytope_rejects_equality_violation():
    with pytest.raises(ValidationError, match="vertex 0: equality row 0"):
        Polytope([[1, 1]], [1], [(1, 1)])


def test_polytope_rejects_duplicates():
    with pytest.raises(ValidationError, match="vertices 0 and 2 are identical"):
        Polytope([[1, 1]], [1], [(0, 1), (1, 0), ("0/5", "3/3")])


def test_polytope_rejects_shape_problems():
    with pytest.raises(ValidationError, match="at least one vertex"):
        Polytope([[1]], [0], [])
    with pytest.raises(ValidationError, match="at least one coordinate"):
        Polytope([], [], [()])
    with pytest.raises(ValidationError, match="vertex 1: expected 2"):
        Polytope([[1, 1]], [1], [(0, 1), (1,)])
    with pytest.raises(ValidationError, match="equality row 0: expected 2"):
        Polytope([[1]], [1], [(0, 1)])
    with pytest.raises(ValidationError, match="b has 2 entries"):
        Polytope([[1, 1]], [1, 1], [(0, 1)])
    with pytest.raises(ValidationError, match="float"):
        Polytope([[1, 1]], [1], [(0.0, 1.0)])


def test_polytope_accepts_strings_and_fractions():
    p = Polytope([["1", "1"]], ["1"], [("0", "1"), (Fraction(1, 2), "1/2")])
    assert p.vertices[1] == (Fraction(1, 2), Fraction(1, 2))


def _fraction_validation_error(A, b, points):
    """The first complaint of a plain Fraction check, or None."""
    seen = {}
    for k, v in enumerate(points):
        for j, (row, rj) in enumerate(zip(A, b)):
            lhs = sum(c * x for c, x in zip(row, v))
            if lhs != rj:
                return f"vertex {k}: equality row {j} gives {lhs}, expected {rj}"
        if v in seen:
            return f"vertices {seen[v]} and {k} are identical"
        seen[v] = k
    return None


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
NONNEGATIVE = st.fractions(min_value=0, max_value=3, max_denominator=7)


@given(st.data())
def test_validation_matches_fraction_dot_products(data):
    # n = k + m coordinates; equality row j has a nonzero pivot at k + j and
    # nothing at the other pivots, so a point can be made to satisfy row j by
    # setting its pivot coordinate; each point fixes a random subset of rows
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(0, 3))
    A, b = [], []
    for j in range(m):
        row = data.draw(st.lists(RATIONALS, min_size=k, max_size=k))
        pivot = data.draw(RATIONALS.filter(bool))
        A.append(row + [pivot if i == j else Fraction(0) for i in range(m)])
        b.append(data.draw(NONNEGATIVE))
    points = []
    for _ in range(data.draw(st.integers(1, 4))):
        x = data.draw(st.lists(NONNEGATIVE, min_size=k, max_size=k))
        for j in range(m):
            fixed = (b[j] - sum(c * xi for c, xi in zip(A[j], x))) / A[j][k + j]
            keep = data.draw(st.booleans()) or fixed < 0
            x.append(data.draw(NONNEGATIVE) if keep else fixed)
        points.append(tuple(x))
    if data.draw(st.booleans()):
        points.append(data.draw(st.sampled_from(points)))  # maybe a duplicate
    expected = _fraction_validation_error(A, b, points)
    if expected is None:
        assert Polytope(A, b, points).vertices == tuple(points)
    else:
        with pytest.raises(ValidationError) as info:
            Polytope(A, b, points)
        assert str(info.value) == expected


def test_validation_sees_a_tiny_offset():
    off = Fraction(1, 10**30)
    with pytest.raises(ValidationError) as info:
        Polytope([[1, 1]], [1], [(0, 1), (Fraction(1, 2) + off, Fraction(1, 2))])
    assert str(info.value) == (
        "vertex 1: equality row 0 gives "
        "1000000000000000000000000000001/1000000000000000000000000000000, expected 1"
    )


def test_refusals_give_an_over_long_int_as_its_digit_count():
    # str() refuses an int past sys.get_int_max_str_digits(): a refusal gives
    # its digit count instead, and a value that fits as before
    limit = sys.get_int_max_str_digits()
    long = int("7" * 3000)
    assert 10**5999 <= long * long < 10**6000
    big = 10**5000  # 5001 digits; big - 1 has 5000
    cases = (
        (([[long]], [1], [(long,)]), "vertex 0: equality row 0 gives <6000 digits>, expected 1"),
        (([[1]], [Fraction(1, big)], [(Fraction(1, big - 1),)]),
         "vertex 0: equality row 0 gives 1/<5000 digits>, expected 1/<5001 digits>"),
        (([[1]], [0], [(Fraction(-1, big - 1),)]),
         "vertex 0: coordinate 1 is negative (-1/<5000 digits>)"),
        (([[1]], [0], [(-(10**limit),)]),
         f"vertex 0: coordinate 1 is negative (-<{limit + 1} digits>)"),
        (([[1]], [0], [(-(10**limit - 1),)]),
         f"vertex 0: coordinate 1 is negative ({-(10**limit - 1)})"),
    )
    for args, message in cases:
        with pytest.raises(ValidationError) as info:
            Polytope(*args)
        assert str(info.value) == message
    # the digit count is exact on both sides of every power of ten past the limit
    for k in range(limit + 1, limit + 64):
        for x, digits in ((10**k - 1, k), (10**k, k + 1), (-(10**k), k + 1)):
            assert _shown(Fraction(x)) == ("-" if x < 0 else "") + f"<{digits} digits>", k
        assert _shown(Fraction(1, 10**k)) == f"1/<{k + 1} digits>"
    assert _shown(Fraction(-(10**limit - 1), 2)) == f"{-(10**limit - 1)}/2"


# -- zero sets, dimension ---------------------------------------------------


def test_cube3_zero_sets_match_hand_enumeration():
    p = cube(3)
    assert [z.indices() for z in p.zero_sets] == CUBE3_ZERO_SETS


def test_zero_sets_are_built_once_at_the_api_edge():
    fixtures = [("cube", d) for d in (2, 3, 4)] + [("simplex", d) for d in (2, 3, 4)]
    fixtures += [(name, None) for name in ("prism3", "bipyramid3", "truncated_cube",
                                           "bipyramid_simplex4")]
    for name, d in fixtures:
        p = slack_embed(orc.fixture(name, d))
        assert type(p.zero_sets) is tuple
        assert p.zero_sets == tuple(ZeroSet.of_point(v) for v in p.vertices), name
        assert all(type(z) is ZeroSet for z in p.zero_sets)


def test_dimension():
    assert POINT.dimension == 0
    for d in range(1, 6):
        assert simplex(d).dimension == d  # differences are e_i - e_1
        assert cube(d).dimension == d


def test_dimension_bounded_by_equality_rank():
    for p in (cube(3), simplex(4), slack_embed(orc.fixture("prism3"))):
        assert p.dimension <= p.n - rank(p.A)


def test_dimension_needs_no_rank(monkeypatch):
    polytopes = [build(d) for build in (cube, simplex) for d in range(1, 6)]
    polytopes += [slack_embed(orc.fixture(name))
                  for name in ("prism3", "bipyramid3", "truncated_cube", "bipyramid_simplex4")]
    polytopes.append(orc.product_polytope(slack_embed(orc.fixture("bipyramid3")), cube(2)))
    fresh = [Polytope(p.A, p.b, p.vertices) for p in polytopes]

    def no_rank(matrix):
        raise AssertionError("rank called")

    monkeypatch.setattr("polyadj.core.rank", no_rank)
    for p in fresh:
        assert p.dimension == orc.affine_dim(p.vertices)


# -- faces ------------------------------------------------------------------


def face_members(p: Polytope, s: ZeroSet) -> list[int]:
    """Vertices on the face where the coordinates in ``s`` vanish, ascending:
    the kernel that face_dimension, combinatorial_test and algebraic_test run."""
    return list(_bits(_face(p, s.bits)))


def test_face_vertices_whole_and_single():
    p = cube(3)
    assert face_members(p, ZeroSet(p.n, 0)) == list(range(8))
    for w in range(8):
        assert face_members(p, p.zero_sets[w]) == [w]


def test_face_vertices_empty_face():
    p = cube(3)
    # x1 = 0 and 1 - x1 = 0 cannot hold together
    assert face_members(p, ZeroSet.of_indices(6, (1, 4))) == []
    assert face_dimension(p, ZeroSet.of_indices(6, (1, 4))) is None


def test_face_dimension_width_mismatch():
    # the one width-checked face query, with its message
    with pytest.raises(ValueError, match=r"^zero set width 5 does not match n=6$"):
        face_dimension(cube(3), ZeroSet(5, 0))


def test_face_dimension_refuses_a_face_that_is_not_a_zero_set():
    # by type, as JoinMap.lookup refuses a key, not with an AttributeError on ``width``
    for face in (0, 1.0, (1, 2), None):
        with pytest.raises(TypeError,
                           match=f"^face_dimension takes a ZeroSet, got {type(face).__name__}$"):
            face_dimension(cube(2), face)


def test_face_dimension_ladder():
    p = cube(3)
    assert face_dimension(p, ZeroSet(6, 0)) == 3
    assert face_dimension(p, ZeroSet.of_indices(6, (1,))) == 2
    assert face_dimension(p, ZeroSet.of_indices(6, (1, 2))) == 1
    assert face_dimension(p, p.zero_sets[0]) == 0


def test_join_identity_against_minimal_face_oracle():
    # zero set of the smallest face containing u, v equals the intersection
    # of their zero sets; oracle computes the face from facet geometry
    for name, d in [("cube", 3), ("cube", 4), ("simplex", 3), ("prism3", None),
                    ("bipyramid3", None), ("truncated_cube", None)]:
        h = orc.fixture(name, d)
        p = slack_embed(h)
        for u in range(p.vertex_count):
            for v in range(u + 1, p.vertex_count):
                want = orc.join_zero_coordinates(h, u, v)
                got = (p.zero_sets[u] & p.zero_sets[v]).indices()
                assert got == want, (name, u, v)
                members = orc.minimal_face_vertices(h, u, v)
                assert face_members(p, p.zero_sets[u] & p.zero_sets[v]) == list(members)
                assert face_dimension(p, p.zero_sets[u] & p.zero_sets[v]) == orc.affine_dim(
                    [h.vertices[k] for k in members]
                )


def face_fixtures() -> list[Polytope]:
    polytopes = [cube(3), cube(4), simplex(4)]
    polytopes += [slack_embed(orc.fixture(name))
                  for name in ("prism3", "bipyramid3", "truncated_cube", "bipyramid_simplex4")]
    polytopes.append(orc.product_polytope(slack_embed(orc.fixture("bipyramid3")), cube(2)))
    return polytopes


def test_face_dimension_needs_no_rank(monkeypatch):
    # every face's dimension comes from the chain of coordinate faces: on
    # each pair join and each pair of coordinates (some select no vertex)
    cases = []
    for p in face_fixtures():
        zs = p.zero_sets
        sets = [zs[u] & zs[v] for u, v in combinations(range(p.vertex_count), 2)]
        sets += [ZeroSet.of_indices(p.n, ij) for ij in combinations(range(1, p.n + 1), 2)]
        faces = {tuple(face_members(p, s)) for s in sets}
        want = {face: orc.affine_dim([p.vertices[w] for w in face]) if face else None
                for face in faces}
        cases.append((p, sets, want))
    assert any(None in want.values() for _, _, want in cases)

    def no_rank(matrix):
        raise AssertionError("rank called")

    monkeypatch.setattr("polyadj.core.rank", no_rank)
    for p, sets, want in cases:
        for s in sets:
            assert face_dimension(p, s) == want[tuple(face_members(p, s))], (p, s)


# -- facets -----------------------------------------------------------------


def test_cube3_facets():
    p = cube(3)
    facets = detect_facets(p)
    assert len(facets) == 6
    assert facets.non_facet_coordinates == ()
    for f in facets:
        assert len(f.vertex_indices) == 4
        assert len(f.coordinates) == 1
    # ordered by smallest defining coordinate
    assert [f.coordinates.indices() for f in facets] == [(i,) for i in range(1, 7)]
    for w in range(8):
        assert len(Facets.ids(facets.masks[w])) == 3


@given(st.integers(0, 2 ** 70))
def test_facet_ids_are_the_set_bits(mask):
    assert Facets.ids(mask) == frozenset(f for f in range(mask.bit_length()) if mask >> f & 1)


@st.composite
def _bit_tables(draw):
    """Up to 70 rows of up to 70 bits, with all-zero rows and all-zero columns."""
    width = draw(st.integers(0, 70))
    dead = draw(st.integers(0, 2 ** width - 1))  # columns cleared in every row
    rows = draw(st.lists(st.one_of(st.just(0), st.integers(0, 2 ** width - 1)), max_size=70))
    return [row & ~dead for row in rows], width


@given(_bit_tables())
@example(([], 0))
@example(([], 70))
@example(([0] * 70, 0))
@example(([0] * 70, 70))
@example(([2 ** 70 - 1] * 70, 70))
def test_transpose_reads_the_bit_table_by_columns(table):
    rows, width = table
    cols = _transpose(rows, width)
    assert len(cols) == width and all(0 <= col < 2 ** len(rows) for col in cols)
    assert all(cols[c] >> r & 1 == rows[r] >> c & 1 for r in range(len(rows)) for c in range(width))
    assert _transpose(cols, len(rows)) == tuple(rows)


def test_transpose_reads_columns_longer_than_the_int_string_limit():
    # base 2 is a power of two, so int(..., 2) is exempt from sys.get_int_max_str_digits()
    rows = [1 << (r % 3) for r in range(1000)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        cols = _transpose(rows, 3)
    finally:
        sys.set_int_max_str_digits(limit)
    assert cols == tuple(sum(1 << r for r in range(c, 1000, 3)) for c in range(3))


def test_facets_read_like_a_tuple_with_int_indices_only():
    facets = detect_facets(cube(2))
    assert [f.id for f in facets] == [0, 1, 2, 3]
    assert facets[-1] == facets[3] and facets[0] in facets
    assert list(reversed(facets)) == [facets[f] for f in (3, 2, 1, 0)]
    with pytest.raises(IndexError):
        facets[4]
    for bad in (slice(0, 2), 1.0):
        with pytest.raises(TypeError, match=f"'{type(bad).__name__}' object cannot be"):
            facets[bad]


def test_facets_match_oracle_on_fixtures():
    for name, d in [("cube", 2), ("cube", 4), ("simplex", 4), ("prism3", None),
                    ("bipyramid3", None), ("truncated_cube", None)]:
        h = orc.fixture(name, d)
        p = slack_embed(h)
        got = sorted(sorted(f.vertex_indices) for f in detect_facets(p))
        want = sorted(sorted(fs) for fs in orc.facet_vertex_sets(h))
        assert got == want, name


def test_merged_facet_coordinates():
    p = interval_with_duplicate_coordinate()
    facets = detect_facets(p)
    assert len(facets) == 2
    assert facets[0].coordinates.indices() == (1, 3)
    assert facets[0].vertex_indices == frozenset({0})
    assert facets[1].coordinates.indices() == (2,)
    assert facets.non_facet_coordinates == ()


def test_dead_coordinate_is_not_a_facet():
    p = interval_with_dead_coordinate()
    facets = detect_facets(p)
    assert facets.non_facet_coordinates == (3,)
    assert len(facets) == 2
    # the dead coordinate stays in every zero set
    assert all(3 in z for z in p.zero_sets)
    # and does not block complementarity of the two endpoints
    assert not facets.masks[0] & facets.masks[1]


def test_point_has_no_facets():
    # no coordinate face of a point is proper and nonempty
    facets = detect_facets(POINT)
    assert len(facets) == 0 and list(facets) == []
    assert facets.non_facet_coordinates == (1,)
    assert facets.masks == (0,) and Facets.ids(facets.masks[0]) == frozenset()
    assert is_simple(POINT, facets)


def test_triangular_bipyramid_has_six_facets():
    p = slack_embed(orc.fixture("bipyramid3"))
    assert len(detect_facets(p)) == 6


def test_detect_facets_builds_no_zero_set(monkeypatch):
    polytopes = face_fixtures()
    want = [(len(f), f.masks, f.non_facet_coordinates) for f in map(detect_facets, polytopes)]
    built = []
    init = ZeroSet.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(ZeroSet, "__post_init__", counted)
    got = [(len(f), f.masks, f.non_facet_coordinates) for f in map(detect_facets, polytopes)]
    assert (got, built) == (want, [])


def test_facet_lookup_reads_only_its_own_vertex_set():
    for p in face_fixtures():
        facets = detect_facets(p)
        want = []
        for f in range(len(facets)):
            verts = sum(1 << w for w, mask in enumerate(facets.masks) if mask >> f & 1)
            coords = [i + 1 for i, face in enumerate(p.coordinate_faces) if face == verts]
            on = frozenset(w for w in range(p.vertex_count) if verts >> w & 1)
            want.append(Facet(f, ZeroSet.of_indices(p.n, coords), on))
        facets.masks = None  # not read by facets[f]
        assert [facets[f] for f in range(len(facets))] == want


# -- complementarity and simplicity -----------------------------------------


def test_cube3_complementary_pairs():
    p = cube(3)
    facets = detect_facets(p)
    comp = {(u, v) for u in range(8) for v in range(u + 1, 8)
            if not facets.masks[u] & facets.masks[v]}
    assert comp == {(0, 7), (1, 6), (2, 5), (3, 4)}  # antipodal corners
    assert (facets.masks[0] & facets.masks[1]).bit_count() == 2  # an edge shares two facets


def test_is_complementary_matches_oracle():
    for name, d in [("cube", 3), ("truncated_cube", None), ("bipyramid3", None)]:
        h = orc.fixture(name, d)
        p = slack_embed(h)
        facets = detect_facets(p)
        for u in range(p.vertex_count):
            for v in range(u + 1, p.vertex_count):
                kind = pair_node(p, facets, u, v).kind
                assert (kind is PairKind.COMPLEMENTARY) == orc.complementary(h, u, v)


def test_is_simple():
    assert is_simple(cube(4))
    assert is_simple(simplex(5))
    assert is_simple(slack_embed(orc.fixture("truncated_cube")))
    assert not is_simple(slack_embed(orc.fixture("bipyramid3")))
    assert is_simple(POINT)  # dimension 0, trivially


def test_facet_queries_need_no_rank(monkeypatch):
    # facets, complementarity, simplicity and the dimension come from
    # vertex incidences alone, with no rank
    cases = []
    for name, d, dim, simple in (("cube", 4, 4, True), ("bipyramid3", None, 3, False)):
        h = orc.fixture(name, d)
        p = slack_embed(h)
        assert p.dimension == dim
        cases.append((h, p, simple))

    def no_rank(matrix):
        raise AssertionError("rank called")

    monkeypatch.setattr("polyadj.core.rank", no_rank)
    kinds = [PairKind.COMPLEMENTARY, PairKind.ALMOST_COMPLEMENTARY, PairKind.EXCLUDED]
    for h, p, simple in cases:
        facets = detect_facets(p)
        want = orc.facet_vertex_sets(h)
        assert sorted(map(sorted, (f.vertex_indices for f in facets))) == sorted(map(sorted, want))
        assert is_simple(p, facets) is simple and is_simple(p) is simple
        assert all_complementary_pairs(p, facets) == orc.complementary_pairs(h)
        for u, v in combinations(range(p.vertex_count), 2):
            shared = sum(u in fs and v in fs for fs in want)
            assert pair_node(p, facets, u, v).kind is kinds[min(shared, 2)]


def test_face_queries_need_no_zero_set_scan(monkeypatch):
    # face membership is an AND of coordinate-face bitmasks: no per-vertex
    # zero-set comparison
    cases = [(h, slack_embed(h)) for h in (orc.fixture("cube", 4), orc.fixture("truncated_cube"),
                                           orc.fixture("bipyramid3"))]

    def no_scan(self, other):
        raise AssertionError("ZeroSet.issuperset called")

    monkeypatch.setattr(ZeroSet, "issuperset", no_scan)
    for h, p in cases:
        for u, v in combinations(range(p.vertex_count), 2):
            join = p.zero_sets[u] & p.zero_sets[v]
            assert face_members(p, join) == list(orc.minimal_face_vertices(h, u, v))
            assert combinatorial_test(p, u, v) == orc.adjacent(h, u, v)


# -- complementary pairs ------------------------------------------------------


def test_complementary_pairs_are_their_definition_on_the_fixtures():
    # as lists, so the order counts: every pair u < v whose facet masks meet nowhere
    for p in [POINT, interval_with_dead_coordinate(), interval_with_duplicate_coordinate(),
              *face_fixtures()]:
        facets = detect_facets(p)
        masks = facets.masks
        want = [(u, v) for u, v in combinations(range(p.vertex_count), 2)
                if not masks[u] & masks[v]]
        assert all_complementary_pairs(p, facets) == want


def test_meet_of_no_coordinates_is_its_start():
    faces = cube(3).coordinate_faces
    for verts in (0, 1, 0b1011_0110, 0xFF):
        assert _meet(faces, verts, 0) == verts
