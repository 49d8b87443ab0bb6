"""Slack embedding and the built-in fixtures."""

from fractions import Fraction

import pytest

import oracles as orc
from polyadj.core import ValidationError, detect_facets, is_simple
from polyadj.generators import (
    _GENERATORS,
    HPolytope,
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
    with pytest.raises(ValidationError, match="ragged"):
        HPolytope(((-1, 0),), (0,), ((0, 0), (1,)))
    with pytest.raises(ValidationError, match="match vertex dimension"):
        HPolytope(((-1,),), (0,), ((0, 0),))
    with pytest.raises(ValidationError, match="offsets for"):
        HPolytope(((-1, 0),), (0, 1), ((0, 0),))
    with pytest.raises(ValidationError, match="float"):
        HPolytope(((-1.0, 0),), (0,), ((0, 0),))
