"""Independent brute-force oracles used to pin expected values.

Everything here recomputes from the inequality form of a fixture: tight
sets come from evaluating inequalities at original coordinates, minimal
faces from intersecting facet vertex sets, and affine dimensions from
sympy ranks. None of it touches the package's zero-set, trie or walk code,
so agreement is a two-route check.

Vertex indices follow the standard-form polytope: fixtures are sorted by
slack image exactly the way the embedding sorts them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import sympy

from polyadj.generators import (
    HPolytope,
    _hform_bipyramid3,
    _hform_cube,
    _hform_prism3,
    _hform_simplex,
    _hform_truncated_cube,
)
from polyadj.core import Polytope


def slack_image(h: HPolytope, x) -> tuple[Fraction, ...]:
    return tuple(
        g - sum(c * xi for c, xi in zip(row, x))
        for row, g in zip(h.normals, h.offsets)
    )


def sorted_by_slack(h: HPolytope) -> HPolytope:
    """Reorder vertices to match the standard-form vertex order."""
    order = sorted(h.vertices, key=lambda x: slack_image(h, x))
    return HPolytope(h.normals, h.offsets, tuple(order))


def fraction_text(p: Polytope) -> str:
    """The file form of ``p`` printed from its ``Fraction`` tuples, entry by
    entry as ``str(Fraction)`` spells it."""
    lines = [f"{p.n} {p.m} {p.vertex_count}", "A", *(" ".join(map(str, r)) for r in p.A), "b"]
    if p.m:
        lines.append(" ".join(map(str, p.b)))
    lines += ["vertices", *(" ".join(map(str, v)) for v in p.vertices)]
    return "\n".join(lines) + "\n"


def facet_vertex_sets(h: HPolytope) -> list[frozenset[int]]:
    """Distinct tight vertex sets, one per geometric facet."""
    sets = []
    for row, g in zip(h.normals, h.offsets):
        tight = frozenset(
            k
            for k, x in enumerate(h.vertices)
            if sum(c * xi for c, xi in zip(row, x)) == g
        )
        if tight not in sets:
            sets.append(tight)
    return sets


def minimal_face_vertices(h: HPolytope, u: int, v: int, sets=None) -> tuple[int, ...]:
    """Vertices of the smallest face containing u and v: intersect all facets
    containing both; the whole polytope when no facet does.  ``sets`` is
    ``facet_vertex_sets(h)``, computed here when not passed in."""
    if sets is None:
        sets = facet_vertex_sets(h)
    acc = set(range(len(h.vertices)))
    hit = False
    for fs in sets:
        if u in fs and v in fs:
            acc &= fs
            hit = True
    if not hit:
        return tuple(range(len(h.vertices)))
    return tuple(sorted(acc))


def adjacent(h: HPolytope, u: int, v: int, sets=None) -> bool:
    return minimal_face_vertices(h, u, v, sets) == tuple(sorted((u, v)))


def complementary(h: HPolytope, u: int, v: int, sets=None) -> bool:
    if sets is None:
        sets = facet_vertex_sets(h)
    return not any(u in fs and v in fs for fs in sets)


def edges(h: HPolytope) -> list[tuple[int, int]]:
    sets = facet_vertex_sets(h)
    return [
        (u, v)
        for u, v in combinations(range(len(h.vertices)), 2)
        if adjacent(h, u, v, sets)
    ]


def complementary_pairs(h: HPolytope) -> list[tuple[int, int]]:
    sets = facet_vertex_sets(h)
    return [
        (u, v)
        for u, v in combinations(range(len(h.vertices)), 2)
        if complementary(h, u, v, sets)
    ]


def affine_dim(points) -> int:
    """Affine dimension via sympy, independent of the package's elimination."""
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [
        [sympy.Rational(Fraction(x) - Fraction(y)) for x, y in zip(pt, base)]
        for pt in points[1:]
    ]
    return sympy.Matrix(rows).rank()


def join_zero_coordinates(h: HPolytope, u: int, v: int) -> tuple[int, ...]:
    """Slack coordinates (1-based) vanishing on every vertex of the smallest
    face containing u and v, computed through the geometric minimal face."""
    members = minimal_face_vertices(h, u, v)
    images = [slack_image(h, h.vertices[k]) for k in members]
    width = len(h.normals)
    return tuple(
        j + 1 for j in range(width) if all(img[j] == 0 for img in images)
    )


def product_polytope(p: Polytope, q: Polytope) -> Polytope:
    """Standard-form product: block equalities, concatenated vertices."""
    A = [list(row) + [0] * q.n for row in p.A]
    A += [[0] * p.n + list(row) for row in q.A]
    b = list(p.b) + list(q.b)
    verts = [u + v for u in p.vertices for v in q.vertices]
    return Polytope(A, b, verts)


def bipyramid_over_simplex4() -> HPolytope:
    """Bipyramid over a centered 4-simplex: 7 vertices, 10 facets, dim 5.

    The base (vertices e_1..e_4 and -(1,1,1,1), centroid at the origin) is
    neighbourly: every two base vertices are adjacent, so the apex pair is
    the only complementary pair. Far from simple: equator vertices lie on
    8 facets.
    """
    base_rows = [(1, 1, 1, 1)]
    for j in range(4):
        base_rows.append(tuple(1 - 5 * (i == j) for i in range(4)))
    normals = []
    for row in base_rows:
        normals.append(row + (1,))
        normals.append(row + (-1,))
    verts = [tuple(int(i == j) for i in range(4)) + (0,) for j in range(4)]
    verts.append((-1, -1, -1, -1, 0))
    verts += [(0, 0, 0, 0, 1), (0, 0, 0, 0, -1)]
    return HPolytope(tuple(normals), tuple([1] * 10), tuple(verts))


def fixture(name: str, d: int | None = None) -> HPolytope:
    """H-form fixtures with vertices pre-sorted to standard-form order."""
    builders = {
        "cube": lambda: _hform_cube(d),
        "simplex": lambda: _hform_simplex(d),
        "prism3": _hform_prism3,
        "bipyramid3": _hform_bipyramid3,
        "truncated_cube": _hform_truncated_cube,
        "bipyramid_simplex4": bipyramid_over_simplex4,
    }
    return sorted_by_slack(builders[name]())
