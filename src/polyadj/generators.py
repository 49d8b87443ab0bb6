"""Fixture polytopes and the slack embedding that puts them in standard form.

An :class:`HPolytope` is a bounded polytope given by facet inequalities
``c . x <= gamma`` together with its vertex list.  ``slack_embed`` rewrites
it as ``{y : Ay = b, y >= 0}`` with one coordinate per inequality: the j-th
coordinate of the image of x is the slack ``gamma_j - c_j . x``, computed an
inequality at a time for every vertex.  Faces then correspond to coordinate
zero sets, which is the representation the rest of the package works on.

Generator coordinates are chosen rational and documented; vertices of every
generated polytope are sorted lexicographically so outputs are stable.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .core import (Polytope, ValidationError, _bareiss, _Frozen, _integral_rows, _shaped, _shown,
                   detect_facets, rank)

__all__ = ["HPolytope", "bipyramid3", "cube", "prism3", "simplex", "slack_embed",
           "truncated_cube"]


class HPolytope(_Frozen):
    """Facet inequalities ``normals[j] . x <= offsets[j]`` plus vertex list, held
    as ``Fraction`` tuples and shape-checked as ``Polytope``'s are (rows
    "inequality", right-hand side "offsets").  Immutable, and checked on every
    construction, a copy or an unpickling included."""

    __slots__ = __match_args__ = ("normals", "offsets", "vertices")
    normals: tuple[tuple[Fraction, ...], ...]
    offsets: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]

    def __init__(self, normals: Iterable[Iterable[Fraction | int | str]],
                 offsets: Iterable[Fraction | int | str],
                 vertices: Iterable[Iterable[Fraction | int | str]]) -> None:
        vs, rows, rhs = _shaped(vertices, normals, offsets, "inequality", "offsets")
        object.__setattr__(self, "normals", rows)
        object.__setattr__(self, "offsets", rhs)
        object.__setattr__(self, "vertices", vs)

    def __repr__(self) -> str:
        return (f"HPolytope(normals={self.normals!r}, offsets={self.offsets!r}, "
                f"vertices={self.vertices!r})")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


def _nullspace(rows: list[list[Fraction]]) -> list[tuple[int, ...]]:
    """Basis of {x : M x = 0} in primitive ints, canonical: the vector for free
    column f is positive at f and zero at the other free columns.  Scaled to ints,
    M's rows (same nullspace) reduce fraction-free to pivot entries all D, so it
    is D at f and -row_i[f] at pivot i, over its gcd carrying the sign of D."""
    width = len(rows[0])
    reduced, pivots = _bareiss([list(ints) for _, ints in _integral_rows(rows)])
    D = reduced[0][pivots[0]] if pivots else 1
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        entries = {**{c: -row[f] for c, row in zip(pivots, reduced)}, f: D}
        g = gcd(*entries.values()) if D > 0 else -gcd(*entries.values())
        basis.append(tuple(entries.get(c, 0) // g for c in range(width)))
    return basis


def slack_embed(h: HPolytope) -> Polytope:
    """Standard-form image of ``h``; coordinate j is the slack of row j.

    Validates what is cheap to check exactly: every vertex satisfies every
    inequality, vertices are distinct and affinely span dimension d, the
    normals span (a degenerate or unbounded system fails one of these).
    The normals' rank is read off the nullspace that gives ``A``.  When they
    span, the image's own ``dimension``, never above the affine rank, decides
    the vertices' span; a rank of the vertex list only words a refusal.
    Then, on the image's own facet catalogue (no rank): every row's
    coordinate face is nonempty and a facet, and every vertex lies on at
    least d facets, as in every d-polytope (necessary, not sufficient, for
    the rows to name every facet).  Last, the image's dimension must be d;
    it falls short when the vertices are not those of the rows' polytope.
    Errors name vertices by their index in ``h``.  Correctness of the vertex
    list itself is presumed, as everywhere in this package.  Valid input costs
    no ``Fraction`` arithmetic: slacks, ``b``, the duplicate check and the
    basis of ``A`` are ints, on rows and vertices scaled once, each list a
    coordinate column at a time from its numerators and denominators
    (``core._scaled``); the slacks are computed an inequality at a time, over
    the vertices' coordinate columns.
    """
    d = h.dim
    rows = _integral_rows([(*c, g) for c, g in zip(h.normals, h.offsets)])  # row, offset: one scale
    points = _integral_rows(h.vertices)
    Ds, cols = [D for D, _ in points], list(zip(*(xs for _, xs in points)))  # cols by coordinate
    # every slack on one denominator S * L, so int tuples sort as the slack vectors do; with row j
    # and its offset times S // scale, slack j of x_int / D is (g D - c . x_int) / (S D)
    S, L = lcm(*(scale for scale, _ in rows)), lcm(*Ds)
    gs, lists = [], []  # offsets times S; per inequality, the slacks of every vertex times S D
    for scale, (*c, g) in rows:
        gs.append(g * (S // scale))
        s = [gs[-1] * D for D in Ds]
        for i, ci in ((i, ci * (S // scale)) for i, ci in enumerate(c) if ci):
            s = [a - ci * x for a, x in zip(s, cols[i])]
        lists.append(s)
    if min(map(min, lists), default=0) < 0:  # name the first (vertex, inequality) at fault
        k, j = min((k, j) for j, s in enumerate(lists) for k, x in enumerate(s) if x < 0)
        raise ValidationError(
            f"vertex {k} violates inequality {j} by {_shown(Fraction(-lists[j][k], S * Ds[k]))}")
    ms = [L // D for D in Ds]  # each vertex's slacks times L // D: one tuple per vertex
    slacks = list(zip(*([a * m for a, m in zip(s, ms)] for s in lists))) or [()] * len(points)
    if len(set(points)) != len(points):  # equal vertices have equal reduced scalings
        raise ValidationError("duplicate vertices")

    A = _nullspace([[row[i] for row in h.normals] for i in range(d)])
    spans = len(h.normals) - len(A) == d  # the normals' rank: one basis vector per free column
    if spans:  # trusted: A y = A offsets = b as A N = 0, no slack is negative,
        # and distinct vertices have distinct slacks once the normals span
        b = [sum(a * g for a, g in zip(row, gs)) for row in A]  # b = A offsets on scale S
        common = gcd(S, *b)  # S // common: the least scale that makes b integral
        order = sorted(range(len(slacks)), key=slacks.__getitem__)  # image vertex -> index in h
        p = Polytope._of_ints([(1, row) for row in A], (S // common, tuple(x // common for x in b)),
                              [(S * L, slacks[k]) for k in order], trusted=True)
    if (not spans or p.dimension < d) and rank(
            [[x - y for x, y in zip(v, h.vertices[0])] for v in h.vertices[1:]]) != d:
        raise ValidationError(f"degenerate input: vertices do not span dimension {d}")
    if not spans:
        raise ValidationError("degenerate input: inequality normals do not span")
    facets = detect_facets(p)
    if facets.non_facet_coordinates:  # ascending, 1-based; an empty face is never a facet
        j = facets.non_facet_coordinates[0] - 1
        raise ValidationError(f"inequality {j} is tight on no vertex" if not p.coordinate_faces[j]
                              else f"inequality {j} is not facet-defining (tight set not maximal)")
    for k, mask in sorted(zip(order, facets.masks)):
        on = mask.bit_count()
        if on < d:
            raise ValidationError(f"vertex {k} lies on {on} < {d} facets: a facet row is missing")
    if p.dimension != d:
        raise ValidationError(f"the faces of the vertices give dimension {p.dimension}, not {d}: "
                              "they are not the vertex list of the rows")
    return p


# -- fixtures ---------------------------------------------------------------


def _hform_cube(d: int) -> HPolytope:
    """Unit d-cube: 0 <= x_i <= 1. Rows: the d lower bounds, then the d upper."""
    if d < 1:
        raise ValueError(f"cube needs d >= 1, got {d}")
    lower = [tuple(-1 if j == i else 0 for j in range(d)) for i in range(d)]
    upper = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    return HPolytope(
        tuple(lower + upper),
        tuple([0] * d + [1] * d),
        tuple(product((0, 1), repeat=d)),
    )


def cube(d: int) -> Polytope:
    """Unit d-cube in standard form: n = 2d, x_i + s_i = 1. Simple."""
    return slack_embed(_hform_cube(d))


def _hform_simplex(d: int) -> HPolytope:
    if d < 1:
        raise ValueError(f"simplex needs d >= 1, got {d}")
    lower = [tuple(-1 if j == i else 0 for j in range(d)) for i in range(d)]
    cap = [tuple(1 for _ in range(d))]
    verts = [tuple(0 for _ in range(d))]
    verts += [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    return HPolytope(tuple(lower + cap), tuple([0] * d + [1]), tuple(verts))


def simplex(d: int) -> Polytope:
    """Standard d-simplex: n = d + 1, sum of coordinates 1, vertices the unit
    vectors. Simple, and every two vertices are adjacent."""
    return slack_embed(_hform_simplex(d))


def _hform_prism3() -> HPolytope:
    normals = ((-1, 0, 0), (0, -1, 0), (1, 1, 0), (0, 0, -1), (0, 0, 1))
    offsets = (0, 0, 1, 0, 1)
    verts = [(x, y, z) for (x, y) in ((0, 0), (1, 0), (0, 1)) for z in (0, 1)]
    return HPolytope(normals, offsets, tuple(verts))


def prism3() -> Polytope:
    """Triangular prism (triangle x interval): n = 5, V = 6. Simple, with no
    complementary vertex pair: the two triangle facets together meet every
    vertex."""
    return slack_embed(_hform_prism3())


def _hform_bipyramid3() -> HPolytope:
    # equator triangle (1,0), (0,1), (-1,-1) has its centroid at the origin,
    # so the apexes (0,0,+-1) sit strictly above and below its interior;
    # rows come in upper/lower pairs per triangle edge
    normals = (
        (1, 1, 1), (1, 1, -1),
        (-2, 1, 1), (-2, 1, -1),
        (1, -2, 1), (1, -2, -1),
    )
    offsets = (1, 1, 1, 1, 1, 1)
    verts = ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1))
    return HPolytope(normals, offsets, verts)


def bipyramid3() -> Polytope:
    """Triangular bipyramid: n = 6, V = 5. Not simple (equator vertices lie
    on four facets); the two apexes form its only complementary pair."""
    return slack_embed(_hform_bipyramid3())


def _hform_truncated_cube() -> HPolytope:
    # cube [0,2]^3 with the corner at the origin cut off through the three
    # adjacent edge midpoints (1,0,0), (0,1,0), (0,0,1); the doubled cube
    # keeps every vertex integral
    lower = [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    upper = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cut = [(-1, -1, -1)]
    offsets = [0, 0, 0, 2, 2, 2, -1]
    verts = [v for v in product((0, 2), repeat=3) if v != (0, 0, 0)]
    verts += [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return HPolytope(tuple(lower + upper + cut), tuple(offsets), tuple(verts))


def truncated_cube() -> Polytope:
    """3-cube with one vertex truncated at its edge midpoints: n = 7, V = 10,
    7 facets. Simple."""
    return slack_embed(_hform_truncated_cube())


# name -> (constructor, takes a dimension argument)
_GENERATORS: dict[str, tuple[object, bool]] = {
    "cube": (cube, True),
    "simplex": (simplex, True),
    "prism3": (prism3, False),
    "bipyramid3": (bipyramid3, False),
    "truncated_cube": (truncated_cube, False),
}
