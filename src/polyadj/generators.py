"""Fixture polytopes and the slack embedding that puts them in standard form.

An :class:`HPolytope` is a bounded polytope given by facet inequalities
``c . x <= gamma`` together with its vertex list.  ``slack_embed`` rewrites
it as ``{y : Ay = b, y >= 0}`` with one coordinate per inequality: the j-th
coordinate of the image of x is the slack ``gamma_j - c_j . x``.  Faces then
correspond to coordinate zero sets, which is the representation the rest of
the package works on.

Generator coordinates are chosen rational and documented; vertices of every
generated polytope are sorted lexicographically so outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import (
    Polytope, ValidationError, _integral, _rref, _sparse_row, as_fraction, detect_facets, rank,
)

__all__ = ["HPolytope", "bipyramid3", "cube", "prism3", "simplex", "slack_embed",
           "truncated_cube"]


@dataclass(frozen=True)
class HPolytope:
    """Facet inequalities ``normals[j] . x <= offsets[j]`` plus vertex list."""

    normals: tuple[tuple[Fraction, ...], ...]
    offsets: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        normals = tuple(tuple(as_fraction(x) for x in row) for row in self.normals)
        offsets = tuple(as_fraction(x) for x in self.offsets)
        vertices = tuple(tuple(as_fraction(x) for x in v) for v in self.vertices)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "vertices", vertices)
        if not vertices:
            raise ValidationError("at least one vertex is required")
        d = len(vertices[0])
        if d == 0:
            raise ValidationError("vertices must have at least one coordinate")
        if any(len(v) != d for v in vertices):
            raise ValidationError("ragged vertex list")
        if any(len(row) != d for row in normals):
            raise ValidationError("inequality rows must match vertex dimension")
        if len(offsets) != len(normals):
            raise ValidationError(
                f"{len(offsets)} offsets for {len(normals)} inequality rows"
            )

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


def _nullspace(rows: list[list[Fraction]]) -> list[list[int]]:
    """Basis of {x : M x = 0} from the RREF of M, denominators cleared.

    One basis vector per free column, canonical: the vector for free column
    f has a positive entry at f and zeros at the other free columns.
    """
    width = len(rows[0])
    reduced, pivots = _rref([list(r) for r in rows])
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(_integral(vec)[1])
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
    list itself is presumed, as everywhere in this package.
    """
    d = h.dim
    # slack j = s / (scale * D), s = g_int * D - c_int . x_int for x scaled to ints by D
    rows = [_sparse_row(c, g) for c, g in zip(h.normals, h.offsets)]
    slacks = []
    for k, x in enumerate(h.vertices):
        D, xs = _integral(x)
        row = []
        for j, (scale, terms, g) in enumerate(rows):
            s = g * D - sum(ci * xs[i] for i, ci in terms)
            if s < 0:
                raise ValidationError(
                    f"vertex {k} violates inequality {j} by {Fraction(-s, scale * D)}")
            row.append(Fraction(s, scale * D))
        slacks.append(tuple(row))
    if len(set(h.vertices)) != len(h.vertices):
        raise ValidationError("duplicate vertices")

    A = _nullspace([[row[i] for row in h.normals] for i in range(d)])
    spans = len(h.normals) - len(A) == d  # the normals' rank: one basis vector per free column
    if spans:  # distinct vertices then have distinct slacks, and the image is valid
        b = [sum(a * g for a, g in zip(row, h.offsets)) for row in A]
        order = sorted(range(len(slacks)), key=slacks.__getitem__)  # image vertex -> index in h
        p = Polytope(A, b, [slacks[k] for k in order])
    if (not spans or p.dimension < d) and rank(
            [[x - y for x, y in zip(v, h.vertices[0])] for v in h.vertices[1:]]) != d:
        raise ValidationError(f"degenerate input: vertices do not span dimension {d}")
    if not spans:
        raise ValidationError("degenerate input: inequality normals do not span")
    facets = detect_facets(p)
    for j, verts in enumerate(p.coordinate_faces):
        if not verts:
            raise ValidationError(f"inequality {j} is tight on no vertex")
        if j + 1 in facets.non_facet_coordinates:
            raise ValidationError(f"inequality {j} is not facet-defining (tight set not maximal)")
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
