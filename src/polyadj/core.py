"""Exact standard-form polytope model: vertices, zero sets, faces, facets.

A polytope is handed to us as ``{x in R^n : Ax = b, x >= 0}`` together with
the complete list of its vertices.  Nonnegativity constraints double as the
face structure: the set of coordinates that vanish on a face determines the
face, so most questions reduce to bit operations on per-vertex zero sets.
Facets come from those zero sets alone, with no rank, in O(n^2 V + n V^2)
bit operations, and are kept as one facet bitmask per vertex; the dimension
is a chain of coordinate faces, also with no rank.

Inputs and results are exact rationals (:class:`fractions.Fraction`), so
zero tests, ranks and face dimensions are exact; validation runs on rows
and vertices scaled to ints by the lcm of their denominators.  A Polytope,
ZeroSet or Facet never changes once built, so threads may share it for
reads.  A ``Facets`` catalogue can (``pairgraph`` notes walk checks on it),
and so can an ``AdjacencyOracle`` and a ``JoinMap`` until it is frozen.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

__all__ = ["Facet", "Facets", "Polytope", "UnsupportedPolytopeError", "ValidationError",
           "ZeroSet", "as_fraction", "detect_facets", "face_dimension", "face_vertices",
           "is_complementary", "is_simple", "rank"]


class ValidationError(ValueError):
    """Input data violates the standard-form polytope contract."""


class UnsupportedPolytopeError(Exception):
    """The polytope is outside the supported class for the requested operation
    (typically: not simple, or dimension too small for a pair-graph walk)."""


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce to Fraction. Floats are refused: binary floats are not exact input."""
    if type(value) is Fraction:  # immutable: pass it through
        return value
    if isinstance(value, float):
        raise ValidationError(f"refusing float {value!r}; pass int, str or Fraction")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"not a rational number: {value!r}") from exc


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending: O(popcount) steps."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The bit table ``rows`` by columns: bit r of entry c is bit c of ``rows[r]``."""
    cols = [0] * width
    for r, row in enumerate(rows):
        for c in _bits(row):
            cols[c] |= 1 << r
    return tuple(cols)


@dataclass(frozen=True)
class ZeroSet:
    """Set of coordinate positions (1-based) vanishing on a point or face.

    Stored as a bit vector: bit ``i - 1`` of ``bits`` is set when coordinate
    ``i`` is in the set.  ``width`` is the ambient coordinate count; set
    operations require equal widths.
    """

    width: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"width must be nonnegative, got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(f"bits 0x{self.bits:x} out of range for width {self.width}")

    @classmethod
    def of_point(cls, coords: Sequence[Fraction]) -> "ZeroSet":
        bits = 0
        for i, x in enumerate(coords):
            if x == 0:
                bits |= 1 << i
        return cls(len(coords), bits)

    @classmethod
    def of_indices(cls, width: int, indices: Iterable[int]) -> "ZeroSet":
        bits = 0
        for i in indices:
            if not 1 <= i <= width:
                raise ValueError(f"coordinate {i} out of range 1..{width}")
            bits |= 1 << (i - 1)
        return cls(width, bits)

    def __and__(self, other: "ZeroSet") -> "ZeroSet":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return ZeroSet(self.width, self.bits & other.bits)

    def __contains__(self, index: int) -> bool:
        return 1 <= index <= self.width and bool(self.bits >> (index - 1) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def issuperset(self, other: "ZeroSet") -> bool:
        return self & other == other

    def indices(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in _bits(self.bits))

    def __repr__(self) -> str:
        inner = "{" + ",".join(map(str, self.indices())) + "}"
        return f"ZeroSet({inner}, width={self.width})"


def _integral(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(scale, ints)``: the lcm of the denominators of ``row`` and the row
    times that scale, as ints."""
    scale = lcm(*(x.denominator for x in row))
    return scale, [x.numerator * (scale // x.denominator) for x in row]


def _sparse_row(row: Sequence[Fraction], rhs: Fraction) -> tuple[int, list[tuple[int, int]], int]:
    """``row`` and ``rhs`` scaled to ints together: ``(scale, terms, rhs)``,
    with ``terms`` the nonzero ``(index, coeff)`` entries of the row."""
    scale, ints = _integral((*row, rhs))
    return scale, [(i, c) for i, c in enumerate(ints[:-1]) if c], ints[-1]


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form. Returns (rows, pivot column indices)."""
    pivots: list[int] = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: Iterable[Iterable[Fraction | int]]) -> int:
    """Exact rank over the rationals via Gaussian elimination.

    The empty matrix has rank 0. Ragged input is rejected.
    """
    rows = [[as_fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged matrix: row 0 has {width} entries, row {i} has {len(row)}")
    return len(_rref(rows)[1])


def _check_pair(count: int, u: int, v: int, same: str) -> None:
    """Refuse indices outside 0..count - 1, then equal ones, with message ``same``."""
    for k in (u, v):
        if not 0 <= k < count:
            raise ValueError(f"vertex index {k} out of range 0..{count - 1}")
    if u == v:
        raise ValueError(same)


class Polytope:
    """Bounded polytope ``{x : Ax = b, x >= 0}`` with its complete vertex list.

    Construction validates every vertex exactly (equalities hold, coordinates
    nonnegative, vertices pairwise distinct) and caches per-vertex zero sets.
    The algorithms here presume the vertex list is correct and complete;
    boundedness and extremality of the listed points are not re-derived.
    """

    def __init__(
        self,
        A: Iterable[Iterable[Fraction | int | str]],
        b: Iterable[Fraction | int | str],
        vertices: Iterable[Iterable[Fraction | int | str]],
    ) -> None:
        verts = tuple(tuple(as_fraction(x) for x in v) for v in vertices)
        if not verts:
            raise ValidationError("at least one vertex is required")
        n = len(verts[0])
        if n == 0:
            raise ValidationError("vertices must have at least one coordinate")
        for k, v in enumerate(verts):
            if len(v) != n:
                raise ValidationError(f"vertex {k}: expected {n} coordinates, got {len(v)}")
        rows = tuple(tuple(as_fraction(x) for x in row) for row in A)
        for j, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(f"equality row {j}: expected {n} entries, got {len(row)}")
        rhs = tuple(as_fraction(x) for x in b)
        if len(rhs) != len(rows):
            raise ValidationError(f"b has {len(rhs)} entries for {len(rows)} equality rows")

        # row . v == b_j  iff  sum(c * x) == b_int * D  for v scaled to ints by D
        equalities = [_sparse_row(row, rj)[1:] for row, rj in zip(rows, rhs)]
        seen: dict[tuple[int, ...], int] = {}
        for k, v in enumerate(verts):
            scale, xs = _integral(v)
            for i, x in enumerate(xs):
                if x < 0:
                    raise ValidationError(f"vertex {k}: coordinate {i + 1} is negative ({v[i]})")
            for j, (terms, bj) in enumerate(equalities):
                if sum(c * xs[i] for i, c in terms) != bj * scale:
                    lhs = sum(c * x for c, x in zip(rows[j], v))
                    raise ValidationError(
                        f"vertex {k}: equality row {j} gives {lhs}, expected {rhs[j]}"
                    )
            key = (scale, *xs)  # equal points have equal reduced scalings
            dup = seen.get(key)
            if dup is not None:
                raise ValidationError(f"vertices {dup} and {k} are identical")
            seen[key] = k

        self._A = rows
        self._b = rhs
        self._vertices = verts
        self._zero_sets = tuple(ZeroSet.of_point(v) for v in verts)

    @property
    def A(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._A

    @property
    def b(self) -> tuple[Fraction, ...]:
        return self._b

    @property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices[0])

    @property
    def m(self) -> int:
        return len(self._A)

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def zero_sets(self) -> tuple[ZeroSet, ...]:
        return self._zero_sets

    def zero_set(self, vertex_index: int) -> ZeroSet:
        if not 0 <= vertex_index < len(self._vertices):
            raise ValueError(f"vertex index {vertex_index} out of range 0..{self.vertex_count - 1}")
        return self._zero_sets[vertex_index]

    @cached_property
    def coordinate_faces(self) -> tuple[int, ...]:
        """Vertex set of each coordinate face, as a bitmask: bit w of entry i
        is set when coordinate i + 1 vanishes on vertex w."""
        return _transpose([z.bits for z in self._zero_sets], self.n)

    @cached_property
    def dimension(self) -> int:
        """Affine dimension, with no rank: the steps from P down to a vertex,
        each to a largest proper, nonempty meet of the face with a coordinate
        face.  A largest one is a facet of the face, so each step drops the
        dimension by one.  O(d n) operations on V-bit ints.  Exact when the
        vertex list is correct and complete; on an incomplete list it can
        fall below the affine rank of the points, never above it."""
        face = (1 << self.vertex_count) - 1
        d = 0
        while True:
            smaller = [s for s in (face & c for c in self.coordinate_faces) if s and s != face]
            if not smaller:
                return d
            face = max(smaller, key=int.bit_count)
            d += 1

    def __repr__(self) -> str:
        return f"Polytope(n={self.n}, m={self.m}, vertices={self.vertex_count})"


def face_vertices(p: Polytope, s: ZeroSet) -> list[int]:
    """Indices of vertices on the face where every coordinate in ``s`` vanishes.

    Ascending order. Empty when no vertex satisfies ``s``.  An AND of the
    coordinate faces of the |s| coordinates in ``s``, then O(k) for k vertices.
    """
    if s.width != p.n:
        raise ValueError(f"zero set width {s.width} does not match n={p.n}")
    faces = p.coordinate_faces
    verts = (1 << p.vertex_count) - 1
    for i in _bits(s.bits):
        verts &= faces[i]
    return list(_bits(verts))


def face_dimension(p: Polytope, s: ZeroSet) -> int | None:
    """Dimension of the face selected by ``s``; None for the empty face."""
    verts = [p.vertices[w] for w in face_vertices(p, s)]
    if not verts:
        return None
    return rank([[x - y for x, y in zip(v, verts[0])] for v in verts[1:]])


@dataclass(frozen=True)
class Facet:
    """One facet: the coordinates that cut it out and the vertices on it.

    Several coordinates may define the same facet; they are merged here, so
    ``coordinates`` can have more than one element.
    """

    id: int
    coordinates: ZeroSet
    vertex_indices: frozenset[int]


class Facets:
    """Facet catalogue of a polytope, with per-vertex facet memberships.

    ``facets[f]`` builds :class:`Facet` f, ids in order of smallest defining
    coordinate; it reads like a tuple of facets but takes only an int index.
    Membership is held only in ``masks``: bit f of ``masks[w]`` is set when
    vertex w lies on facet f; ``Facet`` objects and id sets are built from it.
    Coordinates whose zero locus is no facet are ``non_facet_coordinates``.
    """

    def __init__(
        self,
        coordinates: Sequence[ZeroSet],
        non_facet_coordinates: Sequence[int],
        masks: Sequence[int],
    ) -> None:
        self._coordinates = tuple(coordinates)
        self.non_facet_coordinates = tuple(non_facet_coordinates)
        self.masks = tuple(masks)

    def __len__(self) -> int:
        return len(self._coordinates)

    def __getitem__(self, i: int) -> Facet:
        f = range(len(self))[operator.index(i)]
        vertices = frozenset(w for w, mask in enumerate(self.masks) if mask >> f & 1)
        return Facet(f, self._coordinates[f], vertices)

    @staticmethod
    def ids(mask: int) -> frozenset[int]:
        """Facet ids of the bits set in ``mask``."""
        return frozenset(f for f in range(mask.bit_length()) if mask >> f & 1)

    def of_vertex(self, vertex_index: int) -> frozenset[int]:
        """Ids of the facets containing the given vertex."""
        if not 0 <= vertex_index < len(self.masks):
            raise ValueError(f"vertex index {vertex_index} out of range 0..{len(self.masks) - 1}")
        return self.ids(self.masks[vertex_index])


def detect_facets(p: Polytope) -> Facets:
    """Group coordinates into facets by their vertex sets.

    Every facet of a standard-form polytope is some ``{x_i = 0}``, so the
    facets are the maximal proper, nonempty coordinate faces; coordinates
    with identical vertex sets name the same facet and are merged.  Vertex
    incidences only, no rank: O(n^2 V + n V^2) bit operations.
    """
    on_coord = p.coordinate_faces
    proper = set(on_coord) - {0, (1 << p.vertex_count) - 1}
    facet_sets = {s for s in proper if not any(s != t and s & t == s for t in proper)}
    groups: dict[int, list[int]] = {}
    for coord, verts in enumerate(on_coord, start=1):
        if verts in facet_sets:
            groups.setdefault(verts, []).append(coord)
    non_facets = [c for c, verts in enumerate(on_coord, start=1) if verts not in facet_sets]
    masks = _transpose(list(groups), p.vertex_count)
    coordinates = [ZeroSet.of_indices(p.n, coords) for coords in groups.values()]
    return Facets(coordinates, non_facets, masks)


def is_complementary(p: Polytope, u: int, v: int, facets: Facets | None = None) -> bool:
    """True when vertices u and v lie on no common facet: one AND of their
    facet masks.  Computes the facet catalogue when one is not supplied
    (pass ``facets`` when calling repeatedly).
    """
    _check_pair(p.vertex_count, u, v, "complementarity needs two distinct vertices")
    if facets is None:
        facets = detect_facets(p)
    return not facets.masks[u] & facets.masks[v]


def is_simple(p: Polytope, facets: Facets | None = None) -> bool:
    """True when every vertex lies on exactly dim P facets."""
    d = p.dimension
    if facets is None:
        facets = detect_facets(p)
    return all(mask.bit_count() == d for mask in facets.masks)
