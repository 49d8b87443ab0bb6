"""Exact standard-form polytope model: vertices, zero sets, faces, facets.

A polytope is handed to us as ``{x in R^n : Ax = b, x >= 0}`` together with
the complete list of its vertices.  Nonnegativity constraints double as the
face structure: the set of coordinates that vanish on a face determines the
face, so most questions reduce to bit operations on per-vertex zero sets.
Those are kept as plain ``int`` masks, and every query works on them;
:class:`ZeroSet` is a checked view of one, built only where a caller asks.
Facets come from those zero sets alone, with no rank, in O(n^2 V) bit
operations, kept as their vertex bitmasks and transposed once into one
facet bitmask per vertex; the dimension of P or of any face is a chain of
coordinate faces, also with no rank.

Inputs and results are exact rationals (:class:`fractions.Fraction`), so
zero tests, ranks and face dimensions are exact; a Polytope holds and
validates rows and vertices scaled to ints by the lcm of their denominators,
and builds its ``Fraction`` tuples on first read.  A Polytope, ZeroSet or
Facet never changes in value once built (a ZeroSet refuses assignment to its
fields; a Facet is a tuple of immutable values), so threads may share it for
reads.  Nor does a ``Facets`` catalogue, nor a ``JoinMap`` that
``build_join_map`` returns (it takes no increments); an ``AdjacencyOracle`` can.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm, log10
from typing import NamedTuple

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


def _shown(x: Fraction) -> str:
    """``str(x)``, each of its ints past the digit limit of ``str(int)``
    (``sys.get_int_max_str_digits()``) given as its digit count instead."""
    def part(i: int) -> str:
        try:
            return str(i)
        except ValueError:
            k = int(abs(i).bit_length() * log10(2))  # the digit count is k or k + 1
            return f"{'-' * (i < 0)}<{k + (abs(i) >= 10 ** k)} digits>"
    return part(x.numerator) + (f"/{part(x.denominator)}" if x.denominator != 1 else "")


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending: O(popcount) steps."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The bit table ``rows`` by columns: bit r of entry c is bit c of ``rows[r]``; every
    row must be ``< 2**width``.  Spelt last row first as one string of ``width`` binary
    digits a row, column c is its every ``width``-th digit from ``width - 1 - c``."""
    table = "".join(map(format, reversed(rows), [f"0{width}b"] * len(rows)))
    return tuple(int(table[c::width], 2) for c in reversed(range(width))) if rows else (0,) * width


class _Frozen:
    """Base of an immutable record whose fields are the slots its class names in
    ``__match_args__``, in the order its constructor takes them: compared and
    hashed by those fields, refusing assignment, and copied or unpickled through
    the constructor, so its checks rerun."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ZeroSet(_Frozen):
    """Set of coordinate positions (1-based) vanishing on a point or face.

    Stored as a bit vector: bit ``i - 1`` of ``bits`` is set when coordinate
    ``i`` is in the set.  ``width`` is the ambient coordinate count; set
    operations require equal widths.  Both fields are plain ints.  Immutable,
    and validated by ``__post_init__`` on every construction, a copy or an
    unpickling included.
    """

    __slots__ = __match_args__ = ("width", "bits")
    width: int
    bits: int

    def __init__(self, width: int, bits: int = 0) -> None:
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "bits", bits)
        self.__post_init__()

    def __post_init__(self) -> None:
        for name, value in (("width", self.width), ("bits", self.bits)):
            if type(value) is not int:  # refuses bool and other int subclasses too
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
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


def _scaled(nums: Sequence[int], dens: Sequence[int], rows: int) -> list[tuple[int, tuple[int, ...]]]:
    """``rows`` rows of the rationals ``nums[k] / dens[k]`` (row-major, each ``dens[k] > 0``)
    as ``(scale, ints)`` in lowest terms: the least scale that makes the row integral, and
    the row times it.  A coordinate column at a time: every row's lcm of its denominators,
    each int column on those lcms, then every row's gcd with its lcm, 1 unless some entry
    of the row is not in lowest terms."""
    width = len(nums) // rows if rows else 0
    if not width:
        return [(1, ())] * rows
    if dens.count(1) == len(dens):  # all integers: scale 1, rows cut straight from nums
        return list(zip(repeat(1), zip(*[iter(nums)] * width)))
    den_cols = [dens[i::width] for i in range(width)]
    scales = list(map(lcm, *den_cols))
    cols = [list(map(operator.mul, nums[i::width], map(operator.floordiv, scales, den)))
            for i, den in enumerate(den_cols)]
    gs = list(map(gcd, scales, *cols))
    if gs.count(1) == rows:
        return list(zip(scales, zip(*cols)))
    return [(s // g, tuple(x // g for x in xs)) for s, g, xs in zip(scales, gs, zip(*cols))]


def _integral_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[tuple[int, tuple[int, ...]]]:
    """:func:`_scaled` on rows of ``Fraction`` or ``int`` entries, each read once."""
    ratios = [x.as_integer_ratio() for row in rows for x in row]
    return _scaled([p for p, _ in ratios], [q for _, q in ratios], len(rows))


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


def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place ``_rref`` on int rows, fraction-free (Bareiss, Math. Comp. 1968): every
    pivot entry ends as the last pivot D, so the pivot rows over D are the RREF."""
    pivots, prev = [], 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if (piv := next((i for i in range(r, len(rows)) if rows[i][col]), None)) is not None:
            rows[r], rows[piv] = rows[piv], rows[r]
            top, p = rows[r], rows[r][col]  # each division exact by Sylvester's identity
            rows[:] = [row if row is top else [(p * a - row[col] * t) // prev
                                               for a, t in zip(row, top)] for row in rows]
            prev = p
            pivots.append(col)
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


def _check_index(count: int, *indices: int) -> None:
    """Refuse the first of ``indices`` outside 0..count - 1."""
    for k in indices:
        if not 0 <= k < count:
            raise ValueError(f"vertex index {k} out of range 0..{count - 1}")


def _check_pair(count: int, u: int, v: int, same: str) -> None:
    """Refuse indices outside 0..count - 1, then equal ones, with message ``same``."""
    if not (0 <= u < count and 0 <= v < count and u != v):
        _check_index(count, u, v)
        raise ValueError(same)


def _shaped(vertices, rows, rhs, kind: str, rhs_name: str) -> tuple[tuple, tuple, tuple]:
    """The three as ``Fraction`` tuples; refuses no vertex, no coordinate, then a vertex, a
    row or ``rhs`` of the wrong length, calling the rows ``kind`` and ``rhs`` ``rhs_name``."""
    verts = tuple(tuple(as_fraction(x) for x in v) for v in vertices)
    if not verts:
        raise ValidationError("at least one vertex is required")
    n = len(verts[0])
    if n == 0:
        raise ValidationError("vertices must have at least one coordinate")
    for k, v in enumerate(verts):
        if len(v) != n:
            raise ValidationError(f"vertex {k}: expected {n} coordinates, got {len(v)}")
    rows = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    for j, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"{kind} row {j}: expected {n} entries, got {len(row)}")
    rhs = tuple(as_fraction(x) for x in rhs)
    if len(rhs) != len(rows):
        raise ValidationError(f"{rhs_name} has {len(rhs)} entries for {len(rows)} {kind} rows")
    return verts, rows, rhs


class Polytope:
    """Bounded polytope ``{x : Ax = b, x >= 0}`` with its complete vertex list.

    Construction checks shapes as ``HPolytope`` does (rows "equality", right-hand
    side "b"), then validates every vertex exactly (equalities hold, coordinates
    nonnegative, vertices pairwise distinct) and computes per-vertex zero sets.
    The checks run on all vertices at once, a coordinate column at a time;
    only when one fails does a loop over the vertices word the first refusal.
    The algorithms here presume the vertex list is correct and complete;
    boundedness and extremality of the listed points are not re-derived.
    Only ints are stored, each row of ``A``, ``b`` and each vertex as ``(scale,
    ints)``; ``A``, ``b``, ``vertices`` and ``zero_sets`` are built on first
    read and cached.  Two threads may both build one, of equal value, so
    threads may still share a Polytope for reads.
    """

    def __init__(
        self,
        A: Iterable[Iterable[Fraction | int | str]],
        b: Iterable[Fraction | int | str],
        vertices: Iterable[Iterable[Fraction | int | str]],
    ) -> None:
        verts, rows, rhs = _shaped(vertices, A, b, "equality", "b")
        self._adopt(_integral_rows(rows), _integral_rows((rhs,))[0], _integral_rows(verts))

    @classmethod
    def _of_ints(cls, rows, rhs, points, trusted: bool = False) -> Polytope:
        """The polytope on rows of ``A``, ``b`` and vertices already scaled to
        ints; validated as by the constructor (each vertex on the least scale
        that makes it integral) unless ``trusted``: proven valid by the caller."""
        p = cls.__new__(cls)
        p._adopt(rows, rhs, points, trusted)
        return p

    def _adopt(self, rows, rhs, points, trusted: bool = False) -> None:
        self._rows, self._rhs, self._points = tuple(rows), rhs, tuple(points)
        if not trusted:
            # row . v == b_j  iff  sum(c * R * x) == b_int * S * D: row, b, v scaled by S, R, D
            R, bs = rhs
            equalities = [([(i, c * R) for i, c in enumerate(ints) if c], bj * S, S * R)
                          for (S, ints), bj in zip(self._rows, bs)]
            scales = [D for D, _ in self._points]
            cols = list(zip(*(xs for _, xs in self._points)))  # one tuple per coordinate
            # equal points have equal reduced scalings
            valid = min(map(min, cols)) >= 0 and len(set(self._points)) == len(scales)
            for terms, bj, _ in equalities:
                lhs = [0] * len(scales)  # row . v of every vertex v, a column at a time
                for i, c in terms:
                    lhs = [a + c * x for a, x in zip(lhs, cols[i])]
                valid = valid and lhs == [bj * D for D in scales]
            if not valid:
                self._refuse(equalities)
        self._zero_bits = tuple(sum(1 << i for i, x in enumerate(xs) if not x)  # ZeroSet.bits
                                for _, xs in self._points)

    def _refuse(self, equalities: list[tuple[list[tuple[int, int]], int, int]]) -> None:
        """Raises the first refusal, a vertex at a time in order: a negative
        coordinate, a failed equality, then a vertex equal to an earlier one.
        Values are worded from the ints, each equality's on its scale ``S * R``."""
        seen: dict[tuple[int, tuple[int, ...]], int] = {}
        for k, point in enumerate(self._points):
            scale, xs = point
            if min(xs) < 0:
                i = next(i for i, x in enumerate(xs) if x < 0)
                raise ValidationError(f"vertex {k}: coordinate {i + 1} is negative "
                                      f"({_shown(Fraction(xs[i], scale))})")
            for j, (terms, bj, SR) in enumerate(equalities):
                if (lhs := sum(c * xs[i] for i, c in terms)) != bj * scale:
                    raise ValidationError(f"vertex {k}: equality row {j} gives "
                                          f"{_shown(Fraction(lhs, SR * scale))}, "
                                          f"expected {_shown(Fraction(bj, SR))}")
            dup = seen.setdefault(point, k)
            if dup != k:
                raise ValidationError(f"vertices {dup} and {k} are identical")

    @cached_property
    def A(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(c, s) for c in ints) for s, ints in self._rows)

    @cached_property
    def b(self) -> tuple[Fraction, ...]:
        scale, ints = self._rhs
        return tuple(Fraction(x, scale) for x in ints)

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, s) for x in xs) for s, xs in self._points)

    @property
    def n(self) -> int:
        return len(self._points[0][1])

    @property
    def m(self) -> int:
        return len(self._rows)

    @property
    def vertex_count(self) -> int:
        return len(self._points)

    @cached_property
    def zero_sets(self) -> tuple[ZeroSet, ...]:
        return tuple(ZeroSet(self.n, bits) for bits in self._zero_bits)

    def zero_set(self, vertex_index: int) -> ZeroSet:
        _check_index(self.vertex_count, vertex_index)
        return self.zero_sets[vertex_index]

    @cached_property
    def coordinate_faces(self) -> tuple[int, ...]:
        """Vertex set of each coordinate face, as a bitmask: bit w of entry i
        is set when coordinate i + 1 vanishes on vertex w."""
        return _transpose(self._zero_bits, self.n)

    @cached_property
    def dimension(self) -> int:
        """Affine dimension: :func:`face_dimension` of P itself, with no rank."""
        return face_dimension(self, ZeroSet(self.n))

    def __repr__(self) -> str:
        return f"Polytope(n={self.n}, m={self.m}, vertices={self.vertex_count})"


def _meet(faces: Sequence[int], verts: int, bits: int) -> int:
    """``verts`` ANDed with ``faces[i]`` for every bit i set in ``bits``: the face kernel."""
    while bits:
        low = bits & -bits
        verts &= faces[low.bit_length() - 1]
        bits ^= low
    return verts


def _face(p: Polytope, bits: int) -> int:
    """Vertex bitmask of the face where the coordinates set in ``bits`` vanish; no width check."""
    return _meet(p.coordinate_faces, (1 << len(p._zero_bits)) - 1, bits)


def _zero_face(p: Polytope, s: ZeroSet) -> int:
    """:func:`_face` of ``s``, refused unless ``s`` has P's width."""
    if s.width != p.n:
        raise ValueError(f"zero set width {s.width} does not match n={p.n}")
    return _face(p, s.bits)


def face_vertices(p: Polytope, s: ZeroSet) -> list[int]:
    """Indices of vertices on the face where every coordinate in ``s`` vanishes.

    Ascending order. Empty when no vertex satisfies ``s``.  An AND of the
    coordinate faces of the |s| coordinates in ``s``, then O(k) for k vertices.
    """
    return list(_bits(_zero_face(p, s)))


def face_dimension(p: Polytope, s: ZeroSet) -> int | None:
    """Dimension of the face selected by ``s``, None for the empty face, with
    no rank: the steps from the face down to a vertex, each to a largest
    proper, nonempty meet of the face with a coordinate face.  A largest one
    is a facet of the face, so each step drops the dimension by one.  O(d n)
    operations on V-bit ints.  Exact when the vertex list is correct and
    complete; on an incomplete list it can fall below the affine rank of the
    face's points, never above it."""
    face = _zero_face(p, s)
    if not face:
        return None
    d = 0
    while True:
        smaller = [t for t in (face & c for c in p.coordinate_faces) if t and t != face]
        if not smaller:
            return d
        face = max(smaller, key=int.bit_count)
        d += 1


class Facet(NamedTuple):
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
    Each facet is held as its vertex and coordinate bitmasks, so ``facets[f]``
    is O(k) for its k vertices; ``masks`` is their one transpose: bit f of
    ``masks[w]`` is set when vertex w lies on facet f.  ``_count`` is the facet
    count all vertices share, None when they differ, for :func:`is_simple`.
    Coordinates whose zero locus is no facet are ``non_facet_coordinates``.
    The catalogue keeps its polytope's zero sets, so that a query refuses it
    with another polytope whose zero sets differ.
    """

    def __init__(self, p: Polytope, groups: dict[int, int], non_facets: Sequence[int]) -> None:
        self._width, self._zero_bits = p.n, p._zero_bits
        self._vertex_sets = tuple(groups)
        self._coordinates = tuple(groups.values())
        self.non_facet_coordinates = tuple(non_facets)
        self.masks = _transpose(self._vertex_sets, p.vertex_count)
        counts = set(map(int.bit_count, self.masks))
        self._count = counts.pop() if len(counts) == 1 else None

    def __len__(self) -> int:
        return len(self._coordinates)

    def __getitem__(self, i: int) -> Facet:
        f = range(len(self))[operator.index(i)]
        vertices = frozenset(_bits(self._vertex_sets[f]))
        return Facet(f, ZeroSet(self._width, self._coordinates[f]), vertices)

    @staticmethod
    def ids(mask: int) -> frozenset[int]:
        """Facet ids of the bits set in ``mask``: O(popcount)."""
        return frozenset(_bits(mask))

    def of_vertex(self, vertex_index: int) -> frozenset[int]:
        """Ids of the facets containing the given vertex."""
        _check_index(len(self.masks), vertex_index)
        return self.ids(self.masks[vertex_index])


def detect_facets(p: Polytope) -> Facets:
    """Group coordinates into facets by their vertex sets.

    Every facet of a standard-form polytope is some ``{x_i = 0}``, so the
    facets are the maximal proper, nonempty coordinate faces; coordinates
    with identical vertex sets name the same facet and are merged.  Vertex
    incidences only, no rank: at most n^2 ANDs of V-bit masks and two
    O(n V) transposes, so O(n^2 V) bit operations.
    """
    on_coord = p.coordinate_faces
    proper = set(on_coord) - {0, (1 << p.vertex_count) - 1}
    facet_sets = {s for s in proper if not any(s != t and s & t == s for t in proper)}
    groups: dict[int, int] = {}
    for i, verts in enumerate(on_coord):
        if verts in facet_sets:
            groups[verts] = groups.get(verts, 0) | 1 << i
    non_facets = [c for c, verts in enumerate(on_coord, start=1) if verts not in facet_sets]
    return Facets(p, groups, non_facets)


def _own(p: Polytope, facets: Facets) -> None:
    """Refuse ``facets`` unless built for ``p`` or a polytope with its zero
    sets: O(1) for the catalogue of ``p`` itself, O(V) otherwise."""
    if facets._zero_bits is not p._zero_bits and facets._zero_bits != p._zero_bits:
        raise ValueError("facet catalogue was built for a different polytope")


def is_complementary(p: Polytope, u: int, v: int, facets: Facets | None = None) -> bool:
    """True when vertices u and v lie on no common facet: one AND of their
    facet masks.  Computes the facet catalogue when one is not supplied
    (pass ``facets`` when calling repeatedly); refuses one built for another
    polytope.
    """
    _check_pair(p.vertex_count, u, v, "complementarity needs two distinct vertices")
    if facets is None:
        facets = detect_facets(p)
    _own(p, facets)
    return not facets.masks[u] & facets.masks[v]


def is_simple(p: Polytope, facets: Facets | None = None) -> bool:
    """True when every vertex lies on exactly dim P facets.  The catalogue
    counts its vertices' facets when built, so a call on it is O(1); one
    built for another polytope is refused."""
    if facets is None:
        facets = detect_facets(p)
    _own(p, facets)
    return facets._count == p.dimension
