"""Vertex adjacency tests: one fast join-map probe plus two exact fallbacks.

``precompute`` builds everything the fast test needs in one pass over the
vertex pairs: the join map, whose count-1 pairs also decide simplicity.  On
a simple polytope the fast verdict is exact; otherwise a count of 1 is only
necessary for adjacency, so the fast test answers INDETERMINATE and callers
fall back to the combinatorial test.
"""

from __future__ import annotations

from enum import Enum

from . import core
from .core import Polytope, _bits, _check_pair, _face, _meet
from .joinmap import JoinMap, build_join_map

__all__ = ["AdjacencyOracle", "Verdict", "algebraic_test", "all_pairs_adjacency",
           "combinatorial_test", "fast_test", "fast_verdict", "neighbor_lists", "precompute"]


class Verdict(Enum):
    ADJACENT = "adjacent"
    NON_ADJACENT = "non-adjacent"
    INDETERMINATE = "indeterminate"


# bound once: on 3.11 a member read through the class goes through EnumType.__getattr__
_ADJACENT, _NON_ADJACENT, _INDETERMINATE = Verdict


class AdjacencyOracle:
    """Scan products of :func:`precompute` (join map, simplicity) and their
    polytope in plain ``__slots__`` fields: reassignable, not frozen.
    ``dim`` and ``zero_sets`` are read from the polytope."""

    __slots__ = ("join_map", "simple", "polytope")

    def __init__(self, join_map: JoinMap, simple: bool, polytope: Polytope) -> None:
        self.join_map = join_map
        self.simple = simple
        self.polytope = polytope

    @property
    def dim(self) -> int:
        return self.polytope.dimension

    @property
    def zero_sets(self):
        return self.polytope.zero_sets

    def __repr__(self) -> str:
        return f"AdjacencyOracle(dim={self.dim}, simple={self.simple})"


def precompute(p: Polytope) -> AdjacencyOracle:
    """Three stages: build the join map, compute dim P, test simplicity.

    Simplicity uses the join map itself: P is simple exactly when every
    vertex has dim P partners whose pair count is 1.  Those partners are
    counted off the map's ``unique_pairs``, so the pairs are scanned once.
    """
    jm = build_join_map(p)
    d = p.dimension
    partners = [0] * p.vertex_count
    for u, v in jm.unique_pairs():
        partners[u] += 1
        partners[v] += 1
    return AdjacencyOracle(jm, all(k == d for k in partners), p)


def fast_verdict(oracle: AdjacencyOracle, u: int, v: int) -> tuple[Verdict, int]:
    """O(n) verdict from one join-map lookup, with the pair count it rests on.

    Exact on simple polytopes. On non-simple ones a count of 1 cannot
    certify an edge, so it maps to INDETERMINATE; any other count is a
    sound NON_ADJACENT.
    """
    bits = oracle.polytope._zero_bits
    if not (0 <= u < len(bits) and 0 <= v < len(bits) and u != v):
        _check_pair(len(bits), u, v, "adjacency needs two distinct vertices")
    c = oracle.join_map.lookup(bits[u] & bits[v])
    if c == 1:
        return (_ADJACENT if oracle.simple else _INDETERMINATE), c
    return _NON_ADJACENT, c


def fast_test(oracle: AdjacencyOracle, u: int, v: int) -> Verdict:
    """The verdict of :func:`fast_verdict` alone."""
    return fast_verdict(oracle, u, v)[0]


def combinatorial_test(p: Polytope, u: int, v: int) -> bool:
    """Exact for all polytopes: u, v are adjacent when no third vertex lies
    on the smallest face containing both, which always holds u and v.  That
    face is an AND of the coordinate-face bitmasks of their common zeros:
    O(n) operations on V-bit ints, by the face kernel ``core._meet`` that
    :func:`all_pairs_adjacency` runs on its count-1 pairs too."""
    _check_pair(p.vertex_count, u, v, "adjacency needs two distinct vertices")
    return _face(p, p._zero_bits[u] & p._zero_bits[v]).bit_count() == 2


def algebraic_test(p: Polytope, u: int, v: int) -> bool:
    """Exact for all polytopes: the smallest face containing u, v has
    dimension 1. Collects that face as for :func:`combinatorial_test`, then
    ranks its k vertices exactly in O(k n^2)."""
    _check_pair(p.vertex_count, u, v, "adjacency needs two distinct vertices")
    points = [p.vertices[w] for w in _bits(_face(p, p._zero_bits[u] & p._zero_bits[v]))]
    # core.rank read on each call, so that a replaced core.rank (a tracer's, a test's) sees it
    return core.rank([[x - y for x, y in zip(q, points[0])] for q in points[1:]]) == 1


def all_pairs_adjacency(p: Polytope, oracle: AdjacencyOracle | None = None) -> list[tuple[int, int]]:
    """Edge list of the polytope graph, ascending, exact for all polytopes.

    Only pairs alone on their join can be edges: all are on a simple polytope,
    else each is settled by the face kernel of :func:`combinatorial_test`, with
    the faces read once for all pairs.  Refuses an oracle of other zero sets.
    """
    if oracle is None:
        oracle = precompute(p)
    elif oracle.polytope is not p and oracle.polytope._zero_bits != p._zero_bits:
        raise ValueError("oracle was built for a different polytope")
    pairs = oracle.join_map.unique_pairs()
    if oracle.simple:
        return pairs
    zs = p._zero_bits
    faces, full = p.coordinate_faces, (1 << len(zs)) - 1
    return [(u, v) for u, v in pairs if _meet(faces, full, zs[u] & zs[v]).bit_count() == 2]


def neighbor_lists(vertex_count: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Sorted adjacency lists from an edge list; refuses an edge with an end
    outside 0..vertex_count - 1, then one that joins a vertex to itself, then,
    once sorted, an edge listed twice in either direction (the lowest such)."""
    out: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        _check_pair(vertex_count, u, v, "an edge joins two distinct vertices")
        out[u].append(v)
        out[v].append(u)
    for u, lst in enumerate(out):
        lst.sort()
        if len(set(lst)) < len(lst):  # a repeat: named by its first two equal neighbours
            v = next(v for v, w in zip(lst, lst[1:]) if v == w)
            raise ValueError(f"edge ({u}, {v}) is listed twice")
    return out
