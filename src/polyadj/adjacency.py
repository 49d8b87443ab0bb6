"""Vertex adjacency tests: one fast join-map probe plus two exact fallbacks.

``precompute`` builds everything the fast test needs in one pass over the
vertex pairs: the join map, whose count-1 pairs also decide simplicity.  On
a simple polytope the fast verdict is exact; otherwise a count of 1 is only
necessary for adjacency, so the fast test answers INDETERMINATE and callers
fall back to the combinatorial test.
"""

from __future__ import annotations

from enum import Enum

from .core import Polytope, _check_pair, face_dimension, face_vertices
from .joinmap import JoinMap, build_join_map

__all__ = ["AdjacencyOracle", "Verdict", "algebraic_test", "all_pairs_adjacency",
           "combinatorial_test", "fast_test", "fast_verdict", "neighbor_lists", "precompute"]


class Verdict(Enum):
    ADJACENT = "adjacent"
    NON_ADJACENT = "non-adjacent"
    INDETERMINATE = "indeterminate"


class AdjacencyOracle:
    """Scan products of :func:`precompute` (join map, dimension, simplicity,
    zero sets) in plain ``__slots__`` fields: reassignable, not frozen."""

    __slots__ = ("join_map", "dim", "simple", "zero_sets")

    def __init__(self, join_map: JoinMap, dim: int, simple: bool, zero_sets) -> None:
        self.join_map = join_map
        self.dim = dim
        self.simple = simple
        self.zero_sets = zero_sets

    def __repr__(self) -> str:
        return f"AdjacencyOracle(dim={self.dim}, simple={self.simple})"


def precompute(p: Polytope) -> AdjacencyOracle:
    """Three stages: build the join map, compute dim P, test simplicity.

    Simplicity uses the join map itself: P is simple exactly when every
    vertex has dim P partners whose pair count is 1.  Those partners are the
    map's recorded count-1 pairs, so the vertex pairs are scanned once.
    """
    jm = build_join_map(p)
    d = p.dimension
    partners = [0] * p.vertex_count
    for u, v in jm.unique_pairs():
        partners[u] += 1
        partners[v] += 1
    simple = all(k == d for k in partners)
    return AdjacencyOracle(jm, d, simple, p.zero_sets)


def fast_verdict(oracle: AdjacencyOracle, u: int, v: int) -> tuple[Verdict, int]:
    """O(n) verdict from one join-map lookup, with the pair count it rests on.

    Exact on simple polytopes. On non-simple ones a count of 1 cannot
    certify an edge, so it maps to INDETERMINATE; any other count is a
    sound NON_ADJACENT.
    """
    _check_pair(len(oracle.zero_sets), u, v, "adjacency needs two distinct vertices")
    c = oracle.join_map.lookup(oracle.zero_sets[u] & oracle.zero_sets[v])
    if c == 1:
        return (Verdict.ADJACENT if oracle.simple else Verdict.INDETERMINATE), c
    return Verdict.NON_ADJACENT, c


def fast_test(oracle: AdjacencyOracle, u: int, v: int) -> Verdict:
    """The verdict of :func:`fast_verdict` alone."""
    return fast_verdict(oracle, u, v)[0]


def combinatorial_test(p: Polytope, u: int, v: int) -> bool:
    """Exact for all polytopes: u, v are adjacent when no third vertex lies
    on the smallest face containing both, which always holds u and v.  That
    face is an AND of the coordinate-face bitmasks of their common zeros:
    O(n) operations on V-bit ints, plus O(k) to list its k vertices."""
    _check_pair(p.vertex_count, u, v, "adjacency needs two distinct vertices")
    return len(face_vertices(p, p.zero_sets[u] & p.zero_sets[v])) == 2


def algebraic_test(p: Polytope, u: int, v: int) -> bool:
    """Exact for all polytopes: the smallest face containing u, v has
    dimension 1. Collects that face as for :func:`combinatorial_test`, then
    ranks its k vertices exactly in O(k n^2)."""
    _check_pair(p.vertex_count, u, v, "adjacency needs two distinct vertices")
    return face_dimension(p, p.zero_sets[u] & p.zero_sets[v]) == 1


def all_pairs_adjacency(p: Polytope, oracle: AdjacencyOracle | None = None) -> list[tuple[int, int]]:
    """Edge list of the polytope graph, ascending, exact for all polytopes.

    Only pairs alone on their join can be edges.  On a simple polytope they
    all are; otherwise each is settled combinatorially.
    """
    if oracle is None:
        oracle = precompute(p)
    pairs = oracle.join_map.unique_pairs()
    if oracle.simple:
        return pairs
    return [(u, v) for u, v in pairs if combinatorial_test(p, u, v)]


def neighbor_lists(vertex_count: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Sorted adjacency lists from an edge list."""
    out: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        out[u].append(v)
        out[v].append(u)
    for lst in out:
        lst.sort()
    return out
