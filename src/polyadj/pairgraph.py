"""Walks over pairs of vertices that share at most one facet.

For a simple polytope of dimension d > 1, build a graph whose nodes are
unordered vertex pairs {u, v} sharing no facet (complementary) or exactly
one.  An arc joins {u, x} and {u, y} when x and y are adjacent in the
polytope and no single facet contains u, x and y together.  Every
complementary pair then has 2d arcs leading to 2d different nodes, while a
pair with one common facet has exactly two arcs, so a walk that never turns
back is forced forward until it reaches a complementary pair again.

That walk is the whole point: starting from one complementary pair it finds
a second one (``second_pair``), and starting just past the pivot of a path
between complementary partners it finds one disjoint from the first
(``disjoint_pairs``).  ``verify_2d_parity`` checks the counting law for
polytopes with 2d facets: an even number of complementary pairs, all
pairwise disjoint.

An arc holds its facet set as a mask, listed as ids only when ``facet_set``
is read, so a walk step builds no more than each arc's head and mask.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import (
    Facets, Polytope, UnsupportedPolytopeError, _check_index, _check_pair, _own, is_simple,
)

__all__ = ["PairArc", "PairKind", "PairNode", "ParityReport", "all_complementary_pairs",
           "arcs_from", "disjoint_pairs", "pair_node", "second_pair", "verify_2d_parity"]


class PairKind(Enum):
    """Kind of a vertex pair by the facets holding both vertices:
    COMPLEMENTARY for none, ALMOST_COMPLEMENTARY for exactly one, EXCLUDED
    for two or more (such a pair is not a node of the pair graph)."""

    COMPLEMENTARY = "A"
    ALMOST_COMPLEMENTARY = "B"
    EXCLUDED = "-"


# bound once: a walk step reads them often, and a read through the class is slow
_COMPLEMENTARY, _ALMOST, _EXCLUDED = PairKind


class PairNode(NamedTuple):
    """The pair u < v with its ``kind``; ``common_facet`` is the id of the one
    facet holding both vertices when the kind is ALMOST_COMPLEMENTARY, else None."""

    u: int
    v: int
    kind: PairKind
    common_facet: int | None

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class PairArc(NamedTuple):
    """An arc from ``tail`` to ``head``: ``moved_vertex`` is the tail vertex
    that was replaced, and bit f of ``facet_mask`` is set when facet f holds
    the kept vertex or the moved edge."""

    tail: PairNode
    head: PairNode
    moved_vertex: int
    facet_mask: int

    @property
    def facet_set(self) -> frozenset[int]:
        """The facet ids set in ``facet_mask``, built on each read."""
        return Facets.ids(self.facet_mask)


def pair_node(p: Polytope, facets: Facets, u: int, v: int) -> PairNode:
    """Canonical node (u < v) for the pair, of whatever kind; refuses a
    catalogue built for another polytope."""
    _check_pair(p.vertex_count, u, v, "a pair consists of two distinct vertices")
    _own(p, facets)
    return _node(min(u, v), max(u, v), facets.masks[u] & facets.masks[v])


def _node(u: int, v: int, common: int) -> PairNode:
    """Node of the pair u < v whose vertices share the facets set in ``common``."""
    if not common:
        return PairNode(u, v, _COMPLEMENTARY, None)
    if common & (common - 1):
        return PairNode(u, v, _EXCLUDED, None)
    return PairNode(u, v, _ALMOST, common.bit_length() - 1)


def _require_walkable(p: Polytope, facets: Facets) -> int:
    """Refuse unless P is simple with dim P > 1; return dim P.  Each public
    entry point runs this, ``arcs_from`` at every walk step: O(1), as
    ``facets`` holds the facet count its vertices share."""
    d = p.dimension
    if d <= 1:
        raise UnsupportedPolytopeError(f"pair-graph walks need dimension > 1, got {d}")
    if not is_simple(p, facets):
        raise UnsupportedPolytopeError(
            "pair-graph walks need a simple polytope; use the combinatorial "
            "adjacency test instead"
        )
    return d


def _check_neighbors(count: int, neighbors: list[list[int]]) -> None:
    """Refuse ``neighbors`` unless it holds one list for each of ``count`` vertices."""
    if len(neighbors) != count:
        raise ValueError(f"neighbors holds {len(neighbors)} lists for {count} vertices")


def arcs_from(
    p: Polytope, facets: Facets, neighbors: list[list[int]], node: PairNode
) -> list[PairArc]:
    """All arcs leaving ``node``, in a fixed order: moves of v first, then u,
    each by ascending replacement vertex.

    A complementary node has 2d arcs with pairwise different facet sets; a
    one-common-facet node has exactly 2 arcs with the same facet set.  Facet
    sets have 2d - 1 elements, each held as a mask.  Refuses a polytope that
    is not simple with dim P > 1, ``neighbors`` without one list per vertex,
    and an index outside 0..V - 1 before its mask is read.
    """
    _require_walkable(p, facets)
    masks, count = facets.masks, p.vertex_count
    _check_neighbors(count, neighbors)
    if node.kind is _EXCLUDED:
        raise ValueError(f"pair {node.pair} shares more than one facet")
    if not (0 <= node.u < count and 0 <= node.v < count):  # a bare PairNode is unchecked
        _check_index(count, node.u, node.v)
    arcs = []
    for stay, move in ((node.u, node.v), (node.v, node.u)):
        m_stay, m_move = masks[stay], masks[move]
        for x in neighbors[move]:
            if not 0 <= x < count:  # before masks[x] can raise or wrap round
                _check_index(count, x)
            # skip when one facet holds all three: the kept vertex and the
            # moved edge must lie on no common facet
            if x == stay or m_stay & m_move & masks[x]:
                continue
            head = _node(min(stay, x), max(stay, x), m_stay & masks[x])
            if head.kind is _EXCLUDED:
                raise RuntimeError(
                    f"internal invariant violated: move {node.pair} -> {head.pair} "
                    "left the pair graph"
                )
            arcs.append(PairArc(node, head, move, m_stay | (m_move & masks[x])))
    return arcs


def all_complementary_pairs(p: Polytope, facets: Facets) -> list[tuple[int, int]]:
    """All pairs sharing no facet, ascending. Works for any polytope;
    simplicity is not needed for this count.  Refuses a catalogue built for
    another polytope.  No pair scan: u's partners are the vertices outside
    its facets' vertex sets, so the cost is sum_v |facets(v)| ORs of V-bit
    ints (V d on a simple d-polytope) plus one step per pair."""
    _own(p, facets)
    vertex_sets, full, pairs = facets._vertex_sets, (1 << p.vertex_count) - 1, []
    # both bit sets are walked by inline low-bit loops: with the core._bits
    # generator this is slower than a pair scan on bipyramid3 x cube(4)
    for u, mu in enumerate(facets.masks):
        shared = 0
        while mu:
            low = mu & -mu
            shared |= vertex_sets[low.bit_length() - 1]
            mu ^= low
        rest = (full & ~shared) >> (u + 1)  # bit k: vertex u + 1 + k
        while rest:
            low = rest & -rest
            pairs.append((u, u + low.bit_length()))
            rest ^= low
    return pairs


def _walk_forward(
    p: Polytope,
    facets: Facets,
    neighbors: list[list[int]],
    prev: PairNode,
    cur: PairNode,
) -> PairNode:
    """Follow the two-arc rule from ``cur`` (never back to ``prev``) until a
    complementary node appears. A forced walk on a finite graph ends unless
    it repeats a node; a repeat means the forced-forward rule is broken,
    which no valid input can do, so that is reported loudly."""
    seen = {prev}
    while cur.kind is not _COMPLEMENTARY:
        if cur.kind is _EXCLUDED:
            raise RuntimeError(f"walk reached excluded pair {cur.pair}")
        if cur in seen:
            raise RuntimeError(
                f"walk revisited pair {cur.pair} without reaching a complementary "
                "pair; forced-forward rule violated"
            )
        seen.add(cur)
        onward = [a.head for a in arcs_from(p, facets, neighbors, cur) if a.head != prev]
        if len(onward) != 1:
            raise RuntimeError(
                f"internal invariant violated: node {cur.pair} has "
                f"{len(onward) + 1} arcs, expected exactly 2"
            )
        prev, cur = cur, onward[0]
    return cur


def _complementary_start(
    p: Polytope, facets: Facets, neighbors: list[list[int]], start: tuple[int, int]
) -> PairNode:
    """Node of the sorted walk start; refused unless P is walkable, then unless
    ``neighbors`` holds one list per vertex, then unless complementary."""
    _require_walkable(p, facets)
    _check_neighbors(p.vertex_count, neighbors)
    u, v = sorted(start)
    node = pair_node(p, facets, u, v)
    if node.kind is not _COMPLEMENTARY:
        raise ValueError(f"pair {node.pair} is not complementary")
    return node


def second_pair(
    p: Polytope, facets: Facets, neighbors: list[list[int]], start: tuple[int, int]
) -> tuple[int, int]:
    """From one complementary pair, walk to a different one.

    Deterministic first move: replace the lower-indexed vertex of ``start``
    by its lowest-indexed neighbor, then follow the two-arc rule forward.
    """
    start_node = _complementary_start(p, facets, neighbors, start)
    if not neighbors[start_node.u]:
        raise ValueError(f"vertex {start_node.u} has no neighbors")
    first = pair_node(p, facets, min(neighbors[start_node.u]), start_node.v)
    found = _walk_forward(p, facets, neighbors, start_node, first)
    if found.pair == start_node.pair:
        raise RuntimeError("walk returned to its starting pair")
    return found.pair


def disjoint_pairs(
    p: Polytope, facets: Facets, neighbors: list[list[int]], start: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two complementary pairs with four distinct vertices between them.

    Walk a shortest path z_0 = u .. z_q = v in the polytope graph, find the
    first z_j sharing a facet with v (j > 0, as u shares none), and run the
    forced walk from {z_j-1, v} to {z_j, v}; the pair it reaches cannot
    touch {z_j-1, v}.
    """
    u, v = _complementary_start(p, facets, neighbors, start).pair
    path = _shortest_path(neighbors, u, v)
    j = next((i for i, z in enumerate(path) if facets.masks[z] & facets.masks[v]), 0)
    if not j:
        raise RuntimeError("no pivot on a path between complementary partners")
    anchor = pair_node(p, facets, path[j - 1], v)
    step_off = pair_node(p, facets, path[j], v)
    found = _walk_forward(p, facets, neighbors, anchor, step_off)
    if len({*anchor.pair, *found.pair}) != 4:
        raise RuntimeError(
            f"pairs {anchor.pair} and {found.pair} share a vertex; "
            "disjointness argument violated"
        )
    return anchor.pair, found.pair


def _shortest_path(neighbors: list[list[int]], source: int, target: int) -> list[int]:
    """Breadth-first shortest path, deterministic by ascending neighbor order:
    one first-in, first-out list, each predecessor kept in a flat list from the
    vertex's first discovery on, stopping once ``target`` is discovered; O(V + E).
    Refuses the first entry outside 0..V - 1 when the walk meets a bad one,
    save one in -2V..-V-1 whose slot is an already discovered vertex: that
    entry is skipped, not refused, as refusing it needs a compare per entry."""
    count = len(neighbors)
    # pred[x] for an entry x in -V..-1 or V..2V-1 is None, which fails ``< 0``,
    # and one past -2V or 2V fails to index.  One in -2V..-V-1 reads a real
    # slot and fails to index ``neighbors`` once expanded; left unexpanded, it
    # changes the path only by standing in for the target, found by its last hop
    pred = [-1] * count + [None] * count
    pred[source] = source
    queue = [source]
    try:
        for w in queue:  # grows as it is read
            if pred[target] >= 0:
                break
            for x in neighbors[w]:
                if pred[x] < 0:
                    pred[x] = w
                    queue.append(x)
        if pred[target] < 0:
            raise RuntimeError(f"polytope graph is disconnected between {source} and {target}")
        path = [target]
        while path[-1] != source:
            path.append(pred[path[-1]])
        if len(path) > 1 and target not in neighbors[path[1]]:
            raise IndexError(f"{target} is not a neighbor of {path[1]}")
    except (IndexError, TypeError):
        for xs in neighbors:
            _check_index(count, *xs)
        raise
    return path[::-1]


class ParityReport(NamedTuple):
    """What :func:`verify_2d_parity` found: the facet count, the number of
    complementary pairs, whether that number is even, and whether no two of
    the pairs share a vertex."""

    facet_count: int
    pair_count: int
    even: bool
    pairwise_disjoint: bool


def verify_2d_parity(p: Polytope, facets: Facets) -> ParityReport:
    """Count complementary pairs and check the 2d-facet parity law.

    Needs a simple polytope of dimension d > 1.  When the facet count is
    exactly 2d, an odd count or two overlapping pairs would contradict the
    law, so that raises instead of returning a report.
    """
    d = _require_walkable(p, facets)
    pairs = all_complementary_pairs(p, facets)
    report = ParityReport(
        facet_count=len(facets),
        pair_count=len(pairs),
        even=len(pairs) % 2 == 0,
        pairwise_disjoint=len({w for pair in pairs for w in pair}) == 2 * len(pairs),
    )
    if len(facets) == 2 * d and not (report.even and report.pairwise_disjoint):
        raise RuntimeError(
            f"2d-facet parity law violated: {report} on a simple polytope of dimension {d}"
        )
    return report

