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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .core import Facets, Polytope, UnsupportedPolytopeError, _check_pair, is_simple

__all__ = ["PairArc", "PairKind", "PairNode", "ParityReport", "all_complementary_pairs",
           "arcs_from", "classify_pair", "disjoint_pairs", "pair_node", "second_pair", "to_dot",
           "verify_2d_parity"]


class PairKind(Enum):
    # values double as the short node labels in DOT dumps
    COMPLEMENTARY = "A"        # no common facet
    ALMOST_COMPLEMENTARY = "B"  # exactly one common facet
    EXCLUDED = "-"             # two or more common facets: not a node


@dataclass(frozen=True)
class PairNode:
    u: int
    v: int
    kind: PairKind
    common_facet: int | None  # facet id for ALMOST_COMPLEMENTARY, else None

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class PairArc:
    tail: PairNode
    head: PairNode
    moved_vertex: int  # the tail vertex that was replaced
    facet_set: frozenset[int]  # facets containing the kept vertex or the moved edge


def classify_pair(p: Polytope, facets: Facets, u: int, v: int) -> PairKind:
    """Node kind of {u, v} by the number of facets containing both."""
    return pair_node(p, facets, u, v).kind


def pair_node(p: Polytope, facets: Facets, u: int, v: int) -> PairNode:
    """Canonical node (u < v) for the pair, of whatever kind."""
    _check_pair(p.vertex_count, u, v, "a pair consists of two distinct vertices")
    common = facets.masks[u] & facets.masks[v]
    shared = common.bit_count()
    if shared == 0:
        kind, facet = PairKind.COMPLEMENTARY, None
    elif shared == 1:
        kind, facet = PairKind.ALMOST_COMPLEMENTARY, common.bit_length() - 1
    else:
        kind, facet = PairKind.EXCLUDED, None
    return PairNode(min(u, v), max(u, v), kind, facet)


def _require_walkable(p: Polytope, facets: Facets) -> int:
    """Refuse unless P is simple with dim P > 1.  Each public entry point
    runs this once; a pass is remembered on ``facets`` (for this ``p``) so
    that ``arcs_from``, called at every walk step, does not re-run it."""
    d = p.dimension
    if d <= 1:
        raise UnsupportedPolytopeError(f"pair-graph walks need dimension > 1, got {d}")
    if not is_simple(p, facets):
        raise UnsupportedPolytopeError(
            "pair-graph walks need a simple polytope; use the combinatorial "
            "adjacency test instead"
        )
    facets._walkable_in = p
    return d


def arcs_from(
    p: Polytope, facets: Facets, neighbors: list[list[int]], node: PairNode
) -> list[PairArc]:
    """All arcs leaving ``node``, in a fixed order: moves of v first, then u,
    each by ascending replacement vertex.

    A complementary node has 2d arcs with pairwise different facet sets; a
    one-common-facet node has exactly 2 arcs with the same facet set.  Facet
    sets have 2d - 1 elements.  Refuses a polytope that is not simple with
    dim P > 1, checked once per ``(p, facets)``.
    """
    if getattr(facets, "_walkable_in", None) is not p:
        _require_walkable(p, facets)
    if node.kind is PairKind.EXCLUDED:
        raise ValueError(f"pair {node.pair} shares more than one facet")
    masks = facets.masks
    arcs = []
    for stay, move in ((node.u, node.v), (node.v, node.u)):
        for x in neighbors[move]:
            if x == stay:
                continue
            # skip when one facet holds all three: the kept vertex and the
            # moved edge must lie on no common facet
            if masks[stay] & masks[move] & masks[x]:
                continue
            head = pair_node(p, facets, stay, x)
            if head.kind is PairKind.EXCLUDED:
                raise RuntimeError(
                    f"internal invariant violated: move {node.pair} -> {head.pair} "
                    "left the pair graph"
                )
            facet_set = facets.ids(masks[stay] | (masks[move] & masks[x]))
            arcs.append(PairArc(node, head, move, facet_set))
    return arcs


def all_complementary_pairs(p: Polytope, facets: Facets) -> list[tuple[int, int]]:
    """All pairs sharing no facet, ascending. Works for any polytope;
    simplicity is not needed for this count."""
    masks = facets.masks
    return [(u, v) for u, mu in enumerate(masks) for v in range(u + 1, len(masks))
            if not mu & masks[v]]


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
    seen = {prev.pair}
    while cur.kind is not PairKind.COMPLEMENTARY:
        if cur.kind is PairKind.EXCLUDED:
            raise RuntimeError(f"walk reached excluded pair {cur.pair}")
        if cur.pair in seen:
            raise RuntimeError(
                f"walk revisited pair {cur.pair} without reaching a complementary "
                "pair; forced-forward rule violated"
            )
        seen.add(cur.pair)
        onward = [a.head for a in arcs_from(p, facets, neighbors, cur) if a.head.pair != prev.pair]
        if len(onward) != 1:
            raise RuntimeError(
                f"internal invariant violated: node {cur.pair} has "
                f"{len(onward) + 1} arcs, expected exactly 2"
            )
        prev, cur = cur, onward[0]
    return cur


def _complementary_start(p: Polytope, facets: Facets, start: tuple[int, int]) -> PairNode:
    """Node of the sorted walk start; refused unless complementary."""
    u, v = sorted(start)
    node = pair_node(p, facets, u, v)
    if node.kind is not PairKind.COMPLEMENTARY:
        raise ValueError(f"pair {node.pair} is not complementary")
    return node


def second_pair(
    p: Polytope, facets: Facets, neighbors: list[list[int]], start: tuple[int, int]
) -> tuple[int, int]:
    """From one complementary pair, walk to a different one.

    Deterministic first move: replace the lower-indexed vertex of ``start``
    by its lowest-indexed neighbor, then follow the two-arc rule forward.
    """
    _require_walkable(p, facets)
    start_node = _complementary_start(p, facets, start)
    first = pair_node(p, facets, min(neighbors[start_node.u]), start_node.v)
    found = _walk_forward(p, facets, neighbors, start_node, first)
    if found.pair == start_node.pair:
        raise RuntimeError("walk returned to its starting pair")
    return found.pair


def disjoint_pairs(
    p: Polytope, facets: Facets, neighbors: list[list[int]], start: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two complementary pairs with four distinct vertices between them.

    Walk a shortest path z_1 .. z_q from u to v in the polytope graph, find
    the first index where {z_i, v} is complementary but {z_i+1, v} is not,
    and run the forced walk from that edge; the pair it reaches cannot touch
    {z_i, v}.
    """
    _require_walkable(p, facets)
    u, v = _complementary_start(p, facets, start).pair
    path = _shortest_path(neighbors, u, v)
    shared = [facets.masks[z] & facets.masks[v] for z in path]
    pivot = next((i for i in range(len(path) - 1) if not shared[i] and shared[i + 1]), None)
    if pivot is None:
        raise RuntimeError("no pivot on a path between complementary partners")
    anchor = pair_node(p, facets, path[pivot], v)
    step_off = pair_node(p, facets, path[pivot + 1], v)
    found = _walk_forward(p, facets, neighbors, anchor, step_off)
    if len({*anchor.pair, *found.pair}) != 4:
        raise RuntimeError(
            f"pairs {anchor.pair} and {found.pair} share a vertex; "
            "disjointness argument violated"
        )
    return anchor.pair, found.pair


def _shortest_path(neighbors: list[list[int]], source: int, target: int) -> list[int]:
    """Breadth-first shortest path, deterministic by ascending neighbor order."""
    pred: dict[int, int | None] = {source: None}
    queue = deque([source])
    while queue:
        w = queue.popleft()
        if w == target:
            path = []
            cur: int | None = w
            while cur is not None:
                path.append(cur)
                cur = pred[cur]
            return path[::-1]
        for x in neighbors[w]:
            if x not in pred:
                pred[x] = w
                queue.append(x)
    raise RuntimeError(f"polytope graph is disconnected between {source} and {target}")


@dataclass(frozen=True)
class ParityReport:
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


def to_dot(p: Polytope, facets: Facets, neighbors: list[list[int]]) -> str:
    """DOT dump of the whole pair graph, nodes labeled "u,v:A|B", arcs
    labeled with their facet-set ids. For inspection and golden tests."""
    _require_walkable(p, facets)
    nodes = []
    for u in range(p.vertex_count):
        for v in range(u + 1, p.vertex_count):
            node = pair_node(p, facets, u, v)
            if node.kind is not PairKind.EXCLUDED:
                nodes.append(node)
    lines = ["graph pairs {"]
    for node in nodes:
        lines.append(f'  "{node.u},{node.v}" [label="{node.u},{node.v}:{node.kind.value}"];')
    seen = set()
    for node in nodes:
        for arc in arcs_from(p, facets, neighbors, node):
            key = tuple(sorted((arc.tail.pair, arc.head.pair)))
            if key in seen:
                continue
            seen.add(key)
            label = "{" + ",".join(map(str, sorted(arc.facet_set))) + "}"
            lines.append(
                f'  "{arc.tail.u},{arc.tail.v}" -- "{arc.head.u},{arc.head.v}" '
                f'[label="{label}"];'
            )
    lines.append("}")
    return "\n".join(lines)
