"""Pair-graph structure and the constructive walks."""

import hashlib
from collections import Counter
from itertools import combinations

import pytest

import oracles as orc
from polyadj.adjacency import all_pairs_adjacency, neighbor_lists
from polyadj.core import (
    Facets, Polytope, UnsupportedPolytopeError, detect_facets, is_complementary, is_simple,
)
from polyadj.generators import cube, prism3, simplex, slack_embed
from polyadj import pairgraph
from polyadj.pairgraph import (
    PairArc,
    PairKind,
    PairNode,
    all_complementary_pairs,
    arcs_from,
    classify_pair,
    disjoint_pairs,
    pair_node,
    second_pair,
    to_dot,
    verify_2d_parity,
)

SQUARE_DOT = """\
graph pairs {
  "0,1" [label="0,1:B"];
  "0,2" [label="0,2:B"];
  "0,3" [label="0,3:A"];
  "1,2" [label="1,2:A"];
  "1,3" [label="1,3:B"];
  "2,3" [label="2,3:B"];
  "0,1" -- "0,3" [label="{0,1,3}"];
  "0,1" -- "1,2" [label="{0,1,3}"];
  "0,2" -- "0,3" [label="{0,1,2}"];
  "0,2" -- "1,2" [label="{0,1,2}"];
  "0,3" -- "1,3" [label="{0,2,3}"];
  "0,3" -- "2,3" [label="{1,2,3}"];
  "1,2" -- "1,3" [label="{0,2,3}"];
  "1,2" -- "2,3" [label="{1,2,3}"];
}"""


def graph_inputs(p):
    facets = detect_facets(p)
    neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
    return facets, neighbors


def all_nodes(p, facets):
    return [
        pair_node(p, facets, u, v)
        for u, v in combinations(range(p.vertex_count), 2)
        if classify_pair(p, facets, u, v) is not PairKind.EXCLUDED
    ]


# -- classification ----------------------------------------------------------


def test_classify_cube3():
    p = cube(3)
    facets = detect_facets(p)
    assert classify_pair(p, facets, 0, 7) is PairKind.COMPLEMENTARY
    assert classify_pair(p, facets, 0, 6) is PairKind.ALMOST_COMPLEMENTARY
    assert classify_pair(p, facets, 0, 1) is PairKind.EXCLUDED  # an edge, d-1 facets
    node = pair_node(p, facets, 6, 0)
    assert node.pair == (0, 6)
    assert node.common_facet == 2  # the x3 = 0 facet
    assert pair_node(p, facets, 0, 7).common_facet is None
    with pytest.raises(ValueError, match="distinct"):
        classify_pair(p, facets, 3, 3)


def test_all_complementary_pairs_frozen():
    cases = {
        ("cube", 3): [(0, 7), (1, 6), (2, 5), (3, 4)],
        ("truncated_cube", None): [
            (0, 8), (0, 9), (1, 8), (2, 7), (2, 9), (3, 7), (4, 5), (4, 6), (5, 9),
        ],
        ("bipyramid3", None): [(2, 3)],  # works without simplicity
        ("prism3", None): [],
    }
    for (name, d), want in cases.items():
        p = slack_embed(orc.fixture(name, d))
        assert all_complementary_pairs(p, detect_facets(p)) == want, name


def test_complementary_pairs_match_oracle():
    for name, d in [("cube", 4), ("simplex", 5), ("bipyramid_simplex4", None)]:
        h = orc.fixture(name, d)
        p = slack_embed(h)
        assert all_complementary_pairs(p, detect_facets(p)) == orc.complementary_pairs(h)


def test_cube9_complementary_pairs_are_pinned():
    p = cube(9)
    assert all_complementary_pairs(p, detect_facets(p)) == [(k, 511 - k) for k in range(256)]


class _Unindexable:
    """Iterates over ``items`` but refuses indexing."""

    def __init__(self, items):
        self.items = items

    def __iter__(self):
        return iter(self.items)


def test_complementary_pairs_read_each_facet_mask_once_in_order(monkeypatch):
    # partners come from each vertex's own facets, so the facet masks are only
    # iterated; a scan over pairs indexes them and fails here
    p = cube(4)
    facets = detect_facets(p)
    masks = facets.masks
    want = [(u, v) for u, v in combinations(range(p.vertex_count), 2) if not masks[u] & masks[v]]
    monkeypatch.setattr(facets, "masks", _Unindexable(masks))
    assert all_complementary_pairs(p, facets) == want == [(k, 15 - k) for k in range(8)]


def test_queries_refuse_a_catalogue_of_another_polytope():
    # prism3 has 6 vertices, cube(3) 8; cube(3) with its vertex rows reversed
    # has cube(3)'s size but other zero sets, so each catalogue misnames vertices
    p = cube(3)
    reversed_cube = Polytope(p.A, p.b, p.vertices[::-1])
    for q, facets in ((prism3(), detect_facets(p)), (reversed_cube, detect_facets(p)),
                      (p, detect_facets(prism3()))):
        queries = (lambda: is_simple(q, facets), lambda: is_complementary(q, 0, 5, facets),
                   lambda: pair_node(q, facets, 0, 5), lambda: classify_pair(q, facets, 0, 5),
                   lambda: all_complementary_pairs(q, facets),
                   lambda: second_pair(q, facets, [[]] * q.vertex_count, (0, 5)))
        for query in queries:
            with pytest.raises(ValueError,
                               match="^facet catalogue was built for a different polytope$"):
                query()
    # a catalogue of an equal polytope built apart is accepted
    assert is_simple(p, detect_facets(cube(3)))
    assert all_complementary_pairs(p, detect_facets(cube(3))) == [(0, 7), (1, 6), (2, 5), (3, 4)]


# -- arcs ---------------------------------------------------------------------


def test_arcs_from_complementary_node_cube3():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    arcs = arcs_from(p, facets, neighbors, pair_node(p, facets, 0, 7))
    assert [a.head.pair for a in arcs] == [(0, 3), (0, 5), (0, 6), (1, 7), (2, 7), (4, 7)]
    assert [a.moved_vertex for a in arcs] == [7, 7, 7, 0, 0, 0]
    assert len({a.facet_set for a in arcs}) == 6
    assert all(len(a.facet_set) == 5 for a in arcs)
    assert all(a.head.kind is PairKind.ALMOST_COMPLEMENTARY for a in arcs)


def test_arcs_from_one_facet_node_cube3():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    arcs = arcs_from(p, facets, neighbors, pair_node(p, facets, 0, 6))
    assert len(arcs) == 2
    assert arcs[0].facet_set == arcs[1].facet_set
    # all five facets touching vertex 0 or vertex 6; only the facet opposite
    # their common one (x3 = 1, id 5) is missing
    assert arcs[0].facet_set == frozenset({0, 1, 2, 3, 4})


def test_arcs_from_rejects_excluded_pairs():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    with pytest.raises(ValueError, match="more than one facet"):
        arcs_from(p, facets, neighbors, pair_node(p, facets, 0, 1))


def test_arcs_from_refuses_out_of_range_neighbors():
    # each neighbor is checked before its facet mask is read: 8 would index
    # past the masks, -1 would read vertex 7's mask, and -8 vertex 0's, which
    # shares the facet of {0, 6} and so would be skipped with no error
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    for pair, bad in (((0, 7), 8), ((0, 7), -1), ((0, 6), -8)):
        broken = [list(row) for row in neighbors]
        broken[pair[1]].append(bad)
        with pytest.raises(ValueError, match=rf"^vertex index {bad} out of range 0\.\.7$"):
            arcs_from(p, facets, broken, pair_node(p, facets, *pair))
    # so is the node's own pair, which a caller can build as a bare PairNode
    for u, v, bad in ((-1, 0, -1), (0, 8, 8)):
        with pytest.raises(ValueError, match=rf"^vertex index {bad} out of range 0\.\.7$"):
            arcs_from(p, facets, neighbors, PairNode(u, v, PairKind.COMPLEMENTARY, None))


def test_arcs_from_reports_a_move_that_leaves_the_pair_graph():
    # 1 listed as a neighbor of 7 moves (0, 7) to (0, 1), which shares two facets
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    neighbors[7].append(1)
    with pytest.raises(RuntimeError, match=r"^internal invariant violated: "
                       r"move \(0, 7\) -> \(0, 1\) left the pair graph$"):
        arcs_from(p, facets, neighbors, pair_node(p, facets, 0, 7))


def test_arc_laws_over_fixtures():
    # degree and facet-set laws on every node, including a product polytope
    cases = [cube(3), cube(4), prism3(),
             orc.product_polytope(prism3(), cube(1))]
    for p in cases:
        d = p.dimension
        facets, neighbors = graph_inputs(p)
        for node in all_nodes(p, facets):
            arcs = arcs_from(p, facets, neighbors, node)
            assert all(len(a.facet_set) == 2 * d - 1 for a in arcs)
            assert all(a.tail == node for a in arcs)
            heads = [a.head.pair for a in arcs]
            assert len(set(heads)) == len(heads)
            if node.kind is PairKind.COMPLEMENTARY:
                assert len(arcs) == 2 * d
                assert len({a.facet_set for a in arcs}) == 2 * d
            else:
                assert len(arcs) == 2
                assert arcs[0].facet_set == arcs[1].facet_set


def test_arc_symmetry():
    for p in (cube(3), prism3()):
        facets, neighbors = graph_inputs(p)
        seen = {}
        for node in all_nodes(p, facets):
            for a in arcs_from(p, facets, neighbors, node):
                seen[(a.tail.pair, a.head.pair)] = a.facet_set
        for (tail, head), fs in seen.items():
            assert seen[(head, tail)] == fs


def test_arcs_carry_facet_masks_and_nodes_keep_their_repr():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    node = pair_node(p, facets, 6, 0)
    assert repr(node) == (
        "PairNode(u=0, v=6, kind=<PairKind.ALMOST_COMPLEMENTARY: 'B'>, common_facet=2)")
    assert node == PairNode(0, 6, PairKind.ALMOST_COMPLEMENTARY, 2) and node.pair == (0, 6)
    arcs = arcs_from(p, facets, neighbors, node)
    assert [a.facet_mask for a in arcs] == [0b11111, 0b11111]
    assert all(a.facet_set == Facets.ids(a.facet_mask) for a in arcs)


def test_arcs_require_simplicity_and_dimension():
    bp = slack_embed(orc.fixture("bipyramid3"))
    facets, neighbors = graph_inputs(bp)
    with pytest.raises(UnsupportedPolytopeError, match="simple"):
        arcs_from(bp, facets, neighbors, pair_node(bp, facets, 2, 3))
    seg = cube(1)
    facets, neighbors = graph_inputs(seg)
    with pytest.raises(UnsupportedPolytopeError, match="dimension > 1"):
        arcs_from(seg, facets, neighbors, pair_node(seg, facets, 0, 1))


# -- walks --------------------------------------------------------------------


def test_second_pair_cube3_returns_other_antipodal():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    assert second_pair(p, facets, neighbors, (0, 7)) == (1, 6)
    assert second_pair(p, facets, neighbors, (7, 0)) == (1, 6)  # order-insensitive


def test_second_pair_every_start():
    for p in (cube(3), cube(4), slack_embed(orc.fixture("truncated_cube"))):
        facets, neighbors = graph_inputs(p)
        pairs = all_complementary_pairs(p, facets)
        for start in pairs:
            found = second_pair(p, facets, neighbors, start)
            assert found != start
            assert found in pairs
            # deterministic
            assert second_pair(p, facets, neighbors, start) == found


def test_disjoint_pairs_every_start():
    for p in (cube(3), cube(4), slack_embed(orc.fixture("truncated_cube"))):
        facets, neighbors = graph_inputs(p)
        pairs = all_complementary_pairs(p, facets)
        for start in pairs:
            first, second = disjoint_pairs(p, facets, neighbors, start)
            assert first in pairs and second in pairs
            assert len({*first, *second}) == 4


# start -> (second_pair, second pair of disjoint_pairs); disjoint_pairs keeps
# the start as its first pair on both
WALK_ANSWERS = {
    "cube(4)": {
        (0, 15): ((1, 14), (1, 14)),
        (1, 14): ((0, 15), (0, 15)),
        (2, 13): ((0, 15), (0, 15)),
        (3, 12): ((1, 14), (1, 14)),
        (4, 11): ((0, 15), (0, 15)),
        (5, 10): ((1, 14), (1, 14)),
        (6, 9): ((2, 13), (2, 13)),
        (7, 8): ((3, 12), (3, 12)),
    },
    "truncated_cube": {
        (0, 8): ((1, 8), (2, 9)),
        (0, 9): ((1, 8), (1, 8)),
        (1, 8): ((0, 8), (4, 6)),
        (2, 7): ((0, 9), (0, 9)),
        (2, 9): ((0, 9), (3, 7)),
        (3, 7): ((2, 7), (4, 6)),
        (4, 5): ((2, 7), (2, 7)),
        (4, 6): ((1, 8), (1, 8)),
        (5, 9): ((0, 9), (4, 6)),
    },
}


@pytest.mark.parametrize("name", sorted(WALK_ANSWERS))
def test_walk_answers_are_pinned(name):
    # exact answers, so a different tie-break in the arc order or the BFS shows
    p = cube(4) if name == "cube(4)" else slack_embed(orc.fixture(name))
    facets, neighbors = graph_inputs(p)
    expected = WALK_ANSWERS[name]
    assert all_complementary_pairs(p, facets) == list(expected)
    for start, (found, disjoint) in expected.items():
        assert second_pair(p, facets, neighbors, start) == found
        assert disjoint_pairs(p, facets, neighbors, start) == (start, disjoint)


def test_walk_argument_errors():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    with pytest.raises(ValueError, match="not complementary"):
        second_pair(p, facets, neighbors, (0, 6))
    with pytest.raises(ValueError, match="not complementary"):
        disjoint_pairs(p, facets, neighbors, (0, 1))
    with pytest.raises(ValueError, match="out of range"):
        second_pair(p, facets, neighbors, (0, 11))


def test_walk_start_range_error_names_lower_index():
    # the start is sorted before its range check, so with both indices out
    # of range the error names the lower one
    p = cube(2)
    facets, neighbors = graph_inputs(p)
    for walk in (second_pair, disjoint_pairs):
        with pytest.raises(ValueError, match=r"vertex index -2 out of range 0\.\.3"):
            walk(p, facets, neighbors, (-1, -2))


def test_walks_refuse_a_neighbor_list_of_the_wrong_length():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    for broken, count in ((neighbors[:7], 7), (neighbors + [[0]], 9)):
        message = rf"^neighbors holds {count} lists for 8 vertices$"
        for walk in (second_pair, disjoint_pairs):
            with pytest.raises(ValueError, match=message):
                walk(p, facets, broken, (0, 7))
        with pytest.raises(ValueError, match=message):
            arcs_from(p, facets, broken, pair_node(p, facets, 0, 7))


def test_second_pair_names_a_start_vertex_with_no_neighbors():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    neighbors[0] = []
    with pytest.raises(ValueError, match="^vertex 0 has no neighbors$"):
        second_pair(p, facets, neighbors, (0, 7))


def test_disjoint_pairs_refuses_a_neighbor_past_the_last_vertex():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    for bad in (8, 15, 16):  # past V, within 2V, past 2V
        broken = [list(row) for row in neighbors]
        broken[0].append(bad)
        with pytest.raises(ValueError, match=rf"^vertex index {bad} out of range 0\.\.7$"):
            disjoint_pairs(p, facets, broken, (0, 7))


def test_disjoint_pairs_refuses_a_negative_neighbor():
    # unchecked, -1 would read vertex 7's slot and -9 would stand in for vertex 7:
    # both would give the phantom path 0-7
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    for bad in (-1, -9, -17):
        broken = [list(row) for row in neighbors]
        broken[0].append(bad)
        with pytest.raises(ValueError, match=rf"^vertex index {bad} out of range 0\.\.7$"):
            disjoint_pairs(p, facets, broken, (0, 7))


def test_disjoint_pairs_lets_a_non_int_neighbor_raise_its_type_error():
    # 1.5 lies inside 0..V - 1, so the index scan after the BFS's failure
    # finds nothing to refuse and re-raises the list's own TypeError
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    neighbors[0].append(1.5)
    with pytest.raises(TypeError, match="list indices must be integers"):
        disjoint_pairs(p, facets, neighbors, (0, 7))


def test_walk_stops_at_first_repeated_pair(monkeypatch):
    # a broken pair graph whose forced walk cycles a -> b -> c -> a: the walk
    # raises when it reaches a again instead of running on
    start = PairNode(0, 7, PairKind.COMPLEMENTARY, None)
    a, b, c = (PairNode(0, v, PairKind.ALMOST_COMPLEMENTARY, 0) for v in (1, 2, 3))
    ring = {a: (start, b), b: (a, c), c: (b, a)}
    visited = []

    def ring_arcs(p, facets, neighbors, node):
        visited.append(node.pair)
        return [PairArc(node, head, 0, frozenset()) for head in ring[node]]

    monkeypatch.setattr(pairgraph, "arcs_from", ring_arcs)
    p = cube(3)
    with pytest.raises(RuntimeError, match=r"revisited pair \(0, 1\)"):
        pairgraph._walk_forward(p, detect_facets(p), [], start, a)
    assert visited == [(0, 1), (0, 2), (0, 3)]


def test_second_pair_refuses_a_walk_back_to_its_start(monkeypatch):
    # a broken pair graph whose forced walk leads from (0, 7) back to (0, 7)
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    start, first = pair_node(p, facets, 0, 7), pair_node(p, facets, neighbors[0][0], 7)
    other = PairNode(2, 7, PairKind.ALMOST_COMPLEMENTARY, 0)
    loop = {first: (start, other), other: (first, start)}

    def loop_arcs(p, facets, neighbors, node):
        return [PairArc(node, head, 0, frozenset()) for head in loop[node]]

    monkeypatch.setattr(pairgraph, "arcs_from", loop_arcs)
    with pytest.raises(RuntimeError, match="^walk returned to its starting pair$"):
        second_pair(p, facets, neighbors, (0, 7))


def test_disjoint_pairs_refuses_a_path_with_no_pivot(monkeypatch):
    # a path that stops short of v never meets a facet of v, so has no pivot
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    monkeypatch.setattr(pairgraph, "_shortest_path", lambda neighbors, u, v: [u])
    with pytest.raises(RuntimeError,
                       match="^no pivot on a path between complementary partners$"):
        disjoint_pairs(p, facets, neighbors, (0, 7))


def test_walks_check_simplicity_once():
    # the per-vertex facet counts behind the simplicity check are computed
    # once per catalogue: after the first walk, a catalogue whose masks can
    # be indexed but not iterated still answers every later walk
    class Unscanned(tuple):
        def __iter__(self):
            raise AssertionError("facet masks scanned again")

    for p in (cube(4), slack_embed(orc.fixture("truncated_cube"))):
        facets, neighbors = graph_inputs(p)
        starts = all_complementary_pairs(p, facets)
        expected = [walk(p, detect_facets(p), neighbors, start)
                    for walk in (second_pair, disjoint_pairs) for start in starts]
        second_pair(p, facets, neighbors, starts[0])
        facets.masks = Unscanned(facets.masks)
        assert [walk(p, facets, neighbors, start)
                for walk in (second_pair, disjoint_pairs) for start in starts] == expected


def test_walks_build_no_facet_set(monkeypatch):
    # a walk reads only each arc's head, so with every facet id set refused
    # each walk from every complementary start still gives its answer
    inputs = [(p, *graph_inputs(p))
              for p in (cube(3), cube(4), slack_embed(orc.fixture("truncated_cube")))]

    def answers():
        return [walk(p, facets, neighbors, start) for p, facets, neighbors in inputs
                for start in all_complementary_pairs(p, facets)
                for walk in (second_pair, disjoint_pairs)]

    expected = answers()

    def refuse(mask):
        raise AssertionError("a walk built a facet id set")

    monkeypatch.setattr(Facets, "ids", staticmethod(refuse))
    assert answers() == expected


def test_walks_refuse_unsupported_polytopes():
    bp = slack_embed(orc.fixture("bipyramid3"))
    facets, neighbors = graph_inputs(bp)
    with pytest.raises(UnsupportedPolytopeError, match="simple"):
        second_pair(bp, facets, neighbors, (2, 3))
    with pytest.raises(UnsupportedPolytopeError, match="simple"):
        disjoint_pairs(bp, facets, neighbors, (2, 3))
    seg = cube(1)
    facets, neighbors = graph_inputs(seg)
    with pytest.raises(UnsupportedPolytopeError, match="dimension > 1"):
        second_pair(seg, facets, neighbors, (0, 1))


# Every proper vertex subset (two or more vertices) of three fixtures, on the
# fixture's own A and b: lists the walks are not meant for.  Each outcome line
# is "<fixture> <subset> <walk> <start> -> <answer or exception>".
OUT_OF_CONTRACT = {
    "walks": 5598,
    "outcomes": {"answer": 524, "UnsupportedPolytopeError": 4964, "RuntimeError": 110},
    "sha256": "780db86619d06e2a028b1a84017043309447b44edc903c1b3bec77f429626d2f",
}


def test_walks_on_vertex_subsets_are_pinned():
    lines, outcomes = [], Counter()
    for name, h in (("cube", orc.fixture("cube", 3)),
                    ("truncated_cube", orc.fixture("truncated_cube")),
                    ("prism3", orc.fixture("prism3"))):
        full = slack_embed(h)
        for k in range(2, full.vertex_count):
            for subset in combinations(range(full.vertex_count), k):
                p = Polytope(full.A, full.b, [full.vertices[i] for i in subset])
                facets, neighbors = graph_inputs(p)
                for start in all_complementary_pairs(p, facets):
                    for walk in (second_pair, disjoint_pairs):
                        # any other exception type escapes and fails the test
                        try:
                            outcome, kind = repr(walk(p, facets, neighbors, start)), "answer"
                        except (UnsupportedPolytopeError, RuntimeError) as e:
                            kind = type(e).__name__
                            outcome = f"{kind}: {e}"
                        outcomes[kind] += 1
                        lines.append(f"{name} {subset} {walk.__name__} {start} -> {outcome}")
    assert len(lines) == OUT_OF_CONTRACT["walks"]
    assert outcomes == OUT_OF_CONTRACT["outcomes"]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == OUT_OF_CONTRACT["sha256"]


# -- shortest path -----------------------------------------------------------


def test_shortest_path_takes_the_lowest_neighbor_first():
    # a 4-cycle: 0-1-3 and 0-2-3 are both shortest; row order decides
    assert pairgraph._shortest_path([[1, 2], [0, 3], [0, 3], [1, 2]], 0, 3) == [0, 1, 3]
    assert pairgraph._shortest_path([[2, 1], [3, 0], [3, 0], [2, 1]], 0, 3) == [0, 2, 3]
    assert pairgraph._shortest_path([[1], [0]], 1, 1) == [1]


def test_shortest_path_stops_once_the_target_is_discovered():
    class Unread:
        def __iter__(self):
            raise AssertionError("row read after the target was discovered")

    # 1 discovers the target 3 before 2, in the same layer, is expanded
    assert pairgraph._shortest_path([[1, 2], [0, 3], Unread(), Unread()], 0, 3) == [0, 1, 3]


def test_shortest_path_reports_a_disconnected_graph():
    with pytest.raises(RuntimeError) as err:
        pairgraph._shortest_path([[1], [0], [3], [2]], 0, 2)
    assert str(err.value) == "polytope graph is disconnected between 0 and 2"


# -- parity -------------------------------------------------------------------


def test_parity_on_cubes():
    for d in range(2, 6):
        report = verify_2d_parity(cube(d), detect_facets(cube(d)))
        assert report.facet_count == 2 * d
        assert report.pair_count == 2 ** (d - 1)
        assert report.even and report.pairwise_disjoint


def test_parity_report_only_when_facets_not_2d():
    p = slack_embed(orc.fixture("truncated_cube"))
    report = verify_2d_parity(p, detect_facets(p))
    assert report.facet_count == 7
    assert report.pair_count == 9
    assert not report.even
    assert not report.pairwise_disjoint  # vertex 0 appears in two pairs
    # simplex: nothing to count, report still comes back
    report = verify_2d_parity(simplex(3), detect_facets(simplex(3)))
    assert (report.pair_count, report.even, report.pairwise_disjoint) == (0, True, True)


def test_parity_rejects_unsupported():
    bp = slack_embed(orc.fixture("bipyramid3"))
    with pytest.raises(UnsupportedPolytopeError, match="simple"):
        verify_2d_parity(bp, detect_facets(bp))
    seg = cube(1)
    with pytest.raises(UnsupportedPolytopeError, match="dimension > 1"):
        verify_2d_parity(seg, detect_facets(seg))


# -- dot dump -----------------------------------------------------------------


def test_to_dot_square_golden():
    p = cube(2)
    facets, neighbors = graph_inputs(p)
    assert to_dot(p, facets, neighbors) == SQUARE_DOT


def test_to_dot_cube3_mentions_nodes():
    p = cube(3)
    facets, neighbors = graph_inputs(p)
    dot = to_dot(p, facets, neighbors)
    assert '"0,7" [label="0,7:A"];' in dot
    assert '"0,6" [label="0,6:B"];' in dot
