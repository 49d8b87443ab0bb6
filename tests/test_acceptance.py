"""End-to-end acceptance checks. Each test prints one PASS line; run with
``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the lines inline)."""

import random
import time
from itertools import combinations

import oracles as orc
from polyadj.adjacency import (
    Verdict,
    algebraic_test,
    all_pairs_adjacency,
    combinatorial_test,
    fast_test,
    neighbor_lists,
    precompute,
)
from polyadj.core import ZeroSet, detect_facets
from polyadj.generators import bipyramid3, cube, prism3, simplex, slack_embed, truncated_cube
from polyadj.joinmap import build_join_map
from polyadj.pairgraph import (
    PairKind,
    all_complementary_pairs,
    arcs_from,
    classify_pair,
    disjoint_pairs,
    pair_node,
    second_pair,
    verify_2d_parity,
)


def ok(label: str) -> None:
    print(f"PASS {label}")


def test_complementary_pair_counts():
    start = time.monotonic()
    cases = [
        (cube(3), [(0, 7), (1, 6), (2, 5), (3, 4)]),
        (truncated_cube(), [(0, 8), (0, 9), (1, 8), (2, 7), (2, 9), (3, 7),
                            (4, 5), (4, 6), (5, 9)]),
        (bipyramid3(), [(2, 3)]),
        (prism3(), []),
    ]
    for p, want in cases:
        assert all_complementary_pairs(p, detect_facets(p)) == want
    for d in range(2, 7):
        p = simplex(d)
        assert all_complementary_pairs(p, detect_facets(p)) == []
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"count sweep took {elapsed:.2f}s"
    ok(f"complementary-pair counts: cube 4, truncated cube 9, bipyramid 1, "
       f"prism 0, simplices 0 ({elapsed:.2f}s)")


def test_adjacency_oracles_agree_on_simple_polytopes():
    start = time.monotonic()
    fixtures = [cube(d) for d in range(2, 6)]
    fixtures += [simplex(d) for d in range(2, 7)]
    fixtures += [prism3(), truncated_cube()]
    pairs_checked = 0
    for p in fixtures:
        o = precompute(p)
        assert o.simple
        for u, v in combinations(range(p.vertex_count), 2):
            fast = fast_test(o, u, v)
            assert fast is not Verdict.INDETERMINATE
            want = fast is Verdict.ADJACENT
            assert combinatorial_test(p, u, v) == want
            assert algebraic_test(p, u, v) == want
            pairs_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"equivalence sweep took {elapsed:.2f}s"
    ok(f"three adjacency tests agree on {pairs_checked} pairs across "
       f"cubes to d=5, simplices to d=6, prism, truncated cube ({elapsed:.2f}s)")


def test_fast_filter_sound_on_non_simple_polytopes():
    checked = 0
    for name in ("bipyramid3", "bipyramid_simplex4"):
        h = orc.fixture(name)
        p = slack_embed(h)
        o = precompute(p)
        assert not o.simple
        for u, v in combinations(range(p.vertex_count), 2):
            fast = fast_test(o, u, v)
            assert fast is not Verdict.ADJACENT
            if fast is Verdict.NON_ADJACENT:
                assert not combinatorial_test(p, u, v)
                assert not orc.adjacent(h, u, v)
            else:
                assert combinatorial_test(p, u, v) == orc.adjacent(h, u, v)
            checked += 1
    ok(f"fast filter sound on non-simple bipyramids ({checked} pairs, "
       "never a false ADJACENT)")


def test_constructive_walks_find_second_and_disjoint_pairs():
    for p in (cube(3), cube(4), truncated_cube()):
        facets = detect_facets(p)
        neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
        pairs = all_complementary_pairs(p, facets)
        for pair in pairs:
            # the walk itself raises as soon as it revisits a pair, and a
            # forced walk that never repeats ends, so returning is the proof
            found = second_pair(p, facets, neighbors, pair)
            assert found != pair and found in pairs
            first, second = disjoint_pairs(p, facets, neighbors, pair)
            assert first in pairs and second in pairs
            assert len({*first, *second}) == 4
    ok("walks from every complementary pair of cube(3), cube(4), truncated "
       "cube reach a second pair and a disjoint pair within budget")


def test_pair_graph_arc_structure():
    nodes_checked = 0
    for p in (cube(3), cube(4)):
        d = p.dimension
        facets = detect_facets(p)
        neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
        for u, v in combinations(range(p.vertex_count), 2):
            kind = classify_pair(p, facets, u, v)
            if kind is PairKind.EXCLUDED:
                continue
            arcs = arcs_from(p, facets, neighbors, pair_node(p, facets, u, v))
            assert all(len(a.facet_set) == 2 * d - 1 for a in arcs)
            if kind is PairKind.COMPLEMENTARY:
                assert len(arcs) == 2 * d
                assert len({a.head.pair for a in arcs}) == 2 * d
                assert len({a.facet_set for a in arcs}) == 2 * d
            else:
                assert len(arcs) == 2
                assert arcs[0].facet_set == arcs[1].facet_set
            nodes_checked += 1
    ok(f"arc structure verified on all {nodes_checked} pair-graph nodes of "
       "cube(3) and cube(4)")


def test_parity_on_cubes():
    for d in range(2, 6):
        p = cube(d)
        report = verify_2d_parity(p, detect_facets(p))
        assert report.facet_count == 2 * d
        assert report.pair_count == 2 ** (d - 1)
        assert report.even and report.pairwise_disjoint
    ok("2d-facet parity holds on cubes d=2..5 with 2^(d-1) disjoint pairs")


def test_trie_contract_on_cube4():
    p = cube(4)
    jm = build_join_map(p)
    flat: dict[int, int] = {}
    for u, v in combinations(range(p.vertex_count), 2):
        bits = (p.zero_sets[u] & p.zero_sets[v]).bits
        flat[bits] = flat.get(bits, 0) + 1
    assert sum(flat.values()) == 120  # C(16, 2)
    assert jm.pair_total == 120
    assert sum(c for _, c in jm.items()) == 120

    rng = random.Random(20260813)
    absent = []
    while len(absent) < 100:
        bits = rng.randrange(2 ** p.n)
        if bits not in flat:
            absent.append(bits)
    for bits in list(flat) + absent:
        assert jm.lookup(ZeroSet(p.n, bits)) == flat.get(bits, 0)
    ok("cube(4) trie: counts sum to 120, flat-dict "
       "agreement on all stored and 100 absent sets")


def test_precompute_classification():
    o = precompute(cube(3))
    assert (o.dim, o.simple) == (3, True)
    o = precompute(bipyramid3())
    assert (o.dim, o.simple) == (3, False)
    for d in range(2, 6):
        o = precompute(cube(d))
        assert (o.dim, o.simple) == (d, True)
    ok("precompute classifies cube(3) simple, bipyramid non-simple, "
       "cube(d) d=2..5 as (d, simple)")
