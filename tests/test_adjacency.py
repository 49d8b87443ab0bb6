"""Fast verdicts vs the exact fallbacks, on simple and non-simple inputs."""

from itertools import combinations

import pytest

import oracles as orc
from polyadj.adjacency import (
    Verdict,
    algebraic_test,
    all_pairs_adjacency,
    combinatorial_test,
    fast_test,
    fast_verdict,
    neighbor_lists,
    precompute,
)
from polyadj.core import Polytope, ZeroSet
from polyadj.generators import bipyramid3, cube, prism3, simplex, slack_embed
from polyadj.joinmap import JoinMap, build_join_map

CUBE3_EDGES = [
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
    (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
]
PRISM3_EDGES = [
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5),
]
# all pairs except the apexes (2, 3)
BIPYRAMID3_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4),
]


def test_precompute_classifies():
    o = precompute(cube(3))
    assert (o.dim, o.simple) == (3, True)
    o = precompute(slack_embed(orc.fixture("bipyramid3")))
    assert (o.dim, o.simple) == (3, False)
    o = precompute(slack_embed(orc.fixture("truncated_cube")))
    assert (o.dim, o.simple) == (3, True)
    o = precompute(slack_embed(orc.fixture("bipyramid_simplex4")))
    assert (o.dim, o.simple) == (5, False)


def test_fast_test_cube_examples():
    p = cube(3)
    o = precompute(p)
    assert fast_test(o, 0, 1) is Verdict.ADJACENT
    # two face diagonals of the x3 = 0 facet share their intersection
    assert o.join_map.lookup(p.zero_sets[0] & p.zero_sets[6]) == 2
    assert fast_test(o, 0, 6) is Verdict.NON_ADJACENT
    assert fast_test(o, 0, 7) is Verdict.NON_ADJACENT  # antipodal


def test_fast_test_bipyramid_apexes():
    p = slack_embed(orc.fixture("bipyramid3"))
    o = precompute(p)
    # the apex pair is the unique pair with empty intersection, so its count
    # is 1; non-simple input downgrades that to indeterminate
    assert fast_test(o, 2, 3) is Verdict.INDETERMINATE
    assert combinatorial_test(p, 2, 3) is False
    assert algebraic_test(p, 2, 3) is False


def test_argument_errors():
    p = cube(2)
    o = precompute(p)
    with pytest.raises(ValueError, match="distinct"):
        fast_test(o, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        fast_test(o, 0, 4)
    with pytest.raises(ValueError, match="distinct"):
        combinatorial_test(p, 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        algebraic_test(p, -1, 0)


def test_fast_test_uses_exactly_one_lookup():
    p = cube(3)
    o = precompute(p)
    calls = []
    inner = o.join_map

    class Counting:
        def lookup(self, s):
            calls.append(s)
            return inner.lookup(s)

    o.join_map = Counting()
    fast_test(o, 0, 6)
    assert len(calls) == 1


def test_three_tests_agree_on_simple_fixtures():
    fixtures = [("cube", d) for d in (2, 3, 4)]
    fixtures += [("simplex", d) for d in (2, 3, 4, 5)]
    fixtures += [("prism3", None), ("truncated_cube", None)]
    for name, d in fixtures:
        p = slack_embed(orc.fixture(name, d))
        o = precompute(p)
        assert o.simple
        for u, v in combinations(range(p.vertex_count), 2):
            fast = fast_test(o, u, v)
            assert fast is not Verdict.INDETERMINATE
            want = fast is Verdict.ADJACENT
            assert combinatorial_test(p, u, v) == want, (name, u, v)
            assert algebraic_test(p, u, v) == want, (name, u, v)


def test_fast_filter_is_sound_on_non_simple_fixtures():
    for name in ("bipyramid3", "bipyramid_simplex4"):
        h = orc.fixture(name)
        p = slack_embed(h)
        o = precompute(p)
        assert not o.simple
        for u, v in combinations(range(p.vertex_count), 2):
            fast = fast_test(o, u, v)
            assert fast is not Verdict.ADJACENT  # never asserted when non-simple
            truth = orc.adjacent(h, u, v)
            if fast is Verdict.NON_ADJACENT:
                assert not truth, (name, u, v)
                assert not combinatorial_test(p, u, v)
            else:
                assert combinatorial_test(p, u, v) == truth
            assert algebraic_test(p, u, v) == truth


def test_all_pairs_adjacency_frozen_lists():
    assert all_pairs_adjacency(cube(3)) == CUBE3_EDGES
    assert all_pairs_adjacency(prism3()) == PRISM3_EDGES
    assert all_pairs_adjacency(slack_embed(orc.fixture("bipyramid3"))) == BIPYRAMID3_EDGES
    assert all_pairs_adjacency(simplex(4)) == list(combinations(range(5), 2))


def test_all_pairs_matches_oracle():
    for name, d in [("cube", 4), ("truncated_cube", None), ("bipyramid_simplex4", None)]:
        h = orc.fixture(name, d)
        assert all_pairs_adjacency(slack_embed(h)) == orc.edges(h), name


def test_all_pairs_accepts_precomputed_oracle():
    p = cube(3)
    o = precompute(p)
    assert all_pairs_adjacency(p, o) == CUBE3_EDGES


def test_all_pairs_refuses_an_oracle_of_another_polytope():
    # cube(3)'s edges name vertices 6 and 7, which prism3 lacks; bipyramid3's
    # pairs would run through cube(3)'s combinatorial test
    for p, q in ((prism3(), cube(3)), (cube(3), bipyramid3())):
        with pytest.raises(ValueError, match="^oracle was built for a different polytope$"):
            all_pairs_adjacency(p, precompute(q))
    c = cube(3)  # equal zero sets answer alike
    assert all_pairs_adjacency(c, precompute(Polytope(c.A, c.b, c.vertices))) == CUBE3_EDGES


def test_neighbor_lists():
    nb = neighbor_lists(8, CUBE3_EDGES)
    assert nb[0] == [1, 2, 4]
    assert nb[7] == [3, 5, 6]
    assert all(len(lst) == 3 for lst in nb)


@pytest.mark.parametrize("edge, message", [
    ((0, -1), r"vertex index -1 out of range 0\.\.2"),  # unchecked: 0 joined vertex 2's list
    ((0, 3), r"vertex index 3 out of range 0\.\.2"),
    ((1, 1), "an edge joins two distinct vertices"),
], ids=["negative", "past-last", "loop"])
def test_neighbor_lists_refuses_a_bad_edge(edge, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        neighbor_lists(3, [edge])


def test_neighbor_lists_refuses_a_repeated_edge():
    # unrefused, a walk sees the repeated move twice and blames itself (3 arcs)
    for u, v in CUBE3_EDGES:
        for again in ((u, v), (v, u)):
            with pytest.raises(ValueError, match=fr"^edge \({u}, {v}\) is listed twice$"):
                neighbor_lists(8, CUBE3_EDGES + [again])
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) is listed twice$"):  # the lowest
        neighbor_lists(3, [(2, 1), (2, 0), (1, 2), (0, 2)])


def test_unique_pairs_are_the_cube3_edges():
    assert build_join_map(cube(3)).unique_pairs() == CUBE3_EDGES


def test_unique_pairs_need_recorded_pairs():
    jm = JoinMap(3)
    jm.increment(ZeroSet(3, 1))
    with pytest.raises(ValueError, match="records no vertex pairs"):
        jm.unique_pairs()


def test_scan_products_need_no_lookup(monkeypatch):
    # simplicity and the edge list come from the count-1 pairs recorded
    # during the build, read through unique_pairs alone; only fast_test
    # looks a join up
    def no_lookup(self, s):
        raise AssertionError("lookup called")

    calls = []
    unique_pairs = JoinMap.unique_pairs

    def counted(self):
        calls.append(self)
        return unique_pairs(self)

    monkeypatch.setattr(JoinMap, "lookup", no_lookup)
    monkeypatch.setattr(JoinMap, "unique_pairs", counted)
    for name, d, dim, simple, edge_count in (
        ("cube", 4, 4, True, 32),
        ("truncated_cube", None, 3, True, 15),
        ("bipyramid3", None, 3, False, 9),
    ):
        h = orc.fixture(name, d)
        p = slack_embed(h)
        calls.clear()
        o = precompute(p)
        assert calls == [o.join_map]
        assert (o.dim, o.simple) == (dim, simple)
        edges = all_pairs_adjacency(p, o)
        assert calls == [o.join_map] * 2
        assert edges == orc.edges(h) and len(edges) == edge_count
        assert all_pairs_adjacency(p) == edges


def test_pair_queries_build_no_zero_set(monkeypatch):
    # after precompute, every pair query runs on the polytope's int zero-set
    # masks; ZeroSet objects are built only where a caller asks for one
    cases = []
    for name, d in (("cube", 3), ("prism3", None), ("bipyramid3", None), ("truncated_cube", None)):
        p = slack_embed(orc.fixture(name, d))
        o = precompute(p)
        pairs = list(combinations(range(p.vertex_count), 2))
        pairs += [(v, u) for u, v in pairs]
        cases.append((p, o, pairs))

    def answers(p, o, pairs):
        return [(fast_verdict(o, u, v), fast_test(o, u, v), combinatorial_test(p, u, v),
                 algebraic_test(p, u, v)) for u, v in pairs]

    want = [answers(*case) for case in cases]

    def no_zero_set(self):
        raise AssertionError("ZeroSet built")

    monkeypatch.setattr(ZeroSet, "__post_init__", no_zero_set)
    assert [answers(*case) for case in cases] == want


def test_oracle_dim_follows_its_polytope():
    o = precompute(cube(3))
    assert o.dim == 3
    o.polytope = cube(4)
    assert o.dim == 4
    assert repr(o) == "AdjacencyOracle(dim=4, simple=True)"


def test_oracle_reads_one_polytope():
    # the zero sets and the masks a query reads both come from the oracle's
    # polytope, so reassigning its fields leaves nothing stale
    p, q = cube(3), prism3()
    o, other = precompute(p), precompute(q)
    assert o.polytope is p and o.zero_sets is p.zero_sets
    o.join_map = build_join_map(p)
    assert [fast_verdict(o, 0, v) for v in range(1, 8)] == [
        (Verdict.ADJACENT, 1), (Verdict.ADJACENT, 1), (Verdict.NON_ADJACENT, 2),
        (Verdict.ADJACENT, 1), (Verdict.NON_ADJACENT, 2), (Verdict.NON_ADJACENT, 2),
        (Verdict.NON_ADJACENT, 4),
    ]
    o.join_map, o.polytope = other.join_map, q
    assert o.zero_sets is q.zero_sets
    for u, v in combinations(range(q.vertex_count), 2):
        assert fast_verdict(o, u, v) == fast_verdict(other, u, v)
    with pytest.raises(ValueError, match=r"vertex index 6 out of range 0\.\.5"):
        fast_verdict(o, 0, 6)


def _product_edges(p_edges, p_count, q_edges, q_count):
    """Edges of P x Q, vertex i * |V_Q| + j the pair (i, j): j moves along a
    Q edge with i kept, or i along a P edge with j kept."""
    edges = {(i * q_count + j, i * q_count + k) for i in range(p_count) for j, k in q_edges}
    edges |= {(i * q_count + j, k * q_count + j) for i, k in p_edges for j in range(q_count)}
    return sorted(edges)


def test_edge_list_settles_count1_pairs_as_the_combinatorial_test():
    cases = [(slack_embed(orc.fixture(name)), orc.edges(orc.fixture(name)))
             for name in ("bipyramid3", "bipyramid_simplex4")]
    base = orc.fixture("bipyramid3")
    for k in (2, 3):
        q = cube(k)
        want = _product_edges(orc.edges(base), len(base.vertices),
                              orc.edges(orc.fixture("cube", k)), q.vertex_count)
        cases.append((orc.product_polytope(slack_embed(base), q), want))
    for p, want in cases:
        o = precompute(p)
        assert not o.simple
        edges = all_pairs_adjacency(p, o)
        assert edges == [pair for pair in o.join_map.unique_pairs() if combinatorial_test(p, *pair)]
        assert edges == want


def test_edge_list_agrees_with_the_combinatorial_test_off_contract():
    # vertex lists the contract excludes (an extra edge midpoint, a missing
    # vertex): whatever the edges come to, each pair is settled as the
    # combinatorial test settles it
    c = cube(3)
    midpoint = tuple((x + y) / 2 for x, y in zip(c.vertices[0], c.vertices[1]))
    for vertices in ([*c.vertices, midpoint], c.vertices[:-1]):
        p = Polytope(c.A, c.b, vertices)
        assert not precompute(p).simple
        edges = set(all_pairs_adjacency(p))
        for u, v in combinations(range(p.vertex_count), 2):
            assert ((u, v) in edges) == combinatorial_test(p, u, v), (len(vertices), u, v)
