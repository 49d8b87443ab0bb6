"""The main theorem on the benchmark's scalable families, against their own
combinatorial oracles, and on vertex truncations, against brute force.

``perfbench/workloads.py`` builds dual cyclic polytopes and prism products
from their inequalities without importing polyadj, and derives edges and
complementary pairs from the combinatorics of each family (Gale evenness,
factor-wise products).  It is loaded read-only, by path.
"""

import importlib.util
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles as orc
from polyadj.adjacency import all_pairs_adjacency, neighbor_lists, precompute
from polyadj.core import UnsupportedPolytopeError, detect_facets, is_simple
from polyadj.generators import HPolytope, slack_embed
from polyadj.pairgraph import (
    PairKind,
    all_complementary_pairs,
    arcs_from,
    disjoint_pairs,
    pair_node,
    second_pair,
    verify_2d_parity,
)

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
wl = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = wl  # dataclasses look their module up while building
_spec.loader.exec_module(wl)

# family, complementary-pair count (C_d(2d)*: 2, 2, 6, 6, 20, 20 for d = 2..7)
FAMILIES = {f"dual_cyclic({d})": (lambda d=d: wl.dual_cyclic(d), count)
            for d, count in zip(range(2, 8), (2, 2, 6, 6, 20, 20))}
FAMILIES["dual_cyclic(3) x cube(2)"] = (lambda: wl.prism_product(wl.dual_cyclic(3), wl.cube(2)), 8)


def _embed(f):
    """Image of family ``f`` and, for each image vertex, its label in ``f``."""
    p = slack_embed(HPolytope(f.normals, f.offsets, f.vertices))
    label = {wl.slack(f, x): k for k, x in enumerate(f.vertices)}
    return p, [label[v] for v in p.vertices]


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def embedded(request):
    """(family, image, facets, neighbors, image label -> family label, pair count)."""
    build, count = FAMILIES[request.param]
    f = build()
    p, to_family = _embed(f)
    neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
    return f, p, detect_facets(p), neighbors, to_family, count


def _relabel(pairs, to_family):
    return {tuple(sorted((to_family[u], to_family[v]))) for u, v in pairs}


def test_edges_and_complementary_pairs_match_the_family(embedded):
    f, p, facets, neighbors, to_family, count = embedded
    assert p.dimension == len(f.vertices[0])
    assert len(facets) == f.facets
    assert _relabel(all_pairs_adjacency(p), to_family) == f.edges
    assert _relabel(all_complementary_pairs(p, facets), to_family) == f.complementary
    assert len(f.complementary) == count


def test_walks_from_every_complementary_start(embedded):
    f, p, facets, neighbors, to_family, count = embedded
    pairs = all_complementary_pairs(p, facets)
    for start in pairs:
        found = second_pair(p, facets, neighbors, start)
        assert found != start and found in pairs
        first, second = disjoint_pairs(p, facets, neighbors, start)
        assert first in pairs and second in pairs
        assert len({*first, *second}) == 4


def test_parity_law(embedded):
    f, p, facets, neighbors, to_family, count = embedded
    report = verify_2d_parity(p, facets)
    assert report.facet_count == 2 * p.dimension
    assert report.pair_count == count
    assert report.even and report.pairwise_disjoint


def test_arc_counts_on_every_node(embedded):
    f, p, facets, neighbors, to_family, count = embedded
    _check_arcs(p, facets, neighbors)


@pytest.mark.parametrize("k", [2, 3])
def test_non_simple_products_take_the_fallback(k):
    # bipyramid3 x cube(k): equator vertices lie on 4 + k facets
    f = wl.prism_product(wl.bipyramid3(), wl.cube(k))
    p, to_family = _embed(f)
    facets = detect_facets(p)
    assert _relabel(all_pairs_adjacency(p), to_family) == f.edges
    pairs = all_complementary_pairs(p, facets)
    assert _relabel(pairs, to_family) == f.complementary
    assert not precompute(p).simple
    neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
    for walk in (second_pair, disjoint_pairs):
        with pytest.raises(UnsupportedPolytopeError, match="simple"):
            walk(p, facets, neighbors, pairs[0])
    with pytest.raises(UnsupportedPolytopeError, match="simple"):
        verify_2d_parity(p, facets)


def _simplex(a):
    """The simplex x >= 0, sum x <= 1 in R^a.  Every vertex pair is an edge,
    and each vertex misses one of the a + 1 facets, so only the segment
    (a = 1) has a complementary pair."""
    zero, one = (Fraction(0),) * a, (Fraction(1),) * a
    unit = tuple(zero[:i] + one[:1] + zero[i + 1:] for i in range(a))
    normals = tuple(tuple(-x for x in e) for e in unit) + (one,)
    return wl.Family(f"simplex{a}", normals, zero + one[:1], (zero, *unit),
                     frozenset(combinations(range(a + 1), 2)),
                     frozenset({(0, 1)} if a == 1 else ()), True, a + 1)


# a square, then n = 8 coordinates fixed while V grows 12 -> 15 -> 16
@pytest.mark.parametrize("a, b", [(1, 1), (1, 5), (2, 4), (3, 3)])
def test_simplex_products(a, b):
    f = wl.prism_product(_simplex(a), _simplex(b))
    p, to_family = _embed(f)
    facets = detect_facets(p)
    edges = all_pairs_adjacency(p)
    pairs = all_complementary_pairs(p, facets)
    assert (p.n, p.vertex_count) == (a + b + 2, (a + 1) * (b + 1))
    assert _relabel(edges, to_family) == f.edges
    assert _relabel(pairs, to_family) == f.complementary
    assert len(pairs) == (2 if a == b == 1 else 0)
    assert (len(facets), p.dimension) == (a + b + 2, a + b)
    assert is_simple(p, facets) and precompute(p).simple
    report = verify_2d_parity(p, facets)
    assert (report.facet_count, report.pair_count) == (a + b + 2, len(pairs))
    assert report.even and report.pairwise_disjoint
    neighbors = neighbor_lists(p.vertex_count, edges)
    _check_arcs(p, facets, neighbors)
    for start in pairs:  # the square's two diagonals
        other = next(q for q in pairs if q != start)
        assert second_pair(p, facets, neighbors, start) == other
        assert sorted(disjoint_pairs(p, facets, neighbors, start)) == pairs


def _check_arcs(p, facets, neighbors):
    d = p.dimension
    for u, v in combinations(range(p.vertex_count), 2):
        node = pair_node(p, facets, u, v)
        if node.kind is PairKind.EXCLUDED:
            continue
        arcs = arcs_from(p, facets, neighbors, node)
        sets = {a.facet_set for a in arcs}
        if node.kind is PairKind.COMPLEMENTARY:
            assert (len(arcs), len(sets)) == (2 * d, 2 * d)
        else:
            assert (len(arcs), len(sets)) == (2, 1)


# -- vertex truncations -------------------------------------------------------

STARTS = {"cube(3)": ("cube", 3), "simplex(3)": ("simplex", 3), "prism3": ("prism3", None)}


def _truncate(h: HPolytope, u: int) -> HPolytope:
    """Cut vertex ``u`` off ``h`` by the plane through the points at t = 1/3
    along its edges; on a simple polytope that plane separates ``u`` from
    every other vertex, so the cut adds one facet and d vertices."""
    x = h.vertices[u]
    cuts = [tuple(a + (b - a) / 3 for a, b in zip(x, h.vertices[w]))
            for pair in orc.edges(h) if u in pair for w in pair if w != u]
    assert len(cuts) == h.dim
    rows = [[sympy.Rational(str(a - b)) for a, b in zip(q, cuts[0])] for q in cuts[1:]]
    (normal,) = sympy.Matrix(rows).nullspace()
    c = [Fraction(int(e.p), int(e.q)) for e in normal]
    gamma = sum(a * b for a, b in zip(c, cuts[0]))
    if sum(a * b for a, b in zip(c, x)) < gamma:  # orient so that u is cut off
        c, gamma = [-a for a in c], -gamma
    verts = [v for k, v in enumerate(h.vertices) if k != u] + cuts
    return HPolytope((*h.normals, tuple(c)), (*h.offsets, gamma), tuple(verts))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(STARTS)), st.lists(st.integers(0, 99), min_size=1, max_size=3))
def test_main_theorem_on_vertex_truncations(start, picks):
    h = orc.fixture(*STARTS[start])
    for pick in picks:
        h = _truncate(h, pick % len(h.vertices))
    h = orc.sorted_by_slack(h)  # vertex k of h is vertex k of the image
    p = slack_embed(h)
    facets = detect_facets(p)
    edges = all_pairs_adjacency(p)
    pairs = all_complementary_pairs(p, facets)
    assert edges == orc.edges(h)
    assert pairs == orc.complementary_pairs(h)
    neighbors = neighbor_lists(p.vertex_count, edges)
    for start_pair in pairs:
        found = second_pair(p, facets, neighbors, start_pair)
        assert found != start_pair and found in pairs
        first, second = disjoint_pairs(p, facets, neighbors, start_pair)
        assert first in pairs and second in pairs
        assert len({*first, *second}) == 4
    _check_arcs(p, facets, neighbors)
