"""The main theorem on the benchmark's scalable families, against their own
combinatorial oracles.

``perfbench/workloads.py`` builds dual cyclic polytopes and prism products
from their inequalities without importing polyadj, and derives edges and
complementary pairs from the combinatorics of each family (Gale evenness,
factor-wise products).  It is loaded read-only, by path.
"""

import importlib.util
import sys
from itertools import combinations
from pathlib import Path

import pytest

from polyadj.adjacency import all_pairs_adjacency, neighbor_lists
from polyadj.core import detect_facets
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

# family, complementary-pair count (C_d(2d)*: 2, 2, 6, 6, 20 for d = 2..6)
FAMILIES = {f"dual_cyclic({d})": (lambda d=d: wl.dual_cyclic(d), count)
            for d, count in zip(range(2, 7), (2, 2, 6, 6, 20))}
FAMILIES["dual_cyclic(3) x cube(2)"] = (lambda: wl.prism_product(wl.dual_cyclic(3), wl.cube(2)), 8)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def embedded(request):
    """(family, image, facets, neighbors, image label -> family label, pair count)."""
    build, count = FAMILIES[request.param]
    f = build()
    p = slack_embed(HPolytope(f.normals, f.offsets, f.vertices))
    label = {wl.slack(f, x): k for k, x in enumerate(f.vertices)}
    to_family = [label[v] for v in p.vertices]
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
