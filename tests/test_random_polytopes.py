"""Random H-polytopes through ``slack_embed``, checked against the brute-force
oracles.  Each starts as the standard d-simplex (d = 3 or 4) and is cut by
2-5 integer normals, each at an offset strictly between the normal's least and
greatest value on the current vertices.  The vertices are the feasible exact
solutions of d rows, found cut by cut; a row whose tight set is not a facet,
or repeats an earlier row's, is dropped.  Random cuts almost never pass
through a vertex, so most of these polytopes are simple, and the walks run on
every one that is.
"""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import oracles as orc
from polyadj.adjacency import all_pairs_adjacency, neighbor_lists, precompute
from polyadj.core import Facets, detect_facets, is_simple
from polyadj.generators import HPolytope, slack_embed
from polyadj.pairgraph import all_complementary_pairs, disjoint_pairs, second_pair

SEED, COUNT = 1, 16


def _solve(rows: list[tuple], rhs: list[Fraction]) -> tuple[Fraction, ...] | None:
    """The one x with ``rows x = rhs`` (square), by Gauss-Jordan over
    ``Fraction``; None when the rows are dependent."""
    m = [[Fraction(a) for a in row] + [Fraction(g)] for row, g in zip(rows, rhs)]
    size = len(m)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return tuple(row[-1] for row in m)


def _dot(row: tuple, x: tuple) -> Fraction:
    return sum(a * xi for a, xi in zip(row, x))


def _cut(normals: list[tuple], offsets: list[Fraction], vertices: list[tuple]) -> list[tuple]:
    """The vertices once the last row is added: the old ones it keeps, then the
    feasible solutions of it with every d - 1 earlier rows, each once."""
    d, (c, g) = len(normals[0]), (normals[-1], offsets[-1])
    found = dict.fromkeys(v for v in vertices if _dot(c, v) <= g)
    for rows in combinations(range(len(normals) - 1), d - 1):
        x = _solve([normals[j] for j in (*rows, -1)], [offsets[j] for j in (*rows, -1)])
        if x is not None and all(_dot(row, x) <= h for row, h in zip(normals, offsets)):
            found.setdefault(x)
    return list(found)


def _random_hpolytope(rng: Random) -> HPolytope:
    d = rng.choice((3, 4))
    normals = [tuple(-(j == i) for j in range(d)) for i in range(d)] + [(1,) * d]
    offsets = [Fraction(0)] * d + [Fraction(1)]
    vertices = [tuple(Fraction(j == i) for j in range(d)) for i in range(-1, d)]  # 0, e_1..e_d
    for _ in range(rng.randint(2, 5)):
        c = (0,) * d
        while not any(c):
            c = tuple(rng.randint(-3, 3) for _ in range(d))
        values = [_dot(c, v) for v in vertices]
        lo, hi = min(values), max(values)  # lo < hi: the vertices span dimension d
        normals.append(c)
        offsets.append(lo + (hi - lo) * Fraction(rng.randint(1, 9), 10))
        vertices = _cut(normals, offsets, vertices)
    kept, seen = [], []
    for row, g in zip(normals, offsets):
        tight = frozenset(k for k, v in enumerate(vertices) if _dot(row, v) == g)
        if tight not in seen and orc.affine_dim([vertices[k] for k in tight]) == d - 1:
            kept.append((row, g))
        seen.append(tight)
    return orc.sorted_by_slack(HPolytope(tuple(row for row, _ in kept),
                                         tuple(g for _, g in kept), tuple(vertices)))


@pytest.fixture(scope="module")
def polytopes() -> list[HPolytope]:
    rng = Random(SEED)
    return [_random_hpolytope(rng) for _ in range(COUNT)]


def test_answers_match_the_oracles(polytopes):
    simple_count = 0
    for h in polytopes:
        p = slack_embed(h)
        facets, oracle = detect_facets(p), precompute(p)
        assert all_pairs_adjacency(p, oracle) == orc.edges(h)  # as lists: the order too
        assert all_complementary_pairs(p, facets) == orc.complementary_pairs(h)
        facet_sets = orc.facet_vertex_sets(h)
        assert len(facets) == len(facet_sets) == len(h.normals)
        on_d_facets = all(sum(k in fs for fs in facet_sets) == h.dim
                          for k in range(len(h.vertices)))
        assert is_simple(p, facets) == oracle.simple == on_d_facets
        simple_count += on_d_facets
    assert simple_count >= COUNT // 2


def test_complementary_pairs_are_their_definition(polytopes):
    # as lists, so the order counts: every pair u < v whose facet masks meet nowhere
    for h in polytopes:
        p = slack_embed(h)
        facets = detect_facets(p)
        masks = facets.masks
        want = [(u, v) for u, v in combinations(range(p.vertex_count), 2)
                if not masks[u] & masks[v]]
        assert all_complementary_pairs(p, facets) == want


def test_walks_from_every_complementary_start(polytopes):
    walks = 0
    for h in polytopes:
        p = slack_embed(h)
        facets = detect_facets(p)
        if not is_simple(p, facets):
            continue
        neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
        for start in all_complementary_pairs(p, facets):
            found = second_pair(p, facets, neighbors, start)
            anchor, other = disjoint_pairs(p, facets, neighbors, start)
            masks = facets.masks  # each pair complementary: on no common facet
            assert all(not masks[u] & masks[v] for u, v in (found, anchor, other))
            assert set(found) != set(start) and len({*anchor, *other}) == 4
            walks += 1
    assert walks > 0


def test_walks_build_no_facet_set(polytopes, monkeypatch):
    # a walk reads only each arc's head, so with every facet id set refused
    # each walk from every complementary start still gives its answer
    inputs = []
    for h in polytopes:
        p = slack_embed(h)
        facets = detect_facets(p)
        if is_simple(p, facets):
            inputs.append((p, facets, neighbor_lists(p.vertex_count, all_pairs_adjacency(p))))

    def answers():
        return [walk(p, facets, neighbors, start) for p, facets, neighbors in inputs
                for start in all_complementary_pairs(p, facets)
                for walk in (second_pair, disjoint_pairs)]

    expected = answers()

    def refuse(mask):
        raise AssertionError("a walk built a facet id set")

    monkeypatch.setattr(Facets, "ids", staticmethod(refuse))
    assert expected and answers() == expected
