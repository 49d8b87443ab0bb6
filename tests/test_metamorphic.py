"""Metamorphic checks on the fixtures: relabelling the vertices, permuting the
coordinates, or rewriting ``Ax = b`` by invertible rational row operations
with one redundant row appended leaves every answer the same, read through
the vertex relabelling.  Walk answers depend on vertex indices, so walks are
checked by their properties instead.  Every transform is seeded.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from random import Random

import pytest

from polyadj.adjacency import (
    algebraic_test, all_pairs_adjacency, combinatorial_test, fast_test, neighbor_lists, precompute,
)
from polyadj.core import Polytope, UnsupportedPolytopeError, detect_facets, is_simple
from polyadj.generators import bipyramid3, cube, prism3, simplex, truncated_cube
from polyadj.pairgraph import all_complementary_pairs, disjoint_pairs, second_pair

FIXTURES = {"cube3": lambda: cube(3), "cube4": lambda: cube(4), "simplex3": lambda: simplex(3),
            "prism3": prism3, "bipyramid3": bipyramid3, "truncated_cube": truncated_cube}
SEEDS = range(5)


def _rational(rng: Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))


def _relabel_vertices(p: Polytope, rng: Random) -> tuple[Polytope, list[int], int]:
    order = rng.sample(range(p.vertex_count), p.vertex_count)
    return Polytope(p.A, p.b, [p.vertices[w] for w in order]), order, 0


def _permute_coordinates(p: Polytope, rng: Random) -> tuple[Polytope, list[int], int]:
    cols = rng.sample(range(p.n), p.n)
    return (Polytope([[row[c] for c in cols] for row in p.A], p.b,
                     [[x[c] for c in cols] for x in p.vertices]),
            list(range(p.vertex_count)), 0)


def _row_operations(p: Polytope, rng: Random) -> tuple[Polytope, list[int], int]:
    """Rows ``[A | b]`` under 2m random elementary operations (scale by a
    nonzero rational, add a multiple of another row, swap), then one appended
    row: a rational combination of the others."""
    rows = [[*row, rhs] for row, rhs in zip(p.A, p.b)]
    for _ in range(2 * p.m):
        i, j, c = rng.randrange(p.m), rng.randrange(p.m), _rational(rng)
        if i == j:
            rows[i] = [c * x for x in rows[i]]
        elif rng.random() < 0.5:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    weights = [_rational(rng) for _ in rows]
    rows.append([sum(w * x for w, x in zip(weights, col)) for col in zip(*rows)])
    return (Polytope([row[:-1] for row in rows], [row[-1] for row in rows], p.vertices),
            list(range(p.vertex_count)), 1)


def _facts(p: Polytope) -> dict:
    """Every answer but the walks'."""
    facets, oracle = detect_facets(p), precompute(p)
    edges = all_pairs_adjacency(p, oracle)
    assert edges == sorted(edges)  # ascending in every vertex order, with no sort
    return {
        "info": (p.n, p.m, p.vertex_count, p.dimension, len(facets), is_simple(p, facets)),
        "facets": {facets[f].vertex_indices for f in range(len(facets))},
        "edges": set(edges),
        "complementary": set(all_complementary_pairs(p, facets)),
        "tests": {(u, v): (fast_test(oracle, u, v), combinatorial_test(p, u, v),
                           algebraic_test(p, u, v))
                  for u, v in combinations(range(p.vertex_count), 2)},
    }


def _mapped(facts: dict, order: list[int], extra_rows: int) -> dict:
    """``facts`` of a transformed polytope, on the vertex indices of the
    original: its vertex w is the original's ``order[w]``."""
    def pair(u, v):
        return tuple(sorted((order[u], order[v])))

    n, m, *rest = facts["info"]
    return {
        "info": (n, m - extra_rows, *rest),
        "facets": {frozenset(order[w] for w in s) for s in facts["facets"]},
        "edges": {pair(*e) for e in facts["edges"]},
        "complementary": {pair(*e) for e in facts["complementary"]},
        "tests": {pair(*e): verdicts for e, verdicts in facts["tests"].items()},
    }


@cache
def _fixture_facts(name: str) -> dict:
    return _facts(FIXTURES[name]())


def _check_walks(p: Polytope) -> int:
    """Walks from every complementary start; returns how many starts."""
    facets = detect_facets(p)
    neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
    starts, simple = all_complementary_pairs(p, facets), is_simple(p, facets)
    for start in starts:
        if not simple:
            for walk in (second_pair, disjoint_pairs):
                with pytest.raises(UnsupportedPolytopeError):
                    walk(p, facets, neighbors, start)
            continue
        found = second_pair(p, facets, neighbors, start)
        anchor, other = disjoint_pairs(p, facets, neighbors, start)
        masks = facets.masks  # each pair complementary: on no common facet
        assert all(not masks[u] & masks[v] for u, v in (found, anchor, other))
        assert set(found) != set(start) and len({*anchor, *other}) == 4
    return len(starts)


@pytest.mark.parametrize("transform", [_relabel_vertices, _permute_coordinates, _row_operations],
                         ids=lambda t: t.__name__.lstrip("_"))
@pytest.mark.parametrize("name", FIXTURES)
def test_answers_map_through_the_transform(name, transform):
    p = FIXTURES[name]()
    for seed in SEEDS:
        q, order, extra_rows = transform(p, Random(seed))
        assert q.m == p.m + extra_rows
        assert _mapped(_facts(q), order, extra_rows) == _fixture_facts(name)
        assert _check_walks(q) == len(_fixture_facts(name)["complementary"])
