"""The public surface: each name is declared once, in the module that defines it."""

import polyadj
from polyadj import adjacency, core, fileio, generators, joinmap, pairgraph

MODULES = (adjacency, core, fileio, generators, joinmap, pairgraph)

PUBLIC = [
    "AdjacencyOracle", "Facet", "Facets", "HPolytope", "JoinMap", "PairArc", "PairKind",
    "PairNode", "ParityReport", "Polytope", "UnsupportedPolytopeError", "ValidationError",
    "Verdict", "ZeroSet", "algebraic_test", "all_complementary_pairs", "all_pairs_adjacency",
    "arcs_from", "bipyramid3", "build_join_map", "classify_pair", "combinatorial_test", "cube",
    "detect_facets", "disjoint_pairs", "face_dimension", "face_vertices", "fast_test",
    "format_polytope", "is_complementary", "is_simple", "neighbor_lists", "pair_node",
    "parse_polytope", "precompute", "prism3", "rank", "second_pair", "simplex", "slack_embed",
    "to_dot", "truncated_cube", "verify_2d_parity",
]


def test_each_module_lists_only_what_it_defines():
    listed = [name for m in MODULES for name in m.__all__]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    for m in MODULES:
        for name in m.__all__:
            assert getattr(m, name).__module__ == m.__name__, f"{m.__name__}.{name} is imported"


def test_package_reexports_exactly_the_module_lists():
    assert sorted(name for m in MODULES for name in m.__all__) == polyadj.__all__ == PUBLIC
    for m in MODULES:
        for name in m.__all__:
            assert getattr(polyadj, name) is getattr(m, name)
    namespace = {}
    exec("from polyadj import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC
