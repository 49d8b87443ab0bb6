"""The main theorem on the benchmark's scalable families, against their own
combinatorial oracles, and on vertex truncations, against brute force.

``perfbench/workloads.py`` builds dual cyclic polytopes and prism products
from their inequalities without importing polyadj, and derives edges and
complementary pairs from the combinatorics of each family (Gale evenness,
factor-wise products).  It is loaded read-only, by path.  The set-up path
(parse, embedding) is checked on the benchmark's own inputs too.
"""

import hashlib
import importlib.util
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles as orc
from polyadj import fileio
from polyadj.adjacency import all_pairs_adjacency, combinatorial_test, neighbor_lists, precompute
from polyadj.core import (
    Facets, Polytope, UnsupportedPolytopeError, ValidationError, detect_facets, is_simple,
)
from polyadj.fileio import format_polytope, parse_polytope
from polyadj.generators import (
    _GENERATORS, HPolytope, bipyramid3, cube, prism3, slack_embed, truncated_cube,
)
from polyadj.pairgraph import (
    PairKind,
    all_complementary_pairs,
    arcs_from,
    disjoint_pairs,
    pair_node,
    second_pair,
    to_dot,
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


def test_complementary_pairs_are_their_definition(embedded):
    # as lists, so the order counts: every pair u < v whose facet masks meet nowhere
    f, p, facets, neighbors, to_family, count = embedded
    masks = facets.masks
    want = [(u, v) for u, v in combinations(range(p.vertex_count), 2) if not masks[u] & masks[v]]
    assert all_complementary_pairs(p, facets) == want


def test_arc_counts_on_every_node(embedded):
    f, p, facets, neighbors, to_family, count = embedded
    _check_arcs(p, facets, neighbors)


def test_arc_facet_sets_read_off_their_masks(embedded):
    # each arc's facet set is the facets of its kept vertex and of its moved
    # edge, listed from the mask the arc holds
    f, p, facets, neighbors, to_family, count = embedded
    for u, v in combinations(range(p.vertex_count), 2):
        node = pair_node(p, facets, u, v)
        if node.kind is PairKind.EXCLUDED:
            continue
        for arc in arcs_from(p, facets, neighbors, node):
            (stay,) = {u, v} - {arc.moved_vertex}
            (x,) = set(arc.head.pair) - {stay}
            want = facets.of_vertex(stay) | (facets.of_vertex(arc.moved_vertex)
                                             & facets.of_vertex(x))
            assert arc.facet_set == Facets.ids(arc.facet_mask) == want


# start -> (second_pair, second pair of disjoint_pairs), in image labels;
# disjoint_pairs keeps the start as its first pair on both
WALK_ANSWERS = {
    4: {
        (0, 15): ((1, 17), (1, 17)),
        (1, 17): ((0, 15), (0, 15)),
        (3, 19): ((7, 12), (7, 12)),
        (5, 13): ((1, 17), (1, 17)),
        (7, 12): ((3, 19), (3, 19)),
        (8, 10): ((5, 13), (5, 13)),
    },
    6: {
        (0, 84): ((1, 89), (1, 89)),
        (1, 89): ((0, 84), (0, 84)),
        (3, 92): ((9, 102), (9, 102)),
        (5, 98): ((12, 99), (12, 99)),
        (7, 91): ((1, 89), (1, 89)),
        (9, 102): ((3, 92), (3, 92)),
        (11, 74): ((7, 91), (7, 91)),
        (12, 99): ((5, 98), (5, 98)),
        (17, 107): ((38, 80), (38, 80)),
        (23, 111): ((44, 76), (44, 76)),
        (26, 81): ((9, 102), (9, 102)),
        (27, 87): ((51, 65), (51, 65)),
        (29, 62): ((11, 74), (11, 74)),
        (34, 71): ((12, 99), (12, 99)),
        (38, 80): ((17, 107), (17, 107)),
        (44, 76): ((23, 111), (23, 111)),
        (45, 56): ((29, 62), (29, 62)),
        (46, 63): ((26, 81), (26, 81)),
        (50, 59): ((34, 71), (34, 71)),
        (51, 65): ((27, 87), (27, 87)),
    },
}


@pytest.mark.parametrize("d", sorted(WALK_ANSWERS))
def test_walk_answers_on_dual_cyclic_are_pinned(d):
    # C_4(8)* and C_6(12)* (the cyclic-walk input): exact answers, so a
    # different tie-break in the arc order or the BFS shows
    p, _ = _embed(wl.dual_cyclic(d))
    facets = detect_facets(p)
    neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
    expected = WALK_ANSWERS[d]
    assert all_complementary_pairs(p, facets) == list(expected)
    for start, (found, disjoint) in expected.items():
        assert second_pair(p, facets, neighbors, start) == found
        assert disjoint_pairs(p, facets, neighbors, start) == (start, disjoint)


# sha256 of the whole to_dot text: each arc once, from its lower node
DOT_SHA256 = {
    "cube(3)": "98b30784079a766b0509fd8657c4c628b419652fbcd8239b5580c90f67a34e21",
    "truncated_cube": "9dfbe1ac3e4cd83d9aa8174c862a7a6cf081e3277adb36904675c29a19592494",
    "dual_cyclic(4)": "e7f1581a1bcc62a89113221fa48e69971c39bb6da045366d5e6069e39abc15f0",
}


@pytest.mark.parametrize("name", sorted(DOT_SHA256))
def test_to_dot_text_is_pinned(name):
    p = {"cube(3)": lambda: cube(3),
         "truncated_cube": lambda: slack_embed(orc.fixture("truncated_cube")),
         "dual_cyclic(4)": lambda: _embed(wl.dual_cyclic(4))[0]}[name]()
    dot = to_dot(p, detect_facets(p), neighbor_lists(p.vertex_count, all_pairs_adjacency(p)))
    assert hashlib.sha256(dot.encode()).hexdigest() == DOT_SHA256[name]


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


def test_cross_polytope_edges_are_the_family_edges():
    # cross(5): each vertex on 16 of the 32 facets, so every edge is settled
    # by the face kernel
    f = wl.cross_polytope(5)
    p, to_family = _embed(f)
    o = precompute(p)
    assert not o.simple
    edges = all_pairs_adjacency(p, o)
    assert edges == [pair for pair in o.join_map.unique_pairs() if combinatorial_test(p, *pair)]
    assert _relabel(edges, to_family) == f.edges


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


# -- set-up: ints until a caller reads Fractions --------------------------------


def _workload_instances():
    return [inst for name in sorted(wl.WORKLOADS) for inst in wl.make(name, 1)]


def test_setup_builds_no_fraction_tuples():
    texts = [format_polytope(build()) for build in (lambda: cube(3), prism3, bipyramid3,
                                                    truncated_cube)]
    texts += [inst.text for inst in _workload_instances()]
    for text in texts:
        p = parse_polytope(text)
        oracle, facets = precompute(p), detect_facets(p)
        is_simple(p, facets)
        all_pairs_adjacency(p, oracle)
        all_complementary_pairs(p, facets)
        assert not {"A", "b", "vertices"} & vars(p).keys()
        # the API edge: built on first read, cached, equal to a validated copy
        q = Polytope(p.A, p.b, p.vertices)
        assert (p.A, p.b, p.vertices) == (q.A, q.b, q.vertices)
        assert p.vertices is p.vertices and p.A is p.A and p.b is p.b
        assert {"A", "b", "vertices"} <= vars(p).keys()
        out = format_polytope(p)
        assert format_polytope(parse_polytope(out)) == out == format_polytope(q)


def test_constructor_and_parser_scale_alike():
    # Polytope(A, b, vertices) scales Fraction rows, the parser scales tokens
    images = [build(*dims) for build, takes_dim in _GENERATORS.values()
              for dims in ([(d,) for d in range(1, 5)] if takes_dim else [()])]
    images += [parse_polytope(inst.text) for inst in _workload_instances()]
    for p in images:
        q = Polytope(p.A, p.b, p.vertices)
        r = parse_polytope(format_polytope(p))
        assert (q._rows, q._rhs, q._points) == (r._rows, r._rhs, r._points)
        assert (q._rows, q._rhs, q._points) == (p._rows, p._rhs, p._points)


def test_constructor_keeps_only_the_int_rows():
    # A, b and vertices are built on first read, after the constructor as after the parser
    images = [build(*dims) for build, takes_dim in _GENERATORS.values()
              for dims in ([(d,) for d in range(1, 5)] if takes_dim else [()])]
    images += [parse_polytope(inst.text) for inst in _workload_instances()]
    for p in images:
        q = Polytope(p.A, p.b, p.vertices)
        assert not {"A", "b", "vertices"} & vars(q).keys()
        assert (q.A, q.b, q.vertices) == (p.A, p.b, p.vertices)
        assert {"A", "b", "vertices"} <= vars(q).keys()
    q = Polytope([["1", "2/4"]], ["1"], [("0", 2), (Fraction(1, 2), "3/3")])
    assert not {"A", "b", "vertices"} & vars(q).keys()
    assert (q.A, q.b) == (((1, Fraction(1, 2)),), (1,))
    assert q.vertices == ((0, 2), (Fraction(1, 2), 1))


_LONG = 10**2500 - 1  # its square has 5000 digits, past the default limit of str(int)

# (A, b, vertices) and the refusal, each value worded as a Fraction would print it
_REFUSALS = (
    (([[1, 1]], [1], [(0, 1), (Fraction(3, 2), Fraction(-1, 2))]),
     "vertex 1: coordinate 2 is negative (-1/2)"),
    (([[1, 1, 0], ["1/3", "2/5", "1/2"]], [1, "1/7"], [("1/2", "1/2", 0), (1, 0, 0)]),
     "vertex 0: equality row 1 gives 11/30, expected 1/7"),
    (([[1, 1]], [1], [(0, 1), (1, 0), ("0/5", "3/3")]), "vertices 0 and 2 are identical"),
    (([[_LONG]], [1], [(_LONG,)]), "vertex 0: equality row 0 gives <5000 digits>, expected 1"),
)


def _text(A, b, vertices):
    rows = [" ".join(map(str, row)) for row in (*A, b, *vertices)]
    return "\n".join([f"{len(vertices[0])} {len(A)} {len(vertices)}", "A", *rows[:len(A)],
                      "b", rows[len(A)], "vertices", *rows[len(A) + 1:]]) + "\n"


def test_refusals_build_no_fraction_view(monkeypatch):
    def loud(self):
        raise AssertionError("a Fraction view was built")

    for name in ("A", "b", "vertices"):
        monkeypatch.setattr(Polytope, name, property(loud))
    for args, message in _REFUSALS:
        for refuse in (lambda: Polytope(*args), lambda: parse_polytope(_text(*args))):
            with pytest.raises(ValidationError) as err:
                refuse()
            assert str(err.value) == message


def test_trusted_embedding_passes_the_validating_path():
    hforms = [orc.fixture(name, d) for name, d in (("cube", 1), ("cube", 3), ("simplex", 1),
                                                   ("simplex", 4))]
    hforms += [orc.fixture(name) for name in ("prism3", "bipyramid3", "truncated_cube",
                                              "bipyramid_simplex4")]
    hforms += [HPolytope(inst.family.normals, inst.family.offsets, inst.family.vertices)
               for inst in _workload_instances()]
    for h in hforms:
        q = slack_embed(h)
        r = Polytope(q.A, q.b, q.vertices)
        assert (r.A, r.b, r.vertices, r._zero_bits) == (q.A, q.b, q.vertices, q._zero_bits)


def test_valid_input_runs_no_refusal_loop(monkeypatch):
    # sections and vertices are checked in bulk; the token-by-token and
    # vertex-by-vertex loops run only to word a refusal
    texts = [format_polytope(build(*dims)) for build, takes_dim in _GENERATORS.values()
             for dims in ([(d,) for d in range(1, 5)] if takes_dim else [()])]
    texts += [inst.text for inst in _workload_instances()]  # cube(7), C_6(12)*, cross(5), ...
    bad_token = texts[0].replace("vertices\n0", "vertices\nx", 1)
    bad_vertex = texts[0].replace("vertices\n0", "vertices\n2", 1)

    def loud(*args):
        raise AssertionError("a refusal loop ran")

    monkeypatch.setattr(fileio, "_refuse", loud)
    monkeypatch.setattr(Polytope, "_refuse", loud)
    # a token's line is looked up only for a refusal
    monkeypatch.setattr(fileio, "_tokens", loud)
    monkeypatch.setattr(fileio, "_ragged_row", loud)
    for text in texts:
        p = parse_polytope(text)
        Polytope(p.A, p.b, p.vertices)
    for text in (bad_token, bad_vertex):
        with pytest.raises(AssertionError, match="a refusal loop ran"):
            parse_polytope(text)
    monkeypatch.undo()
    for text, message in ((bad_token, "line 7: malformed rational for vertex 0 coordinate 1: 'x'"),
                          (bad_vertex, "vertex 0: equality row 0 gives 3, expected 1")):
        with pytest.raises(ValidationError) as err:
            parse_polytope(text)
        assert str(err.value) == message


def test_format_prints_workload_files_as_written():
    # the benchmark writes each file with str(Fraction) entries
    for inst in _workload_instances():
        p = parse_polytope(inst.text)
        assert format_polytope(p) == inst.text
        q = slack_embed(HPolytope(inst.family.normals, inst.family.offsets,
                                  inst.family.vertices))
        text = format_polytope(q)
        assert not {"A", "b", "vertices"} & (vars(p).keys() | vars(q).keys())
        assert text == orc.fraction_text(q)


# -- the embedding on ints: dense normals, no Fraction arithmetic ----------------

# sha256 of ``format_polytope(slack_embed(h))``, recorded with a ``Fraction``
# elimination; dense normals make every pivot a big int, where an inexact
# division would show (the ``gen`` pins have 0/+-1 normals only)
DENSE_EMBED_SHA256 = {
    "dual_cyclic(2)": "796ee6aa874e548f94461672601c091ae14ad56b5d026e73fc96b9d88ee79c4b",
    "dual_cyclic(3)": "5741f26747abcbaf645f7b22d2f8b9694020969ca925423446b60f844a7b8240",
    "dual_cyclic(4)": "24186f2563ccd7bfb7c5585d7a8ee3b61b846a8a677f33eade17dcb876498869",
    "dual_cyclic(5)": "519487630b7b068d93dc12ca91188cc530fee0ba8057b47a57a05b5c43057da9",
    "dual_cyclic(6)": "f6f65795b337171c0dc51358ebff1eae0c5e7be0cf8763ac83fbbb6f651b1574",
    "bipyramid3 x cube(4)": "e77c76d9a62d1b4acfb8408aab94e3a2362542f386338008bcc29775a0ce0f0f",
    "cross_polytope(5)": "4b04635bb7b64b686040826b98bc228b6f46ca2d0fda2007ccaa6c4772d67a17",
}


def _dense_families():
    families = {f"dual_cyclic({d})": wl.dual_cyclic(d) for d in range(2, 7)}
    families["bipyramid3 x cube(4)"] = wl.prism_product(wl.bipyramid3(), wl.cube(4))
    families["cross_polytope(5)"] = wl.cross_polytope(5)
    return {name: HPolytope(f.normals, f.offsets, f.vertices) for name, f in families.items()}


def test_dense_normal_embeds_are_pinned():
    hforms = _dense_families()
    assert hforms.keys() == DENSE_EMBED_SHA256.keys()
    for name, h in hforms.items():
        out = format_polytope(slack_embed(h))
        assert hashlib.sha256(out.encode()).hexdigest() == DENSE_EMBED_SHA256[name], name


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__", "__neg__")


def test_embed_does_no_fraction_arithmetic(monkeypatch):
    hforms = [orc.fixture(name, d) for name, d in (("cube", 1), ("cube", 3), ("cube", 4),
                                                   ("simplex", 1), ("simplex", 4))]
    hforms += [orc.fixture(name) for name in ("prism3", "bipyramid3", "truncated_cube",
                                              "bipyramid_simplex4")]
    hforms += _dense_families().values()  # C_d(2d)* and both nonsimple workload inputs
    expected = [format_polytope(slack_embed(h)) for h in hforms]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in slack_embed")

    with monkeypatch.context() as patch:
        for name in _ARITHMETIC:
            patch.setattr(Fraction, name, refuse)
        images = [slack_embed(h) for h in hforms]
    assert [format_polytope(p) for p in images] == expected
