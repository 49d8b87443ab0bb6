"""Trie semantics: counts, node budget, lookups, golden dump, the built map's write guard."""

import pytest
from hypothesis import given, strategies as st

from polyadj.core import Polytope, ZeroSet
from polyadj.generators import cube, prism3
from polyadj.joinmap import JoinMap, build_join_map

# worked three-coordinate example: multiset of subsets with these counts
FIGURE_COUNTS = {
    (2,): 7,
    (3,): 5,
    (1, 2): 4,
    (2, 3): 1,
    (1, 2, 3): 1,
}

FIGURE_DUMP = """\
root
  0
    0
      1 = 5
    1
      0 = 7
      1 = 1
  1
    1
      0 = 4
      1 = 1"""


def figure_map() -> JoinMap:
    jm = JoinMap(3)
    for indices, count in FIGURE_COUNTS.items():
        for _ in range(count):
            jm.increment(ZeroSet.of_indices(3, indices))
    return jm


def test_figure_lookups():
    jm = figure_map()
    for indices, count in FIGURE_COUNTS.items():
        assert jm.lookup(ZeroSet.of_indices(3, indices)) == count
    assert jm.lookup(ZeroSet(3, 0)) == 0
    assert jm.lookup(ZeroSet.of_indices(3, (1,))) == 0
    assert jm.lookup(ZeroSet.of_indices(3, (1, 3))) == 0


def test_figure_totals_and_dump():
    jm = figure_map()
    assert jm.pair_total == 18
    assert jm.leaf_count == 5
    # stored paths share prefixes: 11 allocated nodes, within (n+1) per subset
    assert jm.node_count == 11 <= 4 * jm.leaf_count
    assert jm.dump() == FIGURE_DUMP
    assert {z.indices(): c for z, c in jm.items()} == FIGURE_COUNTS


def test_first_insert_allocates_full_path():
    jm = JoinMap(5)
    assert jm.node_count == 0
    jm.increment(ZeroSet.of_indices(5, (2, 4)))
    assert jm.node_count == 6  # root to leaf
    jm.increment(ZeroSet.of_indices(5, (2, 4)))
    assert jm.node_count == 6  # counted, not re-allocated
    jm.increment(ZeroSet.of_indices(5, (2, 5)))
    assert jm.node_count == 8  # shares root..depth-3, adds a depth-4 node and leaf


def test_lookup_never_allocates():
    jm = figure_map()
    before = jm.node_count
    jm.lookup(ZeroSet.of_indices(3, (1, 3)))
    jm.lookup(ZeroSet(3, 0))
    assert jm.node_count == before


def test_empty_map():
    jm = JoinMap(4)
    assert jm.lookup(ZeroSet(4, 0)) == 0
    assert jm.dump() == "(empty)"
    assert list(jm.items()) == []


def test_width_and_depth_errors():
    jm = JoinMap(3)
    with pytest.raises(ValueError, match="does not match depth"):
        jm.increment(ZeroSet(4, 0))
    with pytest.raises(ValueError, match="does not match depth"):
        jm.lookup(ZeroSet(2, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        JoinMap(-1)


def test_depth_must_be_a_plain_int():
    for depth, name in ((2.0, "float"), (True, "bool"), ("3", "str")):
        with pytest.raises(TypeError) as err:
            JoinMap(depth)
        assert str(err.value) == f"depth must be an int, got {name}"
    with pytest.raises(ValueError) as err:
        JoinMap(-1)
    assert str(err.value) == "depth must be nonnegative, got -1"


def test_lookup_takes_raw_bits():
    for p in (cube(3), prism3()):
        jm = build_join_map(p)
        stored = {z.bits for z, _ in jm.items()}
        assert 0 < len(stored) < 1 << p.n  # both stored and absent keys below
        for bits in range(1 << p.n):
            assert jm.lookup(bits) == jm.lookup(ZeroSet(p.n, bits))
            assert (jm.lookup(bits) > 0) == (bits in stored)
        assert jm.lookup(1 << p.n) == jm.lookup(-1) == 0  # no width check on raw bits
        with pytest.raises(ValueError) as err:
            jm.lookup(ZeroSet(p.n + 1, 0))
        assert str(err.value) == f"zero set width {p.n + 1} does not match depth {p.n}"


def test_built_map_takes_no_increments():
    for p in (cube(3), prism3()):
        jm = build_join_map(p)
        pairs, total = jm.unique_pairs(), jm.pair_total
        counts = {bits: jm.lookup(bits) for bits in range(1 << p.n)}
        stored = next(z for z, _ in jm.items())
        absent = next(bits for bits, count in counts.items() if count == 0)
        for z in (stored, ZeroSet(p.n, absent)):
            with pytest.raises(RuntimeError) as err:
                jm.increment(z)
            assert str(err.value) == "a join map built by build_join_map takes no increments"
        assert jm.unique_pairs() == pairs
        assert all(None not in pair for pair in jm.unique_pairs())
        assert jm.pair_total == total
        assert {bits: jm.lookup(bits) for bits in range(1 << p.n)} == counts


def test_build_join_map_cube3():
    p = cube(3)
    jm = build_join_map(p)
    assert jm.pair_total == 28  # C(8, 2)
    assert sum(c for _, c in jm.items()) == 28
    # no common zero coordinate: exactly the 4 antipodal pairs
    assert jm.lookup(ZeroSet(6, 0)) == 4
    # every edge is the unique pair on its zero set
    for u, v in [(0, 1), (0, 2), (0, 4), (3, 7), (6, 7)]:
        assert jm.lookup(p.zero_sets[u] & p.zero_sets[v]) == 1
    # face diagonals share their facet with the opposite diagonal
    assert jm.lookup(p.zero_sets[0] & p.zero_sets[6]) == 2


def test_single_vertex_polytope_builds_empty_map():
    point = Polytope([[1, 1]], [1], [(0, 1)])
    jm = build_join_map(point)
    assert jm.pair_total == 0
    assert jm.node_count == 0
    assert jm.dump() == "(empty)"


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=0, max_value=2**n - 1), max_size=60),
        )
    )
)
def test_trie_agrees_with_flat_dict(case):
    n, inserts = case
    jm = JoinMap(n)
    flat: dict[int, int] = {}
    for bits in inserts:
        jm.increment(ZeroSet(n, bits))
        flat[bits] = flat.get(bits, 0) + 1
    assert jm.pair_total == len(inserts)
    assert jm.leaf_count == len(flat)
    assert jm.node_count <= (n + 1) * max(len(flat), 0)
    for bits in range(2**n):
        assert jm.lookup(ZeroSet(n, bits)) == flat.get(bits, 0)
    assert {z.bits: c for z, c in jm.items()} == flat


@pytest.mark.parametrize("key", [1.0, True, "3"])
def test_lookup_refuses_a_key_of_another_type(key):
    jm = build_join_map(cube(3))
    with pytest.raises(TypeError,
                       match=f"^lookup takes an int or a ZeroSet, got {type(key).__name__}$"):
        jm.lookup(key)
