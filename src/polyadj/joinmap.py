"""Join counts over zero sets: how many vertex pairs join to each face.

For every unordered pair of distinct vertices {u, v}, the intersection of
their zero sets is the zero set of the smallest face containing both.  The
join map counts, for each coordinate subset S, the pairs whose intersection
is exactly S.  A pair is an edge of the polytope precisely when its subset
has count 1 and the polytope is simple, which is what makes this structure
an adjacency oracle.

Counts live in one dict keyed by the subset's ``bits``, together with the
first pair that joined to it: one O(n V^2) scan fills it, a lookup is O(1)
after O(n) key formation, and ``unique_pairs`` alone reads the count-1 pairs
off it, ascending in scan order, for simplicity and for the edge list.
The paper's binary trie (the node at depth k branches on whether coordinate
k + 1 is absent or present) is derived from the key set on demand.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import Polytope, ZeroSet

__all__ = ["JoinMap", "build_join_map"]


def _parting_depth(a: int, b: int) -> int:
    """Depth at which the trie paths of subsets ``a != b`` part."""
    return ((a ^ b) & -(a ^ b)).bit_length() - 1


class JoinMap:
    """Multiset of coordinate subsets with O(1) increment and lookup.

    ``depth`` is the coordinate count n; every stored subset must have that
    width.  ``pair_total`` is the sum of all stored counts, ``leaf_count``
    the number of distinct subsets and ``node_count`` the number of nodes of
    the trie that would hold them.  A map that :func:`build_join_map`
    returns records each join's first pair and takes no increments.
    """

    def __init__(self, depth: int) -> None:
        if type(depth) is not int:  # refuses bool and other int subclasses too
            raise TypeError(f"depth must be an int, got {type(depth).__name__}")
        if depth < 0:
            raise ValueError(f"depth must be nonnegative, got {depth}")
        self.depth = depth
        # bits -> [count, u, v]: (u, v) the first pair joined to bits, or None
        self._joins: dict[int, list] = {}
        self._scanned = False  # set by build_join_map alone: every entry has its pair

    def _check(self, s: ZeroSet) -> None:
        if s.width != self.depth:
            raise ValueError(f"zero set width {s.width} does not match depth {self.depth}")

    def increment(self, s: ZeroSet) -> None:
        """Add one occurrence of ``s``, with no vertex pair recorded."""
        if self._scanned:
            raise RuntimeError("a join map built by build_join_map takes no increments")
        self._check(s)
        self._joins.setdefault(s.bits, [0, None, None])[0] += 1

    def lookup(self, s: ZeroSet | int) -> int:
        """Count of pairs stored under exactly ``s`` (0 when absent): a ``ZeroSet``,
        or its raw ``bits`` as a plain ``int``, taken without a width check."""
        if type(s) is not int:
            if not isinstance(s, ZeroSet):
                raise TypeError(f"lookup takes an int or a ZeroSet, got {type(s).__name__}")
            self._check(s)
            s = s.bits
        entry = self._joins.get(s)
        return entry[0] if entry else 0

    @property
    def pair_total(self) -> int:
        return sum(entry[0] for entry in self._joins.values())

    @property
    def leaf_count(self) -> int:
        return len(self._joins)

    @property
    def node_count(self) -> int:
        """Trie nodes: at each depth k = 0..n, one per distinct run of the low
        k coordinates among the stored subsets."""
        return sum(
            len({bits & ((1 << k) - 1) for bits in self._joins}) for k in range(self.depth + 1)
        )

    def unique_pairs(self) -> list[tuple[int, int]]:
        """Vertex pairs (u, v), u < v, that are alone on their join, ascending.
        On a simple polytope these are exactly its edges.  No sort: only
        :func:`build_join_map` records pairs, scanning them in ascending order
        and filing each join at its first, so a count-1 join's pair is in order."""
        if not self._scanned:
            raise ValueError("join map was filled through increment and records no vertex pairs")
        return [(u, v) for count, u, v in self._joins.values() if count == 1]

    def _trie_order(self) -> list[int]:
        # depth-first, absent branch first: ascending by the bits read from
        # the lowest coordinate up
        return sorted(self._joins, key=lambda bits: f"{bits:0{self.depth}b}"[::-1])

    def items(self) -> Iterator[tuple[ZeroSet, int]]:
        """Stored (subset, count) pairs in trie order, absent branch first."""
        for bits in self._trie_order():
            yield ZeroSet(self.depth, bits), self._joins[bits][0]

    def dump(self) -> str:
        """Indented text form for golden tests: 0 = absent child, 1 = present."""
        if not self._joins:
            return "(empty)"
        lines = ["root"]
        prev = None
        for bits in self._trie_order():
            # nodes shared with the previous subset's path are already printed
            start = 0 if prev is None else _parting_depth(prev, bits)
            lines += ["  " * (k + 1) + str(bits >> k & 1) for k in range(start, self.depth)]
            if self.depth:
                lines[-1] += f" = {self._joins[bits][0]}"
            prev = bits
        return "\n".join(lines)


def build_join_map(p: Polytope) -> JoinMap:
    """Scan all vertex pairs of ``p`` once into a map that takes no increments.

    O(n V^2): one O(n) intersection and one dict update per pair.
    """
    jm = JoinMap(p.n)
    joins = jm._joins
    zs = p._zero_bits
    for u, zu in enumerate(zs):
        for v in range(u + 1, len(zs)):
            key = zu & zs[v]
            entry = joins.get(key)
            if entry is None:
                joins[key] = [1, u, v]
            else:
                entry[0] += 1
    jm._scanned = True
    return jm
