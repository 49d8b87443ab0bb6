"""Exact workload inputs and their independent oracles.

Nothing here imports ``polyadj``: every polytope is built from its facet
inequalities ``normals . x <= offsets`` with this module's own rational
arithmetic, and every expected answer (edges, complementary pairs,
simplicity, facet count) comes from the combinatorics of the family, not
from zero sets or join counts.  So the parent commit and a change get
byte-identical input files, and a wrong answer cannot be excused by a
matching wrong oracle.

Standard form is the slack image: coordinate j of vertex x is
``offsets[j] - normals[j] . x``, and ``A`` spans the left null space of the
normal matrix.  Where walks do not depend on it, a seed shuffles the vertex
order.  The rows keep their order: exact rank computations cost more or less
with the order of their rows, so a row shuffle would make the seed, not the
program, move the timings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm


@dataclass(frozen=True)
class Family:
    """A polytope by facet inequalities and vertices, plus what is true of it.

    ``edges`` and ``complementary`` hold sorted index pairs into ``vertices``.
    """

    name: str
    normals: tuple[tuple[Fraction, ...], ...]
    offsets: tuple[Fraction, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    edges: frozenset[tuple[int, int]]
    complementary: frozenset[tuple[int, int]]
    simple: bool
    facets: int


@dataclass(frozen=True)
class Instance:
    """One workload input: the H-form, its standard form as file text, and
    the oracle answers, all in the labelling the file uses."""

    name: str
    family: Family  # rows and vertices in file order
    text: str
    n: int
    m: int
    dim: int
    slack_vertices: frozenset  # the vertices in standard form
    origin: tuple[int, ...]  # origin[k]: vertex k's index in the family as built


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _fr(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# -- families ---------------------------------------------------------------


def cube(d: int) -> Family:
    """[0,1]^d: edges differ in one coordinate, complementary pairs are antipodal."""
    normals = [tuple(-1 if j == i else 0 for j in range(d)) for i in range(d)]
    normals += [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    verts = list(product((0, 1), repeat=d))
    index = {v: k for k, v in enumerate(verts)}
    edges = set()
    comp = set()
    for k, v in enumerate(verts):
        for i in range(d):
            w = v[:i] + (1 - v[i],) + v[i + 1:]
            edges.add(_pair(k, index[w]))
        comp.add(_pair(k, index[tuple(1 - x for x in v)]))
    return Family(f"cube{d}", _fr(normals), _fr([[0] * d + [1] * d])[0], _fr(verts),
                  frozenset(edges), frozenset(comp), True, 2 * d)


def cross_polytope(d: int) -> Family:
    """conv(+-e_i): one facet per sign vector; every non-antipodal pair is an
    edge; the antipodal pairs are exactly the complementary ones."""
    normals = list(product((-1, 1), repeat=d))
    verts = []
    for i in range(d):
        for s in (1, -1):
            verts.append(tuple(s if j == i else 0 for j in range(d)))
    comp = {(2 * i, 2 * i + 1) for i in range(d)}
    edges = {p for p in combinations(range(2 * d), 2) if p not in comp}
    return Family(f"cross{d}", _fr(normals), _fr([[1] * len(normals)])[0], _fr(verts),
                  frozenset(edges), frozenset(comp), d <= 2, 2 ** d)


def bipyramid3() -> Family:
    """Triangular bipyramid: equator (1,0,0), (0,1,0), (-1,-1,0), apexes
    (0,0,+-1).  Equator vertices lie on four facets, so it is not simple;
    the apexes are its only complementary pair and are not adjacent."""
    normals = [(1, 1, 1), (1, 1, -1), (-2, 1, 1), (-2, 1, -1), (1, -2, 1), (1, -2, -1)]
    verts = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    edges = {(0, 1), (0, 2), (1, 2)} | {(e, a) for e in range(3) for a in (3, 4)}
    return Family("bipyramid3", _fr(normals), _fr([[1] * 6])[0], _fr(verts),
                  frozenset(edges), frozenset({(3, 4)}), False, 6)


def prism_product(p: Family, q: Family) -> Family:
    """P x Q: an edge moves one factor along an edge and keeps the other;
    a pair is complementary exactly when it is so in both factors."""
    dp, dq = len(p.vertices[0]), len(q.vertices[0])
    zero_p, zero_q = (Fraction(0),) * dp, (Fraction(0),) * dq
    normals = tuple(r + zero_q for r in p.normals) + tuple(zero_p + r for r in q.normals)
    nq = len(q.vertices)
    verts = tuple(a + b for a in p.vertices for b in q.vertices)
    edges = set()
    for a, b in p.edges:
        for k in range(nq):
            edges.add((a * nq + k, b * nq + k))
    for k in range(len(p.vertices)):
        for a, b in q.edges:
            edges.add((k * nq + a, k * nq + b))
    comp = set()
    for a, b in p.complementary:
        for c, e in q.complementary:
            comp.add((a * nq + c, b * nq + e))
            comp.add((a * nq + e, b * nq + c))
    return Family(f"{p.name}x{q.name}", normals, p.offsets + q.offsets, verts,
                  frozenset(edges), frozenset(comp), p.simple and q.simple,
                  p.facets + q.facets)


def gale_facets(d: int, count: int) -> list[tuple[int, ...]]:
    """Facets of the cyclic polytope C_d(count), by Gale's evenness condition:
    a d-subset S is a facet when every two indices outside S are separated
    by an even number of elements of S."""
    out = []
    for s in combinations(range(count), d):
        members = set(s)
        outside = [i for i in range(count) if i not in members]
        if all(sum(1 for k in s if i < k < j) % 2 == 0
               for i, j in zip(outside, outside[1:])):
            out.append(s)
    return out


def dual_cyclic(d: int) -> Family:
    """Polar of C_d(2d) on the moment curve at t = -(2d-1), ..., 2d-1 (odd),
    centred at the points' centroid.  Its vertices are the Gale-evenness
    facets of C_d(2d); two are adjacent when they differ in one element and
    complementary when they are complements."""
    count = 2 * d
    ts = [2 * i - (count - 1) for i in range(count)]
    pts = [[Fraction(t) ** k for k in range(1, d + 1)] for t in ts]
    centroid = [sum(col) / count for col in zip(*pts)]
    normals = tuple(tuple(x - c for x, c in zip(pt, centroid)) for pt in pts)
    # vertices in ascending slack order, the order a standard-form embedding
    # lists them in; walk lengths (1 to 5 steps at d = 6, 2 to 10 at d = 7)
    # depend on it
    solved = []
    for s in gale_facets(d, count):
        y = solve([list(normals[i]) for i in s], [Fraction(1)] * d)
        solved.append(([1 - sum(a * b for a, b in zip(row, y)) for row in normals], s, y))
    solved.sort()
    subsets = [s for _, s, _ in solved]
    verts = tuple(tuple(y) for _, _, y in solved)
    index = {frozenset(s): k for k, s in enumerate(subsets)}
    edges = {_pair(a, b) for a, b in combinations(range(len(subsets)), 2)
             if len(set(subsets[a]) & set(subsets[b])) == d - 1}
    comp = {_pair(k, index[frozenset(range(count)) - frozenset(s)])
            for k, s in enumerate(subsets)
            if frozenset(range(count)) - frozenset(s) in index}
    return Family(f"dualcyclic{d}", normals, (Fraction(1),) * count, verts,
                  frozenset(edges), frozenset(comp), True, count)


# -- exact linear algebra ---------------------------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Unique solution of a square nonsingular system."""
    reduced, pivots = _rref([row + [b] for row, b in zip(matrix, rhs)])
    if pivots != list(range(len(matrix))):
        raise ValueError("singular system")
    return [row[-1] for row in reduced]


def left_null_space(normals) -> list[list[Fraction]]:
    """Rows a with a . N = 0, one per free column of N^T, denominators cleared."""
    width = len(normals)
    reduced, pivots = _rref([[row[i] for row in normals] for i in range(len(normals[0]))])
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        scale = lcm(*(x.denominator for x in vec))
        basis.append([x * scale for x in vec])
    return basis


# -- instances --------------------------------------------------------------


def shuffled(f: Family, rng: random.Random) -> tuple[Family, list[int]]:
    """Same polytope with its vertices in a seeded order; oracle pairs are
    relabelled to match.  Also returns the order: entry k is the old index
    of new vertex k."""
    order = list(range(len(f.vertices)))
    rng.shuffle(order)
    new_label = {old: new for new, old in enumerate(order)}

    def relabel(pairs):
        return frozenset(_pair(new_label[a], new_label[b]) for a, b in pairs)

    return Family(f.name, f.normals, f.offsets, tuple(f.vertices[k] for k in order),
                  relabel(f.edges), relabel(f.complementary), f.simple, f.facets), order


def slack(f: Family, x) -> tuple[Fraction, ...]:
    return tuple(g - sum(c * xi for c, xi in zip(row, x)) for row, g in zip(f.normals, f.offsets))


def instance(f: Family, origin=None) -> Instance:
    """Standard form of ``f`` in its own row and vertex order, as file text;
    ``origin`` maps its vertices back to the family as first built."""
    A = left_null_space(f.normals)
    b = [sum(a * g for a, g in zip(row, f.offsets)) for row in A]
    verts = [slack(f, x) for x in f.vertices]
    n = len(f.normals)
    lines = [f"{n} {len(A)} {len(verts)}", "A"]
    lines += [" ".join(map(str, row)) for row in A]
    lines.append("b")
    if A:
        lines.append(" ".join(map(str, b)))
    lines.append("vertices")
    lines += [" ".join(map(str, v)) for v in verts]
    return Instance(f.name, f, "\n".join(lines) + "\n", n, len(A), len(f.vertices[0]),
                    frozenset(verts), tuple(origin or range(len(verts))))


# name -> (families, whether the seed may reorder vertices).  Walk paths and
# the cost of refusing a walk (the scan for a vertex on too many facets) depend
# on vertex labels, so nonsimple and cyclic-walk keep their vertex order and
# their walk counters are the same for every seed.
WORKLOADS = {
    "cube-scan": (lambda: [cube(7)], True),
    "nonsimple": (lambda: [cross_polytope(5), prism_product(bipyramid3(), cube(4))], False),
    "cyclic-walk": (lambda: [dual_cyclic(6)], False),
}


def make(workload: str, seed: int) -> list[Instance]:
    build, shuffle_vertices = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [instance(*shuffled(f, rng)) if shuffle_vertices else instance(f)
            for f in build()]
