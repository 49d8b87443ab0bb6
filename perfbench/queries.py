"""The operations a user waits for, and the oracle checks on their answers.

Every call into ``polyadj`` goes through a module attribute
(``adjacency.fast_test``, not a name imported from it), so the traced pass
can wrap exactly these attributes and the timed pass runs the same code
unwrapped.  The one exception is the checks' own ``is_simple``, bound at
import so that the traced pass does not count checking work as a layer's.
Operations return answers; checks run outside the timed region and return a
problem string, or None when the answer agrees with the oracle.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from polyadj import adjacency, core, fileio, generators, pairgraph
from polyadj.core import is_simple

from workloads import Instance

REFUSED = "refused"
CLI_TIMEOUT_S = 120


@dataclass
class Session:
    """A parsed polytope with its adjacency oracle and facets built."""

    inst: Instance
    p: object
    oracle: object
    facets: object
    neighbors: list[list[int]] | None = None


def open_session(inst: Instance) -> Session:
    p = fileio.parse_polytope(inst.text)
    oracle = adjacency.precompute(p)
    facets = core.detect_facets(p)
    return Session(inst, p, oracle, facets)


def check_session(s: Session) -> str | None:
    f = s.inst.family
    got = (s.p.n, s.p.m, s.p.vertex_count, s.p.dimension, len(s.facets),
           s.oracle.simple, is_simple(s.p, s.facets))
    want = (s.inst.n, s.inst.m, len(f.vertices), s.inst.dim, f.facets, f.simple, f.simple)
    return None if got == want else f"{f.name}: session {got} != {want}"


def hform(inst: Instance):
    f = inst.family
    return generators.HPolytope(f.normals, f.offsets, f.vertices)


def embed(h) -> object:
    return generators.slack_embed(h)


def check_embed(inst: Instance, q) -> str | None:
    if set(q.vertices) == inst.slack_vertices:
        return None
    return f"{inst.name}: slack_embed vertex set differs"


def graph(s: Session) -> list[tuple[int, int]]:
    return adjacency.all_pairs_adjacency(s.p, s.oracle)


def check_graph(s: Session, edges) -> str | None:
    if set(edges) != s.inst.family.edges or len(edges) != len(s.inst.family.edges):
        return f"{s.inst.name}: edge list differs from the oracle"
    if s.neighbors is None:
        s.neighbors = adjacency.neighbor_lists(s.p.vertex_count, edges)
    return None


def complementary(s: Session):
    pairs = pairgraph.all_complementary_pairs(s.p, s.facets)
    report = pairgraph.verify_2d_parity(s.p, s.facets) if s.inst.family.simple else None
    return pairs, report


def check_complementary(s: Session, answer) -> str | None:
    pairs, report = answer
    want = s.inst.family.complementary
    if set(pairs) != want or len(pairs) != len(want):
        return f"{s.inst.name}: complementary pairs differ from the oracle"
    if report is not None and (report.pair_count, report.even, report.pairwise_disjoint) != (
            len(want), len(want) % 2 == 0, _disjoint(want)):
        return f"{s.inst.name}: parity report {report} disagrees"
    return None


def _disjoint(pairs) -> bool:
    used = [w for pair in pairs for w in pair]
    return len(used) == len(set(used))


def adjacent(s: Session, u: int, v: int):
    """One exact pair query: the fast test, settled exactly when INDETERMINATE."""
    verdict = adjacency.fast_test(s.oracle, u, v)
    if verdict is adjacency.Verdict.INDETERMINATE:
        return verdict, adjacency.combinatorial_test(s.p, u, v)
    return verdict, verdict is adjacency.Verdict.ADJACENT


def check_adjacent(s: Session, u: int, v: int, answer) -> str | None:
    verdict, adj = answer
    f = s.inst.family
    if adj != ((min(u, v), max(u, v)) in f.edges):
        return f"{f.name}: adjacent({u}, {v}) = {adj}"
    if f.simple and verdict is adjacency.Verdict.INDETERMINATE:
        return f"{f.name}: fast test indeterminate on a simple polytope"
    return None


def algebraic(s: Session, u: int, v: int) -> bool:
    return adjacency.algebraic_test(s.p, u, v)


def check_algebraic(s: Session, u: int, v: int, adj: bool) -> str | None:
    want = (min(u, v), max(u, v)) in s.inst.family.edges
    return None if adj == want else f"{s.inst.name}: algebraic_test({u}, {v}) = {adj}"


WALKS = ("second_pair", "disjoint_pairs")


def walk(s: Session, kind: str, start: tuple[int, int]):
    """A walk from a complementary pair, or REFUSED for a non-simple polytope."""
    try:
        return getattr(pairgraph, kind)(s.p, s.facets, s.neighbors, start)
    except core.UnsupportedPolytopeError:
        return REFUSED


def check_walk(s: Session, kind: str, start, result) -> str | None:
    f = s.inst.family
    if not f.simple:
        return None if result == REFUSED else f"{f.name}: {kind} not refused"
    pairs = [tuple(result)] if kind == "second_pair" else [tuple(p) for p in result]
    if any(p not in f.complementary for p in pairs):
        return f"{f.name}: {kind}{start} gave a non-complementary pair {result}"
    if kind == "second_pair" and pairs[0] == tuple(sorted(start)):
        return f"{f.name}: second_pair{start} returned its start"
    if kind == "disjoint_pairs" and len({w for p in pairs for w in p}) != 4:
        return f"{f.name}: disjoint_pairs{start} gave {result}"
    return None


# -- command line -----------------------------------------------------------


def cli_commands(inst: Instance) -> list[list[str]]:
    """The fixed command sequence run on one workload file."""
    u, v = min(inst.family.complementary)
    return [["info"], ["graph"], ["complementary"], ["second-pair", str(u), str(v)], ["parity"]]


def run_cli(root: Path, env: dict, args: list[str], path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "polyadj.cli", *args, "--file", str(path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )


def check_cli(inst: Instance, args: list[str], proc: subprocess.CompletedProcess) -> str | None:
    f = inst.family
    lines = proc.stdout.splitlines()
    pairs = [tuple(map(int, line.split())) for line in lines] if args[0] in (
        "graph", "complementary", "second-pair") and proc.returncode == 0 else []
    refusal = not f.simple and args[0] in ("second-pair", "parity")
    if refusal:
        ok = proc.returncode == 3 and not lines
    elif proc.returncode != 0:
        ok = False
    elif args[0] == "info":
        ok = lines == [f"n {inst.n}", f"m {inst.m}", f"vertices {len(f.vertices)}",
                       f"dim {inst.dim}", f"facets {f.facets}",
                       f"simple {'yes' if f.simple else 'no'}"]
    elif args[0] == "graph":
        ok = pairs == sorted(f.edges)
    elif args[0] == "complementary":
        ok = pairs == sorted(f.complementary)
    elif args[0] == "second-pair":
        ok = len(pairs) == 1 and pairs[0] in f.complementary and pairs[0] != tuple(
            map(int, args[1:3]))
    else:
        c = f.complementary
        yes = {True: "yes", False: "no"}
        ok = lines == [f"facets {f.facets}", f"pairs {len(c)}", f"even {yes[len(c) % 2 == 0]}",
                       f"pairwise-disjoint {yes[_disjoint(c)]}"]
    return None if ok else (
        f"{f.name}: cli {' '.join(args)} exit {proc.returncode}: {proc.stderr.strip()[:200]}")
