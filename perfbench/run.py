"""Layered exact-query benchmark for polyadj.

    python3 perfbench/run.py --workload cube-scan --seed 1 --seconds 36 --trace 0

One process, one client, closed loop: each operation starts after the
previous one returned, and CLI subprocesses run one at a time.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs a fixed pipeline twice untraced (the first warms up)
and once with every layer's public functions wrapped, and prints the
per-layer metrics.  Each answer is checked against the oracles in
``workloads.py``.  The last line of standard output is the JSON result; the
full record, with the input hashes and the environment, goes to
``perfbench/out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The machine this runs on is shared: a neighbour's load slows everything by
# up to 75%, switching every few tens of milliseconds, for seconds to minutes
# at a time, and even its quietest speed drifts by 15% or more over minutes.
# So a run repeats the same work in rounds until --seconds are spent, times a
# reference computation just before and after every operation, and every
# GROUP_NS of queries (see Reference), and rescales each sample to the
# reference's fixed speed.  Each figure is the median of its rescaled samples.
SETUPS = 7  # set-ups timed for setup_s, one in each of the first rounds
# Whole-polytope operations repeat in a round until they used this long, so
# that the short ones get many samples.
REPEAT_S = {"embed_s": 0.1, "graph_s": 0.1, "complementary_s": 0.05}
CLI_PASSES = 2  # least number of times each CLI command runs (one per round)
# Queries: every vertex pair of every input (a pair query takes microseconds),
# ALGEBRAIC_PAIRS pairs for algebraic_test, WALK_STARTS complementary start
# pairs per input for each walk function.  A round replays each list PASSES
# times, so each query gets many samples.
ALGEBRAIC_PAIRS = 40
WALK_STARTS = 20  # all 20 of C_6(12)*
PASSES = {"adjacent": 3, "algebraic": 3, "walk": 2}
GROUP_NS = 10_000_000  # queries between two reference probes
TRACED_PAIRS = 2000


class Reference:
    """A fixed exact rational solve, independent of polyadj, that measures how
    fast the machine runs at a given moment.

    ``timed`` runs a call between two probes and returns the call's seconds
    and the mean probe time around it; ``scaled`` rescales such samples to a
    machine where the probe takes QUIET_NS, about its least time on the
    2-core virtual machine the benchmark was built on, and takes their
    median."""

    SIZE = 6
    QUIET_NS = 650_000

    def __init__(self) -> None:
        n = self.SIZE
        self.matrix = [[Fraction((3 * i + 5 * j) % 11 + 7 * (i == j), 1 + (i + 2 * j) % 5)
                        for j in range(n)] for i in range(n)]
        self.rhs = [Fraction(i + 1) for i in range(n)]
        self.times: list[int] = []

    def probe(self) -> int:
        start = perf_counter_ns()
        W.solve(self.matrix, self.rhs)
        self.times.append(perf_counter_ns() - start)
        return self.times[-1]

    def timed(self, fn, *args):
        before = self.probe()
        result, dt = timed_s(fn, *args)
        return result, dt, (before + self.probe()) / 2

    def scaled(self, samples: list[tuple[float, float]]) -> float:
        return statistics.median(dt * self.QUIET_NS / around for dt, around in samples)


class Tally:
    """Operations attempted and failed; a failure is a raise or a wrong answer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self._fail(problem)

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def timed_s(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


# -- query lists (the same every round, and in both passes) ---------------


def all_pairs(rng: random.Random, insts) -> list[tuple[int, int, int]]:
    """(input index, u, v) for every vertex pair of every input, in a seeded order."""
    pairs = [(k, u, v) for k, inst in enumerate(insts)
             for u in range(len(inst.origin)) for v in range(u + 1, len(inst.origin))]
    rng.shuffle(pairs)
    return pairs


def algebraic_pairs(insts) -> list[tuple[int, int, int]]:
    """ALGEBRAIC_PAIRS (input index, u, v), uniform over the vertex pairs of
    all inputs.  algebraic_test costs differ between pairs far more than
    between runs, so the pairs are the same vertices of the same polytopes
    for every seed, whatever labels the seed gave them."""
    rng = random.Random("algebraic")
    sizes = [len(i.origin) for i in insts]
    label = [{o: k for k, o in enumerate(i.origin)} for i in insts]
    out = []
    for _ in range(ALGEBRAIC_PAIRS):
        k = rng.choices(range(len(insts)), [v * (v - 1) for v in sizes])[0]
        a, b = rng.sample(range(sizes[k]), 2)
        out.append((k, label[k][a], label[k][b]))
    return out


def walk_starts(insts) -> list[tuple[int, str, tuple[int, int]]]:
    """(input index, walk function, start pair): WALK_STARTS complementary
    pairs of every input (all when it has fewer), each with both walk
    functions.  Walk costs differ between starts, so, like the algebraic
    pairs, the starts are the same vertices for every seed."""
    rng = random.Random("walks")
    starts = []
    for k, inst in enumerate(insts):
        o = inst.origin
        pairs = sorted(inst.family.complementary, key=lambda p: sorted((o[p[0]], o[p[1]])))
        starts += [(k, kind, pair) for pair in rng.sample(pairs, min(WALK_STARTS, len(pairs)))
                   for kind in Q.WALKS]
    return starts


def run_queries(tally: Tally, sessions, items, op, check, ref=None) -> array:
    """Closed loop: issue each query when the previous one returned; returns
    the latency of each item in ns.  With ``ref``, probes it every GROUP_NS
    and rescales each latency by the probes around its group, as
    ``Reference.scaled`` does."""
    lat = array("d")
    if ref is not None:
        group, before = 0, ref.probe()
        due = perf_counter_ns() + GROUP_NS
    for k, *rest in items:
        args = (sessions[k], *rest)
        start = perf_counter_ns()
        try:
            answer = op(*args)
        except Exception as exc:  # a raise is a failed query; keep measuring
            lat.append(perf_counter_ns() - start)
            tally.error(f"{op.__name__}{tuple(rest)}", exc)
        else:
            lat.append(perf_counter_ns() - start)
            tally.check(check(*args, answer))
        if ref is not None and (perf_counter_ns() >= due or len(lat) == len(items)):
            after = ref.probe()
            scale = ref.QUIET_NS / ((before + after) / 2)
            for i in range(group, len(lat)):
                lat[i] *= scale
            group, before = len(lat), after
            due = perf_counter_ns() + GROUP_NS
    return lat


# -- passes -----------------------------------------------------------------


class Run:
    """Inputs of one workload and seed, written where the CLI can read them."""

    def __init__(self, workload: str, seed: int, out: Path) -> None:
        self.seed = seed
        self.insts = W.make(workload, seed)
        self.hforms = [Q.hform(i) for i in self.insts]
        self.paths = []
        for inst in self.insts:
            path = out / f"{inst.name}.poly"
            path.write_text(inst.text, encoding="utf-8")
            self.paths.append(path)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.pairs = all_pairs(self.rng("pairs"), self.insts)
        self.algebraic = algebraic_pairs(self.insts)
        self.starts = walk_starts(self.insts)
        self.rng("walks").shuffle(self.starts)

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{stream}:{self.seed}")

    def sessions(self) -> list:
        return [Q.open_session(i) for i in self.insts]

    def check_sessions(self, tally: Tally, sessions) -> list:
        for s in sessions:
            tally.check(Q.check_session(s))
        return sessions

    def cli_sequence(self) -> list[tuple]:
        """(instance, file, arguments) of each command of the CLI sequence on
        every input."""
        return [(inst, path, args) for inst, path in zip(self.insts, self.paths)
                for args in Q.cli_commands(inst)]

    def cli(self, tally: Tally, inst, path, args, span=None) -> float:
        """One CLI command, checked; its wall seconds."""
        with span(f"cli.{args[0]}") if span else nullcontext():
            proc, dt = timed_s(Q.run_cli, ROOT, self.env, args, path)
        tally.check(Q.check_cli(inst, args, proc))
        return dt

    def whole(self, tally: Tally, sessions, samples=None, ref=None) -> dict[str, list]:
        """Embedding, graph and complementary pairs of every input, checked;
        returns the answers by metric name.  With ``samples``, appends the
        time of each and the ``ref`` time around it to
        ``samples[name][input index]``, repeating each until the inputs
        together used REPEAT_S of the round."""
        out = {}
        for name, op, check, items in (
            ("embed_s", Q.embed, Q.check_embed, list(zip(self.insts, self.hforms))),
            ("graph_s", Q.graph, Q.check_graph, [(s, s) for s in sessions]),
            ("complementary_s", Q.complementary, Q.check_complementary,
             [(s, s) for s in sessions]),
        ):
            out[name] = []
            for i, (key, arg) in enumerate(items):
                gc.collect()
                if samples is None:
                    out[name].append(op(arg))
                    tally.check(check(key, out[name][-1]))
                    continue
                until = perf_counter() + REPEAT_S[name] / len(items)
                while True:
                    answer, dt, around = ref.timed(op, arg)
                    samples[name][i].append((dt, around))
                    tally.check(check(key, answer))
                    if perf_counter() >= until:
                        break
                out[name].append(answer)
        return out

    def queries(self, tally: Tally, sessions, ref: Reference):
        """PASSES passes over each query list, interleaved and checked;
        yields (kind, rescaled latencies in ns in list order) after each pass."""
        kinds = (("adjacent", self.pairs, Q.adjacent, Q.check_adjacent),
                 ("algebraic", self.algebraic, Q.algebraic, Q.check_algebraic),
                 ("walk", self.starts, Q.walk, Q.check_walk))
        for p in range(max(PASSES.values())):
            for kind, items, op, check in kinds:
                if p >= PASSES[kind]:
                    continue
                # a cyclic collection set off by the benchmark's own
                # allocations would land on whichever query crossed the
                # threshold, so the collector is off while queries run
                gc.collect()
                gc.disable()
                try:
                    lat = run_queries(tally, sessions, items, op, check, ref)
                finally:
                    gc.enable()
                yield kind, lat


def timed_pass(run: Run, seconds: float, tally: Tally):
    deadline = perf_counter() + seconds
    ref = Reference()
    setups: list[tuple[float, float]] = []
    samples = {k: [[] for _ in run.insts] for k in REPEAT_S}  # by input
    commands = run.cli_sequence()
    cli: list[list[tuple[float, float]]] = [[] for _ in commands]
    passes: dict[str, list[array]] = {}  # rescaled latencies of each pass
    r = 0
    sessions = None
    while r < max(SETUPS, CLI_PASSES * len(commands)) or perf_counter() < deadline:
        if r < SETUPS:
            sessions = None  # let the previous round's sessions go first
            gc.collect()
            sessions, dt, around = ref.timed(run.sessions)
            setups.append((dt, around))
            run.check_sessions(tally, sessions)
        run.whole(tally, sessions, samples, ref)
        # one CLI command a round, so that its samples spread over the run
        k = r % len(commands)
        dt, _, around = ref.timed(run.cli, tally, *commands[k])
        cli[k].append((dt, around))
        for kind, lat in run.queries(tally, sessions, ref):
            passes.setdefault(kind, []).append(lat)
        r += 1

    # a whole-polytope or CLI figure is the sum over inputs (and commands) of
    # each one's figure; a query percentile is over the queries of its list,
    # each taken as the median of its passes
    metrics = {k: sum(map(ref.scaled, v)) for k, v in samples.items()}
    metrics["setup_s"] = ref.scaled(setups)
    query = {kind: [statistics.median(q) for q in zip(*v)] for kind, v in passes.items()}
    for name, kind, q, scale in (("adjacent_p50_us", "adjacent", 50, 1e3),
                                 ("adjacent_p99_us", "adjacent", 99, 1e3),
                                 ("algebraic_p50_us", "algebraic", 50, 1e3),
                                 ("walk_p50_ms", "walk", 50, 1e6),
                                 ("walk_p90_ms", "walk", 90, 1e6)):
        metrics[name] = percentile(query[kind], q) / scale
    metrics.update(
        cli_s=sum(map(ref.scaled, cli)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        success_rate=1 - tally.failed / tally.attempted,
    )
    detail = {"rounds": r, "reference_ns": {"least": min(ref.times), "probes": len(ref.times),
                                            "median": statistics.median(ref.times)},
              "setups": setups, "embed": samples["embed_s"],
              "samples": {k: [len(x) for x in v] for k, v in samples.items()},
              "cli": {f"{inst.name} {args[0]}": v for (inst, _, args), v in zip(commands, cli)},
              "queries": {k: [len(v[0]), len(v)] for k, v in passes.items()}}
    return metrics, detail


def pipeline(run: Run, tally: Tally, span) -> dict:
    """The fixed in-process work of the traced pass; returns exact facts."""
    facts = Counter()
    sessions = run.check_sessions(tally, run.sessions())
    for s in sessions:
        with span("core.Polytope"):
            q = C.Polytope(s.p.A, s.p.b, s.p.vertices)
        with span("core.dimension"):
            q.dimension
    answers = run.whole(tally, sessions)
    facts["edges"] = sum(map(len, answers["graph_s"]))
    facts["complementary"] = sum(len(pairs) for pairs, _ in answers["complementary_s"])

    pairs = run.pairs[:TRACED_PAIRS]
    run_queries(tally, sessions, pairs, Q.adjacent, Q.check_adjacent)
    for k, u, v in pairs:
        oracle = sessions[k].oracle
        zs = oracle.zero_sets[u] & oracle.zero_sets[v]
        with span("joinmap.lookup"):
            oracle.join_map.lookup(zs)
    run_queries(tally, sessions, run.algebraic, Q.algebraic, Q.check_algebraic)

    def counted_walk(s, kind, start):
        result = Q.walk(s, kind, start)
        facts["refusals"] += result == Q.REFUSED
        return result

    run_queries(tally, sessions, run.starts, counted_walk, Q.check_walk)
    for s in sessions:
        jm = s.oracle.join_map
        facts["pairs"] += jm.pair_total
        facts["distinct_joins"] += jm.leaf_count
        facts["nodes"] += jm.node_count
        facts["count1_joins"] += sum(1 for _, c in jm.items() if c == 1)
    return facts


def install(tr) -> None:
    """Wrap the public functions of every layer, and the internal entry points
    whose calls the per-layer counters need."""
    from polyadj import adjacency, core, fileio, generators, pairgraph

    def rank_entries(result, args):
        m = args[0]
        if isinstance(m, list):
            tr.counters["core.rank_entries"] += len(m) * (len(m[0]) if m else 0)

    def verdict(result, args):
        tr.counters["indeterminate"] += result is adjacency.Verdict.INDETERMINATE

    def fallback(result, args):
        tr.counters["fallback_edges"] += bool(result)

    tr.wrap(fileio, "parse_polytope", "fileio.parse_polytope")
    tr.wrap(core, "detect_facets", "core.detect_facets")
    tr.wrap(core, "is_simple", "core.is_simple")
    tr.wrap(pairgraph, "is_simple", "core.is_simple")  # the walks' own binding
    tr.wrap(core, "rank", "core.rank", rank_entries)
    tr.wrap(adjacency, "build_join_map", "joinmap.build_join_map")
    tr.wrap(adjacency, "precompute", "adjacency.precompute")
    tr.wrap(adjacency, "all_pairs_adjacency", "adjacency.all_pairs_adjacency")
    tr.wrap(adjacency, "fast_test", "adjacency.fast_test", verdict)
    tr.wrap(adjacency, "combinatorial_test", "adjacency.combinatorial_test", fallback)
    tr.wrap(adjacency, "algebraic_test", "adjacency.algebraic_test")
    for name in ("all_complementary_pairs", "verify_2d_parity", "second_pair",
                 "disjoint_pairs", "arcs_from"):
        tr.wrap(pairgraph, name, f"pairgraph.{name}")
    tr.wrap(generators, "slack_embed", "generators.slack_embed")
    tr.wrap(generators, "rank", "generators.rank")


def traced_pass(run: Run, tally: Tally, out: Path):
    from spans import Tracer

    for _ in range(2):  # the first pass warms up allocator and caches
        gc.collect()
        _, untraced = timed_s(pipeline, run, tally, lambda name: nullcontext())
    with Tracer() as tr:
        install(tr)
        gc.collect()
        facts, traced = timed_s(pipeline, run, tally, tr.span)
    with tr.span("cli.startup"):
        subprocess.run([sys.executable, "-m", "polyadj.cli", "--help"], cwd=ROOT, env=run.env,
                       capture_output=True, timeout=Q.CLI_TIMEOUT_S, check=True)
    for command in run.cli_sequence():
        run.cli(tally, *command, span=tr.span)
    (out / "spans.json").write_text(json.dumps(
        {"fields": ["name", "parent", "start_ns", "end_ns"], "spans": tr.dump(),
         "counters": dict(tr.counters)}), encoding="utf-8")

    steps = (tr.children("pairgraph.second_pair", "pairgraph.arcs_from")
             + tr.children("pairgraph.disjoint_pairs", "pairgraph.arcs_from"))
    fallbacks = len(tr.durations("adjacency.combinatorial_test"))
    metrics = {
        "fileio.parse_s": tr.total_s("fileio.parse_polytope"),
        "fileio.tokens": sum(len(i.text.split()) for i in run.insts),
        "core.validate_s": tr.total_s("core.Polytope"),
        "core.dimension_s": tr.total_s("core.dimension"),
        "core.detect_facets_s": tr.total_s("core.detect_facets"),
        "core.is_simple_s": tr.total_s("core.is_simple"),
        "core.rank_calls": len(tr.durations("core.rank")),
        "core.rank_entries": tr.counters["core.rank_entries"],
        "joinmap.build_s": tr.total_s("joinmap.build_join_map"),
        "joinmap.lookup_us": tr.median("joinmap.lookup", 1e3),
        "joinmap.pairs": facts["pairs"],
        "joinmap.distinct_joins": facts["distinct_joins"],
        "joinmap.count1_joins": facts["count1_joins"],
        "joinmap.nodes": facts["nodes"],
        "adjacency.precompute_self_s": tr.total_s("adjacency.precompute")
        - tr.total_s("joinmap.build_join_map", "adjacency.precompute"),
        "adjacency.all_pairs_s": tr.total_s("adjacency.all_pairs_adjacency"),
        "adjacency.fast_test_us": tr.median("adjacency.fast_test", 1e3),
        "adjacency.edges": facts["edges"],
        "adjacency.indeterminate_pairs": tr.counters["indeterminate"],
        "adjacency.fallback_calls": fallbacks,
        "adjacency.fallback_edge_ratio": tr.counters["fallback_edges"] / fallbacks
        if fallbacks else 0.0,
        "adjacency.combinatorial_us": tr.median("adjacency.combinatorial_test", 1e3),
        "adjacency.algebraic_us": tr.median("adjacency.algebraic_test", 1e3),
        "pairgraph.complementary_s": tr.total_s("pairgraph.all_complementary_pairs")
        - tr.total_s("pairgraph.all_complementary_pairs", "pairgraph.verify_2d_parity"),
        "pairgraph.parity_s": tr.total_s("pairgraph.verify_2d_parity"),
        "pairgraph.complementary_pairs": facts["complementary"],
        "pairgraph.second_pair_ms": tr.median("pairgraph.second_pair", 1e6),
        "pairgraph.disjoint_pairs_ms": tr.median("pairgraph.disjoint_pairs", 1e6),
        "pairgraph.walk_steps": statistics.mean(steps),
        "pairgraph.walk_steps_max": max(steps),
        "pairgraph.refusals": facts["refusals"],
        "generators.slack_embed_s": tr.total_s("generators.slack_embed"),
        "generators.rank_calls": len(tr.durations("generators.rank")),
        "cli.startup_s": tr.total_s("cli.startup"),
        "trace.overhead_s": traced - untraced,
        "trace.spans": len(tr.spans),
    }
    for args in Q.cli_commands(run.insts[0]):
        metrics[f"cli.{args[0]}_s"] = tr.total_s(f"cli.{args[0]}")
    extra = {"untraced_s": untraced, "traced_s": traced, "walk_steps": steps}
    return metrics, extra


# -- entry point ------------------------------------------------------------


def provenance(run: Run, args) -> dict:
    import polyadj

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {i.name: hashlib.sha256(i.text.encode()).hexdigest() for i in run.insts},
        "polyadj_file": str(Path(polyadj.__file__).resolve()),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cube-scan", "nonsimple",
                                                              "cyclic-walk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polyadj" / "__init__.py").is_file():
        print(f"error: no polyadj package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global C, Q, W
    import polyadj
    from polyadj import core as C
    import queries as Q
    import workloads as W

    if not Path(polyadj.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {polyadj.__file__}, not the package under {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(args.workload, args.seed, out)
    record = {"provenance": provenance(run, args)}
    print("# " + json.dumps(record["provenance"]))
    tally = Tally()
    try:
        if args.trace:
            values, record["detail"] = traced_pass(run, tally, out)
        else:
            values, record["detail"] = timed_pass(run, args.seconds, tally)
    except Exception as exc:  # report, then fail the run without a result
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    missing = {m["name"] for m in wanted} - values.keys()
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(error_rate=tally.failed / tally.attempted, problems=tally.problems,
                  metrics=metrics, unlisted={k: v for k, v in values.items() if k not in metrics})
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in tally.problems:
        print(f"# FAIL {problem}")
    print(f"# error_rate {record['error_rate']} ({tally.failed} of {tally.attempted})")
    for name, m in metrics.items():
        print(f"# {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
