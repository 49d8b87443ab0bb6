"""Command-line front end.

Polytope input comes from stdin or --file; diagnostics go to stderr.
Exit codes: 0 success, 2 validation or argument error, 3 unsupported
polytope (an operation that needs simplicity got a non-simple input),
4 internal invariant violated (a walk or the parity law failed, which a
correct and complete vertex list cannot cause).
"""

from __future__ import annotations

import argparse
import sys

from .adjacency import Verdict, all_pairs_adjacency, fast_verdict, neighbor_lists, precompute
from .core import Polytope, UnsupportedPolytopeError, detect_facets, is_simple
from .fileio import format_polytope, parse_polytope
from .generators import GENERATORS
from .pairgraph import all_complementary_pairs, disjoint_pairs, second_pair, verify_2d_parity


def _load(args: argparse.Namespace) -> Polytope:
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse_polytope(fh.read())
    return parse_polytope(sys.stdin.read())


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_info(args: argparse.Namespace) -> int:
    p = _load(args)
    facets = detect_facets(p)
    print(f"n {p.n}")
    print(f"m {p.m}")
    print(f"vertices {p.vertex_count}")
    print(f"dim {p.dimension}")
    print(f"facets {len(facets)}")
    print(f"simple {_yesno(is_simple(p, facets))}")
    return 0


def _cmd_adjacent(args: argparse.Namespace) -> int:
    p = _load(args)
    oracle = precompute(p)
    verdict, count = fast_verdict(oracle, args.u, args.v)
    print(verdict.value.upper())
    print(f"count {count}")
    if verdict is Verdict.INDETERMINATE:
        print("hint: 'graph' settles indeterminate pairs exactly", file=sys.stderr)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    p = _load(args)
    for u, v in all_pairs_adjacency(p):
        print(f"{u} {v}")
    return 0


def _cmd_complementary(args: argparse.Namespace) -> int:
    p = _load(args)
    facets = detect_facets(p)
    for u, v in all_complementary_pairs(p, facets):
        print(f"{u} {v}")
    return 0


def _with_graph(p: Polytope):
    facets = detect_facets(p)
    neighbors = neighbor_lists(p.vertex_count, all_pairs_adjacency(p))
    return facets, neighbors


def _cmd_second_pair(args: argparse.Namespace) -> int:
    p = _load(args)
    facets, neighbors = _with_graph(p)
    a, b = second_pair(p, facets, neighbors, (args.u, args.v))
    print(f"{a} {b}")
    return 0


def _cmd_disjoint_pairs(args: argparse.Namespace) -> int:
    p = _load(args)
    facets, neighbors = _with_graph(p)
    first, second = disjoint_pairs(p, facets, neighbors, (args.u, args.v))
    print(f"{first[0]} {first[1]}")
    print(f"{second[0]} {second[1]}")
    return 0


def _cmd_parity(args: argparse.Namespace) -> int:
    p = _load(args)
    report = verify_2d_parity(p, detect_facets(p))
    print(f"facets {report.facet_count}")
    print(f"pairs {report.pair_count}")
    print(f"even {_yesno(report.even)}")
    print(f"pairwise-disjoint {_yesno(report.pairwise_disjoint)}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    build, takes_dim = GENERATORS[args.name]
    if takes_dim:
        if args.dim is None:
            raise ValueError(f"generator {args.name!r} requires a dimension argument")
        p = build(args.dim)
    else:
        if args.dim is not None:
            raise ValueError(f"generator {args.name!r} takes no dimension argument")
        p = build()
    sys.stdout.write(format_polytope(p))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadj",
        description="Exact adjacency and complementary-pair queries on "
        "standard-form polytopes given by their vertices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, pair_args: bool = False, file_arg: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        if pair_args:
            cmd.add_argument("u", type=int, help="vertex index (0-based)")
            cmd.add_argument("v", type=int, help="vertex index (0-based)")
        if file_arg:
            cmd.add_argument("--file", help="polytope file (default: stdin)")
        cmd.set_defaults(func=func)
        return cmd

    add("info", _cmd_info, "size, dimension, facet count, simplicity")
    add("adjacent", _cmd_adjacent, "fast adjacency verdict for a vertex pair", pair_args=True)
    add("graph", _cmd_graph, "all edges of the polytope graph, one 'u v' per line")
    add("complementary", _cmd_complementary, "all vertex pairs sharing no facet")
    add("second-pair", _cmd_second_pair, "walk from a complementary pair to another",
        pair_args=True)
    add("disjoint-pairs", _cmd_disjoint_pairs,
        "two complementary pairs with four distinct vertices", pair_args=True)
    add("parity", _cmd_parity, "complementary-pair count and disjointness report")
    gen = sub.add_parser("gen", help="emit a built-in polytope as a file")
    gen.add_argument("name", choices=sorted(GENERATORS), help="generator name")
    gen.add_argument("dim", type=int, nargs="?", help="dimension, where the generator takes one")
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedPolytopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
