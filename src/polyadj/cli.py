"""Command-line front end.

Polytope input comes from stdin or --file; diagnostics go to stderr.
Exit codes: 0 success, 2 validation or argument error, 3 unsupported
polytope (an operation that needs simplicity got a non-simple input),
4 internal invariant violated (a walk or the parity law failed, which a
correct and complete vertex list cannot cause), 141 standard output closed
early (the reader of a pipe went away; nothing is printed).
"""

from __future__ import annotations

import argparse
import os
import sys

from .adjacency import Verdict, all_pairs_adjacency, fast_verdict, neighbor_lists, precompute
from .core import Polytope, UnsupportedPolytopeError, detect_facets, is_simple
from .fileio import format_polytope, parse_polytope
from .generators import _GENERATORS
from .pairgraph import all_complementary_pairs, disjoint_pairs, second_pair, verify_2d_parity


# first match wins; ValidationError is a ValueError
_EXIT_CODES = ((UnsupportedPolytopeError, 3), ((ValueError, OSError), 2), (RuntimeError, 4))


def _load(args: argparse.Namespace) -> Polytope:
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse_polytope(fh.read())
    return parse_polytope(sys.stdin.read())


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _print_pairs(pairs) -> None:
    for u, v in pairs:
        print(f"{u} {v}")


def _cmd_info(p: Polytope, args: argparse.Namespace) -> None:
    facets = detect_facets(p)
    print(f"n {p.n}")
    print(f"m {p.m}")
    print(f"vertices {p.vertex_count}")
    print(f"dim {p.dimension}")
    print(f"facets {len(facets)}")
    print(f"simple {_yesno(is_simple(p, facets))}")


def _cmd_adjacent(p: Polytope, args: argparse.Namespace) -> None:
    verdict, count = fast_verdict(precompute(p), args.u, args.v)
    print(verdict.value.upper())
    print(f"count {count}")
    if verdict is Verdict.INDETERMINATE:
        print("hint: 'graph' settles indeterminate pairs exactly", file=sys.stderr)


def _cmd_graph(p: Polytope, args: argparse.Namespace) -> None:
    _print_pairs(all_pairs_adjacency(p))


def _cmd_complementary(p: Polytope, args: argparse.Namespace) -> None:
    _print_pairs(all_complementary_pairs(p, detect_facets(p)))


def _with_graph(p: Polytope):
    return detect_facets(p), neighbor_lists(p.vertex_count, all_pairs_adjacency(p))


def _cmd_second_pair(p: Polytope, args: argparse.Namespace) -> None:
    _print_pairs([second_pair(p, *_with_graph(p), (args.u, args.v))])


def _cmd_disjoint_pairs(p: Polytope, args: argparse.Namespace) -> None:
    _print_pairs(disjoint_pairs(p, *_with_graph(p), (args.u, args.v)))


def _cmd_parity(p: Polytope, args: argparse.Namespace) -> None:
    report = verify_2d_parity(p, detect_facets(p))
    print(f"facets {report.facet_count}")
    print(f"pairs {report.pair_count}")
    print(f"even {_yesno(report.even)}")
    print(f"pairwise-disjoint {_yesno(report.pairwise_disjoint)}")


def _cmd_gen(args: argparse.Namespace) -> None:
    build, takes_dim = _GENERATORS[args.name]
    if takes_dim != (args.dim is not None):
        need = "requires a dimension argument" if takes_dim else "takes no dimension argument"
        raise ValueError(f"generator {args.name!r} {need}")
    sys.stdout.write(format_polytope(build(args.dim) if takes_dim else build()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadj",
        description="Exact adjacency and complementary-pair queries on "
        "standard-form polytopes given by their vertices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, pair_args: bool = False):
        cmd = sub.add_parser(name, help=help_text)
        if pair_args:
            cmd.add_argument("u", type=int, help="vertex index (0-based)")
            cmd.add_argument("v", type=int, help="vertex index (0-based)")
        cmd.add_argument("--file", help="polytope file (default: stdin)")
        # every file command takes the loaded polytope
        cmd.set_defaults(func=lambda args: func(_load(args), args))

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
    gen.add_argument("name", choices=sorted(_GENERATORS), help="generator name")
    gen.add_argument("dim", type=int, nargs="?", help="dimension, where the generator takes one")
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:  # the reader left; devnull keeps the last flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # what a shell reports for a tool killed by SIGPIPE
    except (UnsupportedPolytopeError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    raise SystemExit(main())
