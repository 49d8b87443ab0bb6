"""The public surface: each name is declared once, in the module that defines
it, the README's library example gives the values it states, and the package
runs on the standard library alone."""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import polyadj
from polyadj import adjacency, core, fileio, generators, joinmap, pairgraph

MODULES = (adjacency, core, fileio, generators, joinmap, pairgraph)

PUBLIC = [
    "AdjacencyOracle", "Facet", "Facets", "HPolytope", "JoinMap", "PairArc", "PairKind",
    "PairNode", "ParityReport", "Polytope", "UnsupportedPolytopeError", "ValidationError",
    "Verdict", "ZeroSet", "algebraic_test", "all_complementary_pairs", "all_pairs_adjacency",
    "arcs_from", "as_fraction", "bipyramid3", "build_join_map",
    "combinatorial_test", "cube", "detect_facets", "disjoint_pairs", "face_dimension",
    "fast_test", "fast_verdict", "format_polytope",
    "is_simple", "neighbor_lists", "pair_node", "parse_polytope", "precompute", "prism3",
    "rank", "second_pair", "simplex", "slack_embed", "truncated_cube",
    "verify_2d_parity",
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


def test_every_public_name_has_its_own_docstring():
    # a class's own, not one it inherits or one its base generates:
    # "Name(field, ...)" for a NamedTuple, "An enumeration." for an Enum on 3.10
    for name in polyadj.__all__:
        obj = getattr(polyadj, name)
        doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
        assert doc and doc.strip(), name
        assert not doc.startswith(f"{name}(") and doc != "An enumeration.", name


def test_readme_library_example():
    # each expression line with a trailing comment states the str() of its value
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    scope, checked = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr) and node.end_lineno in comments:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
            checked.append((str(value), comments[node.end_lineno]))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert checked == [(want, want) for want in
                       ("Verdict.ADJACENT", "[(0, 7), (1, 6), (2, 5), (3, 4)]", "(1, 6)")]


def test_runs_on_the_standard_library_alone():
    # README: no runtime dependency.  Under -S no site-packages are on the path,
    # and every module the CLI loads is the package's own or the standard library's
    src = Path(polyadj.__file__).resolve().parents[1]
    code = f"""if True:
        import contextlib, io, sys
        sys.path.insert(0, {str(src)!r})
        from polyadj import cli
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert cli.main(["gen", "cube", "3"]) == 0
        sys.stdin = io.StringIO(text.getvalue())
        assert cli.main(["info"]) == 0
        top = {{name.partition(".")[0] for name in sys.modules}}
        print(sorted(top - sys.stdlib_module_names - {{"polyadj", "__main__"}}))
    """
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "n 6\nm 3\nvertices 8\ndim 3\nfacets 6\nsimple yes\n[]\n"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses and inspect were most of the CLI's import time; only what
    # polyadj loads counts, after the standard-library modules the CLI needs
    src = Path(polyadj.__file__).resolve().parents[1]
    code = f"""if True:
        import sys
        sys.path.insert(0, {str(src)!r})
        import argparse, enum, fractions, re, typing
        before = set(sys.modules)
        import polyadj.cli
        print(sorted({{"dataclasses", "inspect"}} & (set(sys.modules) - before)))
    """
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")
