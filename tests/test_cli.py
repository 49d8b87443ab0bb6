"""Command-line behavior: outputs, exit codes, stdin/file input."""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyadj
from polyadj.cli import main
from polyadj.fileio import format_polytope
from polyadj.generators import bipyramid3, cube

CUBE3_INFO = "n 6\nm 3\nvertices 8\ndim 3\nfacets 6\nsimple yes\n"


@pytest.fixture
def cube3_file(tmp_path):
    path = tmp_path / "cube3.poly"
    path.write_text(format_polytope(cube(3)))
    return str(path)


@pytest.fixture
def bipyramid_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_polytope(bipyramid3())))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_info_round_trip(capsys, monkeypatch):
    assert main(["gen", "cube", "3"]) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "info")
    assert code == 0
    assert out == CUBE3_INFO


def test_info_from_file(capsys, cube3_file):
    code, out, _ = run(capsys, "info", "--file", cube3_file)
    assert code == 0
    assert out == CUBE3_INFO


def test_info_on_a_point(capsys, monkeypatch):
    # one vertex: dimension 0, no facets, simple
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 1\nA\nb\nvertices\n0\n"))
    assert run(capsys, "info") == (0, "n 1\nm 0\nvertices 1\ndim 0\nfacets 0\nsimple yes\n", "")


def test_info_every_generator(capsys):
    for argv in (["gen", "simplex", "4"], ["gen", "prism3"], ["gen", "bipyramid3"],
                 ["gen", "truncated_cube"]):
        assert main(argv) == 0
        capsys.readouterr()


# sha256 of the exact stdout of ``polyadj gen``; a segment is both cube(1) and simplex(1)
GEN_SHA256 = {
    ("cube", "1"): "95ef86bd323c598b9fb00424c0a523da452f3f65cbc39b2116219bfed55c33e7",
    ("cube", "2"): "bbd53567e6e57faead60cd62c89e96331e6b0dbe9a11b4cd32b2e08dea78ebd2",
    ("cube", "3"): "168ce94d97e68758391c694285471ac3e5f41c9d628582be96baf48ce642e705",
    ("cube", "4"): "5033046ed8511ca158261e6a2f86b8c2471142d2520e58b25cfef57955ae36d6",
    ("simplex", "1"): "95ef86bd323c598b9fb00424c0a523da452f3f65cbc39b2116219bfed55c33e7",
    ("simplex", "2"): "271a2bb0b0c33002280d8ae10999ae989f1761aa81a58958593b1e873ce00d01",
    ("simplex", "3"): "fad082df7c48e951c67f7e75ea29804ff65f9cc0221f1f746b15161760ebbbdb",
    ("simplex", "4"): "e47e4bc5ee1f9d5c63ad6709d377c2a71fc63774839117e3443e8e0529c2ca51",
    ("prism3",): "dc2d709bbb15cd138aaeb2de15649b7079f1f0eea6fdfd75879629ab5549dbb9",
    ("bipyramid3",): "8713dea7df818fca381edf49013b27ed1a5e1c2b7dd2d74a21aac6c6470dab17",
    ("truncated_cube",): "70f84edcc54296e50349a66dc921e42d8a01f2b349bef513cefabe13bd1d6c2a",
}


def test_gen_output_is_pinned_byte_for_byte(capsys):
    for args, digest in GEN_SHA256.items():
        code, out, err = run(capsys, "gen", *args)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_gen_never_reads_stdin(capsys, monkeypatch):
    class Unreadable:
        def read(self):
            raise AssertionError("gen read stdin")

    monkeypatch.setattr("sys.stdin", Unreadable())
    code, out, _ = run(capsys, "gen", "cube", "2")
    assert code == 0 and out == format_polytope(cube(2))


def test_adjacent_verdicts(capsys, cube3_file):
    code, out, err = run(capsys, "adjacent", "0", "1", "--file", cube3_file)
    assert (code, out) == (0, "ADJACENT\ncount 1\n")
    code, out, err = run(capsys, "adjacent", "0", "6", "--file", cube3_file)
    assert (code, out) == (0, "NON-ADJACENT\ncount 2\n")


def test_adjacent_looks_up_once(capsys, monkeypatch, cube3_file):
    from polyadj.joinmap import JoinMap

    calls = []
    lookup = JoinMap.lookup

    def counted(self, s):
        calls.append(s)
        return lookup(self, s)

    monkeypatch.setattr(JoinMap, "lookup", counted)
    code, out, _ = run(capsys, "adjacent", "0", "6", "--file", cube3_file)
    assert (code, out, len(calls)) == (0, "NON-ADJACENT\ncount 2\n", 1)


def test_adjacent_indeterminate_hints(capsys, bipyramid_stdin):
    code, out, err = run(capsys, "adjacent", "2", "3")
    assert code == 0
    assert out == "INDETERMINATE\ncount 1\n"
    assert "graph" in err  # pointer to the exact resolver


def test_graph_output(capsys, cube3_file):
    code, out, _ = run(capsys, "graph", "--file", cube3_file)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "0 1"
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))


def test_graph_resolves_non_simple(capsys, bipyramid_stdin):
    code, out, _ = run(capsys, "graph")
    assert code == 0
    assert "2 3" not in out.splitlines()  # apexes are not adjacent
    assert len(out.splitlines()) == 9


def test_complementary_output(capsys, cube3_file):
    code, out, _ = run(capsys, "complementary", "--file", cube3_file)
    assert (code, out) == (0, "0 7\n1 6\n2 5\n3 4\n")


def test_second_pair_output(capsys, cube3_file):
    code, out, _ = run(capsys, "second-pair", "0", "7", "--file", cube3_file)
    assert (code, out) == (0, "1 6\n")


def test_disjoint_pairs_output(capsys, cube3_file):
    code, out, _ = run(capsys, "disjoint-pairs", "0", "7", "--file", cube3_file)
    assert code == 0
    first, second = out.splitlines()
    a = tuple(map(int, first.split()))
    b = tuple(map(int, second.split()))
    assert len({*a, *b}) == 4


def test_parity_output(capsys, cube3_file):
    code, out, _ = run(capsys, "parity", "--file", cube3_file)
    assert (code, out) == (0, "facets 6\npairs 4\neven yes\npairwise-disjoint yes\n")


def test_exit_2_on_validation_errors(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 0 1\nA\nb\nvertices\n1 1/0\n"))
    code, out, err = run(capsys, "info")
    assert code == 2
    assert "zero denominator" in err

    monkeypatch.setattr("sys.stdin", io.StringIO("2 0 1\nA\nb\nvertices\n1 -1\n"))
    code, out, err = run(capsys, "info")
    assert code == 2
    assert "coordinate 2 is negative" in err


def test_exit_2_on_argument_errors(capsys, cube3_file):
    code, _, err = run(capsys, "adjacent", "0", "0", "--file", cube3_file)
    assert code == 2 and "distinct" in err
    code, _, err = run(capsys, "adjacent", "0", "99", "--file", cube3_file)
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "second-pair", "0", "1", "--file", cube3_file)
    assert code == 2 and "not complementary" in err
    code, _, err = run(capsys, "gen", "cube")
    assert code == 2 and "requires a dimension" in err
    code, _, err = run(capsys, "gen", "prism3", "3")
    assert code == 2 and "takes no dimension" in err


def test_exit_2_on_missing_file(capsys):
    code, _, err = run(capsys, "info", "--file", "/nonexistent/path.poly")
    assert code == 2
    assert "error:" in err


def test_exit_3_on_unsupported(capsys, bipyramid_stdin):
    code, _, err = run(capsys, "second-pair", "2", "3")
    assert code == 3
    assert "simple" in err


def test_exit_3_on_parity_unsupported(capsys, monkeypatch, bipyramid_stdin):
    code, _, err = run(capsys, "parity")
    assert code == 3


def test_exit_4_on_invariant_violation(capsys, tmp_path):
    # cube(3) missing one vertex: incomplete input that breaks the parity
    # law or a forced walk; the CLI reports it in one line, not a traceback
    assert main(["gen", "cube", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    lines[0] = "6 3 7"
    env = dict(os.environ, PYTHONPATH=str(Path(polyadj.__file__).parent.parent))
    for dropped, argv in (("0 0 0 1 1 1", ["parity"]), ("1 1 1 0 0 0", ["second-pair", "1", "6"])):
        path = tmp_path / "cube3_minus_one.poly"
        path.write_text("\n".join(line for line in lines if line != dropped) + "\n")
        proc = subprocess.run([sys.executable, "-m", "polyadj.cli", *argv, "--file", str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_usage_errors_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "octahedron"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_closed_stdout_exits_141_quietly(cube3_file):
    # the reader of the pipe is gone before the command writes: no error
    # line, and the exit code a shell gives a tool killed by SIGPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(polyadj.__file__).parent.parent))
    for argv in (["graph", "--file", cube3_file], ["gen", "cube", "3"]):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "polyadj.cli", *argv],
                                  stdout=w, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (141, b""), argv
