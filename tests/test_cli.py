"""Command-line behavior: outputs, exit codes, stdin/file input."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polyadj
from polyadj import generators
from polyadj.cli import main
from polyadj.core import Polytope
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


# The read commands on every fixture and on cube(3) minus a vertex (a list
# outside the contract), walks from the least complementary pair: the sha256 of
# stdout where a command succeeds with nothing on stderr, else its exit code and
# stderr with nothing on stdout.
DIM1 = "error: pair-graph walks need dimension > 1, got 1\n"
NOT_SIMPLE = ("error: pair-graph walks need a simple polytope; use the combinatorial adjacency "
              "test instead\n")
PARITY = ("error: 2d-facet parity law violated: ParityReport(facet_count=6, pair_count=3, "
          "even=False, pairwise_disjoint=True) on a simple polytope of dimension 3\n")
ARCS = "error: internal invariant violated: node (1, 6) has 1 arcs, expected exactly 2\n"
READ_PINS = {
    "cube 1": {
        "info": "1d91489c0678f2a353dde17470e008b62ad7cf071ab075a2984f0940b4295c57",
        "graph": "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424",
        "complementary": "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424",
        "parity": (3, DIM1),
        "second-pair 0 1": (3, DIM1),
        "disjoint-pairs 0 1": (3, DIM1),
    },
    "cube 2": {
        "info": "2bf9077a568221141774c4bcce0477be4abec09bd12b9cc865f590ec8ff8a8c4",
        "graph": "40bdbdd46433ff9550b65cd10c46c135b2296698ed082b0e2e5b6932279c8458",
        "complementary": "c172a7b6898d8e8fc0f7c827a326f8bae12e66c4366057631fc17b9d53dccc9f",
        "parity": "ef3f97842e032903c7e65ed027ba4c4a0f1592fedea97147c8c98bfb7136cdae",
        "second-pair 0 3": "f251ddc12234e0da8d3b778bd0f7463fb477f16f47757f5617dc8b4ff4d4f14a",
        "disjoint-pairs 0 3": "c172a7b6898d8e8fc0f7c827a326f8bae12e66c4366057631fc17b9d53dccc9f",
    },
    "cube 3": {
        "info": "14f4ac5b12f116f432b9150d2397ab504a7653494ca69383f494b3e6f456dcd5",
        "graph": "53674a178d5181f4c3e7cab223b16d4f1f1203b8febc7eeebc9bd0a7aea09b10",
        "complementary": "a4d439ea5b45c8c129e52fe55e4f21c0aa4d6b612571f08d9e2aaf7a6738486c",
        "parity": "aac2b1982b9205b065aec439a2c21a8dd3a48ec84f8760d75238b6cbd07e4cfc",
        "second-pair 0 7": "0210d51797921a617229eea6331ca1ee037b676ebc25e1a146e54c5c6dbf4881",
        "disjoint-pairs 0 7": "fc5074b4ca8a844a3ffe3577ec1a7c372908e56b5810e39dea04c2aa0bbf6211",
    },
    "cube 4": {
        "info": "216c035fa7a22a04e0b54bba41ea8c532b18fa1ce6731fbc633369f8453512cc",
        "graph": "4b72796373ee4d6c0785d2315eb1eb87298a6387283966fa928cba3da3b55da7",
        "complementary": "12874220ab071fa72a364946d0de051a6ac4a87c5f25eedcb5fbdcaf66084cf0",
        "parity": "7d7303ec24d72fa02693ed00e16bac508acc2c69e4102e0c79008b23f0a7ac74",
        "second-pair 0 15": "a8d048a39d90fb94356182da20aecaf6bc03af5497e5115712f485c036ee8a4d",
        "disjoint-pairs 0 15": "0e6427358ed0482f73c45364cd12b267bb94d088bbca4b7a5829038f3caa9497",
    },
    "simplex 1": {
        "info": "1d91489c0678f2a353dde17470e008b62ad7cf071ab075a2984f0940b4295c57",
        "graph": "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424",
        "complementary": "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424",
        "parity": (3, DIM1),
        "second-pair 0 1": (3, DIM1),
        "disjoint-pairs 0 1": (3, DIM1),
    },
    "simplex 2": {
        "info": "38ba1338890cc9756e6d04124baa12a5d14877ceb6100df2a9633df75efcfe49",
        "graph": "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af",
        "complementary": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "parity": "33f329e03894447e9ded41d6c6f60e366a1b3c08e0714310dcf9e29448cc5478",
    },
    "simplex 3": {
        "info": "1e0f540e62d63de8bbdd18f2829f0beabb5cc286e2d97f2fc420073e6ed8155d",
        "graph": "b68fb7de3d4c450107307a6d055e1d97e292335557965c26edfc710d3104e6dd",
        "complementary": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "parity": "a296e4031c7bd9e3e8e0a71c58483098ebc160d332aabea8924daaca89c22e1a",
    },
    "simplex 4": {
        "info": "48bb862f3b5aad3447fbba05413f00bb11ce3d2f6782da11f1b342bf0f53cd44",
        "graph": "b9142af063584e79deb29bd0a7652fe179ae720fec103607a884c6bb174ca606",
        "complementary": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "parity": "72eebeeac74ffc0b9c7d2e5df7849573f942bdb746fa79edb5aeefc2dec6a90b",
    },
    "prism3": {
        "info": "2a397278d761f7af87a06d918c3c720961bea858021ae53ccc7a3307bbe7c961",
        "graph": "86435fb860a2b35f8d5b96ea00cc28e9f55b930fd12ca682928ced54d20891e5",
        "complementary": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "parity": "72eebeeac74ffc0b9c7d2e5df7849573f942bdb746fa79edb5aeefc2dec6a90b",
    },
    "bipyramid3": {
        "info": "e84a199ff2ee937092db990144b057bdaf0975f9bb1a65e278a1e0a52451ccb1",
        "graph": "255f8209d260562a6425df60daaf86dbb85199044e60f5497d6f1e29da3a4d34",
        "complementary": "337b794ce718a09a620090d53541c3b4640a64133bbee2188444810cd3169f81",
        "parity": (3, NOT_SIMPLE),
        "second-pair 2 3": (3, NOT_SIMPLE),
        "disjoint-pairs 2 3": (3, NOT_SIMPLE),
    },
    "truncated_cube": {
        "info": "8a8a99117324ac986a1f6300ac47bee2efb5ddae15b5595d2909a8a6897d286a",
        "graph": "653c37462da2ccb6ea39165af1b65a2b563c38828d0e53a560378467014b046e",
        "complementary": "08790a00d1d5355d66a9b2d3e4e2e073ef437b81e68f656a02a342e4cf11dc2f",
        "parity": "c1717b0c808a7400bedd13183385e75190b0f28ceb1c1efd4e43d2c3bbacf788",
        "second-pair 0 8": "dea7e4555848aab04a6d866158df9903d5d45f49d18f6745f2c52f8670de280a",
        "disjoint-pairs 0 8": "a2e924e7756ad3736876f8e5141f9542bcfd44e0c3985f5bee2a4682856220be",
    },
    "cube 3 minus 0": {
        "info": "7921edec65777bfcbf778903188318038cbc9d999a32b2474a475e1dc3e453e6",
        "graph": "40d119bc63d230b7b28b5c8b41ba20bddd6322bd69a6c9a4b75b716cadd9ec39",
        "complementary": "35486d6d75a690c3cf3963d66213f5e2ac8c4b309ae6cd2d41ac2e0d974da80e",
        "parity": (4, PARITY),
        "second-pair 0 5": "337b794ce718a09a620090d53541c3b4640a64133bbee2188444810cd3169f81",
        "disjoint-pairs 0 5": "f4296652ec191f1bf384572017cf1f0144eef1755a23167bed42e9f47bbeebc7",
    },
    "cube 3 minus 6": {
        "info": "7921edec65777bfcbf778903188318038cbc9d999a32b2474a475e1dc3e453e6",
        "graph": "47b12f14fd4f0363ba174cd573495fcf78d8789fdb5e289fc85b3e9a76fb2061",
        "complementary": "799b845e06ba9adc4270c4bf64ff6bc4012dc31862929ca63bc99b0996ab00fb",
        "parity": (4, PARITY),
        "second-pair 0 6": (4, ARCS),
        "disjoint-pairs 0 6": (4, ARCS),
    },
}


def _pinned_input(label: str) -> Polytope:
    """``"cube 3"`` is cube(3), ``"prism3"`` prism3(), ``"cube 3 minus 6"`` cube(3)
    without vertex 6, on cube(3)'s own rows."""
    name, *args = label.split()
    p = getattr(generators, name)(*map(int, args[:1]))
    if "minus" in args:
        k = int(args[-1])
        p = Polytope(p.A, p.b, p.vertices[:k] + p.vertices[k + 1:])
    return p


def test_read_commands_are_pinned_byte_for_byte(capsys, monkeypatch):
    for label, pins in READ_PINS.items():
        text = format_polytope(_pinned_input(label))
        for command, pin in pins.items():
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, err = run(capsys, *command.split())
            if isinstance(pin, tuple):
                assert (code, err, out) == (*pin, ""), (label, command)
            else:
                assert (code, err) == (0, ""), (label, command)
                assert hashlib.sha256(out.encode()).hexdigest() == pin, (label, command)


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


# a file whose refusal would print a 6000-digit equality value, past what
# str(int) converts, and the same with a fraction of it
_LONG_EQUALITY = "1 1 1\nA\n{0}\nb\n1\nvertices\n{0}\n".format("7" * 3000)
_LONG_FRACTION = _LONG_EQUALITY[:-1] + "/2\n"
# every generator's file, as token lists with each line break a token of its own
_GEN_TOKENS = [format_polytope(build(3) if takes_dim else build()).replace("\n", " \n ").split(" ")
               for build, takes_dim in generators._GENERATORS.values()]
_GEN_TOKENS += [text.replace("\n", " \n ").split(" ") for text in (_LONG_EQUALITY, _LONG_FRACTION)]
_HOSTILE = ["0", "-1", "2", "9", "1/2", "1/0", "-0/3", "\u0661", "x", "#", "A", "b",
            "vertices", "\n", "7" * (sys.get_int_max_str_digits() + 1)]
_EDITS = st.tuples(st.sampled_from(["swap", "delete", "insert"]), st.integers(0, 999),
                   st.integers(0, 999), st.sampled_from(_HOSTILE))


def _mutated(tokens: list[str], edits) -> str:
    tokens = list(tokens)
    for op, i, j, new in edits:
        i, j = i % len(tokens), j % len(tokens)
        if op == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == "delete" and len(tokens) > 1:
            del tokens[i]
        elif op == "insert":
            tokens.insert(i, new if j % 2 else tokens[j])
    return " ".join(tokens)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(_GEN_TOKENS), st.lists(_EDITS, min_size=1, max_size=4),
       st.sampled_from(["info", "adjacent", "graph", "complementary", "second-pair",
                        "disjoint-pairs", "parity"]),
       st.integers(-2, 13), st.integers(-2, 13))
def test_hostile_files_end_in_one_line(tokens, edits, command, u, v):
    # swapped, deleted and inserted tokens: an exit code and at most one
    # stderr line, never an exception out of main
    argv = [command] + ([str(u), str(v)] if command in ("adjacent", "second-pair",
                                                         "disjoint-pairs") else [])
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(_mutated(tokens, edits))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


def test_over_long_refusal_values_print_as_digit_counts(capsys, monkeypatch):
    for text, value in ((_LONG_EQUALITY, "<6000 digits>"),
                        (_LONG_FRACTION, "<6000 digits>/2")):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, "info") == (
            2, "", f"error: vertex 0: equality row 0 gives {value}, expected 1\n")


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
