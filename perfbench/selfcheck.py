"""Self-check of the benchmark: exact counters, their repeatability, and the
refusal to run without the package.

    python3 perfbench/selfcheck.py

Runs the traced pass of every workload twice with one seed and checks:

* every answer agreed with the oracle (error rate 0);
* each exact counter (unit ``count`` or ``ratio``) is identical in both runs;
* ``adjacency.fallback_calls`` is 0 on cube-scan and cyclic-walk, > 0 on nonsimple;
* ``pairgraph.walk_steps`` is 1 for every cube walk and reaches 5 on cyclic-walk
  (C_6(12)*, whose walks take 1 to 5 steps);
* ``pairgraph.refusals`` equals the number of walk queries on nonsimple.

Then copies only BENCHMARK.json and this directory to a temporary directory
under ``perfbench/out`` and checks the benchmark fails there without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
TIMEOUT_S = 180
SEED = 1


def traced(workload: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    path = OUT / f"{workload}-seed{SEED}-trace1" / "result.json"
    if not path.is_file():  # a failed check still writes the record
        raise SystemExit(f"traced run of {workload} crashed:\n{proc.stderr}")
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]
    failures = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}")

    for workload in (w["name"] for w in spec["workloads"]):
        first, second = traced(workload), traced(workload)
        value = {k: v["value"] for k, v in first["metrics"].items()}
        steps = first["detail"]["walk_steps"]
        expect(first["error_rate"] == 0 == second["error_rate"], f"{workload}: error rate 0")
        changed = [k for k in exact if value[k] != second["metrics"][k]["value"]]
        expect(not changed, f"{workload}: exact counters repeat (differ: {changed})")
        fallbacks = value["adjacency.fallback_calls"]
        if workload == "nonsimple":
            expect(fallbacks > 0, f"{workload}: fallback_calls {fallbacks} > 0")
            expect(value["pairgraph.refusals"] == len(steps),
                   f"{workload}: refusals {value['pairgraph.refusals']} == walks {len(steps)}")
        else:
            expect(fallbacks == 0, f"{workload}: fallback_calls {fallbacks} == 0")
        if workload == "cube-scan":
            expect(set(steps) == {1}, f"{workload}: every walk takes 1 step ({sorted(set(steps))})")
        if workload == "cyclic-walk":
            expect(max(steps) == 5, f"{workload}: longest walk {max(steps)} == 5 steps")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload",
                           spec["workloads"][0]["name"], "--seed", str(SEED), "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
