"""Self-test of the benchmark harness.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It makes a reduced-size pass over all three workloads, untraced and traced,
and checks that every command verifies, that the exit codes are the expected
ones, that every metric named in BENCHMARK.json is reported, and that the
counts repeat exactly for the same seed.  Negative cases must be counted
as failures: an expected exit code the program does not give, a per-cell
report value and a family-level verdict perturbed after the program wrote
them.  Last, the benchmark must refuse
to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from corpus import MeshSpec

SEED = 7
SMALL = {
    "simplex5d": dataclasses.replace(run.WORKLOADS["simplex5d"], members=(MeshSpec(dim=4, n=1),)),
    "tri-bulk": dataclasses.replace(run.WORKLOADS["tri-bulk"], members=(MeshSpec(dim=2, n=6),)),
    "tet-sliver-family": dataclasses.replace(
        run.WORKLOADS["tet-sliver-family"],
        members=(MeshSpec(dim=3, n=2, slivers=1), MeshSpec(dim=3, n=3, slivers=1, collapses=1)),
    ),
}



def perturbing_program(edit: str) -> list[str]:
    """Runs the CLI, then applies ``edit`` to ``doc``, the report it wrote."""
    return ["-c", """
import json, sys
from minangle.cli import main
code = main(sys.argv[1:])
if "-o" in sys.argv:
    path = sys.argv[sys.argv.index("-o") + 1]
    with open(path) as f:
        doc = json.load(f)
""" + "".join(f"    {line}\n" for line in edit.strip().splitlines()) + """
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
sys.exit(code)
"""]


# Nudges one per-cell d-sine (in the finest member of a family report).
NUDGE_DSINE = """
rows = doc["cells"] if "cells" in doc else doc["meshes"][-1]["cells"]
row = next(r for r in rows if r.get("min_dsine") is not None)
row["min_dsine"] += 1e-6
"""
# Nudges the worst value of the first family-level verdict.
NUDGE_FAMILY_VERDICT = """
if "meshes" in doc:
    doc["verdicts"][0]["worst_value"] += 1e-6
"""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json lists exactly the workloads run.py defines")

    for name, defn in SMALL.items():
        tally, metrics, _ = run.execute(name, defn, SEED, 0, trace=False)
        expect(tally.failed == 0, f"{name}: every command verifies {tally.problems[:3]}")
        exits = {c: tally.exits[c] for c in run.COMMANDS}
        expect(exits == defn.exits, f"{name}: exit codes {exits}")
        expect(set(metrics) == end_to_end, f"{name}: every end-to-end metric is reported")
        expect(all(value > 0 for value, _ in metrics.values()), f"{name}: no end-to-end metric is 0")

        tally, metrics, shares = run.execute(name, defn, SEED, 0, trace=True)
        expect(tally.failed == 0, f"{name} traced: every command verifies {tally.problems[:3]}")
        expect(set(metrics) == per_layer, f"{name} traced: every per-layer metric is reported")
        expect(all(metrics[f"cli.{c}_residual_ms"][0] > 0 for c in run.COMMANDS),
               f"{name} traced: every CLI residual is positive")
        expect(set(shares) == {f"{c}_s" for c in run.COMMANDS}
               and all(min(row["shares"].values()) >= 0
                       and abs(sum(row["shares"].values()) - 1) < 0.01 for row in shares.values()),
               f"{name} traced: each command's shares are non-negative and add up to 1")
        if name == "tet-sliver-family":
            _, again, _ = run.execute(name, defn, SEED, 0, trace=True)
            exact = [k for k in per_layer if k.startswith(("count.", "ratio."))]
            expect(all(metrics[k] == again[k] for k in exact),
                   f"{name} traced: counts repeat exactly for the same seed")
            expect(metrics["count.degenerate_cells"][0] > 0, f"{name}: collapsed cells present")

    name, defn = "simplex5d", SMALL["simplex5d"]
    wrong = dataclasses.replace(defn, exits={**defn.exits, "check": 0})
    tally, metrics, _ = run.execute(name, wrong, SEED, 0, trace=False)
    expect(tally.failed == 1 and "check: exit 1, expected 0" in tally.problems[0],
           "a wrong exit code is counted as failed")
    expect(metrics["verified_ratio"][0] < 1.0, "and lowers verified_ratio")

    for name in ("tet-sliver-family", "tri-bulk"):
        tally, _, _ = run.execute(name, SMALL[name], SEED, 0, trace=False,
                                  program=perturbing_program(NUDGE_DSINE))
        failed = {p.split(":")[0].split()[0] for p in tally.problems}
        expect(tally.failed == 3 and failed == {"check", "audit", "family"},
               f"{name}: a perturbed d-sine fails check, audit and family")

    tally, _, _ = run.execute("tet-sliver-family", SMALL["tet-sliver-family"], SEED, 0,
                              trace=False, program=perturbing_program(NUDGE_FAMILY_VERDICT))
    expect(tally.failed == 1 and "family: verdict" in tally.problems[0],
           "a perturbed family-level verdict fails family")

    bare = run.RUN_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tri-bulk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(result.returncode != 0 and not result.stdout.strip(),
           "without the program the benchmark exits non-zero and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
