"""Record the machine and this commit's numbers for every workload.

Run from the root of a checkout::

    python3 perfbench/baseline.py --seed 1 --out perfbench/BASELINE.json

For each workload it makes one untraced run, for ``run_seconds`` as
BENCHMARK.json gives it, and one traced run, and stores every metric plus
each command's layer shares from the traced run: the share of interpreter
set-up, of each layer and of the CLI's own code (see ``run.command_shares``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

import run


def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"environment": environment(), "seed": args.seed, "run_seconds": seconds,
           "workloads": {}}
    for name, defn in run.WORKLOADS.items():
        untraced, end_to_end, _ = run.execute(name, defn, args.seed, seconds, trace=False)
        traced, per_layer, shares = run.execute(name, defn, args.seed, seconds, trace=True)
        doc["workloads"][name] = {
            "correct": untraced.failed == 0 and traced.failed == 0,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
            "layer_shares": shares,
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
