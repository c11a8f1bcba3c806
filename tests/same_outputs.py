"""Run the CLI from two source trees on the same inputs and list every difference.

Usage, from the root of a checkout::

    python tests/same_outputs.py PARENT_SRC CHANGE_SRC

Each ``src`` directory runs as ``python -m minangle.cli`` with ``PYTHONPATH`` set to it, on:

- ``check``, ``audit``, ``info`` and ``family`` of each benchmark workload's meshes
  (``perfbench/run.py``'s ``WORKLOADS``, written by ``perfbench/corpus.py``) at seeds 1 to 3,
  at the default tolerance and at ``--degeneracy-tol 1e-3``;
- ``generate`` of every kind;
- a few input errors.

Both trees run each case in the same directory on the same files, so paths in messages and
reports agree.  The exit code, standard output, standard error and report file of a case
must be the same bytes from both.  Exits 0 when every case agrees, and 1 after listing each
difference.  The name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from corpus import write_manifest, write_mesh  # noqa: E402
from run import COMMANDS, WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)
TOLERANCES = ((), ("--degeneracy-tol", "1e-3"))
KINDS = ("regular", "corner", "flatten", "needle", "random")
REPORT = "report.json"


def workload_cases(workdir: Path) -> list[list[str]]:
    """The four commands on each workload's meshes, as ``perfbench/run.py`` runs them."""
    cases = []
    for name, defn in WORKLOADS.items():
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            meshes = [
                write_mesh(workdir / f"{name}-{seed}-mesh{i}.json", spec, rng)
                for i, spec in enumerate(defn.members)
            ]
            manifest = write_manifest(workdir / f"{name}-{seed}-manifest.json", meshes)
            flags = [
                "--alpha0", repr(defn.thresholds["min_dihedral"]),
                "--dsine-min", repr(defn.thresholds["min_dsine"]),
            ]
            argv = {
                "check": ["check", meshes[-1].name, *flags, "-o", REPORT],
                "audit": ["audit", meshes[-1].name, "-o", REPORT],
                "info": ["info", meshes[-1].name],
                "family": ["family", manifest.name, *flags, "-o", REPORT],
            }
            cases += [[*argv[command], *tol] for command in COMMANDS for tol in TOLERANCES]
    return cases


def generate_cases() -> list[list[str]]:
    cases = [
        ["generate", "--kind", kind, "--dim", str(dim), "-o", "-"]
        for kind in KINDS
        for dim in (2, 3, 5)
    ]
    return cases + [
        ["generate", "--kind", "flatten", "--dim", "3", "--param", "1e-3", "-o", REPORT],
        ["generate", "--kind", "needle", "--dim", "4", "--param", "1e-3", "-o", "-"],
        ["generate", "--kind", "random", "--dim", "3", "--seed", "7", "--param", "0.2", "-o", "-"],
    ]


def error_cases(workdir: Path) -> list[list[str]]:
    """Input errors (exit 2), and a tri-bulk mesh that :func:`workload_cases` wrote checked at a
    tolerance some of its cells fail (exit 3)."""
    (workdir / "text.json").write_text(
        '{"ambient_dimension": 2, "vertices": [[0, 0], [1, "x"], [0, 1]], "cells": [[0, 1, 2]]}'
    )
    (workdir / "broken.json").write_text('{"ambient_dimension": 2, "vertices": [')
    (workdir / "number.json").write_text('{"meshes": [1]}')
    mesh = "tri-bulk-1-mesh0.json"
    return [
        ["check", "missing.json", "--alpha0", "0.5"],
        ["check", mesh],
        ["check", mesh, "--alpha0", "0.5", "--degeneracy-tol", "inf"],
        ["check", mesh, "--alpha0", "4"],
        ["check", "text.json", "--alpha0", "0.5"],
        ["audit", "broken.json"],
        ["family", "number.json", "--alpha0", "0.5"],
        ["info", mesh, "--degeneracy-tol", "0.8", "--bogus"],
        ["generate", "--kind", "random", "--dim", "3", "--seed", "-1"],
        ["check", mesh, "--alpha0", "0.5", "--degeneracy-tol", "0.5", "-o", REPORT],
    ]


def outcome(src: Path, argv: list[str], workdir: Path) -> tuple:
    """Exit code, stdout, stderr and report bytes (None if none was written) of one run."""
    report = workdir / REPORT
    report.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "minangle.cli", *argv],
        cwd=workdir, env=env, capture_output=True, stdin=subprocess.DEVNULL,
    )
    written = report.read_bytes() if report.exists() else None
    return done.returncode, done.stdout, done.stderr, written


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [Path(src).resolve() for src in argv]
    for src in trees:
        if not (src / "minangle" / "cli.py").is_file():
            print(f"error: {src} holds no minangle/cli.py", file=sys.stderr)
            return 2
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        cases = workload_cases(workdir) + generate_cases() + error_cases(workdir)
        for case in cases:
            parent, change = (outcome(src, case, workdir) for src in trees)
            parts = ("exit code", "stdout", "stderr", "report")
            differ = [part for part, a, b in zip(parts, parent, change) if a != b]
            if differ:
                differences += 1
                print(f"differ in {', '.join(differ)}: {' '.join(case)}")
    print(f"{len(cases)} cases, {differences} with a difference")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
