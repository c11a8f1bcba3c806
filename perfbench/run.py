"""End-to-end and per-layer benchmark of the minangle CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload simplex5d --seed 1 --seconds 35 --trace 0

The benchmark generates its meshes from ``--seed`` (see ``corpus.py``), then
drives the CLI the way a user does: one ``python -m minangle.cli`` child per
command with ``PYTHONPATH=src``, as a closed loop with a single client, so at
most one child runs at a time.  Every command is timed from the outside, its
peak RSS comes from ``os.wait4``, and its output is verified (``verify.py``).

``--trace 0`` repeats rounds of (three no-work children, check, audit, info,
family) for ``--seconds`` seconds and reports the end-to-end metrics: the
median wall time per command and of the no-work child (``setup_s``), each
scaled by a reference child that runs between steps (see REFERENCE_PROGRAM),
the largest child RSS and the share of commands whose output verified.

``--trace 1`` runs one untraced round, then runs each command through the
real ``minangle.cli.main`` in-process with spans around the layer functions
it calls (``layers.py``).  It reports per-layer times, per-call times on a
sample of cells, the CLI's residual (the self time of ``main``), and counts
computed from the inputs and outputs.  Spans are written to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import verify
from corpus import MeshSpec, write_manifest, write_mesh

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
OUT_DIR = ROOT / ".perfbench_out"
PROGRAM = ["-m", "minangle.cli"]
SETUP_PROGRAM = ["-c", "import minangle.cli"]
COMMANDS = ("check", "audit", "info", "family")
# No-work children per round of commands, for the setup_s median.
SETUP_PER_ROUND = 3
# On a shared 2-vCPU virtual machine (Xeon host, Python 3.11, numpy 2.4)
# the CPU speed seen by one process swings by 30-50% over seconds to
# minutes through contention from other tenants, far more than the bounds.  A fixed reference child -- interpreter start, numpy import, small
# matrix calls and dict updates, the kinds of work the CLI does -- runs
# between measured steps, and every end-to-end time is the measured wall
# time times REFERENCE_S over the mean of the reference times around it:
# seconds on a machine where the reference takes REFERENCE_S.
REFERENCE_PROGRAM = ["-c", """
import numpy as np
mats = np.random.default_rng(0).standard_normal((3000, 4, 4))
acc = 0.0
for m in mats:
    g = m @ m.T
    acc += float(np.linalg.det(g)) + float(np.linalg.norm(m[0]))
    acc += float(np.arccos(np.clip(g[0, 1] / (g[0, 0] + g[1, 1]), -1.0, 1.0)))
counts = {}
for i in range(200000):
    counts[i % 1000] = counts.get(i % 1000, 0) + i
"""]
REFERENCE_S = 0.3
# In-process rounds of every command in the traced run.
TRACE_ROUNDS = 3
# Every child is killed at this many seconds into the run, so a hung
# command cannot keep the benchmark past its time limit.
RUN_LIMIT_S = 150.0


@dataclass(frozen=True)
class WorkloadDef:
    """Meshes (coarse to fine; the last one is the main mesh), flags and exits."""

    members: tuple[MeshSpec, ...]
    thresholds: dict
    exits: dict


WORKLOADS = {
    "simplex5d": WorkloadDef(
        members=(MeshSpec(dim=5, n=1),),
        thresholds={"min_dihedral": 1.5, "min_dsine": 0.5},
        exits={"check": 1, "audit": 0, "info": 0, "family": 1},
    ),
    "tri-bulk": WorkloadDef(
        members=(MeshSpec(dim=2, n=40),),
        thresholds={"min_dihedral": 0.1, "min_dsine": 0.1},
        exits={"check": 0, "audit": 0, "info": 0, "family": 0},
    ),
    "tet-sliver-family": WorkloadDef(
        members=(
            MeshSpec(dim=3, n=2, slivers=1),
            MeshSpec(dim=3, n=3, slivers=1),
            MeshSpec(dim=3, n=4, slivers=2),
            MeshSpec(dim=3, n=6, slivers=2, collapses=4),
        ),
        thresholds={"min_dihedral": 0.01, "min_dsine": 0.01},
        exits={"check": 3, "audit": 3, "info": 0, "family": 3},
    ),
}


@dataclass
class Outcome:
    wall_s: float
    exit_code: int
    rss_kb: int
    stdout: bytes
    stderr: str


class Runner:
    """Starts one child at a time and waits for it with ``os.wait4``."""

    def __init__(self, workdir: Path, program: list[str], deadline: float) -> None:
        self.workdir = workdir
        self.program = program
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(self, args: list[str]) -> Outcome:
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(wall, proc.returncode, usage.ru_maxrss, out_path.read_bytes(),
                       err_path.read_text(errors="replace"))


@dataclass
class Command:
    name: str
    args: list[str]
    expected_exit: int
    report: Path | None
    check: Callable[[str, int], list[str]]


@dataclass
class Workload:
    name: str
    meshes: list[Path]
    thresholds: dict
    commands: list[Command]
    truths: dict[Path, verify.MeshTruth]

    @property
    def main_mesh(self) -> Path:
        return self.meshes[-1]


def build_workload(name: str, defn: WorkloadDef, seed: int, workdir: Path) -> Workload:
    """Write the workload's meshes and manifest; bind each command to its checks."""
    rng = np.random.default_rng(seed)
    meshes = [write_mesh(workdir / f"mesh{i}_d{s.dim}_n{s.n}.json", s, rng)
              for i, s in enumerate(defn.members)]
    manifest = write_manifest(workdir / "manifest.json", meshes)
    oracles = verify.load_oracles(ROOT)
    truths: dict[Path, verify.MeshTruth] = {}

    def truth(path: Path) -> verify.MeshTruth:
        if path not in truths:
            truths[path] = verify.mesh_truth(oracles, path)
        return truths[path]

    main = meshes[-1]
    flags = ["--alpha0", repr(defn.thresholds["min_dihedral"]),
             "--dsine-min", repr(defn.thresholds["min_dsine"])]
    thresholds = defn.thresholds

    def report(name: str) -> Path:
        return workdir / f"{name}.report.json"

    checks = {
        "check": lambda text, code: verify.check_report(json.loads(text), truth(main), thresholds),
        "audit": lambda text, code: verify.audit_report(json.loads(text), truth(main), code),
        "info": lambda text, code: verify.info_output(text, truth(main)),
        "family": lambda text, code: verify.family_report(
            json.loads(text), [truth(m) for m in meshes], thresholds),
    }
    argv = {
        "check": ["check", str(main), *flags, "-o", str(report("check"))],
        "audit": ["audit", str(main), "-o", str(report("audit"))],
        "info": ["info", str(main)],
        "family": ["family", str(manifest), *flags, "-o", str(report("family"))],
    }
    commands = [
        Command(c, argv[c], defn.exits[c], None if c == "info" else report(c), checks[c])
        for c in COMMANDS
    ]
    return Workload(name, meshes, thresholds, commands, truths)


@dataclass
class Tally:
    """Outcomes of every child a run started, and the problems found."""

    walls: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    exits: dict[str, int] = field(default_factory=dict)
    outputs: dict[str, bytes] = field(default_factory=dict)
    checked: dict[str, list[str]] = field(default_factory=dict)
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, outcome: Outcome, problems: list[str]) -> None:
        self.walls.setdefault(name, []).append(outcome.wall_s)
        self.exits[name] = outcome.exit_code
        self.peak_rss_kb = max(self.peak_rss_kb, outcome.rss_kb)
        self.count(problems)

    def count(self, problems: list[str]) -> None:
        """One more command attempted; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def median(self, name: str) -> float:
        return statistics.median(self.walls[name])


def run_setup(runner: Runner, tally: Tally) -> None:
    outcome = runner.run(SETUP_PROGRAM)
    problems = []
    if outcome.exit_code != 0 or outcome.stderr.strip():
        problems.append(f"setup: exit {outcome.exit_code}, stderr {outcome.stderr[-300:]!r}")
    tally.record("setup", outcome, problems)


def run_command(runner: Runner, command: Command, tally: Tally) -> None:
    """Run one command and verify it.

    The first output of each command is checked against the oracles; a
    repeat must be byte-identical to it, as the README promises.
    """
    outcome = runner.run([*runner.program, *command.args])
    problems = []
    if outcome.exit_code != command.expected_exit:
        problems.append(f"{command.name}: exit {outcome.exit_code}, "
                        f"expected {command.expected_exit}")
    if "Traceback" in outcome.stderr:
        problems.append(f"{command.name}: traceback on stderr: {outcome.stderr[-500:]!r}")
    try:
        output = command.report.read_bytes() if command.report else outcome.stdout
    except OSError as exc:
        output = b""
        problems.append(f"{command.name}: no report written ({exc})")
    if command.report:
        command.report.unlink(missing_ok=True)
    if command.name not in tally.outputs:
        tally.outputs[command.name] = output
        tally.checked[command.name] = verify_output(command, output, outcome.exit_code)
    if output == tally.outputs[command.name]:
        problems += tally.checked[command.name]
    else:
        problems.append(f"{command.name}: output differs from the first run of the same input")
    tally.record(command.name, outcome, problems)


def verify_output(command: Command, output: bytes, exit_code: int) -> list[str]:
    if not output:
        return [f"{command.name}: empty output"]
    try:
        return command.check(output.decode(), exit_code)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{command.name}: unreadable output ({type(exc).__name__}: {exc})"]


def round_steps(runner: Runner, workload: Workload, tally: Tally):
    """A round: the no-work children as one step, then each command."""
    yield "setup", lambda: [run_setup(runner, tally) for _ in range(SETUP_PER_ROUND)]
    for command in workload.commands:
        yield command.name, lambda command=command: run_command(runner, command, tally)


def run_round(runner: Runner, workload: Workload, tally: Tally) -> None:
    for _, step in round_steps(runner, workload, tally):
        step()


def run_reference(runner: Runner) -> float:
    outcome = runner.run(REFERENCE_PROGRAM)
    if outcome.exit_code != 0:
        raise RuntimeError(f"reference child failed: {outcome.stderr[-500:]}")
    return outcome.wall_s


def measure(runner: Runner, workload: Workload, seconds: float, tally: Tally) -> None:
    """Closed loop: rounds back to back while the next one fits in ``seconds``.

    A reference child runs before the first step and after every step, and
    each wall time of a step is also kept scaled by the mean of the two
    reference times around it.
    """
    start = time.perf_counter()
    before = run_reference(runner)
    while True:
        round_start = time.perf_counter()
        for name, step in round_steps(runner, workload, tally):
            done = len(tally.walls.get(name, ()))
            step()
            after = run_reference(runner)
            speed = REFERENCE_S / ((before + after) / 2)
            tally.scaled.setdefault(name, []).extend(w * speed for w in tally.walls[name][done:])
            before = after
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return


def end_to_end(tally: Tally) -> dict[str, tuple[float, str]]:
    metrics = {f"{c}_s": (statistics.median(tally.scaled[c]), "s") for c in COMMANDS}
    metrics["setup_s"] = (statistics.median(tally.scaled["setup"]), "s")
    metrics["peak_rss_mb"] = (tally.peak_rss_kb / 1024.0, "MB")
    metrics["verified_ratio"] = ((tally.attempted - tally.failed) / tally.attempted, "1")
    return metrics


def counts(workload: Workload, tally: Tally) -> dict[str, tuple[float, str]]:
    """Work counts from the main mesh and the round's outputs; exact per seed."""
    truth = workload.truths[workload.main_mesh]
    doc = json.loads(workload.main_mesh.read_text())
    good = [c for i, c in enumerate(doc["cells"]) if i not in truth.degenerate]
    per_cell = sum(math.comb(truth.dim + 1, k) for k in range(3, truth.dim + 2))
    distinct = {
        subset
        for cell in good
        for k in range(3, truth.dim + 2)
        for subset in itertools.combinations(sorted(cell), k)
    }
    evals = len(good) * per_cell
    return {
        "count.cells": (truth.cell_count, "count"),
        "count.degenerate_cells": (len(truth.degenerate), "count"),
        "count.subsimplex_evals": (evals, "count"),
        "count.distinct_subsimplices": (len(distinct), "count"),
        "ratio.distinct_per_eval": (len(distinct) / evals, "1"),
        "count.mesh_bytes": (workload.main_mesh.stat().st_size, "count"),
        "count.report_bytes": (sum(len(tally.outputs[c]) for c in ("check", "audit", "family")),
                               "count"),
    }


def traced(runner: Runner, workload: Workload, seed: int, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics and each command's layer shares.

    One untraced round verifies the outputs and gives ``setup_s``; then
    ``TRACE_ROUNDS`` rounds run every command through the real
    ``minangle.cli.main`` in-process with its layers spanned
    (``layers.py``), one tracer per command.  Every time is the median over
    the rounds.  The CLI residual is the self time of the span around
    ``main``.  A command's shares divide set-up, each layer and the
    residual by set-up plus ``main`` -- the command's wall time less process
    exit -- within one round, so they add up to 1.  The tracing overhead is
    the spans of one round times the cost of one span, measured here.
    """
    import layers
    from spans import Tracer, dump, span_overhead

    run_round(runner, workload, tally)
    imports = [layers.import_times(runner.run(["-X", "importtime", *SETUP_PROGRAM]).stderr)
               for _ in range(3)]

    sys.path.insert(0, str(ROOT / "src"))
    absent: set[str] = set()
    sample = Tracer(f"{workload.name}-seed{seed}-sample")
    # The per-call sample runs first and doubles as warm-up for the rounds.
    per_call = layers.per_call(sample, workload.main_mesh,
                               workload.truths[workload.main_mesh].degenerate, absent)
    rounds = []
    for r in range(TRACE_ROUNDS):
        tracers = {}
        for command in workload.commands:
            tracer = Tracer(f"{workload.name}-seed{seed}-round{r}-{command.name}")
            code = layers.traced_main(tracer, command.name, command.args, absent)
            if command.report:
                command.report.unlink(missing_ok=True)
            tally.count([] if code in (None, command.expected_exit) else
                        [f"{command.name} in-process: exit {code}, "
                         f"expected {command.expected_exit}"])
            tracers[command.name] = tracer
        rounds.append(tracers)
    dump([sample, *(t for tracers in rounds for t in tracers.values())],
         OUT_DIR / f"spans-{workload.name}-seed{seed}.json")

    totals = []
    for tracers in rounds:
        self_s: dict[str, float] = {}
        cells: dict[str, int] = {}
        for tracer in tracers.values():
            for name, value in tracer.self_times().items():
                self_s[name] = self_s.get(name, 0.0) + value
            for name, value in tracer.cells().items():
                cells[name] = cells.get(name, 0) + value
        totals.append((self_s, cells))

    def layer(name: str) -> dict:
        return {
            f"{name}_ms": (statistics.median(s.get(name, 0.0) for s, _ in totals) * 1e3, "ms"),
            f"{name}_us_per_cell": (statistics.median(
                s.get(name, 0.0) * 1e6 / c[name] if c.get(name) else 0.0
                for s, c in totals), "us"),
        }

    def residual(command: str) -> float:
        return statistics.median(
            tracers[command].self_times().get(f"cli.{command}", 0.0) for tracers in rounds)

    spans_per_round = sum(len(t.spans) for t in rounds[0].values())
    metrics = {
        "import.numpy_ms": (statistics.median(i[0] for i in imports), "ms"),
        "import.minangle_ms": (statistics.median(i[1] for i in imports), "ms"),
        **layer("meshio.json_decode"),
        **layer("meshio.mesh_build"),
        **layer("meshio.validate_mesh"),
        **layer("meshio.conformity_check"),
        **layer("meshio.report_build"),
        **layer("meshio.json_dumps"),
        **layer("regularity.mesh_quality"),
        **layer("regularity.equivalence_audit"),
        "regularity.verdicts_ms": (layer("regularity.verdicts")["regularity.verdicts_ms"][0], "ms"),
        **{name: (value, "us") for name, value in per_call.items()},
        **{f"cli.{c}_residual_ms": (residual(c) * 1e3, "ms") for c in COMMANDS},
        **counts(workload, tally),
        "trace.overhead_ms": (spans_per_round * span_overhead() * 1e3, "ms"),
    }
    if absent:
        print(f"absent layers (reported as 0): {sorted(absent)}")
    return metrics, command_shares(rounds, tally)


def command_shares(rounds: list[dict], tally: Tally) -> dict:
    """Per command: median share of set-up, each layer and the CLI residual.

    ``modelled_over_wall`` compares set-up plus ``main`` with the measured
    wall time of the untraced child.
    """
    setup = tally.median("setup")
    result = {}
    for command in COMMANDS:
        per_round, modelled = [], []
        for tracers in rounds:
            root = f"cli.{command}"
            durations = tracers[command].durations(root)
            if not durations:
                continue
            total = setup + durations[0]
            parts = {"setup": setup / total}
            for name, value in tracers[command].self_times().items():
                parts["cli.residual" if name == root else name] = value / total
            per_round.append(parts)
            modelled.append(total)
        if not per_round:
            continue
        keys = sorted(set().union(*per_round))
        result[f"{command}_s"] = {
            "shares": {k: round(statistics.median(p.get(k, 0.0) for p in per_round), 4)
                       for k in keys},
            "modelled_over_wall": round(statistics.median(modelled) / tally.median(command), 4),
        }
    return result


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(name: str, defn: WorkloadDef, seed: int, seconds: float, trace: bool,
            program: list[str] = PROGRAM) -> tuple[Tally, dict, dict]:
    """Generate the workload and run it.

    Returns the tally, the metrics and, for a traced run, each command's
    layer shares (see :func:`command_shares`).
    """
    RUN_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir, program, time.monotonic() + RUN_LIMIT_S)
        workload = build_workload(name, defn, seed, workdir)
        tally = Tally()
        if trace:
            metrics, shares = traced(runner, workload, seed, tally)
        else:
            measure(runner, workload, seconds, tally)
            metrics, shares = end_to_end(tally), {}
        return tally, metrics, shares
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/minangle/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a minangle checkout",
              file=sys.stderr)
        return 2
    tally, metrics, _ = execute(args.workload, WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print("exit codes: " + " ".join(f"{c}={tally.exits[c]}" for c in COMMANDS)
          + f"  fail_ratio={tally.failed / tally.attempted:.4f}"
          + f" ({tally.failed}/{tally.attempted})")
    if tally.scaled:
        print("unscaled median wall times: " + " ".join(
            f"{c}={tally.median(c):.4f}s" for c in ("setup", *COMMANDS)))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
