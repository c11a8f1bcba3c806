"""Checks on what the minangle CLI wrote, against independent oracles.

Reports are read only through the keys the README documents for the
quality report (``ambient_dimension``, ``cell_count``, ``aggregates``,
``cells``, ``verdicts``, ``degenerate_cells``), plus ``satisfied`` for the
audit, and for the family report ``meshes``, ``verdicts`` and the
family-level minima and trend table the README describes
(``family_aggregates``, ``trend``); any other key is ignored, so reports
may grow.  Per-cell values are compared with the Cayley-Menger,
cross-product and planar-angle oracles of ``tests/oracles.py``, which share
no code with the package.

Every check returns a list of problems; an empty list means the command's
output is correct.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VALUE_TOL = 1e-9
# info prints values with 7 decimals.
TABLE_TOL = 1e-7


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` from the checkout as a standalone module."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("minangle_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class CellTruth:
    """Oracle values of one cell; angles are None where no oracle applies."""

    min_dsine: float
    min_dihedral: float | None
    max_dihedral: float | None
    planar_min: float


@dataclass
class MeshTruth:
    """What a correct report must say about one mesh file."""

    dim: int
    cell_count: int
    degenerate: frozenset[int]
    cells: dict[int, CellTruth] = field(default_factory=dict)


def _dsines(oracles, v: np.ndarray) -> list[float]:
    d = v.shape[0] - 1
    volume = oracles.cayley_menger_measure(v)
    facets = [oracles.cayley_menger_measure(np.delete(v, j, axis=0)) for j in range(d + 1)]
    scale = d ** (d - 1) * volume ** (d - 1) / math.factorial(d - 1)
    return [scale / math.prod(f for j, f in enumerate(facets) if j != i) for i in range(d + 1)]


def _planar_angles(oracles, v: np.ndarray) -> list[float]:
    return [
        oracles.planar_angle(v[list(tri)], i)
        for tri in itertools.combinations(range(len(v)), 3)
        for i in range(3)
    ]


def mesh_truth(oracles, mesh_path: Path) -> MeshTruth:
    """Oracle values for every cell of the mesh file the program was given."""
    doc = json.loads(mesh_path.read_text())
    vertices = np.array(doc["vertices"], dtype=float)
    cells = np.array(doc["cells"], dtype=np.int64)
    d = vertices.shape[1]
    degenerate = set()
    truth = MeshTruth(d, len(cells), frozenset())
    for index, cell in enumerate(cells):
        v = vertices[cell]
        if any(np.array_equal(v[a], v[b]) for a, b in itertools.combinations(range(d + 1), 2)):
            degenerate.add(index)
            continue
        planar = _planar_angles(oracles, v)
        lo = hi = None
        if d == 2:
            lo, hi = min(planar), max(planar)
        elif d == 3:
            dihedral = [
                oracles.tetra_dihedral_by_cross(v, i, j)
                for i, j in itertools.combinations(range(4), 2)
            ]
            lo, hi = min(planar + dihedral), max(planar + dihedral)
        truth.cells[index] = CellTruth(min(_dsines(oracles, v)), lo, hi, min(planar))
    truth.degenerate = frozenset(degenerate)
    return truth


def _close(a, b, tol: float = VALUE_TOL) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def _cell_problems(row: dict, truth: CellTruth, where: str) -> list[str]:
    problems = []
    if not _close(row.get("min_dsine"), truth.min_dsine):
        problems.append(f"{where}: min_dsine {row.get('min_dsine')} != oracle {truth.min_dsine}")
    lo = row.get("min_dihedral_rad")
    if truth.min_dihedral is not None:
        if not _close(lo, truth.min_dihedral):
            problems.append(f"{where}: min_dihedral_rad {lo} != oracle {truth.min_dihedral}")
        hi = row.get("max_dihedral_rad")
        if hi is not None and not _close(hi, truth.max_dihedral):
            problems.append(f"{where}: max_dihedral_rad {hi} != oracle {truth.max_dihedral}")
    elif not (isinstance(lo, (int, float)) and 0.0 < lo <= truth.planar_min + VALUE_TOL):
        # Above d = 3 there is no independent dihedral oracle; the minimum
        # over all subsimplices is at most the smallest planar angle.
        problems.append(f"{where}: min_dihedral_rad {lo} not in (0, {truth.planar_min}]")
    return problems


def cell_rows(doc: dict, truth: MeshTruth, where: str) -> tuple[dict[int, dict], list[str]]:
    """Index the report's cell rows; check the row set and the degenerate set."""
    problems = []
    rows = {}
    for row in doc.get("cells") or []:
        if isinstance(row, dict) and isinstance(row.get("index"), int):
            rows[row["index"]] = row
    if sorted(rows) != list(range(truth.cell_count)):
        problems.append(f"{where}: cell rows do not cover 0..{truth.cell_count - 1}")
    flagged = {i for i, row in rows.items() if row.get("degenerate") is True}
    listed = set(doc.get("degenerate_cells") or [])
    if flagged != truth.degenerate or listed != truth.degenerate:
        problems.append(
            f"{where}: degenerate cells {sorted(listed)} / rows {sorted(flagged)} "
            f"!= zero-length-edge cells {sorted(truth.degenerate)}"
        )
    return rows, problems


def _values_problems(rows: dict[int, dict], truth: MeshTruth, where: str) -> list[str]:
    problems = []
    for index, cell in truth.cells.items():
        if index in rows:
            problems += _cell_problems(rows[index], cell, f"{where} cell {index}")
    return problems


def _verdict_problems(doc: dict, rows: dict, truth: MeshTruth, thresholds: dict, where: str):
    problems = []
    verdicts = {v.get("condition"): v for v in doc.get("verdicts") or [] if isinstance(v, dict)}
    if set(verdicts) != set(thresholds):
        return [f"{where}: verdicts {sorted(verdicts)} != requested {sorted(thresholds)}"]
    metric_key = {"min_dihedral": "min_dihedral_rad", "min_dsine": "min_dsine"}
    for condition, threshold in thresholds.items():
        verdict = verdicts[condition]
        if truth.degenerate:
            worst_cell, worst_value = min(truth.degenerate), 0.0
        else:
            values = [(rows[i][metric_key[condition]], i) for i in sorted(rows)]
            worst_value, worst_cell = min(values)
        consistent = (
            verdict.get("threshold") == threshold
            and verdict.get("worst_cell") == worst_cell
            and verdict.get("worst_value") == worst_value
            and verdict.get("satisfied") is (worst_value >= threshold)
        )
        if not consistent:
            problems.append(
                f"{where}: verdict {verdict} inconsistent with cell minimum "
                f"{worst_value} at cell {worst_cell} and threshold {threshold}"
            )
    return problems


def check_report(doc, truth: MeshTruth, thresholds: dict, where: str = "check") -> list[str]:
    """A ``check`` quality report (also one member of a ``family`` report)."""
    if not isinstance(doc, dict):
        return [f"{where}: report is not a JSON object"]
    problems = []
    if doc.get("ambient_dimension") != truth.dim or doc.get("cell_count") != truth.cell_count:
        problems.append(f"{where}: wrong ambient_dimension or cell_count")
    rows, found = cell_rows(doc, truth, where)
    problems += found + _values_problems(rows, truth, where)
    if problems:
        return problems
    good = [rows[i] for i in truth.cells]
    aggregates = doc.get("aggregates") or {}
    if good and (
        aggregates.get("min_dihedral_rad") != min(r["min_dihedral_rad"] for r in good)
        or aggregates.get("min_dsine") != min(r["min_dsine"] for r in good)
    ):
        problems.append(f"{where}: aggregates disagree with the cell minima")
    return problems + _verdict_problems(doc, rows, truth, thresholds, where)


def audit_report(doc, truth: MeshTruth, exit_code: int) -> list[str]:
    """An ``audit`` report: per-cell values, degenerate set and overall outcome."""
    if not isinstance(doc, dict):
        return ["audit: report is not a JSON object"]
    rows, problems = cell_rows(doc, truth, "audit")
    problems += _values_problems(rows, truth, "audit")
    satisfied = doc.get("satisfied")
    if satisfied is not (exit_code == 0) or (truth.degenerate and satisfied):
        problems.append(f"audit: satisfied={satisfied} disagrees with exit code {exit_code}")
    return problems


def family_report(doc, truths: list[MeshTruth], thresholds: dict) -> list[str]:
    """A ``family`` report: every member is checked like a ``check`` report,
    then the family-level minima, trend and verdicts against the members."""
    members = doc.get("meshes") if isinstance(doc, dict) else None
    if not isinstance(members, list) or len(members) != len(truths):
        return ["family: 'meshes' does not list one report per manifest member"]
    problems = []
    for index, (member, truth) in enumerate(zip(members, truths)):
        problems += check_report(member, truth, thresholds, f"family member {index}")
    if problems:
        return problems
    return _family_aggregate_problems(doc, members) + _family_verdict_problems(doc, members)


def _family_aggregate_problems(doc: dict, members: list[dict]) -> list[str]:
    """Family minima (and the largest dihedral) and the trend rows equal the
    members' own aggregates."""
    problems = []
    aggregates = [m["aggregates"] for m in members]
    extrema = {"min_dihedral_rad": min, "max_dihedral_rad": max, "min_dsine": min,
               "min_ball_ratio": min}
    family = doc.get("family_aggregates") or {}
    for key, pick in extrema.items():
        values = [a.get(key) for a in aggregates if a.get(key) is not None]
        if family.get(key) != (pick(values) if values else None):
            problems.append(f"family: family_aggregates {key} {family.get(key)} != "
                            f"{pick.__name__} over the members")
    trend = doc.get("trend")
    expected = [(i, a.get("min_dihedral_rad"), a.get("min_dsine"))
                for i, a in enumerate(aggregates)]
    rows = [(r.get("index"), r.get("min_dihedral_rad"), r.get("min_dsine"))
            for r in trend if isinstance(r, dict)] if isinstance(trend, list) else None
    if rows != expected:
        problems.append("family: trend rows disagree with the member aggregates")
    return problems


def _family_verdict_problems(doc: dict, members: list[dict]) -> list[str]:
    """Per condition: the smallest member worst_value (first member on a
    tie) with its mesh and cell, and satisfied only if every member is."""
    problems = []
    by_member = [{v["condition"]: v for v in m["verdicts"]} for m in members]
    verdicts = {v.get("condition"): v for v in doc.get("verdicts") or [] if isinstance(v, dict)}
    if set(verdicts) != set(by_member[0]):
        return [f"family: verdicts {sorted(verdicts)} != member verdicts {sorted(by_member[0])}"]
    for condition, verdict in verdicts.items():
        worst_mesh = min(range(len(members)),
                         key=lambda i: by_member[i][condition]["worst_value"])
        worst = by_member[worst_mesh][condition]
        expected = {
            "threshold": worst["threshold"],
            "worst_mesh": worst_mesh,
            "worst_cell": worst["worst_cell"],
            "worst_value": worst["worst_value"],
            "satisfied": all(m[condition]["satisfied"] for m in by_member),
        }
        if any(verdict.get(k) != v for k, v in expected.items()):
            problems.append(f"family: verdict {verdict} != {expected} from the members")
    return problems


def info_output(text: str, truth: MeshTruth) -> list[str]:
    """The ``info`` table: one row per cell, 'degenerate' exactly where expected."""
    rows = {}
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) >= 2 and tokens[0].isdigit():
            rows[int(tokens[0])] = tokens[1]
    problems = []
    if sorted(rows) != list(range(truth.cell_count)):
        return [f"info: table rows do not cover 0..{truth.cell_count - 1}"]
    flagged = {i for i, value in rows.items() if value == "degenerate"}
    if flagged != truth.degenerate:
        problems.append(f"info: degenerate rows {sorted(flagged)} != {sorted(truth.degenerate)}")
    for index, cell in truth.cells.items():
        try:
            value = float(rows[index])
        except ValueError:
            problems.append(f"info cell {index}: min dihedral {rows[index]!r} is not a number")
            continue
        if cell.min_dihedral is None:
            if not 0.0 < value <= cell.planar_min + TABLE_TOL:
                problems.append(f"info cell {index}: min dihedral {value} not in "
                                f"(0, {cell.planar_min}]")
        elif not _close(value, cell.min_dihedral, TABLE_TOL):
            problems.append(f"info cell {index}: min dihedral {value} != oracle "
                            f"{cell.min_dihedral}")
    return problems
