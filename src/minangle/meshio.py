"""Mesh data model, JSON ingestion, validation, conformity, and reports.

The canonical mesh format is a single JSON document::

    {"ambient_dimension": d, "vertices": [[x, ...], ...], "cells": [[i0, ..., id], ...]}

Coordinates are serialized through Python's shortest round-trip float
representation, so parse -> write -> parse is bit-exact.  A family of
meshes (coarse to fine) is listed in a manifest document::

    {"meshes": ["path0", "path1", ...]}

with member paths resolved relative to the manifest's own directory.

Quality reports, equivalence-audit reports and family reports are also
JSON; their layouts are fixed and key order is deterministic, so identical
inputs produce byte-identical report files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

import numpy as np

from .errors import InvalidInputError
from .geometry import DEFAULT_TOLERANCES, Simplex, ToleranceConfig
from .regularity import (
    ConditionVerdict,
    EquivalenceAudit,
    MeshQuality,
    SimplexQuality,
    _degenerate_cells,
    subsimplex_count,
)

__all__ = [
    "ConformityReport",
    "Mesh",
    "QualityReport",
    "ValidationReport",
    "audit_to_dict",
    "build_quality_report",
    "conformity_check",
    "dump_mesh",
    "load_mesh",
    "parse_family_manifest",
    "parse_mesh",
    "report_from_dict",
    "report_to_dict",
    "validate_mesh",
    "write_mesh",
    "write_report",
]

_DEG_PER_RAD = 180.0 / math.pi


class Mesh:
    """A simplicial mesh: a vertex pool plus (d+1)-tuples of vertex indices.

    Construction enforces the structural invariants (index ranges, cell
    arity, distinct indices per cell, finite coordinates); geometric
    degeneracy is the job of :func:`validate_mesh`.
    """

    __slots__ = ("_vertices", "_cells")

    def __init__(self, vertices, cells) -> None:
        try:
            varr = np.array(vertices, dtype=float, copy=True)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"inconsistent vertex coordinates: {exc}") from exc
        if varr.ndim != 2 or varr.shape[0] < 1 or varr.shape[1] < 1:
            raise InvalidInputError("vertices must form a nonempty 2-d coordinate array")
        if not np.all(np.isfinite(varr)):
            raise InvalidInputError("vertex coordinates must be finite")
        dim = varr.shape[1]

        cell_list = list(cells)
        if not cell_list:
            raise InvalidInputError("mesh has no cells")
        for pos, cell in enumerate(cell_list):
            indices = list(cell)
            if len(indices) != dim + 1:
                raise InvalidInputError(
                    f"cell {pos}: expected {dim + 1} vertex indices for dimension {dim}, "
                    f"got {len(indices)}"
                )
            if len(set(indices)) != len(indices):
                raise InvalidInputError(f"cell {pos}: repeated vertex index in {indices}")
            for idx in indices:
                if not isinstance(idx, (int, np.integer)) or isinstance(idx, bool):
                    raise InvalidInputError(f"cell {pos}: vertex index {idx!r} is not an integer")
                if not 0 <= idx < varr.shape[0]:
                    raise InvalidInputError(
                        f"cell {pos}: vertex index {idx} out of range 0..{varr.shape[0] - 1}"
                    )
        carr = np.array(cell_list, dtype=np.int64)
        varr.setflags(write=False)
        carr.setflags(write=False)
        self._vertices = varr
        self._cells = carr

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    @property
    def cells(self) -> np.ndarray:
        return self._cells

    @property
    def ambient_dim(self) -> int:
        return self._vertices.shape[1]

    @property
    def vertex_count(self) -> int:
        return self._vertices.shape[0]

    @property
    def cell_count(self) -> int:
        return self._cells.shape[0]

    def cell_simplex(self, index: int) -> Simplex:
        """The cell at ``index`` as a full-dimensional Simplex."""
        if not 0 <= index < self.cell_count:
            raise InvalidInputError(f"cell index {index} out of range 0..{self.cell_count - 1}")
        return Simplex(self._vertices[self._cells[index]])

    def __repr__(self) -> str:
        return (
            f"Mesh(d={self.ambient_dim}, vertices={self.vertex_count}, "
            f"cells={self.cell_count})"
        )


def parse_mesh(source: str | bytes | IO) -> Mesh:
    """Parse a canonical mesh document from text, bytes, or a file object.

    Raises InvalidInputError with line/position context on malformed JSON
    and with cell/vertex context on structural problems.
    """
    data = _read_json(source, "mesh")
    if not isinstance(data, dict):
        raise InvalidInputError("mesh document must be a JSON object")
    for key in ("ambient_dimension", "vertices", "cells"):
        if key not in data:
            raise InvalidInputError(f"mesh document is missing the {key!r} field")
    dim = data["ambient_dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InvalidInputError(f"ambient_dimension must be a positive integer, got {dim!r}")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise InvalidInputError("vertices must be a nonempty array of coordinate arrays")
    for pos, coords in enumerate(vertices):
        if not isinstance(coords, list) or len(coords) != dim:
            raise InvalidInputError(
                f"vertex {pos}: expected {dim} coordinates, got "
                f"{len(coords) if isinstance(coords, list) else type(coords).__name__}"
            )
        for value in coords:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidInputError(f"vertex {pos}: coordinate {value!r} is not a number")
    cellrows = data["cells"]
    if not isinstance(cellrows, list) or not cellrows:
        raise InvalidInputError("cells must be a nonempty array of index arrays")
    for pos, row in enumerate(cellrows):
        if not isinstance(row, list):
            raise InvalidInputError(f"cell {pos}: expected an array of vertex indices")
    return Mesh(vertices, cellrows)


def load_mesh(path: str | Path) -> Mesh:
    """Read and parse a mesh file from disk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read mesh file {path}: {exc}") from exc
    try:
        return parse_mesh(text)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def dump_mesh(mesh: Mesh) -> str:
    """Serialize a mesh to the canonical JSON document (round-trip exact)."""
    doc = {
        "ambient_dimension": mesh.ambient_dim,
        "vertices": [[float(x) for x in row] for row in mesh.vertices],
        "cells": [[int(i) for i in row] for row in mesh.cells],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_mesh(mesh: Mesh, sink: IO[str]) -> None:
    sink.write(dump_mesh(mesh))


def parse_family_manifest(source: str | bytes | IO, base_dir: str | Path | None = None) -> list[Path]:
    """Parse a family manifest, resolving member paths against ``base_dir``."""
    data = _read_json(source, "manifest")
    if not isinstance(data, dict) or "meshes" not in data:
        raise InvalidInputError("manifest document must be an object with a 'meshes' array")
    members = data["meshes"]
    if not isinstance(members, list) or not members:
        raise InvalidInputError("manifest 'meshes' must be a nonempty array of paths")
    base = Path(base_dir) if base_dir is not None else Path(".")
    paths = []
    for pos, member in enumerate(members):
        if not isinstance(member, str):
            raise InvalidInputError(f"manifest entry {pos} is not a path string")
        member_path = Path(member)
        paths.append(member_path if member_path.is_absolute() else base / member_path)
    return paths


def _read_json(source: str | bytes | IO, what: str) -> Any:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"malformed {what} document: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc


@dataclass(frozen=True)
class ValidationReport:
    """Geometric and referential problems found in a parsed mesh."""

    degenerate_cells: tuple[int, ...] = ()
    unused_vertices: tuple[int, ...] = ()
    duplicate_cells: tuple[int, ...] = ()

    @property
    def is_clean(self) -> bool:
        return not (self.degenerate_cells or self.unused_vertices or self.duplicate_cells)


def validate_mesh(mesh: Mesh, cfg: ToleranceConfig | None = None) -> ValidationReport:
    """Flag degenerate cells, unused vertices, and duplicate cells.

    Report-based: never raises for mesh-content problems.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    degenerate = np.flatnonzero(
        _degenerate_cells(mesh.vertices[mesh.cells], cfg.degeneracy_rel_tol)
    ).tolist()
    used = np.zeros(mesh.vertex_count, dtype=bool)
    used[mesh.cells.ravel()] = True
    unused = [int(i) for i in np.flatnonzero(~used)]
    seen: dict[tuple[int, ...], int] = {}
    duplicates = []
    for index in range(mesh.cell_count):
        key = tuple(sorted(int(i) for i in mesh.cells[index]))
        if key in seen:
            duplicates.append(index)
        else:
            seen[key] = index
    return ValidationReport(
        degenerate_cells=tuple(degenerate),
        unused_vertices=tuple(unused),
        duplicate_cells=tuple(duplicates),
    )


@dataclass(frozen=True)
class ConformityReport:
    """Conformity summary from matching facets.

    This is a combinatorial necessary condition only: every (d-1)-facet,
    identified by its sorted vertex-index set, may be shared by at most two
    cells.  Geometric (coordinate-level) conformity is out of scope.
    """

    facet_count: int
    boundary_facets: int
    interior_facets: int
    overshared_facets: tuple[tuple[tuple[int, ...], int], ...] = ()

    @property
    def is_conforming(self) -> bool:
        return not self.overshared_facets


def conformity_check(mesh: Mesh) -> ConformityReport:
    """Count how many cells share each (d-1)-facet and report violations."""
    counts: dict[tuple[int, ...], int] = {}
    for row in mesh.cells:
        cell = [int(i) for i in row]
        for omit in range(len(cell)):
            key = tuple(sorted(cell[:omit] + cell[omit + 1 :]))
            counts[key] = counts.get(key, 0) + 1
    overshared = tuple(
        (facet_key, count) for facet_key, count in sorted(counts.items()) if count > 2
    )
    boundary = sum(1 for count in counts.values() if count == 1)
    interior = sum(1 for count in counts.values() if count == 2)
    return ConformityReport(
        facet_count=len(counts),
        boundary_facets=boundary,
        interior_facets=interior,
        overshared_facets=overshared,
    )


@dataclass(frozen=True)
class QualityReport:
    """Per-cell quality records plus mesh aggregates and verdicts.

    The aggregates always equal the extrema of the per-cell records (over
    nondegenerate cells).
    """

    ambient_dim: int
    cell_count: int
    cells: tuple[SimplexQuality, ...]
    degenerate_cells: tuple[int, ...]
    min_dihedral: float
    max_dihedral: float
    min_dsine: float
    min_ball_ratio: float
    verdicts: tuple[ConditionVerdict, ...] = ()


def build_quality_report(
    mesh: Mesh, quality: MeshQuality, verdicts: tuple[ConditionVerdict, ...] | list = ()
) -> QualityReport:
    """Assemble a QualityReport; aggregates are recomputed from the cells."""
    if not quality.cells and not quality.degenerate_cells:
        raise InvalidInputError("refusing to build a report for an empty mesh")
    has_cells = bool(quality.cells)
    return QualityReport(
        ambient_dim=mesh.ambient_dim,
        cell_count=mesh.cell_count,
        cells=quality.cells,
        degenerate_cells=quality.degenerate_cells,
        min_dihedral=quality.min_dihedral() if has_cells else math.nan,
        max_dihedral=quality.max_dihedral() if has_cells else math.nan,
        min_dsine=quality.min_dsine() if has_cells else math.nan,
        min_ball_ratio=quality.min_ball_ratio() if has_cells else math.nan,
        verdicts=tuple(verdicts),
    )


def _num(value: float) -> float | None:
    return None if isinstance(value, float) and math.isnan(value) else float(value)


def _cell_dict(cell: SimplexQuality, degrees: bool) -> dict[str, Any]:
    row: dict[str, Any] = {
        "index": cell.cell_index,
        "min_dihedral_rad": cell.min_dihedral_all_sub,
        "max_dihedral_rad": cell.max_dihedral_all_sub,
        "min_dsine": cell.min_vertex_dsine,
        "ball_ratio": cell.ball_ratio,
        "dihedral_sum_rad": cell.dihedral_sum_top,
    }
    if degrees:
        row["min_dihedral_deg"] = cell.min_dihedral_all_sub * _DEG_PER_RAD
        row["max_dihedral_deg"] = cell.max_dihedral_all_sub * _DEG_PER_RAD
        row["dihedral_sum_deg"] = cell.dihedral_sum_top * _DEG_PER_RAD
    return row


def _degenerate_cell_dict(index: int) -> dict[str, Any]:
    return {
        "index": index,
        "min_dihedral_rad": None,
        "max_dihedral_rad": None,
        "min_dsine": None,
        "ball_ratio": None,
        "dihedral_sum_rad": None,
        "degenerate": True,
    }


def _verdict_dict(verdict: ConditionVerdict) -> dict[str, Any]:
    row: dict[str, Any] = {
        "condition": verdict.condition,
        "threshold": verdict.threshold_used,
        "satisfied": verdict.satisfied,
        "worst_cell": verdict.worst_cell,
        "worst_value": verdict.worst_value,
    }
    if verdict.degenerate_cells:
        row["degenerate_cells"] = list(verdict.degenerate_cells)
    return row


def report_to_dict(report: QualityReport, degrees: bool = False) -> dict[str, Any]:
    """Quality report as a JSON-ready dict with deterministic key order.

    Angles are emitted in radians; ``degrees=True`` adds parallel ``*_deg``
    annotation fields and changes nothing else.
    """
    rows = [_cell_dict(c, degrees) for c in report.cells]
    rows.extend(_degenerate_cell_dict(i) for i in report.degenerate_cells)
    rows.sort(key=lambda r: r["index"])
    aggregates: dict[str, Any] = {
        "min_dihedral_rad": _num(report.min_dihedral),
        "max_dihedral_rad": _num(report.max_dihedral),
        "min_dsine": _num(report.min_dsine),
        "min_ball_ratio": _num(report.min_ball_ratio),
    }
    if degrees:
        aggregates["min_dihedral_deg"] = (
            None if _num(report.min_dihedral) is None else report.min_dihedral * _DEG_PER_RAD
        )
        aggregates["max_dihedral_deg"] = (
            None if _num(report.max_dihedral) is None else report.max_dihedral * _DEG_PER_RAD
        )
    doc: dict[str, Any] = {
        "ambient_dimension": report.ambient_dim,
        "cell_count": report.cell_count,
        "aggregates": aggregates,
        "cells": rows,
        "verdicts": [_verdict_dict(v) for v in report.verdicts],
    }
    if report.degenerate_cells:
        doc["degenerate_cells"] = list(report.degenerate_cells)
    return doc


def report_from_dict(doc: dict[str, Any]) -> QualityReport:
    """Rebuild a QualityReport from its JSON dict (inverse of report_to_dict)."""
    try:
        cells = []
        degenerate = []
        for row in doc["cells"]:
            if row.get("degenerate"):
                degenerate.append(int(row["index"]))
                continue
            cells.append(
                SimplexQuality(
                    cell_index=int(row["index"]),
                    min_dihedral_all_sub=float(row["min_dihedral_rad"]),
                    max_dihedral_all_sub=float(row["max_dihedral_rad"]),
                    min_vertex_dsine=float(row["min_dsine"]),
                    ball_ratio=float(row["ball_ratio"]),
                    dihedral_sum_top=float(row["dihedral_sum_rad"]),
                    subsimplex_count=subsimplex_count(int(doc["ambient_dimension"])),
                )
            )
        verdicts = tuple(
            ConditionVerdict(
                condition=str(v["condition"]),
                threshold_used=float(v["threshold"]),
                satisfied=bool(v["satisfied"]),
                worst_cell=int(v["worst_cell"]),
                worst_value=float(v["worst_value"]),
                degenerate_cells=tuple(v.get("degenerate_cells", ())),
            )
            for v in doc["verdicts"]
        )
        agg = doc["aggregates"]

        def _back(value):
            return math.nan if value is None else float(value)

        return QualityReport(
            ambient_dim=int(doc["ambient_dimension"]),
            cell_count=int(doc["cell_count"]),
            cells=tuple(cells),
            degenerate_cells=tuple(degenerate),
            min_dihedral=_back(agg["min_dihedral_rad"]),
            max_dihedral=_back(agg["max_dihedral_rad"]),
            min_dsine=_back(agg["min_dsine"]),
            min_ball_ratio=_back(agg["min_ball_ratio"]),
            verdicts=verdicts,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed quality report document: {exc}") from exc


def write_report(report: QualityReport, sink: IO[str], degrees: bool = False) -> None:
    """Serialize a quality report as JSON to a text sink."""
    json.dump(report_to_dict(report, degrees), sink, indent=2)
    sink.write("\n")


def audit_to_dict(audit: EquivalenceAudit, degrees: bool = False) -> dict[str, Any]:
    """Equivalence-audit report as a JSON-ready dict."""
    rows = []
    for cell in audit.cells:
        row: dict[str, Any] = {
            "index": cell.cell_index,
            "min_dsine": cell.min_vertex_dsine,
            "min_dihedral_rad": cell.min_dihedral_all_sub,
            "max_dihedral_rad": cell.max_dihedral_all_sub,
            "certified_bound": cell.certified_bound,
            "forward_margin": cell.forward_margin,
            "backward_margin": cell.backward_margin,
        }
        if degrees:
            row["min_dihedral_deg"] = cell.min_dihedral_all_sub * _DEG_PER_RAD
            row["max_dihedral_deg"] = cell.max_dihedral_all_sub * _DEG_PER_RAD
        rows.append(row)
    rows.extend({"index": i, "degenerate": True} for i in audit.degenerate_cells)
    rows.sort(key=lambda r: r["index"])
    has_cells = bool(audit.cells)
    doc: dict[str, Any] = {
        "ambient_dimension": audit.ambient_dim,
        "cell_count": len(audit.cells) + len(audit.degenerate_cells),
        "audit_tolerance": audit.tolerance,
        "aggregates": {
            "min_forward_margin": audit.min_forward_margin() if has_cells else None,
            "min_backward_margin": audit.min_backward_margin() if has_cells else None,
        },
        "cells": rows,
        "satisfied": audit.satisfied(),
    }
    if audit.degenerate_cells:
        doc["degenerate_cells"] = list(audit.degenerate_cells)
    return doc
