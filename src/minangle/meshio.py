"""Mesh data model, JSON ingestion, validation, conformity, and reports.

The canonical mesh format is a single JSON document::

    {"ambient_dimension": d, "vertices": [[x, ...], ...], "cells": [[i0, ..., id], ...]}

Coordinates are serialized through Python's shortest round-trip float
representation, so parse -> write -> parse is bit-exact.  A family of
meshes (coarse to fine) is listed in a manifest document::

    {"meshes": ["path0", "path1", ...]}

with member paths resolved relative to the manifest's own directory.

Every output layout is made here, from the records: the quality,
equivalence-audit and family reports (:func:`report_to_dict`,
:func:`audit_to_dict`, :func:`family_to_dict`) are JSON laid out by the stdlib
encoder, each per-cell table written in chunks of rows, and :func:`info_lines`
lays out the ``info`` text.  Key order is fixed, so identical inputs produce
byte-identical report files.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from pathlib import Path
from typing import IO, Any, Callable, Iterator, NoReturn

import numpy as np

from .errors import InvalidInputError
from .geometry import Simplex, _coordinates, _is_index_type, _others, _Record, _require_integer
from .regularity import AUDIT_TOLERANCE, ConditionVerdict, MeshQuality

_DEG_PER_RAD = 180.0 / math.pi

# The C one-shot encoder: the same float repr, NaN/Infinity and ASCII
# escaping as json.dumps, without the pure-Python path its indent takes.
_ENCODER = json.JSONEncoder()
_ENCODE = _ENCODER.encode
_CHUNK_ROWS = 256  # rows per write of a table, so the text alive at once stays small
# A table's place in the layout; no document holds a NUL, as a member's path cannot.
_PLACEHOLDER = "\x00rows"


def _write(doc: Any, write: Callable[[str], Any]) -> None:
    """Write ``json.dumps(doc, indent=2)``, as every JSON document is written: the stdlib encoder
    lays out ``doc``, and each :class:`_Rows` table writes its rows where its placeholder is."""
    tables: list[_Rows] = []

    def placeholder(value: Any) -> str:  # anything but a table raises json.dumps's own TypeError
        tables.append(value if isinstance(value, _Rows) else _ENCODER.default(value))
        return _PLACEHOLDER

    text = json.dumps(doc, indent=2, default=placeholder)
    pieces = text.split(_ENCODE(_PLACEHOLDER), len(tables))
    for piece, table in zip(pieces, tables):
        line = piece[piece.rfind("\n") + 1 :]
        write(piece)
        table.write(line[: len(line) - len(line.lstrip(" "))], write)
    write(pieces[-1])


def _dumps(doc: Any) -> str:
    """The text :func:`_write` writes: ``json.dumps(doc, indent=2)``, byte for byte."""
    pieces: list[str] = []
    _write(doc, pieces.append)
    return "".join(pieces)


def _element_template(fields: dict[str, Any], indent: str) -> str:
    """A comma, then ``fields`` as an element of an array at ``indent``; ``%s`` per placeholder."""
    text = json.dumps([fields], indent=2)[1:-2].replace("\n", "\n" + indent)
    return "," + text.replace("%", "%%").replace(_ENCODE(_PLACEHOLDER), "%s")


def _json_floats(values: np.ndarray) -> np.ndarray:
    """The JSON text of each float of ``values``, each distinct bit pattern encoded once: cells
    that share faces share extrema, and grouping on bits keeps ``-0.0`` apart from ``0.0``."""
    distinct, where = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    # One C-encoder call; a float never encodes to text holding ", ".
    texts = _ENCODE(distinct.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[where].reshape(values.shape)


def _cell_lines(
    quality: MeshQuality, good: str, degenerate: str, columns: list, encode: Callable = np.asarray
) -> Iterator[str]:
    """Each cell's template by index, filled with the index and its row of ``columns`` or Nones,
    ``_CHUNK_ROWS`` cells a piece; ``encode`` maps a chunk's rows of values to their fills."""
    count = len(quality.cells) + len(quality.degenerate_cells)
    slots = np.full(count, -1)  # a cell's row in the columns; -1 for a degenerate cell
    slots[quality.cells] = np.arange(len(quality.cells))
    for start in range(0, count, _CHUNK_ROWS):
        rows = slots[start : start + _CHUNK_ROWS]
        values = np.column_stack([column[rows[rows >= 0]] for column in columns])
        table = np.empty((len(rows), 1 + len(columns)), dtype=object)
        table[:, 0] = range(start, start + len(rows))
        table[rows >= 0, 1:] = encode(values)
        templates = [good if row >= 0 else degenerate for row in rows.tolist()]
        yield "".join(templates) % tuple(table.ravel().tolist())


class _Rows(_Record, eq=False):
    """A report's ``cells`` array: one row per cell by index, written by :func:`_write`.

    A good cell's row is its index and its entries of ``columns``; a
    degenerate cell's is its index and the literal ``degenerate`` fields.
    """

    quality: MeshQuality
    columns: dict[str, np.ndarray]
    degenerate: dict[str, Any]

    def write(self, indent: str, write: Callable[[str], Any]) -> None:
        """Write the array as ``json.dumps(indent=2)`` lays it out at ``indent``, a chunk a call."""
        good = _element_template(dict.fromkeys(("index", *self.columns), _PLACEHOLDER), indent)
        # The degenerate template swallows the Nones of its row's value slots.
        degenerate = _element_template({"index": _PLACEHOLDER, **self.degenerate}, indent)
        degenerate += "%.0s" * len(self.columns)
        chunks = _cell_lines(self.quality, good, degenerate, [*self.columns.values()], _json_floats)
        first = next(chunks, None)
        write("[" + first[1:] if first else "[")  # the first row has no comma before it
        for chunk in chunks:
            write(chunk)
        write("\n" + indent + "]" if first else "]")


class Mesh:
    """A simplicial mesh: a vertex pool plus (d+1)-tuples of vertex indices.

    Construction enforces the structural invariants (index ranges, cell
    arity, distinct indices per cell, finite coordinates); geometric
    degeneracy is decided by :func:`minangle.regularity.mesh_quality`.
    """

    __slots__ = ("_vertices", "_cells")

    def __init__(self, vertices, cells) -> None:
        varr = _coordinates(vertices)
        dim = varr.shape[1]

        cell_list = list(cells)
        if not cell_list:
            raise InvalidInputError("mesh has no cells")
        carr = _stacked_cells(cell_list, dim, varr.shape[0])
        if carr is None:
            _raise_first_bad_cell(cell_list, dim, varr.shape[0])
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
        if not _is_index_type(type(index)) or not 0 <= index < self.cell_count:
            raise InvalidInputError(f"cell index {index!r} out of range 0..{self.cell_count - 1}")
        return Simplex(self._vertices[self._cells[index]])

    def __repr__(self) -> str:
        return (
            f"Mesh(d={self.ambient_dim}, vertices={self.vertex_count}, "
            f"cells={self.cell_count})"
        )


def _stacked_cells(cells: list, dim: int, vertex_count: int) -> np.ndarray | None:
    """The cells as an (N, dim+1) int64 array, or None if any cell breaks a structural rule.

    Index types are checked as one set of types; arity, range and distinct
    indices on the stacked, row-sorted array.
    """
    try:
        kinds = set(map(type, itertools.chain.from_iterable(cells)))
        if not all(map(_is_index_type, kinds)):
            return None
        stacked = np.array(cells, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if stacked.ndim != 2 or stacked.shape[1] != dim + 1:
        return None
    ordered = np.sort(stacked, axis=1)
    if (
        ordered[:, 0].min() < 0
        or ordered[:, -1].max() >= vertex_count
        or (ordered[:, 1:] == ordered[:, :-1]).any()
    ):
        return None
    return stacked


def _raise_first_bad_cell(cells: list, dim: int, vertex_count: int) -> NoReturn:
    """Raise InvalidInputError for the first cell that breaks a structural rule, in this order:
    a row is an ordered sequence (not a string) of dim + 1 entries, each an integer in range,
    none repeated."""
    for pos, cell in enumerate(cells):
        ordered = cell.ndim > 0 if isinstance(cell, np.ndarray) else isinstance(cell, Sequence)
        if not ordered or isinstance(cell, (str, bytes, bytearray)):
            raise InvalidInputError(f"cell {pos}: expected an array of vertex indices")
        indices = list(cell)
        if len(indices) != dim + 1:
            raise InvalidInputError(
                f"cell {pos}: expected {dim + 1} vertex indices for dimension {dim}, "
                f"got {len(indices)}"
            )
        for idx in indices:
            if not _is_index_type(type(idx)):
                raise InvalidInputError(f"cell {pos}: vertex index {idx!r} is not an integer")
            if not 0 <= idx < vertex_count:
                raise InvalidInputError(
                    f"cell {pos}: vertex index {idx} out of range 0..{vertex_count - 1}"
                )
        if len(set(indices)) != len(indices):
            raise InvalidInputError(f"cell {pos}: repeated vertex index in {indices}")
    raise InvalidInputError("cells do not form an integer array")  # every row passed alone


def _raise_first_bad_vertex(vertices: list, dim: int) -> None:
    """Raise InvalidInputError for the first vertex that is not ``dim`` numbers, if any."""
    for pos, coords in enumerate(vertices):
        if not isinstance(coords, list) or len(coords) != dim:
            raise InvalidInputError(
                f"vertex {pos}: expected {dim} coordinates, got "
                f"{len(coords) if isinstance(coords, list) else type(coords).__name__}"
            )
        for value in coords:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidInputError(f"vertex {pos}: coordinate {value!r} is not a number")


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
    _require_integer(dim, "ambient_dimension", 1)
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise InvalidInputError("vertices must be a nonempty array of coordinate arrays")
    if not (
        set(map(type, vertices)) == {list}
        and set(map(len, vertices)) == {dim}
        and {int, float}.issuperset(map(type, itertools.chain.from_iterable(vertices)))
    ):
        _raise_first_bad_vertex(vertices, dim)
    cellrows = data["cells"]
    if not isinstance(cellrows, list) or not cellrows:
        raise InvalidInputError("cells must be a nonempty array of index arrays")
    return Mesh(vertices, cellrows)


def _read_file(path: str | Path, what: str, parse: Callable[[bytes], Any]) -> Any:
    """``parse`` of the bytes of the ``what`` file at ``path``; each error names the file."""
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return parse(data)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def load_mesh(path: str | Path) -> Mesh:
    """Read and parse a mesh file from disk."""
    return _read_file(path, "mesh file", parse_mesh)


def dump_mesh(mesh: Mesh) -> str:
    """Serialize a mesh to the canonical JSON document (round-trip exact), as json.dumps does."""
    doc = {
        "ambient_dimension": mesh.ambient_dim,
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells.tolist(),
    }
    return _dumps(doc) + "\n"


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
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        return json.loads(source)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"{what} document is not valid UTF-8: {exc.reason} at byte {exc.start}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"malformed {what} document: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise InvalidInputError(
            f"malformed {what} document: arrays or objects nested too deeply"
        ) from exc


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the equal rows of an (n, m) integer array, m >= 1.

    Returns each group's first row index and row count, with the groups in
    lexicographic order of their rows, and each row's group: what
    ``np.unique(rows, axis=0, return_index=True, return_counts=True,
    return_inverse=True)`` returns, from one lexsort and no structured view.
    """
    order = np.lexsort(rows.T[::-1])  # the last key is the primary one
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    # lexsort is stable, so each group starts at its earliest row.
    first = order[starts]
    counts = np.diff(np.append(np.flatnonzero(starts), len(rows)))
    groups = np.empty(len(rows), dtype=np.intp)
    groups[order] = np.cumsum(starts) - 1
    return first, counts, groups


class ValidationReport(_Record):
    """Referential problems found in a parsed mesh."""

    unused_vertices: tuple[int, ...] = ()
    duplicate_cells: tuple[int, ...] = ()

    @property
    def is_clean(self) -> bool:
        return not (self.unused_vertices or self.duplicate_cells)


def validate_mesh(mesh: Mesh) -> ValidationReport:
    """Flag unused vertices and duplicate cells.

    Only references are checked: which cells are degenerate is decided by
    :func:`minangle.regularity.mesh_quality`.  Report-based: never raises
    for mesh-content problems.
    """
    used = np.zeros(mesh.vertex_count, dtype=bool)
    used[mesh.cells.ravel()] = True
    unused = np.flatnonzero(~used).tolist()
    # A cell is a duplicate when an earlier cell has the same vertex set.
    first, _, owner = _row_groups(np.sort(mesh.cells, axis=1))
    duplicates = np.flatnonzero(first[owner] != np.arange(mesh.cell_count)).tolist()
    return ValidationReport(
        unused_vertices=tuple(unused),
        duplicate_cells=tuple(duplicates),
    )


class ConformityReport(_Record):
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
    cells = np.sort(mesh.cells, axis=1)
    m = cells.shape[1]
    # Dropping one entry of a sorted row leaves the facet's sorted key.
    facets = cells[:, _others(m)].reshape(-1, m - 1)
    first, counts, _ = _row_groups(facets)
    overshared = tuple(
        (tuple(key), count)
        for key, count in zip(facets[first[counts > 2]].tolist(), counts[counts > 2].tolist())
    )
    boundary = int((counts == 1).sum())
    interior = int((counts == 2).sum())
    return ConformityReport(
        facet_count=len(counts),
        boundary_facets=boundary,
        interior_facets=interior,
        overshared_facets=overshared,
    )


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


def _quality_columns(quality: MeshQuality) -> dict[str, np.ndarray]:
    """A quality report's per-cell columns; the ``info`` table prints them in this order."""
    return {
        "min_dihedral_rad": quality.min_dihedral_all_sub,
        "max_dihedral_rad": quality.max_dihedral_all_sub,
        "min_dsine": quality.min_vertex_dsine,
        "ball_ratio": quality.ball_ratio,
        "dihedral_sum_rad": quality.dihedral_sum_top,
    }


# A quality report's aggregate -> how a family picks among its members, the reduction behind it.
_AGGREGATES = {
    "min_dihedral_rad": (min, MeshQuality.min_dihedral),
    "max_dihedral_rad": (max, MeshQuality.max_dihedral),
    "min_dsine": (min, MeshQuality.min_dsine),
    "min_ball_ratio": (min, MeshQuality.min_ball_ratio),
}


def _aggregates(quality: MeshQuality, keys: Sequence[str] = tuple(_AGGREGATES)) -> dict:
    """The ``keys`` of a quality report's aggregates: extrema over the good cells, or None."""
    return {key: _AGGREGATES[key][1](quality) for key in keys}


def _with_degrees(table: dict[str, Any], degrees: bool) -> dict[str, Any]:
    """``table``, then with ``degrees`` a ``*_deg`` twin of each ``*_rad`` entry, in order."""
    twins = {
        key.removesuffix("_rad") + "_deg": None if value is None else value * _DEG_PER_RAD
        for key, value in table.items() if degrees and key.endswith("_rad")
    }  # a null stays null
    return {**table, **twins}


def report_to_dict(
    quality: MeshQuality, verdicts: Sequence[ConditionVerdict] = (), degrees: bool = False
) -> dict[str, Any]:
    """The quality report as a document for :func:`_write`, with deterministic key order.

    Its ``cells`` is a :class:`_Rows` table; ``json.loads`` of :func:`write_report`'s output
    gives the report as a dict.  The aggregates are the record's reductions over its good
    cells.  Angles are in radians; ``degrees=True`` adds the ``*_deg`` twins and changes
    nothing else.
    """
    if not len(quality.cells) and not quality.degenerate_cells:
        raise InvalidInputError("refusing to build a report for an empty mesh")
    columns = _quality_columns(quality)
    # A degenerate cell's row: null in each radian column, then the flag.
    degenerate = {**dict.fromkeys(columns), "degenerate": True}
    doc: dict[str, Any] = {
        "ambient_dimension": quality.ambient_dim,
        "cell_count": len(quality.cells) + len(quality.degenerate_cells),
        "aggregates": _with_degrees(_aggregates(quality), degrees),
        "cells": _Rows(quality, _with_degrees(columns, degrees), degenerate),
        "verdicts": [_verdict_dict(v) for v in verdicts],
    }
    if quality.degenerate_cells:
        doc["degenerate_cells"] = list(quality.degenerate_cells)
    return doc


def write_report(
    quality: MeshQuality, verdicts: Sequence[ConditionVerdict], sink: IO[str], degrees: bool = False
) -> None:
    """Serialize a quality report as JSON to a text sink, ``_CHUNK_ROWS`` cells per write."""
    _write(report_to_dict(quality, verdicts, degrees), sink.write)
    sink.write("\n")


def audit_to_dict(quality: MeshQuality, degrees: bool = False) -> dict[str, Any]:
    """The equivalence-audit report as a document for :func:`_write`; ``cells`` is a table."""
    columns = {
        "min_dsine": quality.min_vertex_dsine,
        "min_dihedral_rad": quality.min_dihedral_all_sub,
        "max_dihedral_rad": quality.max_dihedral_all_sub,
        "certified_bound": quality.certified_bound,
        "forward_margin": quality.forward_margin,
        "backward_margin": quality.backward_margin,
    }
    doc: dict[str, Any] = {
        "ambient_dimension": quality.ambient_dim,
        "cell_count": len(quality.cells) + len(quality.degenerate_cells),
        "audit_tolerance": AUDIT_TOLERANCE,
        "aggregates": {
            "min_forward_margin": quality.min_forward_margin(),
            "min_backward_margin": quality.min_backward_margin(),
        },
        "cells": _Rows(quality, _with_degrees(columns, degrees), {"degenerate": True}),
        "satisfied": quality.audit_satisfied(),
    }
    if quality.degenerate_cells:
        doc["degenerate_cells"] = list(quality.degenerate_cells)
    return doc


def family_to_dict(
    members: Sequence[tuple[str | Path, MeshQuality, Sequence[ConditionVerdict]]],
    degrees: bool = False,
) -> dict[str, Any]:
    """The family report of ``members``, each ``(path, quality, verdicts)``, coarse to fine.

    A family aggregate is the extremum over the members with nondegenerate cells, or null
    when none has any.  A condition holds when every member satisfies it; its worst mesh is
    the member with the lowest worst value, the earliest one on a tie.
    """
    trend, meshes = [], []
    for index, (path, quality, conditions) in enumerate(members):
        head = {"index": index, "path": str(path)}
        trend.append({**head, **_aggregates(quality, ("min_dihedral_rad", "min_dsine"))})
        meshes.append({**head, **report_to_dict(quality, conditions, degrees)})
    verdicts = []
    for row in zip(*(conditions for *_, conditions in members)):  # the same conditions in each
        worst_mesh = min(range(len(row)), key=lambda index: row[index].worst_value)
        worst = row[worst_mesh]
        verdicts.append({
            "condition": worst.condition, "threshold": worst.threshold_used,
            "satisfied": all(verdict.satisfied for verdict in row), "worst_mesh": worst_mesh,
            "worst_cell": worst.worst_cell, "worst_value": worst.worst_value,
        })
    return {
        "ambient_dimension": members[0][1].ambient_dim,
        "mesh_count": len(members),
        "family_aggregates": {
            key: pick([v for _, q, _ in members if (v := reduce(q)) is not None], default=None)
            for key, (pick, reduce) in _AGGREGATES.items()
        },
        "trend": trend,
        "verdicts": verdicts,
        "meshes": meshes,
    }


_INFO_HEADER = "%5s %17s %17s %10s %10s %17s\n"
_INFO_ROW = "%5d %17.7f %17.7f %10.7f %10.7f %17.7f\n"
# A degenerate cell's row takes six values like any other and prints only the first.
_INFO_DEGENERATE_ROW = "%5d        degenerate" + "%.0s" * 5 + "\n"


def info_lines(
    path: str | Path, mesh: Mesh, validation: ValidationReport, conformity: ConformityReport,
    quality: MeshQuality,
) -> Iterator[str]:
    """The ``info`` text of the mesh at ``path``: its counts, conformity and warnings, then a
    table of each cell's quality columns, streamed ``_CHUNK_ROWS`` rows a piece."""
    yield f"mesh: {path}\n"
    yield f"ambient dimension: {mesh.ambient_dim}\n"
    yield f"vertices: {mesh.vertex_count}\n"
    yield f"cells: {mesh.cell_count}\n"
    if conformity.is_conforming:
        interior, boundary = conformity.interior_facets, conformity.boundary_facets
        yield f"conformity: OK ({interior} interior, {boundary} boundary facets)\n"
    else:
        yield "conformity: VIOLATED\n"
        for facet_key, count in conformity.overshared_facets:
            yield f"  facet {list(facet_key)} shared by {count} cells\n"
    if validation.unused_vertices:
        yield f"warning: unused vertices {list(validation.unused_vertices)}\n"
    if validation.duplicate_cells:
        yield f"warning: duplicate cells {list(validation.duplicate_cells)}\n"
    if quality.degenerate_cells:
        yield f"warning: degenerate cells {list(quality.degenerate_cells)}\n"
    columns = _quality_columns(quality)
    yield _INFO_HEADER % ("cell", *columns)
    yield from _cell_lines(quality, _INFO_ROW, _INFO_DEGENERATE_ROW, [*columns.values()])
