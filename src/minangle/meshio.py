"""Mesh files: JSON ingestion, one validation pass (references and facets), and reports.

The canonical mesh format is a single JSON document::

    {"ambient_dimension": d, "vertices": [[x, ...], ...], "cells": [[i0, ..., id], ...]}

Its coordinates pass the vertex rule of :class:`Simplex` (finite real numbers, never
bools or text) and are written as Python's shortest round-trip floats, so parse ->
write -> parse is bit-exact.  A family of meshes (coarse to fine) is listed in a
manifest document::

    {"meshes": ["path0", "path1", ...]}

with member paths resolved relative to the manifest's own directory.

Every output layout is made here, from the records, as an iterator of text
pieces with the final newline included.  The quality, equivalence-audit and
family reports (:func:`report_to_dict`, :func:`audit_to_dict`,
:func:`family_to_dict`) and the mesh document are JSON that :func:`_pieces`
lays out with the stdlib encoder, each per-cell table in chunks of rows, and
:func:`info_lines` yields the ``info`` text.  Key order is fixed, so identical
inputs produce byte-identical report files.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import IO, Any, Callable, Iterator

import numpy as np

from .errors import InvalidInputError
from .regularity import (
    AUDIT_TOLERANCE, ConditionVerdict, Mesh, MeshQuality, _combinations, _coordinates, _Record,
    _require_integer,
)

# The C one-shot encoder: the same float repr, NaN/Infinity and ASCII
# escaping as json.dumps, without the pure-Python path its indent takes.
_ENCODER = json.JSONEncoder()
_ENCODE = _ENCODER.encode
_CHUNK_ROWS = 256  # rows per piece of a table, so the text alive at once stays small
# A table's place in the layout; no document holds a NUL, as a member's path cannot.
_PLACEHOLDER = "\x00rows"


def _pieces(doc: Any) -> Iterator[str]:
    """``json.dumps(doc, indent=2)`` and a newline, in pieces, as every JSON document is written:
    the stdlib encoder lays out ``doc``, and each :class:`_Rows` table yields its rows where its
    placeholder is."""
    tables: list[_Rows] = []

    def placeholder(value: Any) -> str:  # anything but a table raises json.dumps's own TypeError
        tables.append(value if isinstance(value, _Rows) else _ENCODER.default(value))
        return _PLACEHOLDER

    text = json.dumps(doc, indent=2, default=placeholder)
    pieces = text.split(_ENCODE(_PLACEHOLDER), len(tables))
    for piece, table in zip(pieces, tables):
        line = piece[piece.rfind("\n") + 1 :]
        yield piece
        yield from table.pieces(line[: len(line) - len(line.lstrip(" "))])
    yield pieces[-1] + "\n"


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
    """A report's ``cells`` array: one row per cell by index, laid out by :func:`_pieces`.

    A good cell's row is its index and its entries of ``columns``; a
    degenerate cell's is its index and the literal ``degenerate`` fields.
    """

    quality: MeshQuality
    columns: dict[str, np.ndarray]
    degenerate: dict[str, Any]

    def pieces(self, indent: str) -> Iterator[str]:
        """The array as ``json.dumps(indent=2)`` lays it out at ``indent``, a chunk a piece."""
        good = _element_template(dict.fromkeys(("index", *self.columns), _PLACEHOLDER), indent)
        # The degenerate template swallows the Nones of its row's value slots.
        degenerate = _element_template({"index": _PLACEHOLDER, **self.degenerate}, indent)
        degenerate += "%.0s" * len(self.columns)
        chunks = _cell_lines(self.quality, good, degenerate, [*self.columns.values()], _json_floats)
        first = next(chunks, None)
        yield "[" + first[1:] if first else "["  # the first row has no comma before it
        yield from chunks
        yield "\n" + indent + "]" if first else "]"


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
    dim = _require_integer(dim, "ambient_dimension", 1)
    return Mesh(_coordinates(data["vertices"], dim), data["cells"])


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
    return "".join(_pieces(doc))


def _family_meshes(manifest: Path) -> list[tuple[Path, Mesh]]:
    """Each member of the family ``manifest`` lists and its mesh, the member's path resolved
    against the manifest's own directory.  Every member is read before any is scanned, so a
    read error comes first, and all must share one ambient dimension."""

    def parse(data: bytes) -> list[Path]:
        doc = _read_json(data, "manifest")
        if not isinstance(doc, dict) or "meshes" not in doc:
            raise InvalidInputError("manifest document must be an object with a 'meshes' array")
        members = doc["meshes"]
        if not isinstance(members, list) or not members:
            raise InvalidInputError("manifest 'meshes' must be a nonempty array of paths")
        for pos, member in enumerate(members):
            if not isinstance(member, str):
                raise InvalidInputError(f"manifest entry {pos} is not a path string")
        return [manifest.parent / member for member in members]

    family = [(path, load_mesh(path)) for path in _read_file(manifest, "manifest", parse)]
    dims = sorted({mesh.ambient_dim for _, mesh in family})
    if len(dims) > 1:
        raise InvalidInputError(f"family members disagree on ambient dimension: {dims}")
    return family


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
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise InvalidInputError(f"malformed {what} document: {exc}") from exc
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
    """A mesh's shared facets and referential problems.  A facet is its sorted vertex-index set,
    so conformity here (no (d-1)-facet in more than two cells) is combinatorial only."""

    facet_count: int
    boundary_facets: int
    interior_facets: int
    overshared_facets: tuple[tuple[tuple[int, ...], int], ...] = ()
    unused_vertices: tuple[int, ...] = ()
    duplicate_cells: tuple[int, ...] = ()

    @property
    def is_clean(self) -> bool:
        return not (self.unused_vertices or self.duplicate_cells)

    @property
    def is_conforming(self) -> bool:
        return not self.overshared_facets


def validate_mesh(mesh: Mesh) -> ValidationReport:
    """Count how many cells share each (d-1)-facet, and flag unused vertices and duplicate cells.

    Only indices are checked, never coordinates: which cells are degenerate is decided by
    :func:`minangle.regularity.mesh_quality`.  Report-based: never raises
    for mesh-content problems.
    """
    used = np.zeros(mesh.vertex_count, dtype=bool)
    used[mesh.cells.ravel()] = True
    cells = np.sort(mesh.cells, axis=1)
    # A cell is a duplicate when an earlier cell has the same vertex set.
    first, _, owner = _row_groups(cells)
    duplicates = np.flatnonzero(first[owner] != np.arange(mesh.cell_count))
    m = cells.shape[1]
    # Dropping one entry of a sorted row leaves the facet's sorted key.
    facets = cells[:, _combinations(m, m - 1)[::-1]].reshape(-1, m - 1)
    first, counts, _ = _row_groups(facets)
    shared = counts > 2
    overshared = zip(facets[first[shared]].tolist(), counts[shared].tolist())
    return ValidationReport(
        facet_count=len(counts),
        boundary_facets=int((counts == 1).sum()),
        interior_facets=int((counts == 2).sum()),
        overshared_facets=tuple((tuple(key), count) for key, count in overshared),
        unused_vertices=tuple(np.flatnonzero(~used).tolist()),
        duplicate_cells=tuple(duplicates.tolist()),
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


def report_to_dict(quality: MeshQuality, verdicts: Sequence[ConditionVerdict] = ()) -> dict[str, Any]:
    """The quality report as a document for :func:`_pieces`, with deterministic key order.

    Its ``cells`` is a :class:`_Rows` table; ``json.loads`` of :func:`write_report`'s output
    gives the report as a dict.  The aggregates are the record's reductions over its good
    cells.  Angles are in radians.
    """
    if not len(quality.cells) and not quality.degenerate_cells:
        raise InvalidInputError("refusing to build a report for an empty mesh")
    columns = _quality_columns(quality)
    # A degenerate cell's row: null in each column, then the flag.
    degenerate = {**dict.fromkeys(columns), "degenerate": True}
    doc: dict[str, Any] = {
        "ambient_dimension": quality.ambient_dim,
        "cell_count": len(quality.cells) + len(quality.degenerate_cells),
        "aggregates": _aggregates(quality),
        "cells": _Rows(quality, columns, degenerate),
        "verdicts": [_verdict_dict(v) for v in verdicts],
    }
    if quality.degenerate_cells:
        doc["degenerate_cells"] = list(quality.degenerate_cells)
    return doc


def write_report(quality: MeshQuality, verdicts: Sequence[ConditionVerdict], sink: IO[str]) -> None:
    """Serialize a quality report as JSON to a text sink, ``_CHUNK_ROWS`` cells per write."""
    for piece in _pieces(report_to_dict(quality, verdicts)):
        sink.write(piece)


def audit_to_dict(quality: MeshQuality) -> dict[str, Any]:
    """The equivalence-audit report as a document for :func:`_pieces`; ``cells`` is a table."""
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
        "cells": _Rows(quality, columns, {"degenerate": True}),
        "satisfied": quality.audit_satisfied(),
    }
    if quality.degenerate_cells:
        doc["degenerate_cells"] = list(quality.degenerate_cells)
    return doc


def family_to_dict(
    members: Sequence[tuple[str | Path, MeshQuality, Sequence[ConditionVerdict]]],
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
        meshes.append({**head, **report_to_dict(quality, conditions)})
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


# Control characters, say of a path in a manifest, are escaped so a message or a path stays
# one line: in the ``info`` text here, and in every CLI error.
_ESCAPES = {code: repr(chr(code))[1:-1] for code in [*range(32), 127]}
_INFO_HEADER = "%5s %17s %17s %10s %10s %17s\n"
_INFO_ROW = "%5d %17.7f %17.7f %10.7f %10.7f %17.7f\n"
# A degenerate cell's row takes six values like any other and prints only the first.
_INFO_DEGENERATE_ROW = "%5d        degenerate" + "%.0s" * 5 + "\n"


def info_lines(
    path: str | Path, mesh: Mesh, validation: ValidationReport, quality: MeshQuality
) -> Iterator[str]:
    """The ``info`` text of the mesh at ``path``: its counts, conformity and warnings, then a
    table of each cell's quality columns, streamed ``_CHUNK_ROWS`` rows a piece."""
    yield f"mesh: {str(path).translate(_ESCAPES)}\n"
    yield f"ambient dimension: {mesh.ambient_dim}\n"
    yield f"vertices: {mesh.vertex_count}\n"
    yield f"cells: {mesh.cell_count}\n"
    if validation.is_conforming:
        interior, boundary = validation.interior_facets, validation.boundary_facets
        yield f"conformity: OK ({interior} interior, {boundary} boundary facets)\n"
    else:
        yield "conformity: VIOLATED\n"
        for facet_key, count in validation.overshared_facets:
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
