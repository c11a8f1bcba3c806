"""Golden corpus: the batched mesh scan against a per-cell oracle reference.

The reference evaluates every vertex subset of every cell with the oracles
of ``tests/oracles.py``, which share no code with the package: each subset
is put into coordinates of its affine hull by an SVD, its angles are taken
by arccos of normals from the inverse of the projected edge matrix, and its
d-sines, inradius and forward margins come from Cayley-Menger measures.  A
cell is degenerate when some subset's product of singular values is at most
the degeneracy tolerance times its diameter^k.  The meshes are jittered Kuhn
triangulations of the unit cube with one planted sliver and one collapsed
vertex each.
"""

import itertools
import json
import math

import numpy as np
import pytest

from minangle import (
    DEGENERACY_REL_TOL,
    Mesh,
    MeshQuality,
    certified_dsine_bound,
    mesh_quality,
    verdict_min_dihedral,
    verdict_min_dsine,
)
from minangle.cli import main
from minangle.meshio import dump_mesh
from oracles import (
    audit_doc,
    ball_ratio_cm,
    hull_coordinates,
    kuhn_triangulation,
    report_doc,
    simplex_dihedral_angles,
    vertex_sines_cm,
)
from test_geometry import SLIVER_C, kernel_level, measured_c, reference_level

# (dimension, subdivisions per axis)
CORPUS = [(2, 6), (3, 3), (4, 2), (5, 1)]
JITTER = 0.1
SLIVER_GAP = 1e-6
SLIVER_ANGLE = 1e-3
# Cells whose smallest dihedral angle reaches this are well shaped: their
# values must agree to 1e-12 relative.  Below it the reference is the less
# accurate side (arccos loses about eps/sin(beta) absolute, 4e-11 relative
# at beta = 1.7e-3, and Cayley-Menger determinants of a sliver lose digits
# to cancellation), so those values are compared to 1e-9 absolute.
WELL_SHAPED_ANGLE = 0.1
# The metric columns of a quality report, in MeshQuality's field order.
QUALITY_FIELDS = (
    "min_dihedral_all_sub", "max_dihedral_all_sub", "min_vertex_dsine", "ball_ratio",
    "dihedral_sum_top",
)
# All of MeshQuality's metric columns, in field order.
MESH_QUALITY_FIELDS = (*QUALITY_FIELDS, "forward_margin")
# MeshQuality's columns in an audit report, its two properties included.
AUDIT_FIELDS = (
    "min_vertex_dsine", "min_dihedral_all_sub", "max_dihedral_all_sub", "certified_bound",
    "forward_margin", "backward_margin",
)


def kuhn_mesh(d, n, seed):
    """Jittered Kuhn mesh of [0, 1]^d with one sliver and one collapsed vertex."""
    rng = np.random.default_rng(seed)
    grid, cells = kuhn_triangulation(d, n)
    vertices = grid + rng.uniform(-JITTER / n, JITTER / n, grid.shape)
    # Sliver: push vertex 2 of cell 0 (a vertex in few cells) to SLIVER_GAP/n
    # from the plane of its opposite face.
    apex = cells[0][2]
    face = [v for v in cells[0] if v != apex]
    normal = np.linalg.svd(vertices[face[1:]] - vertices[face[0]])[2][-1]
    offset = float(np.dot(vertices[apex] - vertices[face[0]], normal))
    vertices[apex] -= (offset - math.copysign(SLIVER_GAP / n, offset)) * normal
    # Collapse: a vertex of the last cell, not in cell 0, onto its neighbour.
    vertices[cells[-1][-2]] = vertices[cells[-1][-3]]
    return Mesh(vertices, cells)


def reference_cell(vertices, d):
    """The oracle values of one cell by metric field name, or None if it is degenerate."""
    lo, hi, forward = math.inf, -math.inf, math.inf
    for size in range(3, d + 2):
        for subset in itertools.combinations(range(d + 1), size):
            sub = vertices[list(subset)]
            gram_root = hull_coordinates(sub)[1]
            diameter = max(math.dist(p, q) for p, q in itertools.combinations(sub, 2))
            if gram_root <= DEGENERACY_REL_TOL * diameter ** (size - 1):
                return None
            angles = simplex_dihedral_angles(sub).values()
            lo = min(lo, min(angles))
            hi = max(hi, max(angles))
            forward = min(forward, min(math.sin(a) for a in angles) - min(vertex_sines_cm(sub)))
    # The last subset is the cell itself, so ``angles`` are the cell's own.
    dsine = min(vertex_sines_cm(vertices))
    bound = certified_dsine_bound(lo, hi, d)
    return {
        "min_dihedral_all_sub": lo,
        "max_dihedral_all_sub": hi,
        "min_vertex_dsine": dsine,
        "ball_ratio": ball_ratio_cm(vertices),
        "dihedral_sum_top": math.fsum(angles),
        "certified_bound": bound,
        "forward_margin": forward,
        "backward_margin": dsine - bound,
    }


def reference(mesh):
    """The oracles' MeshQuality of ``mesh``, built cell by cell."""
    d = mesh.ambient_dim
    good, rows, degenerate = [], [], []
    for index in range(mesh.cell_count):
        row = reference_cell(mesh.cell_simplex(index).vertices, d)
        if row is None:
            degenerate.append(index)
        else:
            good.append(index)
            rows.append(row)
    cells = np.array(good, dtype=np.int64)
    columns = (np.array([row[field] for row in rows]) for field in MESH_QUALITY_FIELDS)
    quality = MeshQuality(d, cells, *columns, tuple(degenerate))
    # Its two audit properties are certified_dsine_bound's values, bit for bit.
    for field in ("certified_bound", "backward_margin"):
        assert getattr(quality, field).tolist() == [row[field] for row in rows], field
    return quality


@pytest.fixture(scope="module", params=CORPUS, ids=lambda p: f"d{p[0]}n{p[1]}")
def corpus(request):
    d, n = request.param
    mesh = kuhn_mesh(d, n, seed=1_000 + d)
    return mesh, reference(mesh)


def assert_close(new, ref, well_shaped, what, margin=False):
    """Margins are differences on the sine scale and may be 0: compare them absolutely."""
    if not well_shaped:
        assert new == pytest.approx(ref, rel=0.0, abs=1e-9), what
    elif margin:
        assert new == pytest.approx(ref, rel=0.0, abs=1e-12), what
    else:
        assert new == pytest.approx(ref, rel=1e-12, abs=0.0), what


def only_cells(quality, kept=None):
    """``quality`` without its degenerate cells, restricted to the cells in ``kept`` if given."""
    keep = slice(None) if kept is None else np.isin(quality.cells, kept)
    return MeshQuality(
        quality.ambient_dim,
        quality.cells[keep],
        *(getattr(quality, field)[keep] for field in MESH_QUALITY_FIELDS),
    )


def assert_columns_close(new, ref, fields, margins=()):
    """Every column of ``fields`` agrees cell by cell; the well-shapedness comes from ``ref``."""
    assert new.cells.tolist() == ref.cells.tolist()
    well_shaped = (ref.min_dihedral_all_sub >= WELL_SHAPED_ANGLE).tolist()
    for field in fields:
        for index, got, want, well in zip(
            ref.cells.tolist(), getattr(new, field).tolist(), getattr(ref, field).tolist(),
            well_shaped,
        ):
            assert_close(got, want, well, f"cell {index} {field}", margin=field in margins)


def test_corpus_has_a_sliver_and_a_collapse(corpus):
    mesh, quality = corpus
    assert quality.degenerate_cells
    assert mesh.cell_count - 1 in quality.degenerate_cells
    assert quality.cells[0] == 0
    assert quality.min_dihedral_all_sub[0] < SLIVER_ANGLE
    assert (quality.min_dihedral_all_sub >= WELL_SHAPED_ANGLE).sum() > mesh.cell_count // 2


def test_mesh_quality_matches_reference(corpus):
    mesh, ref = corpus
    new = mesh_quality(mesh)
    assert new.degenerate_cells == ref.degenerate_cells
    assert_columns_close(new, ref, QUALITY_FIELDS)
    well_shaped = ref.cells[ref.min_dihedral_all_sub >= WELL_SHAPED_ANGLE]
    for verdict, thresholds in ((verdict_min_dihedral, (1e-4, 0.3)),
                                (verdict_min_dsine, (1e-9, 0.1))):
        for threshold in thresholds:
            assert verdict(new, threshold) == verdict(ref, threshold)
            for kept in (None, well_shaped):
                got = verdict(only_cells(new, kept), threshold)
                want = verdict(only_cells(ref, kept), threshold)
                assert (got.satisfied, got.worst_cell) == (want.satisfied, want.worst_cell)


def test_slivers_match_the_exact_oracle(corpus):
    # The cells compared to 1e-9 absolute above, each value within c eps / beta_min relative
    # of exact rationals (tests/test_geometry.py::TestSliverAccuracy), and no worse than the
    # QR route: its largest c was 4.3 on these cells, the kernel's 1.9.
    mesh, ref = corpus
    below = ref.cells[ref.min_dihedral_all_sub < WELL_SHAPED_ANGLE]
    slivers = [mesh.cell_simplex(index).vertices for index in below]
    assert slivers
    kernel = max(measured_c(vertices, kernel_level) for vertices in slivers)
    assert kernel <= SLIVER_C
    assert kernel <= max(measured_c(vertices, reference_level) for vertices in slivers)


def test_equivalence_audit_matches_reference(corpus):
    mesh, ref = corpus
    new = mesh_quality(mesh)
    assert new.degenerate_cells == ref.degenerate_cells
    assert new.audit_satisfied() == ref.audit_satisfied()
    # A triangle's dihedral angles are its planar angles and its 2-sines
    # their sines, so every forward margin is 0 up to rounding.
    assert_columns_close(new, ref, AUDIT_FIELDS, margins=("forward_margin", "backward_margin"))
    assert only_cells(new).audit_satisfied() == only_cells(ref).audit_satisfied()


def old_info_table(mesh, quality):
    """The ``info`` table as the per-row f-string loop wrote it."""
    lines = []
    rows = dict(
        zip(quality.cells.tolist(), zip(*(getattr(quality, f).tolist() for f in QUALITY_FIELDS)))
    )
    for index in range(mesh.cell_count):
        cell = rows.get(index)
        if cell is None:
            lines.append(f"{index:>5} {'degenerate':>17}\n")
            continue
        low, high, dsine, ball, total = cell
        lines.append(
            f"{index:>5} {low:>17.7f} {high:>17.7f} {dsine:>10.7f} {ball:>10.7f} {total:>17.7f}\n"
        )
    return "".join(lines)


def test_cli_output_matches_json_dumps(corpus, tmp_path, capsys):
    """Reports and the ``info`` table are byte-identical to the json.dumps(indent=2) path."""
    mesh, _ = corpus
    path = tmp_path / "mesh.json"
    path.write_text(dump_mesh(mesh))
    mesh_doc = {
        "ambient_dimension": mesh.ambient_dim,
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells.tolist(),
    }
    assert path.read_text() == json.dumps(mesh_doc, indent=2) + "\n"
    coarse = tmp_path / "coarse.json"
    coarse.write_text(dump_mesh(kuhn_mesh(mesh.ambient_dim, 1, seed=7)))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"meshes": [coarse.name, path.name]}))
    quality = mesh_quality(mesh)
    flags = ["--alpha0", "0.01", "--dsine-min", "0.01"]
    verdicts = [verdict_min_dihedral(quality, 0.01), verdict_min_dsine(quality, 0.01)]
    report = tmp_path / "report.json"
    for degrees in ([], ["--degrees"]):
        expected = {
            "check": report_doc(quality, verdicts, bool(degrees)),
            "audit": audit_doc(quality, bool(degrees)),
        }
        for command, doc in expected.items():
            argv = [command, str(path), *(flags if command == "check" else []), *degrees]
            assert main([*argv, "-o", str(report)]) == 3
            assert report.read_text() == json.dumps(doc, indent=2) + "\n"
        assert main(["family", str(manifest), *flags, *degrees, "-o", str(report)]) == 3
        text = report.read_text()
        family = json.loads(text)
        assert text == json.dumps(family, indent=2) + "\n"
        assert family["meshes"][1] == {"index": 1, "path": str(path), **expected["check"]}
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    table = out[out.index("dihedral_sum_rad\n") + len("dihedral_sum_rad\n"):]
    assert table == old_info_table(mesh, quality)
    assert "degenerate\n" in table
