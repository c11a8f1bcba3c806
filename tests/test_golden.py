"""Golden corpus: the batched mesh scan against a per-cell reference.

The reference evaluates every cell with the single-simplex API
(``subsimplices``, ``all_dihedral_angles``, ``vertex_sines``, ``ball_ratio``,
``dihedral_sum``, ``project_intrinsic``), which projects each subsimplex by
pivoted Gram-Schmidt and takes angles by arccos.  The meshes are jittered
Kuhn triangulations of the unit cube with one planted sliver and one
collapsed vertex each.
"""

import itertools
import math

import numpy as np
import pytest

from minangle import (
    AUDIT_TOLERANCE,
    CellAudit,
    DegeneracyError,
    EquivalenceAudit,
    Mesh,
    MeshQuality,
    SimplexQuality,
    all_dihedral_angles,
    ball_ratio,
    certified_dsine_bound,
    dihedral_sum,
    equivalence_audit,
    mesh_quality,
    project_intrinsic,
    subsimplex_count,
    subsimplices,
    vertex_sines,
)
from minangle.regularity import verdict_min_dihedral, verdict_min_dsine

# (dimension, subdivisions per axis)
CORPUS = [(2, 6), (3, 3), (4, 2), (5, 1)]
JITTER = 0.1
SLIVER_GAP = 1e-6
SLIVER_ANGLE = 1e-3
# Cells whose smallest dihedral angle reaches this are well shaped: their
# values must agree to 1e-12 relative.  Below it the reference is the less
# accurate side (arccos loses about eps/sin(beta) absolute, 4e-11 relative
# at beta = 1.7e-3, and its Gram determinants square the condition number),
# so those values are compared to 1e-9 absolute.
WELL_SHAPED_ANGLE = 0.1


def kuhn_mesh(d, n, seed):
    """Jittered Kuhn mesh of [0, 1]^d with one sliver and one collapsed vertex."""
    rng = np.random.default_rng(seed)
    side = n + 1
    grid = np.array(list(itertools.product(range(side), repeat=d)), dtype=float) / n
    strides = [side ** (d - 1 - axis) for axis in range(d)]
    cells = []
    for corner in itertools.product(range(n), repeat=d):
        base = int(np.dot(corner, strides))
        for order in itertools.permutations(range(d)):
            walk = [base]
            for axis in order:
                walk.append(walk[-1] + strides[axis])
            cells.append(walk)
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


def reference_cell(s, index, d):
    """(SimplexQuality, CellAudit) of one cell from the single-simplex API."""
    lo, hi, forward = math.inf, -math.inf, math.inf
    for sub in subsimplices(s):
        angles = all_dihedral_angles(sub)
        lo = min(lo, angles.min_angle())
        hi = max(hi, angles.max_angle())
        intrinsic = sub if sub.intrinsic_dim == d else project_intrinsic(sub)
        sub_dsine = vertex_sines(intrinsic).min_sine()
        forward = min(forward, min(math.sin(a) for a in angles.values()) - sub_dsine)
    dsine = vertex_sines(s).min_sine()
    bound = certified_dsine_bound(lo, hi, d)
    quality = SimplexQuality(
        index, lo, hi, dsine, ball_ratio(s), dihedral_sum(s), subsimplex_count(d)
    )
    return quality, CellAudit(index, dsine, lo, hi, bound, forward, dsine - bound)


def reference(mesh):
    d = mesh.ambient_dim
    qualities, audits, degenerate = [], [], []
    for index in range(mesh.cell_count):
        try:
            quality, audit = reference_cell(mesh.cell_simplex(index), index, d)
        except DegeneracyError:
            degenerate.append(index)
            continue
        qualities.append(quality)
        audits.append(audit)
    return (
        MeshQuality(d, tuple(qualities), tuple(degenerate)),
        EquivalenceAudit(d, tuple(audits), tuple(degenerate)),
    )


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
    """``quality`` without its degenerate cells, restricted to ``kept`` if given."""
    cells = tuple(c for c in quality.cells if kept is None or c.cell_index in kept)
    return MeshQuality(quality.ambient_dim, cells, ())


def test_corpus_has_a_sliver_and_a_collapse(corpus):
    mesh, (quality, _) = corpus
    assert quality.degenerate_cells
    assert mesh.cell_count - 1 in quality.degenerate_cells
    assert quality.cells[0].cell_index == 0
    assert quality.cells[0].min_dihedral_all_sub < SLIVER_ANGLE
    assert sum(c.min_dihedral_all_sub >= WELL_SHAPED_ANGLE for c in quality.cells) > (
        mesh.cell_count // 2
    )


def test_mesh_quality_matches_reference(corpus):
    mesh, (ref, _) = corpus
    new = mesh_quality(mesh)
    assert new.degenerate_cells == ref.degenerate_cells
    assert [c.cell_index for c in new.cells] == [c.cell_index for c in ref.cells]
    for got, want in zip(new.cells, ref.cells):
        well_shaped = want.min_dihedral_all_sub >= WELL_SHAPED_ANGLE
        assert got.subsimplex_count == want.subsimplex_count
        for field in ("min_dihedral_all_sub", "max_dihedral_all_sub", "min_vertex_dsine",
                      "ball_ratio", "dihedral_sum_top"):
            assert_close(getattr(got, field), getattr(want, field), well_shaped,
                         f"cell {want.cell_index} {field}")
    well_shaped = [
        c.cell_index for c in ref.cells if c.min_dihedral_all_sub >= WELL_SHAPED_ANGLE
    ]
    for verdict, thresholds in ((verdict_min_dihedral, (1e-4, 0.3)),
                                (verdict_min_dsine, (1e-9, 0.1))):
        for threshold in thresholds:
            assert verdict(new, threshold) == verdict(ref, threshold)
            for kept in (None, well_shaped):
                got = verdict(only_cells(new, kept), threshold)
                want = verdict(only_cells(ref, kept), threshold)
                assert (got.satisfied, got.worst_cell) == (want.satisfied, want.worst_cell)


def test_equivalence_audit_matches_reference(corpus):
    mesh, (_, ref) = corpus
    new = equivalence_audit(mesh)
    assert new.tolerance == AUDIT_TOLERANCE
    assert new.degenerate_cells == ref.degenerate_cells
    assert new.satisfied() == ref.satisfied()
    assert [c.cell_index for c in new.cells] == [c.cell_index for c in ref.cells]
    for got, want in zip(new.cells, ref.cells):
        well_shaped = want.min_dihedral_all_sub >= WELL_SHAPED_ANGLE
        for field in ("min_vertex_dsine", "min_dihedral_all_sub", "max_dihedral_all_sub",
                      "certified_bound"):
            assert_close(getattr(got, field), getattr(want, field), well_shaped,
                         f"cell {want.cell_index} {field}")
        # A triangle's dihedral angles are its planar angles and its 2-sines
        # their sines, so every forward margin is 0 up to rounding.
        for field in ("forward_margin", "backward_margin"):
            assert_close(getattr(got, field), getattr(want, field), well_shaped,
                         f"cell {want.cell_index} {field}", margin=True)
    assert EquivalenceAudit(new.ambient_dim, new.cells, ()).satisfied() == EquivalenceAudit(
        ref.ambient_dim, ref.cells, ()
    ).satisfied()
