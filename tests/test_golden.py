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
import math

import numpy as np
import pytest

from minangle import (
    AUDIT_TOLERANCE,
    DEFAULT_TOLERANCES,
    CellAudit,
    EquivalenceAudit,
    Mesh,
    MeshQuality,
    SimplexQuality,
    certified_dsine_bound,
    equivalence_audit,
    mesh_quality,
    subsimplex_count,
)
from minangle.regularity import verdict_min_dihedral, verdict_min_dsine
from oracles import ball_ratio_cm, hull_coordinates, simplex_dihedral_angles, vertex_sines_cm

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


def reference_cell(vertices, index, d):
    """(SimplexQuality, CellAudit) of one cell from the oracles, or None if degenerate."""
    lo, hi, forward = math.inf, -math.inf, math.inf
    for size in range(3, d + 2):
        for subset in itertools.combinations(range(d + 1), size):
            sub = vertices[list(subset)]
            gram_root = hull_coordinates(sub)[1]
            diameter = max(math.dist(p, q) for p, q in itertools.combinations(sub, 2))
            if gram_root <= DEFAULT_TOLERANCES.degeneracy_rel_tol * diameter ** (size - 1):
                return None
            angles = simplex_dihedral_angles(sub).values()
            lo = min(lo, min(angles))
            hi = max(hi, max(angles))
            forward = min(forward, min(math.sin(a) for a in angles) - min(vertex_sines_cm(sub)))
    # The last subset is the cell itself, so ``angles`` are the cell's own.
    dsine = min(vertex_sines_cm(vertices))
    bound = certified_dsine_bound(lo, hi, d)
    quality = SimplexQuality(
        index, lo, hi, dsine, ball_ratio_cm(vertices), math.fsum(angles), subsimplex_count(d)
    )
    return quality, CellAudit(index, dsine, lo, hi, bound, forward, dsine - bound)


def reference(mesh):
    d = mesh.ambient_dim
    qualities, audits, degenerate = [], [], []
    for index in range(mesh.cell_count):
        cell = reference_cell(mesh.cell_simplex(index).vertices, index, d)
        if cell is None:
            degenerate.append(index)
            continue
        quality, audit = cell
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
