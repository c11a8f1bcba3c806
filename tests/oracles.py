"""Independent oracle computations used by the tests.

Everything here deliberately avoids the code paths of the package, which
normalizes each simplex, takes a QR factorization of its edges and derives
angles (by atan2) and d-sines from barycentric gradients:

* volumes come from Cayley-Menger determinants of pairwise distances;
* tetrahedron face normals come from cross products;
* planar angles come from arccos of normalized dot products;
* a simplex is put into coordinates of its affine hull by the SVD of its
  edges, its normals come from the inverse of that projected edge matrix,
  and its dihedral angles from arccos(-n_i . n_j);
* d-sines and the inradius come from Cayley-Menger facet measures;
* a report document is the layout of one dict per cell, built by a plain
  loop over the cell indices from the record's columns.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# An int of 5001 digits: str() refuses more than 4300 (sys.get_int_max_str_digits()).
HUGE_INT = 10**5000


def shown(value, form=str) -> str:
    """How a message names ``value``: ``form(value)``, or +-HUGE_INT by its digit count."""
    if type(value) is int and abs(value) == HUGE_INT:
        return f"<{'negative ' if value < 0 else ''}int of 5001 digits>"
    return form(value)


def cayley_menger_measure(vertices) -> float:
    """k-measure of a simplex from the Cayley-Menger determinant."""
    v = np.asarray(vertices, dtype=float)
    n = v.shape[0]
    k = n - 1
    if k == 0:
        return 1.0
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1)
    cm = np.ones((n + 1, n + 1))
    cm[0, 0] = 0.0
    cm[1:, 1:] = d2
    det = np.linalg.det(cm)
    value = (-1) ** (k + 1) * det / (2**k * math.factorial(k) ** 2)
    return math.sqrt(max(value, 0.0))


def hull_coordinates(vertices) -> tuple[np.ndarray, float]:
    """A k-simplex in an orthonormal basis of its affine hull, and sqrt(det G).

    Returns the (k+1, k) vertex coordinates, vertex 0 at the origin, in the
    basis of right singular vectors of the edge matrix, and the product of
    its singular values, which is sqrt(det G) = k! * volume.
    """
    v = np.asarray(vertices, dtype=float)
    edges = v[1:] - v[0]
    _, singular, basis = np.linalg.svd(edges, full_matrices=False)
    return np.vstack([np.zeros(len(edges)), edges @ basis.T]), float(np.prod(singular))


def simplex_dihedral_angles(vertices) -> dict[tuple[int, int], float]:
    """All dihedral angles of a k-simplex in its own affine hull, by arccos.

    The outward normals are the negated, normalized rows of the inverse of
    the projected edge matrix (the barycentric gradients).
    """
    coords, _ = hull_coordinates(vertices)
    grads = np.linalg.inv(coords[1:]).T
    grads = np.vstack([-grads.sum(axis=0), grads])
    normals = -grads / np.linalg.norm(grads, axis=1)[:, None]
    k = len(coords) - 1
    return {
        (i, j): math.acos(max(-1.0, min(1.0, -float(normals[i] @ normals[j]))))
        for i in range(k + 1)
        for j in range(i + 1, k + 1)
    }


def _facet_measures(v: np.ndarray) -> list[float]:
    return [cayley_menger_measure(np.delete(v, j, axis=0)) for j in range(len(v))]


def vertex_sines_cm(vertices) -> list[float]:
    """Vertex k-sines k^(k-1) V^(k-1) / ((k-1)! prod_{j != i} F_j) of a k-simplex."""
    v = np.asarray(vertices, dtype=float)
    k = len(v) - 1
    volume = cayley_menger_measure(v)
    facets = _facet_measures(v)
    return [
        k ** (k - 1) * volume ** (k - 1)
        / (math.factorial(k - 1) * math.prod(f for j, f in enumerate(facets) if j != i))
        for i in range(k + 1)
    ]


def ball_ratio_cm(vertices) -> float:
    """Inradius k V / sum_j F_j over the diameter."""
    v = np.asarray(vertices, dtype=float)
    k = len(v) - 1
    diameter = np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1)).max()
    return k * cayley_menger_measure(v) / math.fsum(_facet_measures(v)) / diameter


def tetra_dihedral_by_cross(vertices, i: int, j: int) -> float:
    """Dihedral angle of a tetrahedron via cross-product face normals."""
    v = np.asarray(vertices, dtype=float)
    assert v.shape == (4, 3)

    def outward_normal(omit: int) -> np.ndarray:
        face = [p for p in range(4) if p != omit]
        a, b, c = v[face]
        n = np.cross(b - a, c - a)
        n = n / np.linalg.norm(n)
        if np.dot(n, v[omit] - a) > 0:  # flip to point away from the omitted vertex
            n = -n
        return n

    cosine = -float(np.dot(outward_normal(i), outward_normal(j)))
    return math.acos(max(-1.0, min(1.0, cosine)))


def planar_angle(vertices, i: int) -> float:
    """Interior angle of a triangle at vertex i, any ambient dimension."""
    v = np.asarray(vertices, dtype=float)
    others = [p for p in range(3) if p != i]
    u = v[others[0]] - v[i]
    w = v[others[1]] - v[i]
    cosine = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
    return math.acos(max(-1.0, min(1.0, cosine)))


def kuhn_triangulation(d: int, n: int) -> tuple[np.ndarray, list[list[int]]]:
    """The Kuhn (Freudenthal) triangulation of [0, 1]^d, n steps per axis: (vertices, cells).

    Vertex ids are the lexicographic grid index.  Each of the n^d sub-cubes is split into d!
    cells, one per ordering of the axes: a cell walks from the sub-cube's low corner one step
    along each axis in that order.  Every cell is congruent to the path simplex of a cube.
    """
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
    return grid, cells


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation from the QR decomposition of a Gaussian."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rigid_motion(vertices, rng: np.random.Generator) -> np.ndarray:
    """Apply a random rotation plus translation to a vertex array."""
    v = np.asarray(vertices, dtype=float)
    rot = random_rotation(v.shape[1], rng)
    shift = rng.uniform(-5.0, 5.0, size=v.shape[1])
    return v @ rot.T + shift


DEG_PER_RAD = 180.0 / math.pi
# (report key, MeshQuality column) of a good cell's row, in report order.
QUALITY_ROW = (
    ("min_dihedral_rad", "min_dihedral_all_sub"),
    ("max_dihedral_rad", "max_dihedral_all_sub"),
    ("min_dsine", "min_vertex_dsine"),
    ("ball_ratio", "ball_ratio"),
    ("dihedral_sum_rad", "dihedral_sum_top"),
)
QUALITY_ROW_DEG = (
    ("min_dihedral_deg", "min_dihedral_all_sub"),
    ("max_dihedral_deg", "max_dihedral_all_sub"),
    ("dihedral_sum_deg", "dihedral_sum_top"),
)
AUDIT_ROW = (
    ("min_dsine", "min_vertex_dsine"),
    ("min_dihedral_rad", "min_dihedral_all_sub"),
    ("max_dihedral_rad", "max_dihedral_all_sub"),
    ("certified_bound", "certified_bound"),
    ("forward_margin", "forward_margin"),
    ("backward_margin", "backward_margin"),
)
AUDIT_ROW_DEG = QUALITY_ROW_DEG[:2]


def _cell_rows(quality, row, row_deg, degenerate: dict) -> list[dict]:
    """One dict per cell, by index: a good cell's values of ``row`` (and ``row_deg`` in degrees)."""
    columns = {key: getattr(quality, name).tolist() for key, name in row}
    for key, name in row_deg:
        columns[key] = [value * DEG_PER_RAD for value in getattr(quality, name).tolist()]
    position = {cell: i for i, cell in enumerate(quality.cells.tolist())}
    rows = []
    for index in range(len(quality.cells) + len(quality.degenerate_cells)):
        if index in position:
            i = position[index]
            rows.append({"index": index, **{key: values[i] for key, values in columns.items()}})
        else:
            rows.append({"index": index, **degenerate})
    return rows


def _verdict_doc(verdict) -> dict:
    doc = {
        "condition": verdict.condition,
        "threshold": verdict.threshold_used,
        "satisfied": verdict.satisfied,
        "worst_cell": verdict.worst_cell,
        "worst_value": verdict.worst_value,
    }
    if verdict.degenerate_cells:
        doc["degenerate_cells"] = list(verdict.degenerate_cells)
    return doc


def report_doc(quality, verdicts, degrees: bool) -> dict:
    """The ``check`` report of a MeshQuality as a dict; aggregates from the record's reducers."""
    has_cells = len(quality.cells) > 0
    low = quality.min_dihedral() if has_cells else None
    high = quality.max_dihedral() if has_cells else None
    aggregates = {
        "min_dihedral_rad": low,
        "max_dihedral_rad": high,
        "min_dsine": quality.min_dsine() if has_cells else None,
        "min_ball_ratio": quality.min_ball_ratio() if has_cells else None,
    }
    if degrees:
        aggregates["min_dihedral_deg"] = low * DEG_PER_RAD if has_cells else None
        aggregates["max_dihedral_deg"] = high * DEG_PER_RAD if has_cells else None
    degenerate = {key: None for key, _ in QUALITY_ROW}
    degenerate["degenerate"] = True
    doc = {
        "ambient_dimension": quality.ambient_dim,
        "cell_count": len(quality.cells) + len(quality.degenerate_cells),
        "aggregates": aggregates,
        "cells": _cell_rows(quality, QUALITY_ROW, QUALITY_ROW_DEG if degrees else (), degenerate),
        "verdicts": [_verdict_doc(verdict) for verdict in verdicts],
    }
    if quality.degenerate_cells:
        doc["degenerate_cells"] = list(quality.degenerate_cells)
    return doc


def audit_doc(quality, degrees: bool) -> dict:
    """The ``audit`` report of a MeshQuality as a dict; aggregates from the record's reducers."""
    has_cells = len(quality.cells) > 0
    doc = {
        "ambient_dimension": quality.ambient_dim,
        "cell_count": len(quality.cells) + len(quality.degenerate_cells),
        "audit_tolerance": 1e-9,
        "aggregates": {
            "min_forward_margin": quality.min_forward_margin() if has_cells else None,
            "min_backward_margin": quality.min_backward_margin() if has_cells else None,
        },
        "cells": _cell_rows(
            quality, AUDIT_ROW, AUDIT_ROW_DEG if degrees else (), {"degenerate": True}
        ),
        "satisfied": quality.audit_satisfied(),
    }
    if quality.degenerate_cells:
        doc["degenerate_cells"] = list(quality.degenerate_cells)
    return doc
