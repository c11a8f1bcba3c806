"""Independent oracle computations used by the tests.

Everything here deliberately avoids the code paths of the package, which
normalizes each simplex, orthogonalizes its edges by Gram-Schmidt and
derives angles (by atan2) and d-sines from barycentric gradients:

* volumes come from Cayley-Menger determinants of pairwise distances;
* tetrahedron face normals come from cross products;
* planar angles come from arccos of normalized dot products;
* a simplex is put into coordinates of its affine hull by the SVD of its
  edges, its normals come from the inverse of that projected edge matrix,
  and its dihedral angles from arccos(-n_i . n_j);
* d-sines and the inradius come from Cayley-Menger facet measures;
* the QR route (``qr_level``) takes LAPACK's Householder R of each
  stacked (N, S, k, k) edge matrix and inverts it by back-substitution: a
  floating-point reference for the kernel's Gram-Schmidt R;
* ``exact_subsimplex_forms`` gives sin^2 of every dihedral angle and the
  square of every vertex sine of every subsimplex, exactly, in rationals
  from the float coordinates;
* a report document is the layout of one dict per cell, built by a plain
  loop over the cell indices from the record's columns.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(float).eps)
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


def qr_intrinsic_r(z, dist, subsets, tol):
    """R factors of the subsets' edge matrices (N, S, k, k), |det R| (N, S), and the rule.

    ``z`` (m, d, N) and ``dist`` (m, m, N) are the kernel's normalized cells, ``subsets``
    (S, k+1) vertex indices; the rule is sqrt(det G) <= tol * (subset diameter)^k.
    """
    k = subsets.shape[1] - 1
    z, dist = z.transpose(2, 0, 1), dist.transpose(2, 0, 1)
    corners = z[:, subsets]
    edges = corners[:, :, 1:] - corners[:, :, :1]
    r = np.linalg.qr(np.swapaxes(edges, -1, -2), mode="r")
    volume = np.abs(np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1))
    a, b = np.triu_indices(k + 1, 1)
    diameter = dist[:, subsets[:, a], subsets[:, b]].max(axis=-1)
    return r, volume, volume <= tol * diameter**k


def qr_gradients(r):
    """The barycentric gradients g_0..g_k (..., k+1, k) from R (..., k, k), by back-substitution."""
    k = r.shape[-1]
    reciprocal = 1.0 / np.diagonal(r, axis1=-2, axis2=-1)
    inverse = np.zeros_like(r)
    diagonal = np.arange(k)
    inverse[..., diagonal, diagonal] = reciprocal
    for i in range(k - 2, -1, -1):
        tail = np.einsum("...j,...jc->...c", r[..., i, i + 1 :], inverse[..., i + 1 :, i + 1 :])
        inverse[..., i, i + 1 :] = -reciprocal[..., i, None] * tail
    return np.concatenate([-inverse.sum(axis=-2, keepdims=True), inverse], axis=-2)


def qr_gradient_forms(r, volume):
    """Gradient lengths (..., k+1), dihedral angles (..., k(k+1)/2) in ``np.triu_indices`` order
    and vertex sines (..., k+1) from R (..., k, k) and |det R| (...)."""
    k = r.shape[-1]
    grads = qr_gradients(r)
    lengths = np.sqrt(np.einsum("...i,...i->...", grads, grads))
    units = grads / lengths[..., None]
    i, j = np.triu_indices(k + 1, 1)
    plus, minus = units[..., i, :] + units[..., j, :], units[..., i, :] - units[..., j, :]
    angles = 2.0 * np.arctan2(
        np.sqrt(np.einsum("...i,...i->...", plus, plus)),
        np.sqrt(np.einsum("...i,...i->...", minus, minus)),
    )
    others = [[j for j in range(k + 1) if j != i] for i in range(k + 1)]
    dsines = 1.0 / (volume[..., None] * np.prod(lengths[..., others], axis=-1))
    return lengths, angles, dsines


def qr_level(z, dist, subsets, tol):
    """The QR route on every subset of every cell: the rule and |det R| (S, N), then the
    gradient lengths, dihedral angles and vertex sines, each (n, S, N) as the kernel gives them."""
    r, volume, degenerate = qr_intrinsic_r(z, dist, subsets, tol)
    forms = qr_gradient_forms(r, volume)
    return degenerate.T, volume.T, *(form.transpose(2, 1, 0) for form in forms)


def _inverse_and_determinant(g):
    """G^-1 and det G of a symmetric positive definite Fraction matrix, by Gauss-Jordan."""
    n = len(g)
    rows = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    determinant = Fraction(1)
    for c in range(n):
        pivot = rows[c][c]
        determinant *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows], determinant


def exact_subsimplex_forms(vertices) -> dict:
    """Exact squares of every subsimplex's angle sines and vertex sines, from float coordinates.

    Each coordinate is taken as the rational its double is.  For each vertex subset of 3 or
    more, by size and then in ``itertools.combinations`` order, the value is (sin2, obtuse,
    sigma2, grad2) as lists of Fractions or bools: sin^2 of the dihedral angle of each facet
    pair i < j (in ``np.triu_indices`` order), whether its cosine is negative, the square of
    each vertex k-sine, and the squared length of each barycentric gradient.  With E the edge
    matrix, G = E E^T and H = G^-1, g_i . g_j is H[i-1][j-1] (the row and column sums of H
    stand in for g_0), cos(beta_ij) = -g_i . g_j / (|g_i| |g_j|) and
    sin_k(A_i)^2 = 1 / (det G prod_{j != i} |g_j|^2).
    """
    points = [[Fraction(float(x)) for x in row] for row in np.asarray(vertices, dtype=float)]
    forms = {}
    for size in range(3, len(points) + 1):
        for subset in itertools.combinations(range(len(points)), size):
            base = points[subset[0]]
            edges = [[x - y for x, y in zip(points[v], base)] for v in subset[1:]]
            gram = [[sum(x * y for x, y in zip(a, b)) for b in edges] for a in edges]
            h, determinant = _inverse_and_determinant(gram)
            sums = [-sum(column) for column in zip(*h)]  # g_0 . g_j
            dots = [[sum(map(sum, h)), *sums], *([s, *row] for s, row in zip(sums, h))]
            i, j = np.triu_indices(size, 1)
            pairs = list(zip(i.tolist(), j.tolist()))
            grad2 = [dots[v][v] for v in range(size)]
            sin2 = [1 - dots[a][b] ** 2 / (grad2[a] * grad2[b]) for a, b in pairs]
            obtuse = [dots[a][b] > 0 for a, b in pairs]
            sigma2 = [
                1 / (determinant * math.prod(grad2[u] for u in range(size) if u != v))
                for v in range(size)
            ]
            forms[subset] = sin2, obtuse, sigma2, grad2
    return forms


def fraction_sqrt(x: Fraction) -> Fraction:
    """sqrt(x) of a Fraction x >= 0, rounded down to 2^-120 relative."""
    if not x:
        return Fraction(0)
    shift = max(0, 121 - (x.numerator.bit_length() - x.denominator.bit_length()) // 2)
    return Fraction(math.isqrt((x.numerator << 2 * shift) // x.denominator), 1 << shift)


def exact_ball_ratio(vertices, forms) -> float:
    """The ball ratio 1 / (h sum_j |g_j|) of a simplex, from the whole cell's grad2 in its
    :func:`exact_subsimplex_forms` and its exact squared diameter h^2, each root taken by
    :func:`fraction_sqrt`."""
    points = [[Fraction(float(x)) for x in row] for row in np.asarray(vertices, dtype=float)]
    h2 = max(sum((x - y) ** 2 for x, y in zip(p, q)) for p, q in itertools.combinations(points, 2))
    grad2 = forms[tuple(range(len(points)))][3]
    return float(1 / (fraction_sqrt(h2) * sum(map(fraction_sqrt, grad2))))


def exact_angle(sin2: Fraction, obtuse: bool) -> float:
    """The angle in [0, pi] with sine squared ``sin2`` and a cosine of the sign ``obtuse`` says."""
    acute = math.atan2(float(fraction_sqrt(sin2)), float(fraction_sqrt(1 - sin2)))
    return math.pi - acute if obtuse else acute


def accuracy_constant(vertices, forms) -> float:
    """The least c that puts each measured sine within c eps / beta_min relative of the exact.

    ``forms`` maps each subset size of 3 or more to a level's dihedral angles (k(k+1)/2, S)
    and vertex sines (k+1, S), its subsets in ``itertools.combinations`` order.  The sine of
    each angle and each vertex sine are compared with :func:`exact_subsimplex_forms`; beta_min
    is the subset's smallest exact dihedral angle.
    """
    exact = exact_subsimplex_forms(vertices)
    worst = 0.0
    for size, (angles, dsines) in forms.items():
        for s, subset in enumerate(itertools.combinations(range(len(vertices)), size)):
            sin2, obtuse, sigma2, _ = exact[subset]
            beta_min = min(map(exact_angle, sin2, obtuse))
            measured = [*np.sin(angles[:, s]).tolist(), *dsines[:, s].tolist()]
            for got, square in zip(measured, sin2 + sigma2):
                want = float(fraction_sqrt(square))
                worst = max(worst, abs(got - want) / want * beta_min / EPS)
    return worst


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


# (report key, MeshQuality column) of a good cell's row, in report order.
QUALITY_ROW = (
    ("min_dihedral_rad", "min_dihedral_all_sub"),
    ("max_dihedral_rad", "max_dihedral_all_sub"),
    ("min_dsine", "min_vertex_dsine"),
    ("ball_ratio", "ball_ratio"),
    ("dihedral_sum_rad", "dihedral_sum_top"),
)
AUDIT_ROW = (
    ("min_dsine", "min_vertex_dsine"),
    ("min_dihedral_rad", "min_dihedral_all_sub"),
    ("max_dihedral_rad", "max_dihedral_all_sub"),
    ("certified_bound", "certified_bound"),
    ("forward_margin", "forward_margin"),
    ("backward_margin", "backward_margin"),
)


def _cell_rows(quality, row, degenerate: dict) -> list[dict]:
    """One dict per cell, by index: a good cell's values of ``row``."""
    columns = {key: getattr(quality, name).tolist() for key, name in row}
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


def report_doc(quality, verdicts) -> dict:
    """The ``check`` report of a MeshQuality as a dict; aggregates from the record's reducers."""
    has_cells = len(quality.cells) > 0
    aggregates = {
        "min_dihedral_rad": quality.min_dihedral() if has_cells else None,
        "max_dihedral_rad": quality.max_dihedral() if has_cells else None,
        "min_dsine": quality.min_dsine() if has_cells else None,
        "min_ball_ratio": quality.min_ball_ratio() if has_cells else None,
    }
    degenerate = {key: None for key, _ in QUALITY_ROW}
    degenerate["degenerate"] = True
    doc = {
        "ambient_dimension": quality.ambient_dim,
        "cell_count": len(quality.cells) + len(quality.degenerate_cells),
        "aggregates": aggregates,
        "cells": _cell_rows(quality, QUALITY_ROW, degenerate),
        "verdicts": [_verdict_doc(verdict) for verdict in verdicts],
    }
    if quality.degenerate_cells:
        doc["degenerate_cells"] = list(quality.degenerate_cells)
    return doc


def audit_doc(quality) -> dict:
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
        "cells": _cell_rows(quality, AUDIT_ROW, {"degenerate": True}),
        "satisfied": quality.audit_satisfied(),
    }
    if quality.degenerate_cells:
        doc["degenerate_cells"] = list(quality.degenerate_cells)
    return doc
