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
* d-sines and the inradius come from Cayley-Menger facet measures.
"""

from __future__ import annotations

import math

import numpy as np


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
