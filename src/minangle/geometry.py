"""Geometric primitives for k-simplices embedded in R^d, and the kernel behind them.

A simplex is an ordered list of vertex coordinates.  Every measure, normal,
dihedral angle and vertex sine in the package comes from one batched kernel,
which works on stacks of simplices of the same dimension:

* each simplex is translated to its vertex 0 and divided by its diameter,
  after exact power-of-two rescalings, so results do not depend on where in
  the double range it lives;
* its k edge vectors are put into coordinates of its own affine hull by a QR
  factorization, E^T = Q R, which never forms the Gram matrix G = E E^T (its
  condition number is the square of E's).  |det R| = sqrt(det G) = k! * volume;
* the rows of R^-1 are the barycentric gradients g_1..g_k, and
  g_0 = -(g_1 + ... + g_k).  With n_i = -g_i/|g_i| the outward unit normals:

      dihedral angle  beta_ij = 2 atan2(|n_i + n_j|, |n_i - n_j|)
      vertex k-sine   sin_k(A_i) = 1 / (|det R| * prod_{j != i} |g_j|)
      ball ratio      1 / sum_j |g_j|   (the normalized diameter is 1)

(Brandts, Korotov and Krizek, CAMWA 2008; Shewchuk, "What is a good linear
finite element?", 2002).  The atan2 form stays accurate for angles near 0
and pi, where the inverse cosine of a cosine loses half the digits.

The single-simplex functions here and in :mod:`minangle.angles` are the
kernel at N=1; :mod:`minangle.regularity` runs it over every subsimplex of
many cells at once.

All functions here are pure: nothing mutates its inputs and there is no
global state, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InvalidInputError

__all__ = [
    "DEFAULT_TOLERANCES",
    "Simplex",
    "ToleranceConfig",
    "facet",
    "is_degenerate",
    "outward_unit_normal",
    "outward_unit_normals",
    "simplex_measure",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by the geometric and angular operations.

    Attributes:
        degeneracy_rel_tol: relative degeneracy threshold.  A k-simplex is
            treated as degenerate when sqrt(det G) <= tol * (max edge)^k,
            which makes the test invariant under uniform scaling.
    """

    degeneracy_rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.degeneracy_rel_tol > 0.0:
            raise InvalidInputError(
                f"degeneracy_rel_tol must be positive, got {self.degeneracy_rel_tol}"
            )


DEFAULT_TOLERANCES = ToleranceConfig()


class Simplex:
    """An ordered k-simplex embedded in R^d, k <= d.

    Vertices are stored as the rows of a read-only float64 array of shape
    (k+1, d).  The vertex order is significant: facets, barycentric
    gradients and the product decomposition all refer to vertex indices.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices) -> None:
        try:
            arr = np.array(vertices, dtype=float, copy=True)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"inconsistent vertex coordinates: {exc}") from exc
        if arr.ndim != 2:
            raise InvalidInputError(
                f"vertices must form a 2-d coordinate array, got ndim={arr.ndim}"
            )
        n_vertices, dim = arr.shape
        if n_vertices < 1 or dim < 1:
            raise InvalidInputError(f"empty simplex of shape {arr.shape}")
        if n_vertices - 1 > dim:
            raise InvalidInputError(
                f"{n_vertices} vertices cannot span a simplex in R^{dim} (k <= d required)"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("vertex coordinates must be finite")
        arr.setflags(write=False)
        self._vertices = arr

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    @property
    def ambient_dim(self) -> int:
        return self._vertices.shape[1]

    @property
    def intrinsic_dim(self) -> int:
        return self._vertices.shape[0] - 1

    @property
    def vertex_count(self) -> int:
        return self._vertices.shape[0]

    def vertex(self, i: int) -> np.ndarray:
        return self._vertices[i]

    def edge_vectors(self) -> np.ndarray:
        """Edge vectors A_i - A_0 for i = 1..k, as rows of a (k, d) array."""
        return self._vertices[1:] - self._vertices[0]

    def diameter(self) -> float:
        """Largest pairwise vertex distance; hypot scales, so no square overflows."""
        diff = self._vertices[:, None, :] - self._vertices[None, :, :]
        return float(np.hypot.reduce(np.abs(diff), axis=-1).max())

    def permuted(self, order) -> "Simplex":
        """Simplex with vertices reordered by the given index sequence."""
        idx = list(order)
        if sorted(idx) != list(range(self.vertex_count)):
            raise InvalidInputError(f"{idx} is not a permutation of the vertex indices")
        return Simplex(self._vertices[idx])

    def __repr__(self) -> str:
        return f"Simplex(k={self.intrinsic_dim}, d={self.ambient_dim})"


def _pow2_scaled(x: np.ndarray) -> np.ndarray:
    """Each cell of ``x`` scaled exactly by a power of two so its largest entry is in [0.5, 1)."""
    _, exponent = np.frexp(np.abs(x).max(axis=(1, 2)))
    return np.ldexp(x, -exponent[:, None, None])


def _normalized(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells (N, m, d) translated to vertex 0 and divided by their diameter.

    Returns the normalized vertices and their (N, m, m) pairwise distances.
    The exact power-of-two rescalings before the subtraction and before the
    squares keep every intermediate inside the normal double range.
    """
    scaled = _pow2_scaled(points)
    shifted = _pow2_scaled(scaled - scaled[:, :1])
    dist = np.linalg.norm(shifted[:, :, None, :] - shifted[:, None, :, :], axis=-1)
    diameter = dist.max(axis=(1, 2))
    diameter[diameter == 0.0] = 1.0  # coincident vertices: the degeneracy rule flags the cell
    return shifted / diameter[:, None, None], dist / diameter[:, None, None]


def _intrinsic_r(
    z: np.ndarray, dist: np.ndarray, subsets: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R factors of the subsets' edge matrices, |det R|, and the degeneracy rule.

    ``subsets`` is (S, k+1) vertex indices.  Returns R (N, S, k, k),
    |det R| = sqrt(det G) (N, S), and whether sqrt(det G) <= tol * (subset
    diameter)^k (N, S), the rule of :func:`is_degenerate`.
    """
    k = subsets.shape[1] - 1
    corners = z[:, subsets]
    edges = corners[:, :, 1:] - corners[:, :, :1]
    r = np.linalg.qr(np.swapaxes(edges, -1, -2), mode="r")
    volume = np.abs(np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1))
    a, b = np.triu_indices(k + 1, 1)
    diameter = dist[:, subsets[:, a], subsets[:, b]].max(axis=-1)
    return r, volume, volume <= tol * diameter**k


def _gradient_forms(
    columns: np.ndarray, volume: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients, dihedral angles and vertex sines of stacked k-simplices.

    ``columns`` (..., k, k) holds the edge vectors A_j - A_0 of each simplex
    as columns, in orthonormal coordinates: R of :func:`_intrinsic_r`, or
    E^T of a full-dimensional simplex.  ``volume`` (...) is |det columns|.
    Returns the unit gradients g_i/|g_i| (..., k+1, k), the lengths |g_i|
    (..., k+1), the dihedral angles (..., k(k+1)/2) of the facet pairs in
    ``np.triu_indices(k + 1, 1)`` order, and the vertex k-sines (..., k+1).
    """
    k = columns.shape[-1]
    inverse = np.linalg.inv(columns)
    grads = np.concatenate([-inverse.sum(axis=-2, keepdims=True), inverse], axis=-2)
    lengths = np.linalg.norm(grads, axis=-1)
    # n_i = -g_i/|g_i|; the common sign drops out of both norms below.
    units = grads / lengths[..., None]
    i, j = np.triu_indices(k + 1, 1)
    angles = 2.0 * np.arctan2(
        np.linalg.norm(units[..., i, :] + units[..., j, :], axis=-1),
        np.linalg.norm(units[..., i, :] - units[..., j, :], axis=-1),
    )
    others = np.array([[w for w in range(k + 1) if w != v] for v in range(k + 1)])
    dsines = 1.0 / (volume[..., None] * np.prod(lengths[..., others], axis=-1))
    return units, lengths, angles, dsines


def _whole(s: Simplex, cfg: ToleranceConfig | None):
    """The kernel's first stage on all of ``s`` (N = S = 1): z, R, |det R| and the rule."""
    tol = (cfg or DEFAULT_TOLERANCES).degeneracy_rel_tol
    z, dist = _normalized(s.vertices[None])
    r, volume, degenerate = _intrinsic_r(z, dist, np.arange(s.vertex_count)[None], tol)
    return z, r, volume, bool(degenerate[0, 0])


def _simplex_forms(
    s: Simplex, cfg: ToleranceConfig | None, what: str, *, ambient: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_gradient_forms` of ``s`` itself, normalized to diameter 1.

    The gradients come from R, or with ``ambient`` from the normalized edge
    matrix of a full-dimensional ``s``, so the normals keep the input's
    coordinates.

    Raises:
        DegeneracyError: if ``s`` fails the degeneracy rule.
    """
    z, r, volume, degenerate = _whole(s, cfg)
    if degenerate:
        raise DegeneracyError(f"{what} undefined for degenerate {s!r}")
    columns = np.swapaxes(z[:, None, 1:], -1, -2) if ambient else r
    units, lengths, angles, dsines = _gradient_forms(columns, volume)
    return units[0, 0], lengths[0, 0], angles[0, 0], dsines[0, 0]


def simplex_measure(s: Simplex) -> float:
    """k-dimensional measure of a k-simplex embedded in R^d.

    Computed as |det R| / k! = sqrt(det G) / k!, with G the Gram matrix of
    the edge vectors from vertex 0.  Exactly degenerate input yields 0
    rather than an error; the result is always nonnegative.
    """
    k = s.intrinsic_dim
    if k == 0:
        return 1.0
    _, _, volume, _ = _whole(s, None)
    return float(volume[0, 0]) / math.factorial(k) * s.diameter() ** k


def facet(s: Simplex, i: int) -> Simplex:
    """The (k-1)-facet of ``s`` opposite vertex ``i``, order preserved."""
    k = s.intrinsic_dim
    if k < 1:
        raise InvalidInputError("a 0-simplex has no facets")
    if not 0 <= i <= k:
        raise InvalidInputError(f"facet index {i} out of range 0..{k}")
    return Simplex(np.delete(s.vertices, i, axis=0))


def is_degenerate(s: Simplex, cfg: ToleranceConfig | None = None) -> bool:
    """Scale-invariant degeneracy test.

    True iff sqrt(det G) <= degeneracy_rel_tol * (max edge length)^k.
    Deterministic; never raises.
    """
    if s.intrinsic_dim == 0:
        return False
    *_, degenerate = _whole(s, cfg)
    return degenerate


def outward_unit_normals(s: Simplex, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """All k+1 outward unit facet normals of a full-dimensional simplex.

    Row i is the unit normal of facet F_i pointing away from vertex A_i, in
    the coordinates of ``s``.
    """
    if s.intrinsic_dim != s.ambient_dim:
        raise InvalidInputError(f"normals need a full-dimensional simplex, got {s!r}")
    return -_simplex_forms(s, cfg, "normals", ambient=True)[0]


def outward_unit_normal(s: Simplex, i: int, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """Outward unit normal of the facet of ``s`` opposite vertex ``i``."""
    if not 0 <= i <= s.intrinsic_dim:
        raise InvalidInputError(f"vertex index {i} out of range 0..{s.intrinsic_dim}")
    return outward_unit_normals(s, cfg)[i]
