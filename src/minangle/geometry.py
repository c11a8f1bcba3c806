"""Geometric primitives for k-simplices embedded in R^d, and the kernel behind them.

A simplex is an ordered list of vertex coordinates.  Every measure, normal,
dihedral angle and vertex sine in the package comes from one batched kernel,
which works on stacks of simplices of the same dimension:

* each simplex is translated to its vertex 0, rescaled exactly by 2^-e and
  divided by its remaining diameter D, so results do not depend on where in
  the double range it lives; its diameter and measure are rebuilt from D and e;
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
kernel at N=1, from the same R, so their values equal the scan's bit for
bit; :mod:`minangle.regularity` runs it over every subsimplex of many cells
at once.  Only :func:`outward_unit_normals` leaves hull coordinates: it
rotates the normals back into the simplex's own with Q.

All functions here are pure: nothing mutates its inputs, and the only
global state is the kernel's index tables, built once per size and
read-only, so values can be shared freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DegeneracyError, InvalidInputError


class _Record:
    """An immutable record of the fields its subclass annotates, in annotation order.

    A frozen data class that compiles no code at import: defaults are class
    attributes, ``__post_init__`` checks the fields, and records compare and
    hash by fields, or by identity when declared ``eq=False``.
    """

    def __init_subclass__(cls, eq: bool = True) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        given = dict(zip(cls._fields, args), **kwargs)
        values = {**cls._defaults, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls._fields)}")
        # Only the fields, in order, ever enter __dict__: the methods below rely on it.
        self.__dict__.update((f, values[f]) for f in cls._fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class ToleranceConfig(_Record):
    """The degeneracy tolerance, for the two functions that take one.

    :func:`is_degenerate` tests one simplex with it, and
    :func:`minangle.regularity.mesh_quality` every subsimplex of every cell;
    every other function uses ``DEFAULT_TOLERANCES``.

    Attributes:
        degeneracy_rel_tol: relative degeneracy threshold in (0, sqrt(3)/2).
            A k-simplex is treated as degenerate when sqrt(det G) <= tol *
            (max edge)^k, which makes the test invariant under uniform
            scaling.  Every cell of dimension >= 2 has triangles, whose ratio
            is at most sqrt(3)/2 (equilateral), so a larger tolerance would
            mark every cell degenerate.
    """

    degeneracy_rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.degeneracy_rel_tol < math.sqrt(3.0) / 2.0:
            raise InvalidInputError(
                f"degeneracy_rel_tol must lie in (0, sqrt(3)/2), got {self.degeneracy_rel_tol}"
            )


DEFAULT_TOLERANCES = ToleranceConfig()

# The simplex shapes :mod:`minangle.generators` builds, by name.  They live here
# so that the CLI can list them without loading the generators.
KINDS = ("regular", "corner", "flatten", "needle", "random")


def _coordinates(vertices) -> np.ndarray:
    """``vertices`` as a read-only, finite, nonempty (n, d) float64 copy, or InvalidInputError."""
    try:
        arr = np.array(vertices, dtype=float, copy=True)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"inconsistent vertex coordinates: {exc}") from exc
    except OverflowError as exc:
        raise InvalidInputError(f"vertex coordinate outside the double range: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError("vertices must form a nonempty 2-d coordinate array")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("vertex coordinates must be finite")
    return _read_only(arr)


class Simplex:
    """An ordered k-simplex embedded in R^d, k <= d.

    Vertices are stored as the rows of a read-only float64 array of shape
    (k+1, d).  The vertex order is significant: facets, barycentric
    gradients and the product decomposition all refer to vertex indices.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices) -> None:
        arr = _coordinates(vertices)
        n_vertices, dim = arr.shape
        if n_vertices - 1 > dim:
            raise InvalidInputError(
                f"{n_vertices} vertices cannot span a simplex in R^{dim} (k <= d required)"
            )
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

    def diameter(self) -> float:
        """Largest vertex distance: the kernel's D * 2^e, ``inf`` past the double range."""
        _, _, (diameter, exponent) = _normalized(self._vertices[None])
        return _ldexp(diameter[0], exponent[0])

    def __repr__(self) -> str:
        return f"Simplex(k={self.intrinsic_dim}, d={self.ambient_dim})"


def _normalized(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Cells (N, m, d) translated to vertex 0 and divided by their diameter.

    Returns the normalized vertices, their (N, m, m) pairwise distances, and
    the diameters as (D, e), each (N,), with diameter D * 2^e.  Two exact
    power-of-two rescalings, by 2^-e in all: halving cells that reach 2^1023
    keeps their differences finite without flushing small coordinates, and
    the differences are scaled into [0.5, 1) before they are squared.
    """
    _, top = np.frexp(np.abs(points).max(axis=(1, 2)))
    outer = np.maximum(top - 1023, 0)
    scaled = np.ldexp(points, -outer[:, None, None])
    shifted = scaled - scaled[:, :1]
    _, inner = np.frexp(np.abs(shifted).max(axis=(1, 2)))
    shifted = np.ldexp(shifted, -inner[:, None, None])
    dist = np.linalg.norm(shifted[:, :, None, :] - shifted[:, None, :, :], axis=-1)
    diameter = dist.max(axis=(1, 2))
    # Coincident vertices: the degeneracy rule flags the cell; 1 leaves them at 0.
    divisor = np.where(diameter == 0.0, 1.0, diameter)[:, None, None]
    return shifted / divisor, dist / divisor, (diameter, outer + inner)


def _ldexp(mantissa: float, exponent: int) -> float:
    """mantissa * 2^exponent as a Python float: ``inf`` past the double range, without a warning."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(mantissa, exponent))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=None)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, 1)``: the index pairs a < b of m vertices, built once per m."""
    a, b = np.triu_indices(m, 1)
    return _read_only(a), _read_only(b)


@functools.lru_cache(maxsize=None)
def _others(m: int) -> np.ndarray:
    """(m, m-1) array whose row v lists 0..m-1 without v, built once per m."""
    return _read_only(np.array([[w for w in range(m) if w != v] for v in range(m)]))


@functools.lru_cache(maxsize=None)
def _combinations(m: int, size: int) -> np.ndarray:
    """The ``itertools.combinations(range(m), size)`` subsets as rows, built once per (m, size)."""
    return _read_only(np.array(list(itertools.combinations(range(m), size))))


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
    a, b = _pairs(k + 1)
    diameter = dist[:, subsets[:, a], subsets[:, b]].max(axis=-1)
    return r, volume, volume <= tol * diameter**k


def _gradient_forms(
    r: np.ndarray, volume: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients, dihedral angles and vertex sines of stacked k-simplices.

    ``r`` (..., k, k) is R of :func:`_intrinsic_r`: its columns are the edge
    vectors A_j - A_0 of each simplex in coordinates of its own affine hull.
    ``volume`` (...) is |det R|.  Returns the unit gradients g_i/|g_i|
    (..., k+1, k) in those coordinates, the lengths |g_i| (..., k+1), the
    dihedral angles (..., k(k+1)/2) of the facet pairs in
    ``np.triu_indices(k + 1, 1)`` order, and the vertex k-sines (..., k+1).
    """
    k = r.shape[-1]
    inverse = np.linalg.inv(r)
    grads = np.concatenate([-inverse.sum(axis=-2, keepdims=True), inverse], axis=-2)
    lengths = np.linalg.norm(grads, axis=-1)
    # n_i = -g_i/|g_i|; the common sign drops out of both norms below.
    units = grads / lengths[..., None]
    i, j = _pairs(k + 1)
    angles = 2.0 * np.arctan2(
        np.linalg.norm(units[..., i, :] + units[..., j, :], axis=-1),
        np.linalg.norm(units[..., i, :] - units[..., j, :], axis=-1),
    )
    dsines = 1.0 / (volume[..., None] * np.prod(lengths[..., _others(k + 1)], axis=-1))
    return units, lengths, angles, dsines


def _whole(s: Simplex, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """The kernel's first stage on all of ``s`` (N = S = 1): z, (D, e), R, |det R| and the rule."""
    m = s.vertex_count
    z, dist, scale = _normalized(s.vertices[None])
    r, volume, degenerate = _intrinsic_r(z, dist, _combinations(m, m), cfg.degeneracy_rel_tol)
    return z, scale, r, volume, bool(degenerate[0, 0])


def _simplex_forms(s: Simplex, what: str) -> tuple[np.ndarray, ...]:
    """:func:`_gradient_forms` of ``s`` at diameter 1 (the scan at N=1), then its vertices z.

    Raises:
        DegeneracyError: if ``s`` fails the degeneracy rule at the default tolerance.
    """
    z, _, r, volume, degenerate = _whole(s)
    if degenerate:
        raise DegeneracyError(f"{what} undefined for degenerate {s!r}")
    units, lengths, angles, dsines = _gradient_forms(r, volume)
    return units[0, 0], lengths[0, 0], angles[0, 0], dsines[0, 0], z[0]


def _require_full_dim(s: Simplex, what: str, min_dim: int = 1) -> int:
    """The dimension d of a full-dimensional ``s`` with d >= min_dim; else InvalidInputError."""
    d = s.ambient_dim
    if s.intrinsic_dim != d:
        raise InvalidInputError(f"{what} needs a full-dimensional simplex, got {s!r}")
    if d < min_dim:
        raise InvalidInputError(f"{what} needs dimension >= {min_dim}")
    return d


def _is_index_type(kind: type) -> bool:
    """Whether ``kind`` is an integer type: int or a numpy integer, never bool."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _require_integer(value: object, what: str, minimum: int) -> None:
    """InvalidInputError naming ``value`` unless it is an integer >= minimum."""
    if not _is_index_type(type(value)) or value < minimum:
        raise InvalidInputError(f"{what} must be an integer >= {minimum}, got {value!r}")


def _require_angle_dim(k: int, subject: object) -> None:
    """InvalidInputError unless k >= 2: edges and points have no dihedral angles."""
    if k < 2:
        raise InvalidInputError(f"dihedral angles need dimension >= 2, got {subject!r}")


def simplex_measure(s: Simplex) -> float:
    """k-dimensional measure of a k-simplex embedded in R^d.

    Computed as (|det R| / k! * D^k) * 2^(ke) on the kernel's normalization,
    with diameter D * 2^e and |det R| = sqrt(det G) of the edge Gram matrix.
    It never raises or warns: 0 for exactly degenerate input, ``inf`` only
    for a measure beyond the double range.
    """
    k = s.intrinsic_dim
    if k == 0:
        return 1.0
    _, (diameter, exponent), _, volume, _ = _whole(s)
    return _ldexp(volume[0, 0] / math.factorial(k) * diameter[0] ** k, k * exponent[0])


def facet(s: Simplex, i: int) -> Simplex:
    """The (k-1)-facet of ``s`` opposite vertex ``i``, order preserved."""
    k = s.intrinsic_dim
    if k < 1:
        raise InvalidInputError("a 0-simplex has no facets")
    if not _is_index_type(type(i)) or not 0 <= i <= k:
        raise InvalidInputError(f"facet index {i!r} out of range 0..{k}")
    return Simplex(np.delete(s.vertices, i, axis=0))


def is_degenerate(s: Simplex, cfg: ToleranceConfig | None = None) -> bool:
    """Scale-invariant degeneracy test.

    True iff sqrt(det G) <= degeneracy_rel_tol * (max edge length)^k.
    Deterministic; never raises.
    """
    if s.intrinsic_dim == 0:
        return False
    *_, degenerate = _whole(s, cfg or DEFAULT_TOLERANCES)
    return degenerate


def outward_unit_normals(s: Simplex) -> np.ndarray:
    """The k+1 outward unit facet normals of a k-simplex in R^d, k >= 1, as (k+1, d) rows.

    Row i is the unit normal of facet F_i inside the affine hull of ``s``,
    pointing away from vertex A_i, in the coordinates of ``s``.  These are
    the scan's normals in the R basis of E^T = Q R, rotated back by Q.
    """
    if s.intrinsic_dim < 1:
        raise InvalidInputError("a 0-simplex has no facets")
    units, *_, z = _simplex_forms(s, "normals")
    q = np.linalg.qr(z[1:].T, mode="reduced")[0]
    return -units @ q.T
