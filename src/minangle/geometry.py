"""Geometric primitives for k-simplices embedded in R^d, and the kernel behind them.

A simplex is an ordered list of vertex coordinates.  Every measure, normal,
dihedral angle and vertex sine in the package comes from one batched kernel,
which works on N simplices of the same dimension as planes: the last axis of
each array runs over the simplices, so each vector operation spans them all.

* each simplex is translated to its vertex 0, rescaled exactly by 2^-e and
  divided by its remaining diameter D, so results do not depend on where in
  the double range it lives; its diameter and measure are rebuilt from D and e;
* a triangle is measured in closed form from its edge vectors
  (:func:`_triangles`): its twice-area w is the norm of the wedge of two
  edges, and the angle at a vertex is atan2(w, e . e') of its two edges;
* a larger simplex has its k edge vectors put into coordinates of its own
  affine hull by modified Gram-Schmidt, E^T = Q R, which never forms the Gram
  matrix G = E E^T (its condition number is the square of E's); its R is as
  accurate as Householder's (Bjorck, BIT 7, 1967).  |det R| = k! * volume;
* the rows of R^-1, by back-substitution, are the barycentric gradients
  g_1..g_k, and g_0 = -(g_1 + ... + g_k).  With n_i = -g_i/|g_i| the
  outward unit normals:

      dihedral angle  beta_ij = 2 atan2(|n_i + n_j|, |n_i - n_j|)
      vertex k-sine   sin_k(A_i) = 1 / (|det R| * prod_{j != i} |g_j|)
      ball ratio      1 / sum_j |g_j|   (the normalized diameter is 1)

(Brandts, Korotov and Krizek, CAMWA 2008; Shewchuk, "What is a good linear
finite element?", 2002).  Both atan2 forms stay accurate for angles near 0
and pi, where the inverse cosine of a cosine loses half the digits.

The single-simplex functions here and in :mod:`minangle.angles` are the
kernel at N=1 (:func:`_level`), so their values equal those of a one-cell
scan, ``cell_quality``, bit for bit.  :mod:`minangle.regularity` runs it over
every subsimplex of many cells; inside ``mesh_quality`` a cell's values can
differ in the last bit, as numpy's reductions round with the batch shape.
Only :func:`outward_unit_normals` leaves hull coordinates: it needs Q, which
it orthogonalizes twice, to rotate the normals back into the simplex's own.

The public functions here are pure: none mutates its inputs, and the only
global state is the kernel's vertex-subset tables (:func:`_combinations`),
built once per size and read-only, so values can be shared freely across
threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import DegeneracyError, InvalidInputError


class _Record:
    """An immutable record of the fields its subclass annotates, in annotation order.

    A frozen data class that compiles no code at import: defaults are class
    attributes, and records compare and hash by fields, or by identity when
    declared ``eq=False``.
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


def _is_index_type(kind: type) -> bool:
    """Whether ``kind`` is an integer type: int or a numpy integer, never bool."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_real_type(kind: type) -> bool:
    """Whether ``kind`` is a real type: int, float, or a numpy integer or float, never bool."""
    return issubclass(kind, (int, float, np.integer, np.floating)) and not issubclass(kind, bool)


def _shown(value: object, form: Callable[[object], str] = str) -> str:
    """``form(value)`` for a message that names a caller's value.  An int with more digits
    than ``str`` may print (``sys.get_int_max_str_digits()``) is shown by its digit count."""
    try:
        return form(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        from decimal import Decimal  # converts an int of any length exactly

        sign = "negative " if value < 0 else ""
        return f"<{sign}int of {Decimal(value).adjusted() + 1} digits>"


def _require_integer(value: object, what: str, minimum: int) -> None:
    """InvalidInputError naming ``value`` unless it is an integer >= minimum."""
    if not _is_index_type(type(value)) or value < minimum:
        raise InvalidInputError(
            f"{what} must be an integer >= {minimum}, got {_shown(value, repr)}"
        )


def _require_real(value: object, rule: str, inside: Callable[[float], bool]) -> None:
    """InvalidInputError "{rule}, got {value}" unless ``value`` is a real number, never a bool,
    whose double ``inside`` accepts.  An int past the double range is never accepted."""
    try:
        accepted = _is_real_type(type(value)) and inside(float(value))
    except OverflowError:  # an int past the double range
        accepted = False
    if not accepted:
        raise InvalidInputError(f"{rule}, got {_shown(value)}")


def _require_index(value: object, what: str, stop: int) -> None:
    """InvalidInputError naming ``value`` unless it is an integer in 0..stop - 1."""
    if not _is_index_type(type(value)):
        raise InvalidInputError(f"{what} {_shown(value, repr)} is not an integer")
    if not 0 <= value < stop:
        raise InvalidInputError(f"{what} {_shown(value)} out of range 0..{stop - 1}")


# The default tolerance of the degeneracy rule: a k-simplex is degenerate when
# sqrt(det G) <= tol * (max edge)^k, which makes the test invariant under uniform
# scaling.  A tolerance lies in (0, sqrt(3)/2): every cell of dimension >= 2 has
# triangles, whose ratio is at most sqrt(3)/2 (equilateral), so a larger
# tolerance would mark every cell degenerate.
DEGENERACY_REL_TOL = 1e-12

# The simplex shapes :mod:`minangle.generators` builds, by name.  They live here
# so that the CLI can list them without loading the generators.
KINDS = ("regular", "corner", "flatten", "needle", "random")


def _is_row(value: object) -> bool:
    """Whether ``value`` is a row: an ordered sequence or an array with ndim > 0, never text."""
    if isinstance(value, np.ndarray):
        return value.ndim > 0
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes, bytearray))


def _coordinates(vertices, dim: int | None = None) -> np.ndarray:
    """``vertices`` as a read-only (n, dim) float64 copy, n >= 1, or InvalidInputError naming
    the first bad vertex.  The one vertex rule: a vertex is a row of ``dim`` coordinates, by
    default as many as vertex 0 has, each a finite real number, never a bool or text."""
    try:
        if isinstance(vertices, np.ndarray) and vertices.dtype != object:
            kinds = {vertices.dtype.type}  # the dtype stands for every entry
        else:
            kinds = set(map(type, itertools.chain.from_iterable(vertices)))
        if all(map(_is_real_type, kinds)):
            with np.errstate(over="ignore"):  # a long double past the double range: inf
                arr = np.array(vertices, dtype=float)
            shaped = arr.ndim == 2 and arr.size and dim in (None, arr.shape[1])
            if shaped and np.isfinite(arr).all():
                return _read_only(arr)
    except (TypeError, ValueError, OverflowError):  # not rows, ragged rows, an int past the range
        pass
    rows = vertices if _is_row(vertices) else ()
    dim = dim or (len(rows[0]) if len(rows) and _is_row(rows[0]) else 0)
    if not (len(rows) and dim):
        raise InvalidInputError("vertices must be a nonempty array of coordinate arrays")
    for pos, coords in enumerate(rows):
        coords = coords.tolist() if isinstance(coords, np.ndarray) else coords  # True, not np.True_
        if not _is_row(coords) or len(coords) != dim:
            got = len(coords) if _is_row(coords) else type(coords).__name__
            raise InvalidInputError(f"vertex {pos}: expected {dim} coordinates, got {got}")
        for value in coords:
            if not _is_real_type(type(value)):
                raise InvalidInputError(f"vertex {pos}: coordinate {value!r} is not a number")
            try:
                double = float(value)  # a long double past the double range: inf
            except OverflowError:  # an int past the double range
                double = math.inf
            if not math.isfinite(double):
                if _is_index_type(type(value)) or np.isfinite(value):  # finite in its own type
                    raise InvalidInputError(f"vertex {pos}: coordinate outside the double range")
                raise InvalidInputError(f"vertex {pos}: coordinate {value!r} is not finite")
    raise InvalidInputError("vertices do not form a coordinate array")  # every row passed alone


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
    """Cells (N, m, d) translated to vertex 0 and divided by their diameter, as planes.

    Returns the normalized vertices (m, d, N), their pairwise distances (m, m, N),
    and the diameters as (D, e), each (N,), with diameter D * 2^e.  Two exact
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
    coords = np.ascontiguousarray(shifted.transpose(1, 2, 0))  # each sum runs over whole planes
    diff = coords[:, None] - coords[None]
    dist = np.sqrt((diff * diff).sum(axis=2))
    diameter = dist.max(axis=(0, 1))
    # Coincident vertices: the degeneracy rule flags the cell; 1 leaves them at 0.
    divisor = np.where(diameter == 0.0, 1.0, diameter)
    return coords / divisor, dist / divisor, (diameter, outer + inner)


def _ldexp(mantissa: float, exponent: int) -> float:
    """mantissa * 2^exponent as a Python float: ``inf`` past the double range, without a warning."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(mantissa, exponent))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=None)
def _combinations(m: int, size: int) -> np.ndarray:
    """The ``itertools.combinations(range(m), size)`` subsets as rows, built once per (m, size).

    The one vertex-subset table: ``_combinations(m, 2).T`` is ``np.triu_indices(m, 1)``, the
    pairs a < b, and ``_combinations(m, m - 1)[::-1]`` has the row v that leaves out v.
    """
    return _read_only(np.array(list(itertools.combinations(range(m), size))))


def _norms(vectors: np.ndarray) -> np.ndarray:
    """The Euclidean norms of the vectors along axis 1 of ``vectors`` (n, c, ...).

    Each vector is rescaled exactly by 2^-e of its largest entry before it is
    squared, so no square overflows and none that counts underflows.
    """
    _, exponent = np.frexp(np.abs(vectors).max(axis=1, keepdims=True))
    scaled = np.ldexp(vectors, -exponent)
    return np.ldexp(np.sqrt((scaled * scaled).sum(axis=1)), exponent[:, 0])


def _gram_schmidt(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E^T = Q R of edge planes (k, S, d, N) by modified Gram-Schmidt, column by column.

    Column j is normalized to q_j = edges[j] / R[j, j] and taken out of every
    later column, R[j, l] = q_j . edges[l], so each entry of R (k, k, S, N) is
    an (S, N) plane, R[j, j] >= 0.  A zero pivot divides by 1: its column stays
    0, and so does |det R|.  Q overwrites ``edges``.
    """
    r = np.zeros((len(edges), *edges.shape[:2], edges.shape[3]))
    for j in range(len(edges)):
        r[j, j] = _norms(edges[j])
        edges[j] /= np.where(r[j, j] == 0.0, 1.0, r[j, j])[:, None]
        r[j, j + 1 :] = (edges[j] * edges[j + 1 :]).sum(axis=2)
        edges[j + 1 :] -= r[j, j + 1 :, :, None] * edges[j]
    return edges, r


def _gradients(r: np.ndarray) -> np.ndarray:
    """The barycentric gradients g_0..g_k (k+1, k, S, N) of simplices from R (k, k, S, N).

    The rows of R^-1 are g_1..g_k.  R is upper triangular, so R^-1 is too, and
    its rows come by back-substitution from the last: row i of R R^-1 = I gives
    x_i = -(R[i, i+1:] x_{i+1:}) / R[i, i] off the diagonal, 1 / R[i, i] on it.
    """
    k = len(r)
    diagonal = np.arange(k)
    reciprocal = 1.0 / r[diagonal, diagonal]
    inverse = np.zeros_like(r)
    inverse[diagonal, diagonal] = reciprocal
    for i in range(k - 2, -1, -1):
        tail = (r[i, i + 1 :, None] * inverse[i + 1 :, i + 1 :]).sum(axis=0)
        inverse[i, i + 1 :] = -reciprocal[i] * tail
    return np.concatenate([-inverse.sum(axis=0, keepdims=True), inverse])


def _gradient_forms(grads: np.ndarray, volume: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gradient lengths, dihedral angles and vertex sines of k-simplices.

    ``grads`` (k+1, k, S, N) are :func:`_gradients`' g_0..g_k, in coordinates
    of each simplex's own affine hull, and ``volume`` (S, N) is |det R|.
    Returns the lengths |g_i| (k+1, S, N), the dihedral angles (k(k+1)/2, S, N)
    of the facet pairs in ``np.triu_indices(k + 1, 1)`` order, and the vertex
    k-sines (k+1, S, N).
    """
    k = len(grads) - 1
    lengths = _norms(grads)
    # n_i = -g_i/|g_i|; the common sign drops out of both norms below.
    units = grads / lengths[:, None]
    i, j = _combinations(k + 1, 2).T
    angles = 2.0 * np.arctan2(_norms(units[i] + units[j]), _norms(units[i] - units[j]))
    others = _combinations(k + 1, k)[::-1]  # row i leaves out i
    # Mantissas and exponents apart, so the k+1 factors cannot overflow.
    (mantissa, exponent), (length, power) = np.frexp(volume), np.frexp(lengths[others])
    product = mantissa * np.prod(length, axis=1)
    dsines = np.ldexp(1.0 / product, -(exponent + power.sum(axis=1)))
    return lengths, angles, dsines


def _triangles(
    z: np.ndarray, dist: np.ndarray, subsets: np.ndarray, tol: float, flagged: np.ndarray | None
) -> tuple[np.ndarray, ...]:
    """:func:`_level` for triangles (S, 3), in closed form from their edge vectors.

    Edge i is the facet F_i: E_i = z_k - z_j for (i, j, k) a cyclic order.  The
    edges are rescaled exactly by 2^-e of the longest, into [0.5, 1) however
    small the triangle is in its cell.  The twice-area w is the norm of the
    wedge E_1 ^ E_2, the root of the sum of its squared 2x2 minors (by
    :func:`_norms`, so their squares cannot underflow).  With l_i = |E_i|, the
    angle between F_i and F_j is atan2(w, -E_i . E_j), the sine at vertex i is
    w / (l_j l_k), and |g_i| = l_i / w, in cell units by 2^-e.
    """
    ends = subsets.T
    edges = z[ends[[2, 0, 1]]] - z[ends[[1, 2, 0]]]
    i, j = _combinations(3, 2).T  # the facet pairs, and the vertex pairs
    exponent = np.maximum(np.frexp(dist[ends[i], ends[j]].max(axis=0))[1], -1021)
    unscale = np.ldexp(1.0, -exponent)  # finite, as e >= -1021
    edges *= unscale[:, None]
    sides = np.sqrt((edges * edges).sum(axis=2))
    a, b = _combinations(z.shape[1], 2).T
    u, v = edges[1], edges[2]
    twice_area = _norms(u[:, a] * v[:, b] - u[:, b] * v[:, a])
    degenerate = twice_area <= tol * sides.max(axis=0) ** 2
    volume = np.ldexp(twice_area, 2 * exponent)
    if flagged is None:
        return degenerate, volume
    # A unit stand-in for every triangle of a flagged cell: see _level.
    standin = flagged | degenerate.any(axis=0)
    w = np.where(standin, 1.0, twice_area)
    sides = np.where(standin, 1.0, sides)
    angles = np.arctan2(w, -(edges[i] * edges[j]).sum(axis=2))
    dsines = w / (sides[i] * sides[j])[::-1]
    lengths = sides / w * unscale
    return degenerate, volume, lengths, angles, dsines


def _level(
    z: np.ndarray, dist: np.ndarray, subsets: np.ndarray, tol: float, flagged: np.ndarray | None
) -> tuple[np.ndarray, ...]:
    """The kernel on one subset size of normalized cells: the rule, then the forms.

    ``subsets`` is (S, k+1) vertex indices, ``flagged`` (N,) the cells already
    known to be degenerate.  Returns the rule of :func:`is_degenerate` (S, N),
    the measure |det R| at the cells' unit diameter (S, N), and, unless
    ``flagged`` is None, :func:`_gradient_forms`'s lengths (k+1, S, N), angles
    and vertex sines.  Triangles take the closed form of :func:`_triangles`,
    larger subsets the R of :func:`_gram_schmidt`.  Every subsimplex of a
    flagged cell, or of one flagged here, gets a unit stand-in, so the
    reciprocals stay finite and a subsimplex that passed its own rule at a
    subnormal threshold cannot overflow; the caller discards those values.
    """
    if subsets.shape[1] == 3:
        return _triangles(z, dist, subsets, tol, flagged)
    k = subsets.shape[1] - 1
    corners = z[subsets.T]  # (k+1, S, d, N)
    _, r = _gram_schmidt(corners[1:] - corners[0])
    diagonal = np.arange(k)
    volume = np.prod(r[diagonal, diagonal], axis=0)
    a, b = _combinations(k + 1, 2).T
    degenerate = volume <= tol * dist[subsets.T[a], subsets.T[b]].max(axis=0) ** k
    if flagged is None:
        return degenerate, volume
    standin = flagged | degenerate.any(axis=0)
    r = np.where(standin, np.eye(k)[:, :, None, None], r)
    forms = _gradient_forms(_gradients(r), np.where(standin, 1.0, volume))
    return degenerate, volume, *forms


def _tolerance(degeneracy_rel_tol: float) -> float:
    """``degeneracy_rel_tol`` as a float, or InvalidInputError unless it lies in (0, sqrt(3)/2)."""
    rule = "degeneracy_rel_tol must lie in (0, sqrt(3)/2)"
    _require_real(degeneracy_rel_tol, rule, lambda x: 0.0 < x < math.sqrt(3.0) / 2.0)
    return float(degeneracy_rel_tol)


def _whole(s: Simplex, tol: float = DEGENERACY_REL_TOL, forms: bool = False) -> tuple:
    """:func:`_level` on all of ``s`` (N = S = 1): z, (D, e), the rule, |det R|, then the forms."""
    m = s.vertex_count
    z, dist, scale = _normalized(s.vertices[None])
    flagged = np.zeros(1, dtype=bool) if forms else None
    degenerate, *values = _level(z, dist, _combinations(m, m), tol, flagged)
    return z[..., 0], scale, bool(degenerate[0, 0]), *(value[..., 0, 0] for value in values)


def _simplex_forms(s: Simplex, what: str) -> tuple[np.ndarray, ...]:
    """Angles and sines of :func:`_level` of ``s`` at diameter 1 (N=1), then z.

    Raises:
        DegeneracyError: if ``s`` fails the degeneracy rule at the default tolerance.
    """
    z, _, degenerate, _, _, angles, dsines = _whole(s, forms=True)
    if degenerate:
        raise DegeneracyError(f"{what} undefined for degenerate {s!r}")
    return angles, dsines, z


def _require_full_dim(s: Simplex, what: str, min_dim: int = 1) -> int:
    """The dimension d of a full-dimensional ``s`` with d >= min_dim; else InvalidInputError."""
    d = s.ambient_dim
    if s.intrinsic_dim != d:
        raise InvalidInputError(f"{what} needs a full-dimensional simplex, got {s!r}")
    if d < min_dim:
        raise InvalidInputError(f"{what} needs dimension >= {min_dim}")
    return d


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
    _, (diameter, exponent), _, volume = _whole(s)
    return _ldexp(volume / math.factorial(k) * diameter[0] ** k, k * exponent[0])


def facet(s: Simplex, i: int) -> Simplex:
    """The (k-1)-facet of ``s`` opposite vertex ``i``, order preserved."""
    k = s.intrinsic_dim
    if k < 1:
        raise InvalidInputError("a 0-simplex has no facets")
    _require_index(i, "facet index", k + 1)
    return Simplex(np.delete(s.vertices, i, axis=0))


def is_degenerate(s: Simplex, degeneracy_rel_tol: float = DEGENERACY_REL_TOL) -> bool:
    """Scale-invariant degeneracy test.

    True iff sqrt(det G) <= degeneracy_rel_tol * (max edge length)^k.
    Deterministic; raises only for a tolerance outside (0, sqrt(3)/2).
    """
    tol = _tolerance(degeneracy_rel_tol)
    if s.intrinsic_dim == 0:
        return False
    return _whole(s, tol)[2]


def outward_unit_normals(s: Simplex) -> np.ndarray:
    """The k+1 outward unit facet normals of a k-simplex in R^d, k >= 1, as (k+1, d) rows.

    Row i is the unit normal of facet F_i inside the affine hull of ``s``,
    pointing away from vertex A_i, in the coordinates of ``s``: -g_i/|g_i| in
    the R basis of E^T = Q R, rotated back by Q.  Gram-Schmidt runs twice, so
    Q stays orthonormal on slivers too.
    """
    if s.intrinsic_dim < 1:
        raise InvalidInputError("a 0-simplex has no facets")
    z = _simplex_forms(s, "normals")[-1]
    q, r = _gram_schmidt((z[1:] - z[0])[:, None, :, None])
    q, again = _gram_schmidt(q)  # E^T = Q (again R)
    grads = _gradients(np.einsum("ij...,jl...->il...", again, r))[:, :, 0, 0]
    return -(grads / _norms(grads)[:, None]) @ q[:, 0, :, 0]
