"""Simplices and meshes, the kernel that measures them, and the mesh regularity conditions.

Two per-family conditions are checked cell by cell:

* minimum angle condition: every dihedral angle of every subsimplex of
  every cell stays above a threshold alpha0;
* generalized minimum angle condition: every vertex d-sine of every cell
  stays above a threshold C.

The two are equivalent, and :func:`mesh_quality` carries the margins of
the inequalities behind that equivalence, which the ``audit`` command
checks numerically.  In the forward direction every dihedral sine of a
simplex dominates the simplex's smallest vertex d-sine.  In the backward
direction the smallest vertex d-sine is bounded below by s^(d(d-1)/2)
where s is the smallest sine of any subsimplex dihedral angle: unrolling
the product decomposition, each dimension level d' contributes d'-1 sine
factors and the planar base case one more, and the concavity of sin on
(0, pi) lets min(sin a, sin g) over the extreme angles a, g stand in for
the minimum over all of them.

Subsimplices run from dimension 2 (triangles, where dihedral angles are
the ordinary planar angles) up to the cell itself; edges and vertices
carry no dihedral angles and are excluded.

A simplex is an ordered list of vertex coordinates, and a :class:`Mesh` a
vertex pool with cells of vertex indices.  Every measure, normal, dihedral
angle and vertex sine in the package comes from one batched kernel, which
works on N simplices of the same dimension as planes: the last axis of each
array runs over the simplices, so each vector operation spans them all.

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
and pi, where the inverse cosine of a cosine loses half the digits.  The
k-sine is the d-sine of the paper, in measures of the simplex and its facets,

    sin_d(A_i) = d^(d-1) * meas_d(S)^(d-1)
                 / ( (d-1)! * prod_{j != i} meas_{d-1}(F_j) ),

which for d = 2 is the ordinary sine of the planar angle.  It factors
through the facet omitting the last vertex (:func:`product_decomposition`):
the d-sine at A_i is the (d-1)-sine of A_i inside that facet times the
sines of the dihedral angles at it.

Every single-simplex function here, the measure and the degeneracy test
too, reads the kernel's one result at N=1 (:func:`_level`), so it equals a
one-cell scan, :func:`cell_quality`, bit for bit.  Inside
:func:`mesh_quality`, over many cells, a cell's values can differ in the
last bit, as numpy's reductions round with the batch shape.
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


def _require_integer(value: object, what: str, minimum: int) -> int:
    """``value`` as a Python int, so no later sum wraps in a fixed-width numpy type, or
    InvalidInputError naming it unless it is an integer >= minimum."""
    if not _is_index_type(type(value)) or value < minimum:
        raise InvalidInputError(
            f"{what} must be an integer >= {minimum}, got {_shown(value, repr)}"
        )
    return int(value)


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


class Mesh:
    """A simplicial mesh: a vertex pool plus (d+1)-tuples of vertex indices.

    Construction enforces the structural invariants (the vertex rule of
    :class:`Simplex`; index ranges, cell arity, distinct indices per cell);
    geometric degeneracy is decided by :func:`mesh_quality`.
    """

    __slots__ = ("_vertices", "_cells")

    def __init__(self, vertices, cells) -> None:
        self._vertices = _coordinates(vertices)
        vertex_count, dim = self._vertices.shape
        self._cells = _cell_indices(cells, dim, vertex_count)

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    @property
    def cells(self) -> np.ndarray:
        return self._cells

    @property
    def ambient_dim(self) -> int:
        return self._vertices.shape[1]

    @property
    def vertex_count(self) -> int:
        return self._vertices.shape[0]

    @property
    def cell_count(self) -> int:
        return self._cells.shape[0]

    def cell_simplex(self, index: int) -> Simplex:
        """The cell at ``index`` as a full-dimensional Simplex."""
        _require_index(index, "cell index", self.cell_count)
        return Simplex(self._vertices[self._cells[index]])

    def __repr__(self) -> str:
        return (
            f"Mesh(d={self.ambient_dim}, vertices={self.vertex_count}, "
            f"cells={self.cell_count})"
        )


def _cell_indices(cells, dim: int, vertex_count: int) -> np.ndarray:
    """``cells`` as a read-only (N, dim+1) int64 copy, N >= 1, or InvalidInputError naming the
    first bad cell.  A cell is a row of dim + 1 integers (never bools) in range, none repeated:
    one scan of the index types and one check of the stacked, row-sorted array take valid
    input; else each row is checked by these rules, in this order."""
    if not _is_row(cells) or not len(cells):
        raise InvalidInputError("cells must be a nonempty array of index arrays")
    try:
        if all(map(_is_index_type, set(map(type, itertools.chain.from_iterable(cells))))):
            stacked = np.array(cells, dtype=np.int64)
            ordered = np.sort(stacked, axis=-1)
            shaped = stacked.ndim == 2 and stacked.shape[1] == dim + 1
            in_range = shaped and 0 <= ordered[:, 0].min() and ordered[:, -1].max() < vertex_count
            if in_range and (ordered[:, 1:] != ordered[:, :-1]).all():
                return _read_only(stacked)
    except (TypeError, ValueError, OverflowError):  # not rows, ragged rows, an int past int64
        pass
    for pos, cell in enumerate(cells):
        if not _is_row(cell):
            raise InvalidInputError(f"cell {pos}: expected an array of vertex indices")
        indices = list(cell)
        if len(indices) != dim + 1:
            raise InvalidInputError(
                f"cell {pos}: expected {dim + 1} vertex indices for dimension {dim}, "
                f"got {len(indices)}"
            )
        for idx in indices:
            _require_index(idx, f"cell {pos}: vertex index", vertex_count)
        if len(set(indices)) != len(indices):
            raise InvalidInputError(f"cell {pos}: repeated vertex index in {indices}")
    raise InvalidInputError("cells do not form an integer array")  # every row passed alone


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
    z: np.ndarray, dist: np.ndarray, subsets: np.ndarray, tol: float, flagged: np.ndarray
) -> tuple[np.ndarray, ...]:
    """:func:`_level` for triangles (S, 3), in closed form from their edge vectors.

    Edge i is the facet F_i: E_i = z_k - z_j for (i, j, k) a cyclic order.  The
    edges are rescaled exactly by 2^-e of the longest, into [0.5, 1) however
    small the triangle is in its cell.  The twice-area w is the norm of the
    wedge E_1 ^ E_2, the root of the sum of its squared 2x2 minors, and l_i =
    |E_i|: both by :func:`_norms`, so no square of a short edge underflows.  The
    angle between F_i and F_j is atan2(w, -E_i . E_j), the sine at vertex i is
    w / (l_j l_k), and |g_i| = l_i / w, in cell units by 2^-e.
    """
    ends = subsets.T
    edges = z[ends[[2, 0, 1]]] - z[ends[[1, 2, 0]]]
    i, j = _combinations(3, 2).T  # the facet pairs, and the vertex pairs
    exponent = np.maximum(np.frexp(dist[ends[i], ends[j]].max(axis=0))[1], -1021)
    unscale = np.ldexp(1.0, -exponent)  # finite, as e >= -1021
    edges *= unscale[:, None]
    sides = _norms(edges.swapaxes(1, 2))
    a, b = _combinations(z.shape[1], 2).T
    u, v = edges[1], edges[2]
    twice_area = _norms(u[:, a] * v[:, b] - u[:, b] * v[:, a])
    degenerate = twice_area <= tol * sides.max(axis=0) ** 2
    volume = np.ldexp(twice_area, 2 * exponent)
    # A unit stand-in for every triangle of a flagged cell: see _level.
    standin = flagged | degenerate.any(axis=0)
    w = np.where(standin, 1.0, twice_area)
    sides = np.where(standin, 1.0, sides)
    angles = np.arctan2(w, -(edges[i] * edges[j]).sum(axis=2))
    dsines = w / (sides[i] * sides[j])[::-1]
    lengths = sides / w * unscale
    return degenerate, volume, lengths, angles, dsines


def _level(
    z: np.ndarray, dist: np.ndarray, subsets: np.ndarray, tol: float, flagged: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The kernel on one subset size of normalized cells: the rule, then the forms.

    ``subsets`` is (S, k+1) vertex indices, ``flagged`` (N,) the cells already
    known to be degenerate.  Returns the rule of :func:`is_degenerate` (S, N),
    the measure |det R| at the cells' unit diameter (S, N), then
    :func:`_gradient_forms`'s lengths (k+1, S, N), angles and vertex sines.
    Triangles take the closed form of :func:`_triangles`, larger subsets the R
    of :func:`_gram_schmidt`.  Every subsimplex of a flagged cell, or of one
    flagged here, gets a unit stand-in, so the reciprocals stay finite and a
    subsimplex that passed its own rule at a subnormal threshold cannot
    overflow; the caller discards those values.
    """
    k = subsets.shape[1] - 1
    if k == 2:
        degenerate, volume, *forms = _triangles(z, dist, subsets, tol, flagged)
    else:
        corners = z[subsets.T]  # (k+1, S, d, N)
        _, r = _gram_schmidt(corners[1:] - corners[0])
        diagonal = np.arange(k)
        volume = np.prod(r[diagonal, diagonal], axis=0)
        a, b = _combinations(k + 1, 2).T
        degenerate = volume <= tol * dist[subsets.T[a], subsets.T[b]].max(axis=0) ** k
        standin = flagged | degenerate.any(axis=0)
        r = np.where(standin, np.eye(k)[:, :, None, None], r)
        forms = _gradient_forms(_gradients(r), np.where(standin, 1.0, volume))
    return degenerate, volume, *forms


def _tolerance(degeneracy_rel_tol: float) -> float:
    """``degeneracy_rel_tol`` as a float, or InvalidInputError unless it lies in (0, sqrt(3)/2)."""
    rule = "degeneracy_rel_tol must lie in (0, sqrt(3)/2)"
    _require_real(degeneracy_rel_tol, rule, lambda x: 0.0 < x < math.sqrt(3.0) / 2.0)
    return float(degeneracy_rel_tol)


def _whole(s: Simplex, tol: float = DEGENERACY_REL_TOL) -> tuple:
    """:func:`_level` on all of ``s`` (N = S = 1): z, (D, e), the rule, |det R|, then the forms."""
    z, dist, scale = _normalized(s.vertices[None])
    degenerate, *values = _level(z, dist, _combinations(len(z), len(z)), tol, np.zeros(1, bool))
    return z[..., 0], scale, bool(degenerate[0, 0]), *(value[..., 0, 0] for value in values)


def _simplex_forms(s: Simplex, what: str) -> tuple[np.ndarray, ...]:
    """Angles and sines of :func:`_level` of ``s`` at diameter 1 (N=1), then z.

    Raises:
        DegeneracyError: if ``s`` fails the degeneracy rule at the default tolerance.
    """
    z, _, degenerate, _, _, angles, dsines = _whole(s)
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
    _, (diameter, exponent), _, volume, *_ = _whole(s)
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


class DihedralAngleSet(_Record, eq=False):
    """All k(k+1)/2 dihedral angles of one simplex.

    Angles are keyed by the unordered facet pair (i, j) with i < j and are
    given in radians.  They come from the barycentric gradients in
    coordinates of the simplex's own affine hull (:func:`_gradient_forms`),
    as in the scan.  Sets compare and hash by identity, as their field
    holds a dict.
    """

    simplex_dim: int
    angles: dict[tuple[int, int], float]

    def angle(self, i: int, j: int) -> float:
        """The angle between facets F_i and F_j, symmetric in (i, j), in [0, pi]."""
        for index in (i, j):
            _require_index(index, "facet index", self.simplex_dim + 1)
        if i == j:
            raise InvalidInputError("dihedral angle needs two distinct facets")
        return self.angles[(i, j) if i < j else (j, i)]

    def values(self) -> list[float]:
        return list(self.angles.values())

    def min_angle(self) -> float:
        return min(self.angles.values())

    def max_angle(self) -> float:
        return max(self.angles.values())


class ProductDecomposition(_Record):
    """One vertex d-sine factored through the facet omitting the last vertex.

    ``product`` is sub_sine times the product of ``dihedral_sines`` (exact
    by construction); ``residual`` is its relative deviation from the
    directly evaluated ``d_sine``.  The residual is reported, not asserted:
    near-degenerate simplices legitimately produce large residuals and the
    caller needs the diagnostic.
    """

    vertex_index: int
    sub_sine: float
    dihedral_sines: tuple[float, ...]
    product: float
    d_sine: float
    residual: float


def all_dihedral_angles(s: Simplex) -> DihedralAngleSet:
    """Every dihedral angle of ``s``, computed from one set of normals.

    Every simplex, full-dimensional or embedded (k < d), is measured in
    coordinates of its own affine hull, so the angles are intrinsic and
    equal the one-cell scan's.  Requires intrinsic dimension >= 2.
    """
    k = s.intrinsic_dim
    _require_angle_dim(k, s)
    values = _simplex_forms(s, "dihedral angles")[0]
    pairs = map(tuple, _combinations(k + 1, 2).tolist())
    return DihedralAngleSet(simplex_dim=k, angles=dict(zip(pairs, values.tolist())))


def vertex_sines(s: Simplex) -> tuple[float, ...]:
    """The d+1 vertex d-sines of a full-dimensional simplex, d >= 2, in vertex order.

    The d-sine at a vertex lies in (0, 1] for nondegenerate input; 1 is
    attained exactly at the corner of a right-angle (orthogonal-edge)
    simplex.

    Raises:
        InvalidInputError: if ``s`` is not full-dimensional or d < 2.
        DegeneracyError: if ``s`` is degenerate.
    """
    _require_full_dim(s, "d-sine", 2)
    return tuple(_simplex_forms(s, "d-sine")[1].tolist())


def product_decomposition(s: Simplex, i: int) -> ProductDecomposition:
    """Factor the d-sine at vertex ``i`` through the facet omitting the last vertex.

    The sub-sine is the (d-1)-sine of vertex ``i`` inside the facet
    conv{A_0..A_{d-1}}, measured in its own affine hull; the dihedral
    factors are sin(beta_j) for the angles between the facet omitting A_j
    and the facet omitting A_d, j != i.  Vertex ``i`` must belong to the
    shared facet (i < d); reorder the vertices first if it does not.
    """
    d = _require_full_dim(s, "product decomposition", 3)
    if not _is_index_type(type(i)) or not 0 <= i < d:
        raise InvalidInputError(
            f"vertex index {_shown(i, repr)} must lie in the facet omitting the last vertex "
            f"(0..{d - 1}); reorder the vertices first"
        )
    angles, sines, _ = _simplex_forms(s, "product decomposition")
    at_last = angles[_combinations(d + 1, 2)[:, 1] == d].tolist()  # the pairs (j, d), j = 0..d-1
    dihedral_sines = tuple(math.sin(beta) for j, beta in enumerate(at_last) if j != i)
    sub_sine = float(_simplex_forms(facet(s, d), "d-sine")[1][i])
    product = sub_sine * math.prod(dihedral_sines)
    direct = float(sines[i])
    return ProductDecomposition(
        vertex_index=int(i),
        sub_sine=sub_sine,
        dihedral_sines=dihedral_sines,
        product=product,
        d_sine=direct,
        residual=abs(direct - product) / direct,
    )


# Margins on sine-scale quantities are asserted down to this absolute
# tolerance; on well-conditioned cells the kernel's values carry well under
# 1e-12 relative error, so 1e-9 leaves headroom.
AUDIT_TOLERANCE = 1e-9

# Subsimplex enumeration is exhaustive (2^(d+1) subsets per cell), so the
# scan refuses dimensions above this limit.
DIMENSION_CAP = 12

# The scan works on chunks of cells, so memory does not grow with the mesh; this bounds the
# doubles of one chunk's widest array (2 MiB) for d <= 10.  A chunk has at least one cell, and
# one cell's widest level is 426,888 doubles at d = 11 and 1,009,008 at d = 12.
_CHUNK_FLOATS = 1 << 18

CONDITION_MIN_DIHEDRAL = "min_dihedral"
CONDITION_MIN_DSINE = "min_dsine"


def _reduced(reduce, column: np.ndarray) -> float | None:
    """``reduce`` of a column as a Python float, or None for a record without good cells."""
    return float(reduce(column)) if len(column) else None


class MeshQuality(_Record, eq=False):
    """Quality of a mesh as columns: entry i of each metric array belongs to cell ``cells[i]``.

    ``cells`` lists the nondegenerate cells in ascending order, ``degenerate_cells`` the rest;
    each ``min_*`` or ``max_*`` method gives None, a report's null, when there are no good cells.
    ``forward_margin`` and ``backward_margin`` are the two equivalence margins, >= 0 up to
    rounding: for every subsimplex, the sine of each of its dihedral angles must be at least
    that subsimplex's smallest vertex sine; and the cell's smallest vertex d-sine must be at
    least the ``certified_bound`` of its extreme subsimplex dihedral angles.
    """

    ambient_dim: int
    cells: np.ndarray
    min_dihedral_all_sub: np.ndarray
    max_dihedral_all_sub: np.ndarray
    min_vertex_dsine: np.ndarray
    ball_ratio: np.ndarray
    dihedral_sum_top: np.ndarray
    forward_margin: np.ndarray
    degenerate_cells: tuple[int, ...] = ()

    @property
    def certified_bound(self) -> np.ndarray:
        """:func:`certified_dsine_bound` per cell, without its window check.

        A measured angle that rounds to pi still has a sine of 1.2e-16.  The
        cells are full-dimensional, so ``ambient_dim`` is their own dimension.
        """
        lo, hi = self.min_dihedral_all_sub, self.max_dihedral_all_sub
        return _certified_bound(lo, hi, self.ambient_dim)

    @property
    def backward_margin(self) -> np.ndarray:
        return self.min_vertex_dsine - self.certified_bound

    def min_dihedral(self) -> float | None:
        return _reduced(np.min, self.min_dihedral_all_sub)

    def max_dihedral(self) -> float | None:
        return _reduced(np.max, self.max_dihedral_all_sub)

    def min_dsine(self) -> float | None:
        return _reduced(np.min, self.min_vertex_dsine)

    def min_ball_ratio(self) -> float | None:
        return _reduced(np.min, self.ball_ratio)

    def min_forward_margin(self) -> float | None:
        return _reduced(np.min, self.forward_margin)

    def min_backward_margin(self) -> float | None:
        return _reduced(np.min, self.backward_margin)

    def audit_satisfied(self) -> bool:
        """Whether there are cells, none degenerate, and both margins are >= -AUDIT_TOLERANCE."""
        margins = self.min_forward_margin(), self.min_backward_margin()
        if self.degenerate_cells or None in margins:
            return False
        return all(margin >= -AUDIT_TOLERANCE for margin in margins)


class ConditionVerdict(_Record):
    """Outcome of one condition check over a mesh.

    ``satisfied`` holds exactly when ``worst_value >= threshold_used``;
    degenerate cells count as worst_value 0, which fails any positive
    threshold.
    """

    condition: str
    threshold_used: float
    satisfied: bool
    worst_cell: int
    worst_value: float
    degenerate_cells: tuple[int, ...] = ()


def _scan_chunk(points: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Each cell's first degenerate subset, or -1, then :class:`MeshQuality`'s metric columns.

    The position counts the subsets the scan visits, the cell last: the
    :func:`_combinations` rows of each size from 3 up to m.  The metric
    entries of a degenerate cell are meaningless.
    """
    n, m, _ = points.shape
    z, dist, _ = _normalized(points)
    first = np.full(n, -1)
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    forward = np.full(n, np.inf)
    position = 0
    for size in range(3, m + 1):
        subsets = _combinations(m, size)
        # The subsimplices of a flagged cell get _level's unit stand-in; these cells are discarded.
        degenerate, _, lengths, angles, dsines = _level(z, dist, subsets, tol, first >= 0)
        hit = degenerate.any(axis=0) & (first < 0)
        first[hit] = position + degenerate[:, hit].argmax(axis=0)
        position += len(subsets)
        lo = np.minimum(lo, angles.min(axis=(0, 1)))
        hi = np.maximum(hi, angles.max(axis=(0, 1)))
        # Forward direction: every dihedral sine of a subsimplex must dominate
        # the subsimplex's own smallest vertex sine.
        margin = np.sin(angles).min(axis=0) - dsines.min(axis=0)
        forward = np.minimum(forward, margin.min(axis=0))
    # The last level holds one subset, the cell itself.
    min_dsine = dsines[:, 0].min(axis=0)
    ball = 1.0 / lengths[:, 0].sum(axis=0)  # the normalized diameter is 1
    return first, lo, hi, min_dsine, ball, angles[:, 0].sum(axis=0), forward


def _scan(points: np.ndarray, tol: float) -> MeshQuality:
    """The quality of each cell (N, m, d), m >= 3, from every subsimplex of dimension >= 2.

    A cell is degenerate when one of its subsimplices, itself included, fails the degeneracy rule.
    """
    _, m, d = points.shape
    # Per subset size s, s * s * d bounds the level's widest planes, its corners (s, d) and its
    # normal pairs (s(s-1)/2, s-1), and at s = m the normalization's differences (m, m, d).
    floats_per_cell = max(
        math.comb(m, 3) * d * (d - 1) // 2,  # the triangles' 2x2 minors
        *(math.comb(m, size) * size * size * d for size in range(3, m + 1)),
    )
    step = max(1, _CHUNK_FLOATS // floats_per_cell)
    parts = [_scan_chunk(points[i : i + step], tol) for i in range(0, len(points), step)]
    first, *columns = map(np.concatenate, zip(*parts))
    good = first < 0
    return MeshQuality(
        d,
        np.flatnonzero(good),
        *(column[good] for column in columns),
        tuple(np.flatnonzero(~good).tolist()),
    )


def _check_scan_dim(k: int, what: object) -> None:
    _require_angle_dim(k, what)
    if k > DIMENSION_CAP:
        raise InvalidInputError(
            f"dimension {k} is above the limit d <= {DIMENSION_CAP}: the subsimplex "
            f"scan visits all 2^{k + 1} vertex subsets of each cell"
        )


def cell_quality(s: Simplex) -> MeshQuality:
    """The quality of one full-dimensional cell, as :func:`mesh_quality` of a one-cell mesh.

    Its inradius is ``ball_ratio[0] * s.diameter()``.

    Raises:
        DegeneracyError: naming the first degenerate vertex subset, in the
            order of ascending size, lexicographic within a size.
    """
    d = _require_full_dim(s, "cell quality")
    _check_scan_dim(d, s)
    first, *columns = _scan_chunk(s.vertices[None], DEGENERACY_REL_TOL)
    if first[0] >= 0:
        subsets = [row for size in range(3, d + 2) for row in _combinations(d + 1, size).tolist()]
        raise DegeneracyError(f"degenerate subsimplex on vertex subset {tuple(subsets[first[0]])}")
    return MeshQuality(d, np.zeros(1, dtype=np.intp), *columns)


def mesh_quality(mesh: Mesh, degeneracy_rel_tol: float = DEGENERACY_REL_TOL) -> MeshQuality:
    """Per-cell quality and equivalence margins of a mesh, as columns over its good cells.

    This is the one degeneracy decision over a mesh: a cell is degenerate
    when any of its subsimplices of dimension >= 2, itself included, fails
    the rule of :func:`is_degenerate` at ``degeneracy_rel_tol``.
    Degenerate cells are collected rather than raised, so a single bad
    cell cannot abort the scan.  Cells are in index order and the result
    is deterministic.
    """
    _check_scan_dim(mesh.ambient_dim, mesh)
    return _scan(mesh.vertices[mesh.cells], _tolerance(degeneracy_rel_tol))


def _verdict(
    condition: str, threshold: float, quality: MeshQuality, values: np.ndarray
) -> ConditionVerdict:
    if isinstance(threshold, np.generic):  # a Python number, so every report can write it
        threshold = threshold.item()
    if quality.degenerate_cells:
        # A degenerate cell has no positive quality at all; it is the worst.
        worst_cell, worst_value = quality.degenerate_cells[0], 0.0
    elif len(values):
        worst = int(np.argmin(values))  # the lowest index on ties
        worst_cell, worst_value = int(quality.cells[worst]), float(values[worst])
    else:
        raise InvalidInputError("mesh produced no cells to check")
    return ConditionVerdict(
        condition=condition,
        threshold_used=threshold,
        satisfied=bool(worst_value >= threshold),  # a Python bool for numpy thresholds too
        worst_cell=worst_cell,
        worst_value=worst_value,
        degenerate_cells=quality.degenerate_cells,
    )


def verdict_min_dihedral(quality: MeshQuality, alpha0: float) -> ConditionVerdict:
    """Whether every subsimplex dihedral angle of every cell of ``quality`` is >= alpha0.

    Equality counts as satisfied.  Degenerate cells yield a violated
    verdict annotated with their indices instead of an exception.
    """
    _require_real(alpha0, "alpha0 must lie in (0, pi)", lambda x: 0.0 < x < math.pi)
    return _verdict(CONDITION_MIN_DIHEDRAL, alpha0, quality, quality.min_dihedral_all_sub)


def verdict_min_dsine(quality: MeshQuality, dsine_min: float) -> ConditionVerdict:
    """Whether every vertex d-sine of every cell of ``quality`` is >= dsine_min."""
    _require_real(dsine_min, "dsine_min must lie in (0, 1]", lambda x: 0.0 < x <= 1.0)
    return _verdict(CONDITION_MIN_DSINE, dsine_min, quality, quality.min_vertex_dsine)


def _certified_bound(alpha0, gamma0, d: int):
    """s^(d(d-1)/2) with s = min(sin alpha0, sin gamma0), elementwise and unchecked.

    ``np.float_power`` rounds like Python's ``s ** e``; ``np.power`` does not.
    """
    return np.float_power(np.minimum(np.sin(alpha0), np.sin(gamma0)), d * (d - 1) // 2)


def certified_dsine_bound(alpha0: float, gamma0: float, d: int) -> float:
    """Lower bound on every vertex d-sine certified by an angle window.

    Given that every subsimplex dihedral angle lies in [alpha0, gamma0],
    returns s^(d(d-1)/2) with s = min(sin alpha0, sin gamma0).  The
    exponent unrolls the product decomposition down to dimension 2: level
    d' contributes d'-1 factors and the planar base case one more.
    """
    d = _require_integer(d, "dimension", 2)
    reals = _is_real_type(type(alpha0)) and _is_real_type(type(gamma0))
    if not (reals and 0.0 < alpha0 <= gamma0 < math.pi):
        raise InvalidInputError(
            "angle window must satisfy 0 < alpha0 <= gamma0 < pi, "
            f"got ({_shown(alpha0)}, {_shown(gamma0)})"
        )
    return float(_certified_bound(float(alpha0), float(gamma0), d))  # in double precision
