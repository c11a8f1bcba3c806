"""Mesh regularity conditions on dihedral angles and vertex d-sines.

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

One batched kernel (:mod:`minangle.geometry`) scans every subsimplex of
many cells at once: each cell is normalized, each triangle is measured in
closed form from its edge vectors, each larger subsimplex's edges are put
into coordinates of its own affine hull by modified Gram-Schmidt on planes
of cells, and the angles, vertex sines and ball ratio come from the
barycentric gradients.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegeneracyError, InvalidInputError
from .geometry import (
    DEGENERACY_REL_TOL,
    Simplex,
    _combinations,
    _is_real_type,
    _level,
    _normalized,
    _Record,
    _require_angle_dim,
    _require_full_dim,
    _require_integer,
    _require_real,
    _shown,
    _tolerance,
)

if TYPE_CHECKING:  # avoids a runtime import cycle with minangle.meshio
    from .meshio import Mesh

# Margins on sine-scale quantities are asserted down to this absolute
# tolerance; on well-conditioned cells the kernel's values carry well under
# 1e-12 relative error, so 1e-9 leaves headroom.
AUDIT_TOLERANCE = 1e-9

# Subsimplex enumeration is exhaustive (2^(d+1) subsets per cell), so the
# scan refuses dimensions above this limit.
DIMENSION_CAP = 12

# The scan works on chunks of cells; this bounds the float64 values held by
# the widest array of one chunk (512 KiB), so memory does not grow with the
# mesh.
_CHUNK_FLOATS = 1 << 16

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


def _chunked(points: np.ndarray, floats_per_cell: int, func) -> list:
    """``func`` applied to consecutive chunks of cells of at most _CHUNK_FLOATS floats."""
    step = max(1, _CHUNK_FLOATS // floats_per_cell)
    return [func(points[start : start + step]) for start in range(0, len(points), step)]


def _scan_chunk(points: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Each cell's first degenerate subset, or -1, then :class:`MeshQuality`'s metric columns.

    The position counts the subsets the scan visits, the cell last: the
    :func:`minangle.geometry._combinations` rows of each size from 3 up to
    m.  The metric entries of a degenerate cell are meaningless.
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
    parts = _chunked(points, floats_per_cell, lambda part: _scan_chunk(part, tol))
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


def mesh_quality(mesh: "Mesh", degeneracy_rel_tol: float = DEGENERACY_REL_TOL) -> MeshQuality:
    """Per-cell quality and equivalence margins of a mesh, as columns over its good cells.

    This is the one degeneracy decision over a mesh: a cell is degenerate
    when any of its subsimplices of dimension >= 2, itself included, fails
    the rule of :func:`minangle.geometry.is_degenerate` at ``degeneracy_rel_tol``.
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
    _require_integer(d, "dimension", 2)
    reals = _is_real_type(type(alpha0)) and _is_real_type(type(gamma0))
    if not (reals and 0.0 < alpha0 <= gamma0 < math.pi):
        raise InvalidInputError(
            "angle window must satisfy 0 < alpha0 <= gamma0 < pi, "
            f"got ({_shown(alpha0)}, {_shown(gamma0)})"
        )
    return float(_certified_bound(float(alpha0), float(gamma0), d))  # in double precision
