"""Mesh regularity conditions on dihedral angles and vertex d-sines.

Two per-family conditions are checked cell by cell:

* minimum angle condition: every dihedral angle of every subsimplex of
  every cell stays above a threshold alpha0;
* generalized minimum angle condition: every vertex d-sine of every cell
  stays above a threshold C.

The two are equivalent, and :func:`equivalence_audit` verifies the
inequalities behind that equivalence numerically.  In the forward
direction every dihedral sine of a simplex dominates the simplex's
smallest vertex d-sine.  In the backward direction the smallest vertex
d-sine is bounded below by s^(d(d-1)/2) where s is the smallest sine of
any subsimplex dihedral angle: unrolling the product decomposition, each
dimension level d' contributes d'-1 sine factors and the planar base case
one more, and the concavity of sin on (0, pi) lets min(sin a, sin g) over
the extreme angles a, g stand in for the minimum over all of them.

Subsimplices run from dimension 2 (triangles, where dihedral angles are
the ordinary planar angles) up to the cell itself; edges and vertices
carry no dihedral angles and are excluded.

One batched kernel (:mod:`minangle.geometry`) scans every subsimplex of
many cells at once: each cell is normalized, each subsimplex's edges are
put into coordinates of its own affine hull by a stacked QR factorization,
and the angles, vertex sines and ball ratio come from the barycentric
gradients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .angles import vertex_sines
from .errors import DegeneracyError, InvalidInputError
from .geometry import (
    DEFAULT_TOLERANCES,
    Simplex,
    ToleranceConfig,
    _gradient_forms,
    _intrinsic_r,
    _normalized,
)

if TYPE_CHECKING:  # avoids a runtime import cycle with minangle.meshio
    from .meshio import Mesh

__all__ = [
    "AUDIT_TOLERANCE",
    "CellAudit",
    "ConditionVerdict",
    "DIMENSION_CAP",
    "EquivalenceAudit",
    "MeshQuality",
    "SimplexQuality",
    "Thresholds",
    "cell_quality",
    "certified_dsine_bound",
    "check_generalized_condition",
    "check_minimum_angle_condition",
    "equivalence_audit",
    "mesh_quality",
    "min_dihedral_over_subsimplices",
    "min_vertex_dsine",
    "subsimplex_count",
    "subsimplices",
]

# Margins on sine-scale quantities are asserted down to this absolute
# tolerance; on well-conditioned cells the kernel's values carry well under
# 1e-12 relative error, so 1e-9 leaves headroom.
AUDIT_TOLERANCE = 1e-9

# Subsimplex enumeration is exhaustive (2^(d+1) subsets), so high
# dimensions are refused unless explicitly overridden.
DIMENSION_CAP = 12

# The scan works on chunks of cells; this bounds the float64 values held by
# the widest array of one chunk (512 KiB), so memory does not grow with the
# mesh.
_CHUNK_FLOATS = 1 << 16

CONDITION_MIN_DIHEDRAL = "min_dihedral"
CONDITION_MIN_DSINE = "min_dsine"


@dataclass(frozen=True)
class Thresholds:
    """Condition constants: dihedral lower bound alpha0 and d-sine lower bound C.

    Either may be omitted (None) when only one condition is being checked.
    """

    alpha0: float | None = None
    dsine_min: float | None = None

    def __post_init__(self) -> None:
        if self.alpha0 is not None and not 0.0 < self.alpha0 < math.pi:
            raise InvalidInputError(f"alpha0 must lie in (0, pi), got {self.alpha0}")
        if self.dsine_min is not None and not 0.0 < self.dsine_min <= 1.0:
            raise InvalidInputError(f"dsine_min must lie in (0, 1], got {self.dsine_min}")
        if self.alpha0 is None and self.dsine_min is None:
            raise InvalidInputError("at least one threshold is required")


@dataclass(frozen=True)
class SimplexQuality:
    """Per-cell quality metrics used by both conditions and the reports."""

    cell_index: int
    min_dihedral_all_sub: float
    max_dihedral_all_sub: float
    min_vertex_dsine: float
    ball_ratio: float
    dihedral_sum_top: float
    subsimplex_count: int


@dataclass(frozen=True)
class MeshQuality:
    """Quality of every cell of a mesh, with degenerate cells set aside."""

    ambient_dim: int
    cells: tuple[SimplexQuality, ...]
    degenerate_cells: tuple[int, ...] = ()

    def min_dihedral(self) -> float:
        return min(c.min_dihedral_all_sub for c in self.cells)

    def max_dihedral(self) -> float:
        return max(c.max_dihedral_all_sub for c in self.cells)

    def min_dsine(self) -> float:
        return min(c.min_vertex_dsine for c in self.cells)

    def min_ball_ratio(self) -> float:
        return min(c.ball_ratio for c in self.cells)


@dataclass(frozen=True)
class ConditionVerdict:
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


@dataclass(frozen=True)
class CellAudit:
    """Equivalence margins for one cell; both margins are >= 0 up to rounding."""

    cell_index: int
    min_vertex_dsine: float
    min_dihedral_all_sub: float
    max_dihedral_all_sub: float
    certified_bound: float
    forward_margin: float
    backward_margin: float


@dataclass(frozen=True)
class EquivalenceAudit:
    """Per-cell audit of both directions of the condition equivalence."""

    ambient_dim: int
    cells: tuple[CellAudit, ...]
    degenerate_cells: tuple[int, ...] = ()
    tolerance: float = AUDIT_TOLERANCE

    def min_forward_margin(self) -> float:
        return min(c.forward_margin for c in self.cells)

    def min_backward_margin(self) -> float:
        return min(c.backward_margin for c in self.cells)

    def satisfied(self) -> bool:
        if self.degenerate_cells or not self.cells:
            return False
        return (
            self.min_forward_margin() >= -self.tolerance
            and self.min_backward_margin() >= -self.tolerance
        )


def _check_dimension_cap(k: int, allow_high_dim: bool) -> None:
    if k > DIMENSION_CAP and not allow_high_dim:
        raise InvalidInputError(
            f"subsimplex enumeration over dimension {k} visits 2^{k + 1} subsets; "
            f"pass allow_high_dim=True to run it anyway"
        )


def _index_subsets(k: int, min_dim: int) -> Iterator[tuple[int, ...]]:
    for size in range(min_dim + 1, k + 2):
        yield from itertools.combinations(range(k + 1), size)


def subsimplices(
    s: Simplex, min_dim: int = 2, *, allow_high_dim: bool = False
) -> list[Simplex]:
    """All subsimplices of ``s`` with dimension >= ``min_dim``, including ``s``.

    Enumeration is by vertex-index subsets in ascending size and
    lexicographic order within each size, so the output is deterministic.
    """
    if min_dim < 2:
        raise InvalidInputError("dihedral angles are undefined below dimension 2")
    _check_dimension_cap(s.intrinsic_dim, allow_high_dim)
    return [
        Simplex(s.vertices[list(subset)])
        for subset in _index_subsets(s.intrinsic_dim, min_dim)
    ]


def subsimplex_count(dim: int, min_dim: int = 2) -> int:
    """Number of subsimplices of dimension >= min_dim of a dim-simplex."""
    return sum(math.comb(dim + 1, size) for size in range(min_dim + 1, dim + 2))


def _subset_at(k: int, position: int) -> tuple[int, ...]:
    """The vertex subset at ``position`` in the enumeration order of :func:`subsimplices`."""
    return next(itertools.islice(_index_subsets(k, 2), position, None))


@dataclass(frozen=True)
class _Scan:
    """Per-cell results of the subsimplex scan, one array entry per cell.

    ``first_degenerate`` is the position, in :func:`subsimplices` order, of
    the first subsimplex (the cell included) that fails the degeneracy
    rule, or -1.  The metric entries of a degenerate cell are meaningless.
    """

    first_degenerate: np.ndarray
    min_dihedral: np.ndarray
    max_dihedral: np.ndarray
    min_dsine: np.ndarray
    ball_ratio: np.ndarray
    dihedral_sum: np.ndarray
    forward_margin: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.first_degenerate >= 0


def _chunked(points: np.ndarray, floats_per_cell: int, func) -> list:
    """``func`` applied to consecutive chunks of cells of at most _CHUNK_FLOATS floats."""
    step = max(1, _CHUNK_FLOATS // floats_per_cell)
    return [func(points[start : start + step]) for start in range(0, len(points), step)]


def _degenerate_cells(points: np.ndarray, tol: float) -> np.ndarray:
    """Which cells (N, m, d) fail the degeneracy rule themselves; subsimplices are not tested."""
    _, m, d = points.shape
    whole = np.arange(m)[None]

    def chunk(part: np.ndarray) -> np.ndarray:
        return _intrinsic_r(*_normalized(part), whole, tol)[2][:, 0]

    return np.concatenate(_chunked(points, m * m * d, chunk))


def _scan_chunk(points: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    n, m, _ = points.shape
    z, dist = _normalized(points)
    first = np.full(n, -1)
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    forward = np.full(n, np.inf)
    position = 0
    for size in range(3, m + 1):
        k = size - 1
        subsets = np.array(list(itertools.combinations(range(m), size)))
        r, volume, degenerate = _intrinsic_r(z, dist, subsets, tol)
        hit = degenerate.any(axis=1) & (first < 0)
        first[hit] = position + degenerate[hit].argmax(axis=1)
        position += len(subsets)
        # Degenerate subsimplices get a unit stand-in so inv() stays defined;
        # their cells are discarded.
        r[degenerate] = np.eye(k)
        volume[degenerate] = 1.0
        _, lengths, angles, dsines = _gradient_forms(r, volume)
        lo = np.minimum(lo, angles.min(axis=(1, 2)))
        hi = np.maximum(hi, angles.max(axis=(1, 2)))
        # Forward direction: every dihedral sine of a subsimplex must dominate
        # the subsimplex's own smallest vertex sine.
        margin = np.sin(angles).min(axis=-1) - dsines.min(axis=-1)
        forward = np.minimum(forward, margin.min(axis=1))
    # The last level holds one subset, the cell itself.
    min_dsine = dsines[:, 0].min(axis=-1)
    ball = 1.0 / lengths[:, 0].sum(axis=-1)  # the normalized diameter is 1
    return first, lo, hi, min_dsine, ball, angles[:, 0].sum(axis=-1), forward


def _scan(points: np.ndarray, tol: float) -> _Scan:
    """Scan every subsimplex of dimension >= 2 of each cell (N, m, d), m >= 3."""
    _, m, d = points.shape
    floats_per_cell = max(math.comb(m, size) * size * size * d for size in range(3, m + 1))
    parts = _chunked(points, floats_per_cell, lambda part: _scan_chunk(part, tol))
    return _Scan(*(np.concatenate(field) for field in zip(*parts)))


def _check_scan_dim(k: int, what: object, allow_high_dim: bool) -> None:
    if k < 2:
        raise InvalidInputError(f"dihedral angles need dimension >= 2, got {what!r}")
    _check_dimension_cap(k, allow_high_dim)


def _scan_simplex(s: Simplex, cfg: ToleranceConfig, allow_high_dim: bool) -> _Scan:
    """The scan of one simplex; raises DegeneracyError naming the first degenerate subset."""
    _check_scan_dim(s.intrinsic_dim, s, allow_high_dim)
    scan = _scan(s.vertices[None], cfg.degeneracy_rel_tol)
    if scan.degenerate[0]:
        subset = _subset_at(s.intrinsic_dim, int(scan.first_degenerate[0]))
        raise DegeneracyError(f"degenerate subsimplex on vertex subset {subset}")
    return scan


def _scan_mesh(mesh: "Mesh", cfg: ToleranceConfig, allow_high_dim: bool) -> _Scan:
    _check_scan_dim(mesh.ambient_dim, mesh, allow_high_dim)
    return _scan(mesh.vertices[mesh.cells], cfg.degeneracy_rel_tol)


def min_dihedral_over_subsimplices(
    s: Simplex, cfg: ToleranceConfig | None = None, *, allow_high_dim: bool = False
) -> tuple[float, float]:
    """(min, max) over all dihedral angles of all subsimplices of ``s``.

    Every subsimplex (dimension 2 up to the cell itself) is measured in
    coordinates of its own affine hull.  For d = 2 this is the span of the
    planar angles; for d = 3 the minimum combines face angles and
    face-to-face dihedral angles.

    Raises:
        DegeneracyError: naming the first degenerate vertex subset, in the
            enumeration order of :func:`subsimplices`.
    """
    scan = _scan_simplex(s, cfg or DEFAULT_TOLERANCES, allow_high_dim)
    return float(scan.min_dihedral[0]), float(scan.max_dihedral[0])


def min_vertex_dsine(s: Simplex) -> float:
    """Smallest vertex d-sine of a full-dimensional simplex."""
    return vertex_sines(s).min_sine()


def cell_quality(
    s: Simplex,
    cell_index: int = 0,
    cfg: ToleranceConfig | None = None,
    *,
    allow_high_dim: bool = False,
) -> SimplexQuality:
    """All quality metrics of one cell; raises DegeneracyError on bad cells."""
    if s.intrinsic_dim != s.ambient_dim:
        raise InvalidInputError(f"cell quality needs a full-dimensional simplex, got {s!r}")
    scan = _scan_simplex(s, cfg or DEFAULT_TOLERANCES, allow_high_dim)
    return SimplexQuality(
        cell_index=cell_index,
        min_dihedral_all_sub=float(scan.min_dihedral[0]),
        max_dihedral_all_sub=float(scan.max_dihedral[0]),
        min_vertex_dsine=float(scan.min_dsine[0]),
        ball_ratio=float(scan.ball_ratio[0]),
        dihedral_sum_top=float(scan.dihedral_sum[0]),
        subsimplex_count=subsimplex_count(s.intrinsic_dim),
    )


def mesh_quality(
    mesh: "Mesh",
    cfg: ToleranceConfig | None = None,
    *,
    allow_high_dim: bool = False,
) -> MeshQuality:
    """Per-cell quality for a whole mesh.

    Degenerate cells are collected rather than raised, so a single bad
    cell cannot abort the scan.  Cells are reported in index order and
    the result is deterministic.
    """
    scan = _scan_mesh(mesh, cfg or DEFAULT_TOLERANCES, allow_high_dim)
    good = np.flatnonzero(~scan.degenerate)
    count = subsimplex_count(mesh.ambient_dim)
    cells = tuple(
        SimplexQuality(index, lo, hi, dsine, ball, total, count)
        for index, lo, hi, dsine, ball, total in zip(
            good.tolist(),
            scan.min_dihedral[good].tolist(),
            scan.max_dihedral[good].tolist(),
            scan.min_dsine[good].tolist(),
            scan.ball_ratio[good].tolist(),
            scan.dihedral_sum[good].tolist(),
        )
    )
    return MeshQuality(
        ambient_dim=mesh.ambient_dim,
        cells=cells,
        degenerate_cells=tuple(np.flatnonzero(scan.degenerate).tolist()),
    )


def _verdict(
    condition: str,
    threshold: float,
    quality: MeshQuality,
    metric,
) -> ConditionVerdict:
    worst_cell = -1
    worst_value = math.inf
    for cell in quality.cells:  # ascending index; ties keep the lowest
        value = metric(cell)
        if value < worst_value:
            worst_cell, worst_value = cell.cell_index, value
    if quality.degenerate_cells:
        # A degenerate cell has no positive quality at all; it is the worst.
        worst_cell, worst_value = quality.degenerate_cells[0], 0.0
    if worst_cell < 0:
        raise InvalidInputError("mesh produced no cells to check")
    return ConditionVerdict(
        condition=condition,
        threshold_used=threshold,
        satisfied=worst_value >= threshold,
        worst_cell=worst_cell,
        worst_value=worst_value,
        degenerate_cells=quality.degenerate_cells,
    )


def verdict_min_dihedral(quality: MeshQuality, alpha0: float) -> ConditionVerdict:
    """Verdict of the minimum angle condition for precomputed quality."""
    Thresholds(alpha0=alpha0)
    return _verdict(
        CONDITION_MIN_DIHEDRAL, alpha0, quality, lambda c: c.min_dihedral_all_sub
    )


def verdict_min_dsine(quality: MeshQuality, dsine_min: float) -> ConditionVerdict:
    """Verdict of the generalized (d-sine) condition for precomputed quality."""
    Thresholds(dsine_min=dsine_min)
    return _verdict(
        CONDITION_MIN_DSINE, dsine_min, quality, lambda c: c.min_vertex_dsine
    )


def check_minimum_angle_condition(
    mesh: "Mesh",
    alpha0: float,
    cfg: ToleranceConfig | None = None,
    *,
    allow_high_dim: bool = False,
) -> tuple[ConditionVerdict, MeshQuality]:
    """Check that every subsimplex dihedral angle of every cell is >= alpha0.

    Equality counts as satisfied.  Degenerate cells yield a violated
    verdict annotated with their indices instead of an exception.
    """
    quality = mesh_quality(mesh, cfg, allow_high_dim=allow_high_dim)
    return verdict_min_dihedral(quality, alpha0), quality


def check_generalized_condition(
    mesh: "Mesh",
    dsine_min: float,
    cfg: ToleranceConfig | None = None,
    *,
    allow_high_dim: bool = False,
) -> tuple[ConditionVerdict, MeshQuality]:
    """Check that every vertex d-sine of every cell is >= dsine_min."""
    quality = mesh_quality(mesh, cfg, allow_high_dim=allow_high_dim)
    return verdict_min_dsine(quality, dsine_min), quality


def certified_dsine_bound(alpha0: float, gamma0: float, d: int) -> float:
    """Lower bound on every vertex d-sine certified by an angle window.

    Given that every subsimplex dihedral angle lies in [alpha0, gamma0],
    returns s^(d(d-1)/2) with s = min(sin alpha0, sin gamma0).  The
    exponent unrolls the product decomposition down to dimension 2: level
    d' contributes d'-1 factors and the planar base case one more.
    """
    if not isinstance(d, int) or d < 2:
        raise InvalidInputError(f"dimension must be an integer >= 2, got {d}")
    if not 0.0 < alpha0 <= gamma0 < math.pi:
        raise InvalidInputError(
            f"angle window must satisfy 0 < alpha0 <= gamma0 < pi, got ({alpha0}, {gamma0})"
        )
    s = min(math.sin(alpha0), math.sin(gamma0))
    return s ** (d * (d - 1) // 2)


def equivalence_audit(
    mesh: "Mesh",
    cfg: ToleranceConfig | None = None,
    *,
    allow_high_dim: bool = False,
) -> EquivalenceAudit:
    """Audit both directions of the condition equivalence on every cell.

    Forward: for every subsimplex, the sine of each of its dihedral angles
    must be at least that subsimplex's smallest vertex sine.  Backward:
    the cell's smallest vertex d-sine must be at least the certified bound
    computed from the cell's extreme subsimplex dihedral angles.  Both
    margins are reported per cell; degenerate cells are flagged and the
    audit continues.
    """
    scan = _scan_mesh(mesh, cfg or DEFAULT_TOLERANCES, allow_high_dim)
    good = np.flatnonzero(~scan.degenerate)
    cells = []
    for index, lo, hi, dsine, forward in zip(
        good.tolist(),
        scan.min_dihedral[good].tolist(),
        scan.max_dihedral[good].tolist(),
        scan.min_dsine[good].tolist(),
        scan.forward_margin[good].tolist(),
    ):
        bound = certified_dsine_bound(lo, hi, mesh.ambient_dim)
        cells.append(CellAudit(index, dsine, lo, hi, bound, forward, dsine - bound))
    return EquivalenceAudit(
        ambient_dim=mesh.ambient_dim,
        cells=tuple(cells),
        degenerate_cells=tuple(np.flatnonzero(scan.degenerate).tolist()),
    )
