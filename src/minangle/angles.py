"""Dihedral angles, vertex d-sines, and derived per-simplex metrics.

The dihedral angle between facets F_i and F_j is defined through the inner
product of their outward unit normals, cos(beta_ij) = -n_i . n_j.  The
d-sine generalizes the classical sine of a triangle angle to the solid
angle at a vertex of a d-simplex:

    sin_d(A_i) = d^(d-1) * meas_d(S)^(d-1)
                 / ( (d-1)! * prod_{j != i} meas_{d-1}(F_j) )

For d = 2 this reduces to the ordinary sine of the planar angle.  The two
notions are tied together by a product decomposition: the d-sine at A_i
factors into the (d-1)-sine of A_i inside the facet omitting the last
vertex, times the sines of the dihedral angles at that facet.  That
identity is the engine behind the regularity-condition equivalence checks
in :mod:`minangle.regularity`.

Every function here is the kernel of :mod:`minangle.geometry` at N=1, which
takes the angles and d-sines from the barycentric gradients of the simplex
in coordinates of its own affine hull; so subsimplex angles are intrinsic,
and the values agree with the mesh scan of :mod:`minangle.regularity`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidInputError
from .geometry import Simplex, ToleranceConfig, _simplex_forms, facet

__all__ = [
    "DihedralAngleSet",
    "ProductDecomposition",
    "VertexSineSet",
    "all_dihedral_angles",
    "ball_ratio",
    "d_sine",
    "dihedral_angle",
    "dihedral_sum",
    "inradius",
    "product_decomposition",
    "vertex_sines",
]


@dataclass(frozen=True)
class DihedralAngleSet:
    """All k(k+1)/2 dihedral angles of one simplex, plus its outward normals.

    Angles are keyed by the unordered facet pair (i, j) with i < j and are
    given in radians; ``normals`` are the outward unit normals, one row per
    facet: in the simplex's coordinates when it is full-dimensional (k = d),
    and in the orthonormal hull coordinates of its R factor when k < d.
    """

    simplex_dim: int
    angles: dict[tuple[int, int], float]
    normals: np.ndarray

    def angle(self, i: int, j: int) -> float:
        if i == j:
            raise InvalidInputError("dihedral angle needs two distinct facets")
        key = (i, j) if i < j else (j, i)
        try:
            return self.angles[key]
        except KeyError:
            raise InvalidInputError(
                f"facet pair {key} out of range for dimension {self.simplex_dim}"
            ) from None

    def values(self) -> list[float]:
        return list(self.angles.values())

    def min_angle(self) -> float:
        return min(self.angles.values())

    def max_angle(self) -> float:
        return max(self.angles.values())


@dataclass(frozen=True)
class VertexSineSet:
    """The d+1 vertex d-sines of a full-dimensional simplex."""

    sines: tuple[float, ...]

    def min_sine(self) -> float:
        return min(self.sines)


@dataclass(frozen=True)
class ProductDecomposition:
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


def all_dihedral_angles(s: Simplex, cfg: ToleranceConfig | None = None) -> DihedralAngleSet:
    """Every dihedral angle of ``s``, computed from one set of normals.

    Embedded simplices (k < d) are measured in coordinates of their own
    affine hull, so the angles are intrinsic.  Requires intrinsic
    dimension >= 2.
    """
    k = s.intrinsic_dim
    if k < 2:
        raise InvalidInputError(f"dihedral angles need dimension >= 2, got {s!r}")
    units, _, values, _ = _simplex_forms(
        s, cfg, "dihedral angles", ambient=k == s.ambient_dim
    )
    pairs = itertools.combinations(range(k + 1), 2)  # the np.triu_indices order
    angles = dict(zip(pairs, values.tolist()))
    return DihedralAngleSet(simplex_dim=k, angles=angles, normals=-units)


def dihedral_angle(s: Simplex, i: int, j: int, cfg: ToleranceConfig | None = None) -> float:
    """Dihedral angle in radians between facets F_i and F_j of ``s``.

    Symmetric in (i, j); the value lies in [0, pi] and strictly inside for
    nondegenerate simplices.
    """
    k = s.intrinsic_dim
    if not (0 <= i <= k and 0 <= j <= k):
        raise InvalidInputError(f"facet indices ({i}, {j}) out of range 0..{k}")
    if i == j:
        raise InvalidInputError("dihedral angle needs two distinct facets")
    return all_dihedral_angles(s, cfg).angle(i, j)


def _require_full_dim(s: Simplex, what: str, min_dim: int = 1) -> int:
    d = s.ambient_dim
    if s.intrinsic_dim != d:
        raise InvalidInputError(f"{what} needs a full-dimensional simplex, got {s!r}")
    if d < min_dim:
        raise InvalidInputError(f"{what} needs dimension >= {min_dim}")
    return d


def d_sine(s: Simplex, i: int) -> float:
    """The d-sine of the solid angle at vertex ``i`` of a d-simplex.

    Requires a full-dimensional simplex with d >= 2.  The value lies in
    (0, 1] for nondegenerate input; 1 is attained exactly at the corner of
    a right-angle (orthogonal-edge) simplex.

    Raises:
        InvalidInputError: if ``s`` is not full-dimensional, d < 2, or
            ``i`` is out of range.
        DegeneracyError: if ``s`` is degenerate.
    """
    d = _require_full_dim(s, "d-sine", 2)
    if not 0 <= i <= d:
        raise InvalidInputError(f"vertex index {i} out of range 0..{d}")
    return vertex_sines(s).sines[i]


def vertex_sines(s: Simplex) -> VertexSineSet:
    """All d+1 vertex d-sines of a full-dimensional simplex, d >= 2."""
    _require_full_dim(s, "d-sine", 2)
    return VertexSineSet(sines=tuple(_simplex_forms(s, None, "d-sine")[3].tolist()))


def product_decomposition(
    s: Simplex, i: int, cfg: ToleranceConfig | None = None
) -> ProductDecomposition:
    """Factor the d-sine at vertex ``i`` through the facet omitting the last vertex.

    The sub-sine is the (d-1)-sine of vertex ``i`` inside the facet
    conv{A_0..A_{d-1}}, measured in its own affine hull; the dihedral
    factors are sin(beta_j) for the angles between the facet omitting A_j
    and the facet omitting A_d, j != i.  Vertex ``i`` must belong to the
    shared facet (i < d); reorder the vertices first if it does not.
    """
    d = _require_full_dim(s, "product decomposition", 3)
    if not 0 <= i < d:
        raise InvalidInputError(
            f"vertex index {i} must lie in the facet omitting the last vertex "
            f"(0..{d - 1}); reorder the vertices first"
        )
    _, _, angles, sines = _simplex_forms(s, cfg, "product decomposition")
    position = {pair: n for n, pair in enumerate(itertools.combinations(range(d + 1), 2))}
    dihedral_sines = tuple(math.sin(angles[position[j, d]]) for j in range(d) if j != i)
    sub_sine = float(_simplex_forms(facet(s, d), cfg, "d-sine")[3][i])
    product = sub_sine * math.prod(dihedral_sines)
    direct = float(sines[i])
    return ProductDecomposition(
        vertex_index=i,
        sub_sine=sub_sine,
        dihedral_sines=dihedral_sines,
        product=product,
        d_sine=direct,
        residual=abs(direct - product) / direct,
    )


def dihedral_sum(s: Simplex, cfg: ToleranceConfig | None = None) -> float:
    """Sum of all k(k+1)/2 dihedral angles, in radians.

    For any triangle this is pi; for a nondegenerate tetrahedron the sum
    lies strictly between 2*pi and 3*pi.
    """
    return math.fsum(all_dihedral_angles(s, cfg).values())


def inradius(s: Simplex) -> float:
    """Radius of the inscribed ball: 1 / sum_j |g_j| over the barycentric gradients."""
    return ball_ratio(s) * s.diameter()


def ball_ratio(s: Simplex) -> float:
    """Inradius divided by the diameter; scale-invariant, in (0, 1)."""
    _require_full_dim(s, "ball ratio")
    _, lengths, _, _ = _simplex_forms(s, None, "ball ratio")
    return float(1.0 / lengths.sum())
