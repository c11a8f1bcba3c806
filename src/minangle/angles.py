"""Dihedral angles, vertex d-sines and their product decomposition for one simplex.

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

Every function here is the kernel of :mod:`minangle.geometry` at N=1: the
angles and d-sines come from the barycentric gradients of the simplex in
coordinates of its own affine hull, with the R factor and facet-pair order
of the scan in :mod:`minangle.regularity`.  So angles are intrinsic and
equal those of the one-cell scan bit for bit: ``all_dihedral_angles(s)``
holds the angles behind ``cell_quality(s)``, the one source of their sum and
of a ball ratio.  The same cell scanned among others by ``mesh_quality`` can
differ in the last bit, as numpy rounds with the batch shape.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError
from .geometry import (
    Simplex,
    _combinations,
    _is_index_type,
    _Record,
    _require_angle_dim,
    _require_full_dim,
    _require_index,
    _shown,
    _simplex_forms,
    facet,
)


class DihedralAngleSet(_Record, eq=False):
    """All k(k+1)/2 dihedral angles of one simplex.

    Angles are keyed by the unordered facet pair (i, j) with i < j and are
    given in radians.  The normals they come from are
    :func:`minangle.geometry.outward_unit_normals`.  Sets compare and hash
    by identity, as their field holds a dict.
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
