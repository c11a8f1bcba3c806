"""Tests for the geometric kernel: measures, hull coordinates, normals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minangle import (
    DegeneracyError,
    InvalidInputError,
    Mesh,
    Simplex,
    all_dihedral_angles,
    facet,
    flatten_family,
    is_degenerate,
    mesh_quality,
    needle_family,
    outward_unit_normals,
    random_simplex,
    regular_simplex,
    simplex_measure,
)
from minangle.regularity import _combinations, _gradients, _level, _normalized
from oracles import (
    HUGE_INT,
    accuracy_constant,
    cayley_menger_measure,
    qr_gradients,
    qr_intrinsic_r,
    qr_level,
    rigid_motion,
    shown,
)

REGULAR_TETRA_MEASURE = math.sqrt(2.0) / 12.0


def corner(d):
    return Simplex(np.vstack([np.zeros(d), np.eye(d)]))


class TestSimplexConstruction:
    def test_ragged_coordinates_rejected(self):
        with pytest.raises(InvalidInputError):
            Simplex([[0.0, 0.0], [1.0], [0.0, 1.0]])

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(InvalidInputError):
            Simplex([[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            Simplex([[0.0, 0.0], [1.0, math.inf], [0.0, 1.0]])

    def test_coordinate_outside_the_double_range_rejected(self):
        with pytest.raises(InvalidInputError, match="outside the double range"):
            Simplex([[10**400, 0], [0, 1], [1, 0]])

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(InvalidInputError, match="nonempty array of coordinate arrays"):
            Simplex([1.0, 2.0])

    def test_too_many_vertices_for_ambient_space(self):
        with pytest.raises(InvalidInputError):
            Simplex([[0.0], [1.0], [2.0]])  # three vertices in R^1

    def test_vertices_are_read_only(self):
        s = corner(2)
        with pytest.raises(ValueError):
            s.vertices[0, 0] = 7.0

    def test_dims(self):
        s = Simplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert s.ambient_dim == 3
        assert s.intrinsic_dim == 2
        assert s.vertex_count == 3


class TestSimplexMeasure:
    def test_unit_segment(self):
        assert simplex_measure(Simplex([[0.0], [1.0]])) == pytest.approx(1.0, abs=0.0)

    def test_point_has_unit_measure(self):
        assert simplex_measure(Simplex([[3.0, -2.0]])) == 1.0

    @pytest.mark.parametrize("d", range(1, 9))
    def test_corner_simplex_closed_form(self, d):
        assert simplex_measure(corner(d)) == pytest.approx(
            1.0 / math.factorial(d), rel=1e-12
        )

    def test_regular_tetrahedron(self):
        assert simplex_measure(regular_simplex(3)) == pytest.approx(
            REGULAR_TETRA_MEASURE, rel=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_cayley_menger_oracle(self, d):
        for seed in range(10):
            s = random_simplex(d, seed=seed, min_quality=1e-3)
            assert simplex_measure(s) == pytest.approx(
                cayley_menger_measure(s.vertices), rel=1e-9
            )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_permutation_invariance(self, d):
        rng = np.random.default_rng(505 + d)
        for seed in range(20):
            s = random_simplex(d, seed=7000 + seed, min_quality=1e-3)
            reference = simplex_measure(s)
            order = rng.permutation(d + 1)
            assert simplex_measure(Simplex(s.vertices[order])) == pytest.approx(
                reference, rel=1e-10
            )

    @given(
        d=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=500),
        lam=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_homogeneity(self, d, seed, lam):
        s = random_simplex(d, seed=seed, min_quality=1e-3)
        scaled = Simplex(s.vertices * lam)
        assert simplex_measure(scaled) == pytest.approx(
            lam**d * simplex_measure(s), rel=1e-10
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_rigid_motion_invariance(self, d):
        rng = np.random.default_rng(99 + d)
        for seed in range(20):
            s = random_simplex(d, seed=3100 + seed, min_quality=1e-3)
            moved = Simplex(rigid_motion(s.vertices, rng))
            assert simplex_measure(moved) == pytest.approx(
                simplex_measure(s), rel=1e-10
            )

    def test_exactly_degenerate_returns_zero(self):
        assert simplex_measure(Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])) == 0.0

    def test_measure_in_range_when_the_diameter_power_is_not(self):
        # diameter**2 = 1e310 is beyond the double range; the area, 5e54, is not.
        area = simplex_measure(Simplex([[0.0, 0.0], [1e155, 0.0], [0.0, 1e-100]]))
        assert area == pytest.approx(5e54, rel=1e-12)

    def test_measure_beyond_the_double_range_is_inf(self):
        assert simplex_measure(Simplex(np.array([[0, 0], [1, 0], [0, 1.0]]) * 1e200)) == math.inf

    def test_measure_in_range_when_the_diameter_is_not(self):
        # The diameter, 3e308, is beyond the double range; the area, 1.5e308, is not.
        s = Simplex([[-1.5e308, 0.0], [1.5e308, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            area = simplex_measure(s)
            diameter = s.diameter()
        assert area == pytest.approx(1.5e308, rel=1e-14, abs=0.0)
        assert diameter == math.inf


class TestDiameter:
    def test_corner_triangle(self):
        assert corner(2).diameter() == math.sqrt(2.0)

    def test_coincident_vertices(self):
        assert Simplex([[3.0, 4.0]]).diameter() == 0.0
        assert Simplex([[3.0, 4.0], [3.0, 4.0]]).diameter() == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_exact_under_power_of_two_scaling(self, d):
        # The kernel's rescalings are by powers of two, so the diameter scales exactly.
        for seed in range(30):
            v = random_simplex(d, seed).vertices
            unit = Simplex(v).diameter()
            for j in range(-1000, 1001, 50):
                expected = 2.0**j * unit
                if 1e-300 < expected < 1e300:
                    assert Simplex(v * 2.0**j).diameter() == expected

    @pytest.mark.parametrize("far", [1e300, 1.7e308])
    @pytest.mark.parametrize("gap", [1e-30, 1e-20, 3e-300, 5e-320])
    def test_short_edge_far_from_the_origin(self, far, gap):
        # Only a cell with an entry of 2^1023 or more is rescaled before the
        # subtraction, and only halved, so no short edge is flushed away.
        assert Simplex([[far, 0.0], [far, gap]]).diameter() == gap


class TestFacet:
    def test_definition_on_triangle(self):
        tri = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        f = facet(tri, 0)
        assert isinstance(f, Simplex)
        np.testing.assert_array_equal(f.vertices, [[1.0, 0.0], [0.0, 1.0]])

    def test_corner_facet_opposite_apex(self):
        f = facet(corner(3), 3)
        np.testing.assert_array_equal(f.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_facet_count_and_distinctness(self, d):
        s = regular_simplex(d)
        facets = [facet(s, i) for i in range(d + 1)]
        assert len(facets) == d + 1
        keys = {tuple(map(tuple, f.vertices)) for f in facets}
        assert len(keys) == d + 1

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            facet(corner(2), 3)
        with pytest.raises(InvalidInputError):
            facet(corner(2), -1)
        for i in (True, 1.0, "1", None):
            with pytest.raises(InvalidInputError, match=f"facet index {i!r} is not an integer"):
                facet(corner(2), i)
        for i in (HUGE_INT, -HUGE_INT):
            with pytest.raises(InvalidInputError) as error:
                facet(corner(2), i)
            assert str(error.value) == f"facet index {shown(i)} out of range 0..2"
        with pytest.raises(InvalidInputError, match="a 0-simplex has no facets"):
            facet(Simplex([[1.0, 2.0]]), 0)
        np.testing.assert_array_equal(facet(corner(2), np.int64(1)).vertices, [[0, 0], [0, 1]])


class TestOrthonormalFrame:
    """The kernel's hull frame: E^T = Q R, so R holds the edges in the orthonormal frame Q."""

    def test_single_direction(self):
        coords, _ = kernel_hull_coordinates(Simplex([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        np.testing.assert_allclose(np.abs(coords), [[0.0], [1.0]], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_frame_gram_is_identity(self, d):
        # Q^T Q = I exactly when R^T R reproduces the edge Gram matrix E E^T.
        s = corner(d)
        coords, _ = kernel_hull_coordinates(s)
        edges = (s.vertices[1:] - s.vertices[0]) / s.diameter()
        np.testing.assert_allclose(coords[1:] @ coords[1:].T, edges @ edges.T, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_projection_is_isometric_for_measure(self, d):
        rng = np.random.default_rng(42 + d)
        for seed in range(10):
            s = random_simplex(d, seed=42 + seed, min_quality=1e-3)
            embedded = Simplex(rigid_motion(np.hstack([s.vertices, np.zeros((d + 1, 2))]), rng))
            coords, _ = kernel_hull_coordinates(embedded)
            assert simplex_measure(Simplex(coords)) * embedded.diameter() ** d == pytest.approx(
                cayley_menger_measure(s.vertices), rel=1e-10
            )
            assert simplex_measure(embedded) == pytest.approx(
                cayley_menger_measure(s.vertices), rel=1e-10
            )

    def test_degenerate_simplex_raises(self):
        collinear = Simplex([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        assert is_degenerate(collinear)
        with pytest.raises(DegeneracyError):
            all_dihedral_angles(collinear)


class TestProjectIntrinsic:
    """Hull coordinates (the columns of R) keep every pairwise distance."""

    def test_triangle_in_coordinate_plane(self):
        tri3d = Simplex([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        coords, dist = kernel_hull_coordinates(tri3d)
        assert coords.shape == (3, 2)
        np.testing.assert_allclose(_pairwise(coords), dist, rtol=1e-12)
        np.testing.assert_allclose(dist * tri3d.diameter(), _pairwise(tri3d.vertices), rtol=1e-12)

    def test_full_dimensional_input_is_congruent(self):
        s = random_simplex(3, seed=11, min_quality=1e-2)
        coords, _ = kernel_hull_coordinates(s)
        np.testing.assert_allclose(
            _pairwise(coords) * s.diameter(), _pairwise(s.vertices), rtol=1e-10
        )

    def test_random_triangle_in_r5(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            v = rng.uniform(-1.0, 1.0, size=(3, 5))
            tri = Simplex(v)
            if is_degenerate(tri):
                continue
            coords, _ = kernel_hull_coordinates(tri)
            assert coords.shape == (3, 2)
            np.testing.assert_allclose(
                _pairwise(coords) * tri.diameter(), _pairwise(v), rtol=1e-10
            )

    def test_degenerate_simplex_rejected(self):
        collinear = Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert is_degenerate(collinear)
        with pytest.raises(DegeneracyError):
            all_dihedral_angles(collinear)


class TestOutwardNormals:
    def test_corner_triangle_hypotenuse(self):
        n = outward_unit_normals(corner(2))[0]
        np.testing.assert_allclose(n, [math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-12)

    def test_corner_triangle_leg(self):
        n = outward_unit_normals(corner(2))[1]
        np.testing.assert_allclose(n, [-1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_contracts_on_random_simplices(self, d):
        for seed in range(10):
            s = random_simplex(d, seed=900 + seed, min_quality=1e-2)
            normals = outward_unit_normals(s)
            lengths = np.linalg.norm(normals, axis=1)
            np.testing.assert_allclose(lengths, 1.0, atol=1e-12)
            for i in range(d + 1):
                rest = facet(s, i)
                edges = rest.vertices[1:] - rest.vertices[0]
                # orthogonal to every facet edge
                np.testing.assert_allclose(edges @ normals[i], 0.0, atol=1e-10)
                # outward: points away from the omitted vertex
                for j in range(d + 1):
                    if j != i:
                        assert np.dot(normals[i], s.vertices[j] - s.vertices[i]) > 0.0

    @pytest.mark.parametrize("k, d", [(1, 3), (2, 3), (3, 5)])
    def test_embedded_simplex_normals(self, k, d):
        for seed in range(10):
            s = Simplex(random_simplex(d, seed=700 + seed).vertices[: k + 1])
            normals = outward_unit_normals(s)
            assert normals.shape == (k + 1, d)
            np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
            edges = s.vertices[1:] - s.vertices[0]
            # inside the span of the edges: the least-squares residual vanishes
            coeffs = np.linalg.lstsq(edges.T, normals.T, rcond=None)[0]
            np.testing.assert_allclose(edges.T @ coeffs, normals.T, atol=1e-10)
            for i in range(k + 1):
                rest = facet(s, i)
                facet_edges = rest.vertices[1:] - rest.vertices[0]
                # orthogonal to every facet edge
                np.testing.assert_allclose(facet_edges @ normals[i], 0.0, atol=1e-10)
                # outward: points away from the omitted vertex
                for j in range(k + 1):
                    if j != i:
                        assert np.dot(normals[i], s.vertices[j] - s.vertices[i]) > 0.0

    def test_degenerate_raises(self):
        with pytest.raises(DegeneracyError):
            outward_unit_normals(Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_point_has_no_normals(self):
        with pytest.raises(InvalidInputError, match="a 0-simplex has no facets"):
            outward_unit_normals(Simplex([[1.0, 2.0, 3.0]]))


class TestIsDegenerate:
    def test_collinear_points(self):
        assert is_degenerate(Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_regular_tetrahedron_is_not(self):
        assert not is_degenerate(regular_simplex(3))

    def test_point_is_not(self):
        assert not is_degenerate(Simplex([[1.0, 2.0]]))

    def test_flat_sliver_at_default_tolerance(self):
        # sqrt(det G) = (sqrt(3)/2) t against the tolerance 1e-12 * diameter^3.
        assert is_degenerate(flatten_family(3, 1e-15))
        for t in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11):
            assert not is_degenerate(flatten_family(3, t))

    def test_scale_invariance(self):
        thin = Simplex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]])
        assert is_degenerate(thin)
        assert is_degenerate(Simplex(thin.vertices * 1e6))
        assert is_degenerate(Simplex(thin.vertices * 1e-6))

    def test_custom_tolerance(self):
        squashed = Simplex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-6]])
        assert not is_degenerate(squashed)
        assert is_degenerate(squashed, 1e-4)
        assert is_degenerate(squashed, degeneracy_rel_tol=1e-4)
        # A numpy scalar is a tolerance as its double is.
        for tol in (1e-3, np.float64(1e-3), np.float32(1e-3)):
            assert is_degenerate(squashed, tol)
            assert not is_degenerate(regular_simplex(2), tol)

    @pytest.mark.parametrize(
        "vertices, tol, degenerate, measure",
        [
            ([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], 1e-12, True, 0.0),
            ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], 1e-12, False, 0.7071067811865477),
            (flatten_family(3, 1e-160).vertices, 1e-300, False, 1.4433756729740642e-161),
            (regular_simplex(6).vertices * 2.0**1000, 1e-12, False, math.inf),
            (regular_simplex(6).vertices * 2.0**-1000, 1e-12, False, 0.0),
        ],
        ids=["coincident-edge", "triangle-in-r3", "flat-1e-160", "regular-2^1000", "regular-2^-1000"],
    )
    def test_rule_and_measure_compute_the_forms_without_warnings(
        self, vertices, tol, degenerate, measure
    ):
        # Both read the kernel's one result and discard its angles and sines, which must
        # raise no RuntimeWarning on these edge cases; the values are pinned as literals.
        s = Simplex(vertices)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_degenerate(s, tol) is degenerate
            assert simplex_measure(s) == measure


def assert_tolerance_rejected(tol):
    """Both functions that take a tolerance reject ``tol`` with the rule's whole message."""
    triangle = regular_simplex(2)
    mesh = Mesh(triangle.vertices, [[0, 1, 2]])
    message = f"degeneracy_rel_tol must lie in (0, sqrt(3)/2), got {shown(tol)}"
    for call in (lambda: is_degenerate(triangle, tol), lambda: mesh_quality(mesh, tol)):
        with pytest.raises(InvalidInputError) as error:
            call()
        assert str(error.value) == message


class TestToleranceConfig:
    """The degeneracy tolerance rule, a plain number at is_degenerate and mesh_quality."""

    def test_rejects_nonpositive_tolerance(self):
        assert_tolerance_rejected(0.0)

    @pytest.mark.parametrize(
        "tol",
        ["a", None, True, "1e-3", "1", math.nan,
         pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400"),
         pytest.param(HUGE_INT, id="1e5000"), pytest.param(-HUGE_INT, id="-1e5000")],
    )
    def test_rejects_a_tolerance_that_is_not_a_number(self, tol):
        assert_tolerance_rejected(tol)

    @pytest.mark.parametrize("tol", [math.inf, 1.0, 1e300])
    def test_rejects_tolerance_of_one_or_more(self, tol):
        # sqrt(det G) <= (max edge)^k always, so such a tolerance flags every cell.
        assert_tolerance_rejected(tol)

    @pytest.mark.parametrize("tol", [math.sqrt(3) / 2, 0.87, 0.99])
    def test_rejects_tolerance_of_the_equilateral_ratio_or_more(self, tol):
        # The equilateral triangle has the largest |det R| / diameter^2 of any triangle.
        assert_tolerance_rejected(tol)

    def test_equilateral_ratio_is_the_largest_a_triangle_reaches(self):
        # The rule compares |det R| / diameter^2 with the tolerance.
        def ratio(s):
            z, dist, _ = _normalized(s.vertices[None])
            return float(qr_intrinsic_r(z, dist, np.arange(3)[None], 1e-12)[1][0, 0])

        assert ratio(regular_simplex(2)) == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
        rng = np.random.default_rng(0)
        for d in (2, 3):
            assert max(ratio(Simplex(rng.normal(size=(3, d)))) for _ in range(200)) < 0.866
        assert not is_degenerate(regular_simplex(2), 0.866)


def kernel_hull_coordinates(s):
    """Normalized vertices of ``s`` in the QR reference's hull frame, and their pairwise
    distances."""
    z, dist, _ = _normalized(s.vertices[None])
    r = qr_intrinsic_r(z, dist, np.arange(s.vertex_count)[None], 1e-12)[0]
    coords = np.vstack([np.zeros(s.intrinsic_dim), r[0, 0].T])
    return coords, dist[..., 0]


def _pairwise(v):
    v = np.asarray(v, dtype=float)
    diff = v[:, None, :] - v[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


class TestKernelReferences:
    """The kernel's triangular inverse, closed-form triangles and Gram-Schmidt planes against
    the general routes: ``np.linalg.inv`` and the QR route of ``tests/oracles.py``."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_back_substitution_matches_inv(self, k):
        rng = np.random.default_rng(k)
        r = np.triu(rng.uniform(-1.0, 1.0, (50, 3, k, k)), 1)
        diagonal = rng.uniform(0.5, 1.0, (50, 3, 1, k)) * rng.choice([-1.0, 1.0], (50, 3, 1, k))
        r += np.eye(k) * diagonal
        # The kernel's planes (k, k, S, N) and the reference's stacked matrices (N, S, k, k).
        planes = _gradients(r.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        for gradients in (planes, qr_gradients(r)):
            np.testing.assert_allclose(
                gradients[..., 1:, :], np.linalg.inv(r), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_array_equal(
                gradients[..., 0, :], -gradients[..., 1:, :].sum(axis=-2)
            )

    @pytest.mark.parametrize("d", range(2, 7))
    def test_triangle_level_matches_the_qr_route(self, d):
        # Every triangle of random cells: the rule, |det R| and the forms agree.
        self.assert_level_matches_the_qr_route(d, [3])

    @pytest.mark.parametrize("d", range(3, 9))
    def test_plane_level_matches_the_qr_route(self, d):
        # Every subset of 4 or more vertices: Gram-Schmidt's R against Householder's.
        self.assert_level_matches_the_qr_route(d, range(4, d + 2))

    @staticmethod
    def assert_level_matches_the_qr_route(d, sizes):
        cells = np.stack([random_simplex(d, seed).vertices for seed in range(30)])
        z, dist, _ = _normalized(cells)
        flagged = np.zeros(len(cells), dtype=bool)
        for size in sizes:
            subsets = _combinations(d + 1, size)
            degenerate, volume, *forms = _level(z, dist, subsets, 1e-12, flagged)
            qr_degenerate, qr_volume, *qr_forms = qr_level(z, dist, subsets, 1e-12)
            assert not degenerate.any()
            np.testing.assert_array_equal(degenerate, qr_degenerate)
            np.testing.assert_allclose(volume, qr_volume, rtol=1e-13)
            for form, qr_form in zip(forms, qr_forms):
                np.testing.assert_allclose(form, qr_form, rtol=1e-12)


def kernel_level(z, dist, subsets):
    """The kernel's level with its forms, at a tolerance that flags no sliver here."""
    return _level(z, dist, subsets, 1e-300, np.zeros(z.shape[-1], dtype=bool))


def reference_level(z, dist, subsets):
    """The QR route of ``tests/oracles.py``, as :func:`kernel_level`."""
    return qr_level(z, dist, subsets, 1e-300)


def measured_c(vertices, level):
    """:func:`oracles.accuracy_constant` of one simplex, measured by ``level`` on every subset."""
    m = len(vertices)
    z, dist, _ = _normalized(np.asarray(vertices, dtype=float)[None])
    forms = {}
    for size in range(3, m + 1):
        *_, angles, dsines = level(z, dist, _combinations(m, size))
        forms[size] = angles[..., 0], dsines[..., 0]
    return accuracy_constant(vertices, forms)


# The c of the sliver error model, as TestTriangleAccuracy holds it for triangles.
SLIVER_C = 4.0


class TestSliverAccuracy:
    """Every angle sine and vertex sine of every subsimplex of a sliver, against exact rationals.

    The model is TestTriangleAccuracy's: the input's own rounding moves an angle by a few eps
    absolute, so each value is within c eps / beta_min relative, beta_min the subsimplex's
    smallest angle.  Over these families the kernel and the QR route both measured c = 2.83.
    """

    @pytest.mark.parametrize("t", [10.0**-e for e in range(2, 9)])
    @pytest.mark.parametrize("family", [flatten_family, needle_family])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_flattened_and_needle_simplices(self, d, family, t):
        assert measured_c(family(d, t).vertices, kernel_level) <= SLIVER_C
