"""Tests for the geometric kernel: measures, hull coordinates, normals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minangle import (
    DegeneracyError,
    InvalidInputError,
    Simplex,
    ToleranceConfig,
    all_dihedral_angles,
    facet,
    flatten_family,
    is_degenerate,
    outward_unit_normal,
    outward_unit_normals,
    random_simplex,
    regular_simplex,
    simplex_measure,
)
from minangle.geometry import _intrinsic_r, _normalized
from oracles import cayley_menger_measure, rigid_motion

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
            assert simplex_measure(s.permuted(order)) == pytest.approx(
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
        edges = s.edge_vectors() / s.diameter()
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
        n = outward_unit_normal(corner(2), 0)
        np.testing.assert_allclose(n, [math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-12)

    def test_corner_triangle_leg(self):
        n = outward_unit_normal(corner(2), 1)
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
                        assert np.dot(normals[i], s.vertex(j) - s.vertex(i)) > 0.0

    def test_embedded_simplex_rejected(self):
        tri3d = Simplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            outward_unit_normals(tri3d)

    def test_degenerate_raises(self):
        with pytest.raises(DegeneracyError):
            outward_unit_normals(Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


class TestIsDegenerate:
    def test_collinear_points(self):
        assert is_degenerate(Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_regular_tetrahedron_is_not(self):
        assert not is_degenerate(regular_simplex(3))

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
        assert is_degenerate(squashed, ToleranceConfig(degeneracy_rel_tol=1e-4))


class TestToleranceConfig:
    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(InvalidInputError):
            ToleranceConfig(degeneracy_rel_tol=0.0)


def kernel_hull_coordinates(s):
    """Normalized vertices of ``s`` in the kernel's hull frame, and their pairwise distances."""
    z, dist = _normalized(s.vertices[None])
    r = _intrinsic_r(z, dist, np.arange(s.vertex_count)[None], 1e-12)[0]
    coords = np.vstack([np.zeros(s.intrinsic_dim), r[0, 0].T])
    return coords, dist[0]


def _pairwise(v):
    v = np.asarray(v, dtype=float)
    diff = v[:, None, :] - v[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))
