"""Tests for the deterministic simplex generators."""

import math

import numpy as np
import pytest

from minangle import (
    GenerationError,
    InvalidInputError,
    all_dihedral_angles,
    corner_simplex,
    flatten_family,
    generate,
    needle_family,
    random_simplex,
    regular_simplex,
    simplex_measure,
    vertex_sines,
)
from oracles import planar_angle


def edge_lengths(simplex):
    v = simplex.vertices
    n = v.shape[0]
    return sorted(
        float(np.linalg.norm(v[i] - v[j])) for i in range(n) for j in range(i + 1, n)
    )


class TestRegularSimplex:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_all_edges_equal_scale(self, d):
        lengths = edge_lengths(regular_simplex(d, scale=2.5))
        np.testing.assert_allclose(lengths, 2.5, atol=1e-12 * 2.5)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_dihedral_angles_closed_form(self, d):
        for value in all_dihedral_angles(regular_simplex(d)).values():
            assert value == pytest.approx(math.acos(1.0 / d), abs=1e-10)

    def test_dimension_validation(self):
        with pytest.raises(InvalidInputError):
            regular_simplex(1)
        with pytest.raises(InvalidInputError):
            regular_simplex(3, scale=0.0)
        for d in (3.0, True, "3", None):
            with pytest.raises(InvalidInputError) as error:
                regular_simplex(d)
            assert str(error.value) == f"dimension must be an integer >= 2, got {d!r}"
        for make in (regular_simplex, corner_simplex, random_simplex):
            np.testing.assert_array_equal(make(np.int64(3)).vertices, make(3).vertices)


class TestCornerSimplex:
    def test_vertices_are_scaled_axes(self):
        s = corner_simplex(3, scale=2.0)
        expected = np.vstack([np.zeros(3), 2.0 * np.eye(3)])
        np.testing.assert_array_equal(s.vertices, expected)

    def test_volume_closed_form(self):
        assert simplex_measure(corner_simplex(3, scale=2.0)) == pytest.approx(
            8.0 / 6.0, rel=1e-12
        )

    @pytest.mark.parametrize("d", range(2, 9))
    def test_corner_dsine_is_one(self, d):
        assert vertex_sines(corner_simplex(d))[0] == pytest.approx(1.0, abs=1e-12)


class TestFlattenFamily:
    def test_regular_height_reproduces_regular_tetrahedron(self):
        s = flatten_family(3, math.sqrt(2.0 / 3.0))
        np.testing.assert_allclose(edge_lengths(s), 1.0, atol=1e-12)
        assert simplex_measure(s) == pytest.approx(math.sqrt(2.0) / 12.0, rel=1e-12)

    def test_measure_is_linear_in_t(self):
        ratios = [
            simplex_measure(flatten_family(3, t)) / t for t in (0.5, 0.25, 0.125, 0.01)
        ]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            flatten_family(3, 0.0)
        with pytest.raises(InvalidInputError):
            flatten_family(3, -0.5)
        with pytest.raises(InvalidInputError):
            flatten_family(3, 1.5)
        with pytest.raises(InvalidInputError):
            flatten_family(2, 0.5)  # needs d >= 3
        for family in (flatten_family, needle_family):
            for t in ("a", None, True):
                with pytest.raises(InvalidInputError) as error:
                    family(3, t)
                assert str(error.value) == f"family parameter must lie in (0, 1], got {t}"

    def test_quality_decays_smoothly_under_halving(self):
        previous = min(vertex_sines(flatten_family(3, 0.5)))
        for exponent in range(2, 11):
            current = min(vertex_sines(flatten_family(3, 2.0**-exponent)))
            assert current < previous
            assert current > previous / 10.0  # no more than 10x drop per halving
            previous = current


class TestNeedleFamily:
    def test_t_equal_one_is_regular(self):
        np.testing.assert_array_equal(
            needle_family(3, 1.0).vertices, regular_simplex(3).vertices
        )

    def test_shrinking_edge_length(self):
        s = needle_family(3, 0.25)
        assert float(np.linalg.norm(s.vertices[1] - s.vertices[0])) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_min_angle_vanishes_in_2d(self):
        angles = [
            min(all_dihedral_angles(needle_family(2, 2.0**-e)).values())
            for e in range(1, 9)
        ]
        assert all(b < a for a, b in zip(angles, angles[1:]))
        assert angles[-1] < 0.01

    def test_min_dsine_vanishes_in_3d(self):
        sines = [min(vertex_sines(needle_family(3, 2.0**-e))) for e in range(1, 9)]
        assert all(b < a for a, b in zip(sines, sines[1:]))
        assert sines[-1] < 0.01

    def test_quality_decays_smoothly_under_halving(self):
        previous = min(vertex_sines(needle_family(3, 0.5)))
        for exponent in range(2, 9):
            current = min(vertex_sines(needle_family(3, 2.0**-exponent)))
            assert previous / 10.0 < current < previous
            previous = current


class TestRandomSimplex:
    def test_same_seed_same_simplex(self):
        a = random_simplex(3, seed=42, min_quality=0.1)
        b = random_simplex(3, seed=42, min_quality=0.1)
        assert np.array_equal(a.vertices, b.vertices)  # bitwise

    def test_different_seeds_differ(self):
        a = random_simplex(3, seed=1)
        b = random_simplex(3, seed=2)
        assert not np.array_equal(a.vertices, b.vertices)

    def test_quality_floor_is_respected(self):
        for seed in range(100):
            s = random_simplex(3, seed=seed, min_quality=0.2)
            assert min(vertex_sines(s)) > 0.2

    def test_scale_bounds_coordinates(self):
        s = random_simplex(4, seed=9, scale=0.5)
        assert np.all(s.vertices >= 0.0)
        assert np.all(s.vertices < 0.5)

    def test_triangle_sines_match_classical(self):
        tri = random_simplex(2, seed=77)
        for i in range(3):
            assert vertex_sines(tri)[i] == pytest.approx(
                math.sin(planar_angle(tri.vertices, i)), abs=1e-12
            )

    def test_budget_exhaustion_raises(self):
        with pytest.raises(GenerationError):
            random_simplex(2, seed=0, min_quality=0.999999)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            random_simplex(3, seed=-1)
        for seed in (1.5, True, "5", None, np.float64(5.0)):
            with pytest.raises(InvalidInputError) as error:
                random_simplex(2, seed=seed)
            assert str(error.value) == f"seed must be an integer >= 0, got {seed!r}"
        for seed in (np.int64(5), np.uint64(2**64 - 1), np.int8(7)):
            np.testing.assert_array_equal(
                random_simplex(2, seed=seed).vertices, random_simplex(2, seed=int(seed)).vertices
            )
        with pytest.raises(InvalidInputError):
            random_simplex(3, min_quality=1.0)
        for floor in ("x", None, True):
            with pytest.raises(InvalidInputError) as error:
                random_simplex(3, 0, 1.0, floor)
            assert str(error.value) == f"quality floor must lie in [0, 1), got {floor}"
        np.testing.assert_array_equal(
            random_simplex(2, min_quality=np.float32(0.25)).vertices,
            random_simplex(2, min_quality=0.25).vertices,
        )
        with pytest.raises(InvalidInputError):
            random_simplex(1)


class TestScale:
    @pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan, 0.0, -1.0, "a", None, True])
    def test_scale_must_be_positive_and_finite(self, scale):
        """Rejected up front, before an infinite scale turns into inf - inf = nan coordinates."""
        makers = [
            lambda: regular_simplex(3, scale),
            lambda: corner_simplex(3, scale),
            lambda: flatten_family(3, 0.5, scale),
            lambda: needle_family(3, 0.5, scale),
            lambda: random_simplex(3, seed=1, scale=scale),
            lambda: generate("regular", 3, scale=scale),
        ]
        for make in makers:
            with pytest.raises(InvalidInputError, match="scale must be positive and finite, got"):
                make()


class TestGeneratorSpec:
    """``generate(kind, dim, param, seed, scale)``, the dispatch the CLI runs."""

    def test_dispatch_matches_direct_calls(self):
        np.testing.assert_array_equal(
            generate("regular", 4).vertices, regular_simplex(4).vertices
        )
        np.testing.assert_array_equal(
            generate("flatten", 3, param=0.25).vertices, flatten_family(3, 0.25).vertices
        )
        np.testing.assert_array_equal(
            generate("random", 3, seed=5).vertices, random_simplex(3, seed=5).vertices
        )
        np.testing.assert_array_equal(
            generate("needle", 3, param=0.25).vertices, needle_family(3, 0.25).vertices
        )
        np.testing.assert_array_equal(generate("needle", 2).vertices, regular_simplex(2).vertices)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown generator kind 'spiky'"):
            generate("spiky", 3)

    def test_flatten_needs_three_dimensions(self):
        with pytest.raises(InvalidInputError):
            generate("flatten", 2)

    def test_random_param_is_quality_floor(self):
        floor = r"quality floor must lie in \[0, 1\), got 1\.0"
        with pytest.raises(InvalidInputError, match=floor):
            generate("random", 3, param=1.0)
        # The seed is checked before the floor.
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0, got -1"):
            generate("random", 3, param=1.0, seed=-1)
        s = generate("random", 3, param=0.3, seed=11)
        assert min(vertex_sines(s)) > 0.3
