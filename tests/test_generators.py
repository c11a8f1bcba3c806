"""Tests for the deterministic simplex generators."""

import json
import math
from itertools import chain

import numpy as np
import pytest

from minangle import (
    DegeneracyError,
    GenerationError,
    InvalidInputError,
    Simplex,
    all_dihedral_angles,
    corner_simplex,
    flatten_family,
    needle_family,
    random_simplex,
    regular_simplex,
    simplex_measure,
    vertex_sines,
)
from minangle import generators
from minangle.cli import _KINDS, EXIT_INPUT_ERROR, EXIT_OK, main
from oracles import HUGE_INT, planar_angle, shown


def edge_lengths(simplex):
    v = simplex.vertices
    n = v.shape[0]
    return sorted(
        float(np.linalg.norm(v[i] - v[j])) for i in range(n) for j in range(i + 1, n)
    )


class TestRegularSimplex:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_all_edges_equal_one(self, d):
        np.testing.assert_allclose(edge_lengths(regular_simplex(d)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_dihedral_angles_closed_form(self, d):
        for value in all_dihedral_angles(regular_simplex(d)).values():
            assert value == pytest.approx(math.acos(1.0 / d), abs=1e-10)

    def test_dimension_validation(self):
        with pytest.raises(InvalidInputError):
            regular_simplex(1)
        for d in (3.0, True, "3", None, -HUGE_INT):
            with pytest.raises(InvalidInputError) as error:
                regular_simplex(d)
            assert str(error.value) == f"dimension must be an integer >= 2, got {shown(d, repr)}"
        for make in (regular_simplex, corner_simplex, random_simplex):
            np.testing.assert_array_equal(make(np.int64(3)).vertices, make(3).vertices)
        # A numpy integer counts by value: d + 1 must not wrap in its fixed width.
        for make in (regular_simplex, corner_simplex, lambda d: needle_family(d, 0.5)):
            for d in (np.uint8(255), np.int8(127)):
                np.testing.assert_array_equal(make(d).vertices, make(int(d)).vertices)


class TestCornerSimplex:
    def test_vertices_are_unit_axes(self):
        expected = np.vstack([np.zeros(3), np.eye(3)])
        np.testing.assert_array_equal(corner_simplex(3).vertices, expected)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_volume_closed_form(self, d):
        assert simplex_measure(corner_simplex(d)) == pytest.approx(
            1.0 / math.factorial(d), rel=1e-12
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
            for t in ("a", None, True, "1", math.nan, 10**400, -(10**400), HUGE_INT, -HUGE_INT):
                with pytest.raises(InvalidInputError) as error:
                    family(3, t)
                assert str(error.value) == f"family parameter must lie in (0, 1], got {shown(t)}"

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

    def test_splitmix64_reference_outputs(self):
        # The first three outputs of the reference splitmix64 for seed 0, as doubles from
        # their top 53 bits: the first vertex and the first coordinate of the second.
        reference = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
        first = random_simplex(2, seed=0).vertices.ravel()[:3]
        assert first.tolist() == [(h >> 11) * 2.0**-53 for h in reference]

    def test_different_seeds_differ(self):
        a = random_simplex(3, seed=1)
        b = random_simplex(3, seed=2)
        assert not np.array_equal(a.vertices, b.vertices)

    def test_quality_floor_is_respected(self):
        for seed in range(100):
            s = random_simplex(3, seed=seed, min_quality=0.2)
            assert min(vertex_sines(s)) > 0.2

    def test_coordinates_lie_in_the_unit_interval(self):
        s = random_simplex(4, seed=9)
        assert np.all(s.vertices >= 0.0)
        assert np.all(s.vertices < 1.0)

    def test_triangle_sines_match_classical(self):
        tri = random_simplex(2, seed=77)
        for i in range(3):
            assert vertex_sines(tri)[i] == pytest.approx(
                math.sin(planar_angle(tri.vertices, i)), abs=1e-12
            )

    def test_degenerate_draw_is_redrawn(self, monkeypatch):
        # Twelve equal coordinates put the four vertices of the first draw on one point.
        # The draw is degenerate, so the next twelve values of the stream make the simplex.
        expected = random_simplex(3, 5).vertices
        real = generators._splitmix64
        monkeypatch.setattr(generators, "_splitmix64", lambda seed: chain([0.5] * 12, real(seed)))
        failed = []

        def sines(simplex):
            try:
                return vertex_sines(simplex)
            except DegeneracyError:
                failed.append(simplex.vertices.tolist())
                raise

        monkeypatch.setattr(generators, "vertex_sines", sines)
        np.testing.assert_array_equal(random_simplex(3, 5).vertices, expected)
        assert failed == [[[0.5] * 3] * 4]

    def test_budget_exhaustion_raises(self):
        with pytest.raises(GenerationError):
            random_simplex(2, seed=0, min_quality=0.999999)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            random_simplex(3, seed=-1)
        for seed in (1.5, True, "5", None, np.float64(5.0), -HUGE_INT):
            with pytest.raises(InvalidInputError) as error:
                random_simplex(2, seed=seed)
            assert str(error.value) == f"seed must be an integer >= 0, got {shown(seed, repr)}"
        # The generator's state is one 64-bit word: a larger seed would alias a smaller one.
        for seed in (2**64, HUGE_INT):
            with pytest.raises(InvalidInputError) as error:
                random_simplex(2, seed=seed)
            assert str(error.value) == f"seed {shown(seed)} out of range 0..{2**64 - 1}"
        for seed in (np.int64(5), np.uint64(2**64 - 1), np.int8(7)):
            np.testing.assert_array_equal(
                random_simplex(2, seed=seed).vertices, random_simplex(2, seed=int(seed)).vertices
            )
        with pytest.raises(InvalidInputError):
            random_simplex(3, min_quality=1.0)
        for floor in ("x", None, True, "1", math.nan, 10**400, -(10**400), HUGE_INT, -HUGE_INT):
            with pytest.raises(InvalidInputError) as error:
                random_simplex(3, 0, min_quality=floor)
            assert str(error.value) == f"quality floor must lie in [0, 1), got {shown(floor)}"
        np.testing.assert_array_equal(
            random_simplex(2, min_quality=np.float32(0.25)).vertices,
            random_simplex(2, min_quality=0.25).vertices,
        )
        with pytest.raises(InvalidInputError):
            random_simplex(1)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: random_simplex(3, 1, 0.5), id="random"),
        pytest.param(lambda: regular_simplex(3, 2.0), id="regular"),
        pytest.param(lambda: corner_simplex(3, 2.0), id="corner"),
        pytest.param(lambda: flatten_family(3, 0.5, 2.0), id="flatten"),
        pytest.param(lambda: needle_family(3, 0.5, 2.0), id="needle"),
        pytest.param(lambda: random_simplex(3, seed=1, scale=0.5), id="random-keyword"),
        pytest.param(lambda: regular_simplex(3, scale=2.0), id="regular-keyword"),
        pytest.param(lambda: corner_simplex(3, scale=2.0), id="corner-keyword"),
        pytest.param(lambda: flatten_family(3, 0.5, scale=2.0), id="flatten-keyword"),
        pytest.param(lambda: needle_family(3, 0.5, scale=2.0), id="needle-keyword"),
    ],
)
def test_generators_take_no_size(make):
    """Each generator draws its unit shape: a call that passes a size, by position or as
    ``scale=``, fails, and random's third positional argument never turns into its
    quality floor."""
    with pytest.raises(TypeError):
        make()


class TestGeneratorSpec:
    """``minangle generate``: each ``--kind`` runs its generator, given ``--param``/``--seed``."""

    @staticmethod
    def generate(capsys, *flags):
        """The exit code of ``generate --kind`` with ``flags``, and the vertices it wrote or,
        on a failure, its standard error."""
        code = main(["generate", "--kind", *flags, "-o", "-"])
        out, err = capsys.readouterr()
        return code, np.array(json.loads(out)["vertices"]) if code == EXIT_OK else err

    def test_dispatch_matches_direct_calls(self, capsys):
        cases = [
            (["regular", "--dim", "4"], regular_simplex(4)),
            (["corner", "--dim", "3"], corner_simplex(3)),
            (["flatten", "--dim", "3", "--param", "0.25"], flatten_family(3, 0.25)),
            (["random", "--dim", "3", "--seed", "5"], random_simplex(3, seed=5)),
            (["needle", "--dim", "3", "--param", "0.25"], needle_family(3, 0.25)),
            (["needle", "--dim", "2"], regular_simplex(2)),
        ]
        assert {flags[0] for flags, _ in cases} == set(_KINDS)
        for flags, expected in cases:
            code, vertices = self.generate(capsys, *flags)
            assert code == EXIT_OK, flags
            np.testing.assert_array_equal(vertices, expected.vertices)

    def test_unknown_kind_rejected(self, capsys):
        code, err = self.generate(capsys, "spiky", "--dim", "3")
        assert code == EXIT_INPUT_ERROR
        assert "argument --kind: invalid choice: 'spiky'" in err

    def test_flatten_needs_three_dimensions(self, capsys):
        expected = "error: dimension must be an integer >= 3, got 2\n"
        assert self.generate(capsys, "flatten", "--dim", "2") == (EXIT_INPUT_ERROR, expected)

    def test_random_param_is_quality_floor(self, capsys):
        floor = "error: quality floor must lie in [0, 1), got 1.0\n"
        assert self.generate(capsys, "random", "--dim", "3", "--param", "1") == (
            EXIT_INPUT_ERROR, floor
        )
        # The seed is checked before the floor.
        assert self.generate(capsys, "random", "--dim", "3", "--param", "1", "--seed", "-1") == (
            EXIT_INPUT_ERROR, "error: seed must be an integer >= 0, got -1\n"
        )
        flags = ["random", "--dim", "3", "--param", "0.3", "--seed", "11"]
        code, vertices = self.generate(capsys, *flags)
        assert code == EXIT_OK
        assert min(vertex_sines(Simplex(vertices))) > 0.3
