"""Tests for dihedral angles, d-sines, the product decomposition, and friends."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minangle import (
    DegeneracyError,
    InvalidInputError,
    Simplex,
    all_dihedral_angles,
    cell_quality,
    flatten_family,
    is_degenerate,
    needle_family,
    product_decomposition,
    random_simplex,
    regular_simplex,
    vertex_sines,
)
from oracles import planar_angle, rigid_motion, tetra_dihedral_by_cross

REGULAR_TETRA_DIHEDRAL = math.acos(1.0 / 3.0)          # 1.2309594173407747
REGULAR_TETRA_DSINE = 4.0 / (3.0 * math.sqrt(3.0))     # 0.7698003589195010
REGULAR_TETRA_INRADIUS = 1.0 / (2.0 * math.sqrt(6.0))  # 0.20412414523193154
EQUILATERAL_INRADIUS = 1.0 / (2.0 * math.sqrt(3.0))    # 0.28867513459481287
CORNER3_SLANT_DIHEDRAL = math.acos(1.0 / math.sqrt(3.0))


def corner(d):
    return Simplex(np.vstack([np.zeros(d), np.eye(d)]))


def right_triangle():
    return Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestDihedralAngle:
    def test_equilateral_triangle_angles(self):
        tri = regular_simplex(2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert all_dihedral_angles(tri).angle(i, j) == pytest.approx(
                    math.pi / 3, abs=1e-12
                )

    def test_regular_tetrahedron_closed_form(self):
        tet = regular_simplex(3)
        assert all_dihedral_angles(tet).angle(0, 1) == pytest.approx(
            REGULAR_TETRA_DIHEDRAL, abs=1e-12
        )

    def test_against_cross_product_oracle(self):
        for seed in range(20):
            tet = random_simplex(3, seed=1234 + seed, min_quality=1e-2)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert all_dihedral_angles(tet).angle(i, j) == pytest.approx(
                        tetra_dihedral_by_cross(tet.vertices, i, j), abs=1e-10
                    )

    @pytest.mark.parametrize("t", [1e-3, 1e-5, 1e-7, 1e-9, 1e-11])
    def test_sliver_closed_form(self, t):
        # The apex sits at height t over the centroid of a unit triangle, whose
        # inradius is 1/(2 sqrt 3): the base angles are atan(2 sqrt(3) t).
        sliver = flatten_family(3, t)
        exact = math.atan(2.0 * math.sqrt(3.0) * t)
        assert not is_degenerate(sliver)
        angles = all_dihedral_angles(sliver)
        for i in range(3):
            assert angles.angle(i, 3) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert cell_quality(sliver).min_dihedral() == pytest.approx(
            exact, rel=1e-12, abs=0.0
        )

    def test_corner_coordinate_plane_pair(self):
        angle = all_dihedral_angles(corner(3)).angle(1, 2)
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_symmetry(self):
        tet = random_simplex(3, seed=5, min_quality=1e-2)
        angles = all_dihedral_angles(tet)
        assert angles.angle(0, 2) == angles.angle(2, 0)

    def test_same_facet_rejected(self):
        angles = all_dihedral_angles(corner(3))
        with pytest.raises(InvalidInputError):
            angles.angle(1, 1)

    def test_out_of_range_rejected(self):
        angles = all_dihedral_angles(corner(3))
        with pytest.raises(InvalidInputError):
            angles.angle(0, 4)
        # Only integers index facets; a dict lookup alone would take True and 1.0 as 1.
        regular = all_dihedral_angles(regular_simplex(3))
        cases = [((True, 2), True), ((1.0, 2.0), 1.0), (("a", 2), "a"), ((2, None), None)]
        for pair, bad in cases:
            with pytest.raises(InvalidInputError) as error:
                regular.angle(*pair)
            assert str(error.value) == f"facet index {bad!r} is not an integer"
        assert regular.angle(np.int64(2), np.int64(1)) == regular.angle(1, 2)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            all_dihedral_angles(Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))

    def test_dimension_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            all_dihedral_angles(Simplex([[0.0], [1.0]]))


class TestAllDihedralAngles:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_regular_simplex_closed_form(self, d):
        angle_set = all_dihedral_angles(regular_simplex(d))
        assert len(angle_set.angles) == d * (d + 1) // 2
        for value in angle_set.values():
            assert value == pytest.approx(math.acos(1.0 / d), abs=1e-10)

    def test_corner_simplex_angle_multiset(self):
        values = sorted(all_dihedral_angles(corner(3)).values())
        expected = [CORNER3_SLANT_DIHEDRAL] * 3 + [math.pi / 2] * 3
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_consistent_with_per_pair_calls(self):
        tet = random_simplex(3, seed=77, min_quality=1e-2)
        angle_set = all_dihedral_angles(tet)
        for (i, j), value in angle_set.angles.items():
            assert value == angle_set.angle(i, j) == angle_set.angle(j, i)

    def test_embedded_subsimplex_is_projected(self):
        # an equilateral triangle floating in R^4 still has angles pi/3
        tri = regular_simplex(2)
        lifted = Simplex(np.hstack([tri.vertices, np.ones((3, 2))]))
        for value in all_dihedral_angles(lifted).values():
            assert value == pytest.approx(math.pi / 3, abs=1e-12)

    def test_min_and_max_angle(self):
        angle_set = all_dihedral_angles(corner(3))
        assert angle_set.min_angle() == min(angle_set.values())
        assert angle_set.max_angle() == max(angle_set.values())
        assert angle_set.max_angle() == pytest.approx(math.pi / 2, abs=1e-15)

    def test_angles_strictly_inside_zero_pi(self):
        for d in (2, 3, 4):
            for seed in range(10):
                s = random_simplex(d, seed=31 + seed, min_quality=1e-3)
                for value in all_dihedral_angles(s).values():
                    assert 0.0 < value < math.pi

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equal_to_the_scan_bit_for_bit(self, d):
        # One R factor serves the library and the scan, so no last bit differs.
        for seed in range(100):
            s = random_simplex(d, seed)
            values = all_dihedral_angles(s).values()
            quality = cell_quality(s)
            assert np.sum(values) == quality.dihedral_sum_top[0]
            if d == 2:
                assert min(values) == quality.min_dihedral()
                assert max(values) == quality.max_dihedral()


class TestDSine:
    def test_right_angle_corner_is_one(self):
        assert vertex_sines(right_triangle())[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_corner_simplex_is_one_for_all_d(self, d):
        assert vertex_sines(corner(d))[0] == pytest.approx(1.0, abs=1e-12)

    def test_regular_tetrahedron_closed_form(self):
        tet = regular_simplex(3)
        for value in vertex_sines(tet):
            assert value == pytest.approx(REGULAR_TETRA_DSINE, abs=1e-12)

    def test_reduces_to_classical_sine_in_2d(self):
        for seed in range(300):
            tri = random_simplex(2, seed=40_000 + seed, min_quality=1e-3)
            for i in range(3):
                assert abs(
                    vertex_sines(tri)[i] - math.sin(planar_angle(tri.vertices, i))
                ) < 1e-12

    def test_values_in_unit_interval(self):
        for d in (2, 3, 4, 5):
            for seed in range(15):
                s = random_simplex(d, seed=600 + seed, min_quality=1e-3)
                for value in vertex_sines(s):
                    assert 0.0 < value <= 1.0 + 1e-12

    def test_embedded_simplex_rejected(self):
        tri3d = Simplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            vertex_sines(tri3d)

    def test_segment_rejected(self):
        with pytest.raises(InvalidInputError):
            vertex_sines(Simplex([[0.0], [1.0]]))

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            vertex_sines(Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-16]]))


class TestVertexSines:
    def test_regular_simplex_all_equal(self):
        for d in (2, 3, 4):
            sines = vertex_sines(regular_simplex(d))
            assert max(sines) - min(sines) < 1e-12

    def test_right_isosceles_triangle(self):
        sines = vertex_sines(right_triangle())
        np.testing.assert_allclose(
            sines, [1.0, math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12
        )

    def test_matches_per_vertex_calls_exactly(self):
        tet = random_simplex(3, seed=303, min_quality=1e-2)
        batched = vertex_sines(tet)
        for i in range(3):
            assert batched[i] == product_decomposition(tet, i).d_sine


class TestProductDecomposition:
    def test_corner_simplex_all_factors_one(self):
        decomp = product_decomposition(corner(3), 0)
        assert decomp.sub_sine == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(decomp.dihedral_sines, [1.0, 1.0], atol=1e-12)
        assert decomp.product == pytest.approx(1.0, abs=1e-12)
        assert decomp.d_sine == pytest.approx(1.0, abs=1e-12)

    def test_regular_tetrahedron_closed_forms(self):
        decomp = product_decomposition(regular_simplex(3), 0)
        assert decomp.sub_sine == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        np.testing.assert_allclose(
            decomp.dihedral_sines,
            [math.sqrt(8.0) / 3.0] * 2,
            atol=1e-12,
        )
        assert decomp.product == pytest.approx(REGULAR_TETRA_DSINE, abs=1e-12)
        assert decomp.residual < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_residual_on_random_simplices(self, d):
        for seed in range(40):
            s = random_simplex(d, seed=d * 10_000 + seed, min_quality=1e-3)
            for i in range(d):
                assert product_decomposition(s, i).residual < 1e-9

    def test_product_field_is_exactly_reassembled(self):
        decomp = product_decomposition(random_simplex(4, seed=8, min_quality=1e-2), 1)
        assert decomp.product == decomp.sub_sine * math.prod(decomp.dihedral_sines)

    def test_last_vertex_rejected(self):
        with pytest.raises(InvalidInputError):
            product_decomposition(regular_simplex(3), 3)
        for i in (1.0, True, "1", None):
            with pytest.raises(InvalidInputError, match=f"vertex index {i!r} must lie in"):
                product_decomposition(regular_simplex(3), i)
        numpy_index = product_decomposition(regular_simplex(3), np.int64(1))
        assert numpy_index == product_decomposition(regular_simplex(3), 1)
        assert type(numpy_index.vertex_index) is int

    def test_dimension_two_rejected(self):
        with pytest.raises(InvalidInputError):
            product_decomposition(regular_simplex(2), 0)


class TestDihedralSum:
    def test_any_triangle_sums_to_pi(self):
        for seed in range(25):
            tri = random_simplex(2, seed=7100 + seed, min_quality=1e-3)
            assert cell_quality(tri).dihedral_sum_top[0] == pytest.approx(math.pi, abs=1e-10)

    def test_regular_tetrahedron(self):
        total = cell_quality(regular_simplex(3)).dihedral_sum_top[0]
        assert total == pytest.approx(6.0 * REGULAR_TETRA_DIHEDRAL, abs=1e-12)
        assert 2.0 * math.pi < total < 3.0 * math.pi

    def test_flattening_tetrahedra_stay_below_three_pi(self):
        for exponent in range(1, 11):
            total = cell_quality(flatten_family(3, 2.0**-exponent)).dihedral_sum_top[0]
            assert 2.0 * math.pi < total < 3.0 * math.pi

    @pytest.mark.parametrize("d", range(2, 9))
    def test_equal_to_the_scan_bit_for_bit(self, d):
        # The scan's dihedral_sum_top is the sum of the same angles, in the same order.
        for seed in range(100):
            s = random_simplex(d, seed)
            assert np.sum(all_dihedral_angles(s).values()) == cell_quality(s).dihedral_sum_top[0]


class TestInradiusAndBallRatio:
    def test_regular_tetrahedron_inradius(self):
        tet = regular_simplex(3)
        assert cell_quality(tet).ball_ratio[0] * tet.diameter() == pytest.approx(
            REGULAR_TETRA_INRADIUS, abs=1e-12
        )

    def test_equilateral_triangle_inradius(self):
        tri = regular_simplex(2)
        assert cell_quality(tri).ball_ratio[0] * tri.diameter() == pytest.approx(
            EQUILATERAL_INRADIUS, abs=1e-12
        )

    @given(
        lam=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_scaling_behaviour(self, lam, seed):
        s = random_simplex(3, seed=seed, min_quality=1e-2)
        scaled = Simplex(s.vertices * lam)
        ratio, scaled_ratio = cell_quality(s).ball_ratio[0], cell_quality(scaled).ball_ratio[0]
        inradius = ratio * s.diameter()
        assert scaled_ratio * scaled.diameter() == pytest.approx(lam * inradius, rel=1e-10)
        assert scaled_ratio == pytest.approx(ratio, rel=1e-10)

    def test_ball_ratio_bounded(self):
        for d in (2, 3, 4):
            for seed in range(10):
                s = random_simplex(d, seed=50 + seed, min_quality=1e-3)
                assert 0.0 < cell_quality(s).ball_ratio[0] < 1.0


class TestInvarianceOfAngleMetrics:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_rigid_motion_and_scaling(self, d):
        rng = np.random.default_rng(64 + d)
        for seed in range(10):
            s = random_simplex(d, seed=880 + seed, min_quality=1e-2)
            lam = float(rng.uniform(0.2, 5.0))
            moved = Simplex(rigid_motion(s.vertices * lam, rng))
            base_sines = vertex_sines(s)
            moved_sines = vertex_sines(moved)
            np.testing.assert_allclose(moved_sines, base_sines, rtol=1e-9)
            base_angles = all_dihedral_angles(s)
            moved_angles = all_dihedral_angles(moved)
            for key, value in base_angles.angles.items():
                assert moved_angles.angles[key] == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_dsine_invariant_under_other_vertex_permutation(self, d):
        rng = np.random.default_rng(17 + d)
        for seed in range(8):
            s = random_simplex(d, seed=660 + seed, min_quality=1e-2)
            reference = vertex_sines(s)[0]
            others = 1 + rng.permutation(d)
            order = [0, *map(int, others)]
            permuted = Simplex(s.vertices[order])
            assert vertex_sines(permuted)[0] == pytest.approx(reference, rel=1e-9)


class TestForwardInequality:
    """Every dihedral sine dominates the d-sine of any vertex off the facet pair."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_dihedral_sines_dominate_off_pair_vertex_sines(self, d):
        for seed in range(15):
            s = random_simplex(d, seed=2500 + seed, min_quality=1e-3)
            sines = vertex_sines(s)
            angle_set = all_dihedral_angles(s)
            for (i, j), beta in angle_set.angles.items():
                off_pair = max(sines[v] for v in range(d + 1) if v not in (i, j))
                assert math.sin(beta) >= off_pair - 1e-9
                assert math.sin(beta) >= min(sines) - 1e-9


def exact_sine_squares(points):
    """sin^2 of each vertex angle of a triangle, exact in rationals from its float coordinates."""
    p = [[Fraction(float(x)) for x in row] for row in points]
    squares = []
    for a in range(3):
        b, c = (x for x in range(3) if x != a)
        u = [x - y for x, y in zip(p[b], p[a])]
        v = [x - y for x, y in zip(p[c], p[a])]
        uu, vv = sum(x * x for x in u), sum(x * x for x in v)
        uv = sum(x * y for x, y in zip(u, v))
        squares.append((uu * vv - uv * uv) / (uu * vv))
    return squares


def placed_triangle(points, d, seed, order):
    """``points`` (3, 2) embedded in R^d by a rigid motion, vertices in ``order``."""
    flat = np.hstack([np.asarray(points, dtype=float), np.zeros((3, d - 2))])
    return rigid_motion(flat, np.random.default_rng(seed))[list(order)]


class TestTriangleAccuracy:
    """Triangle angles and sines against exact rational sin^2 of the float coordinates.

    The input's own rounding moves an angle by a few eps absolute, so the
    error model is relative error <= c eps / beta_min; the rest is rounding.
    """

    EPS = np.finfo(float).eps
    C = 4.0

    def assert_accurate(self, vertices):
        angle_set = all_dihedral_angles(Simplex(vertices))
        # The facets F_i and F_j meet at vertex 3 - i - j.
        at_vertex = {3 - i - j: beta for (i, j), beta in angle_set.angles.items()}
        beta_min = min(at_vertex.values())
        bound = self.C * self.EPS / beta_min
        for a, square in enumerate(exact_sine_squares(vertices)):
            exact = math.sqrt(square)
            assert abs(math.sin(at_vertex[a]) - exact) <= bound * exact, (a, at_vertex)
        if len(vertices[0]) == 2:
            for sine, square in zip(vertex_sines(Simplex(vertices)), exact_sine_squares(vertices)):
                assert abs(sine - math.sqrt(square)) <= bound * math.sqrt(square)
        assert abs(math.fsum(at_vertex.values()) - math.pi) <= 1e-14

    @given(
        d=st.integers(min_value=2, max_value=6),
        apex_x=st.floats(min_value=-1.5, max_value=2.5),
        log_height=st.floats(min_value=-8.0, max_value=0.5),
        log_scale=st.integers(min_value=-20, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        order=st.permutations(range(3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_triangles(self, d, apex_x, log_height, log_scale, seed, order):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [apex_x, 10.0**log_height]]) * 2.0**log_scale
        self.assert_accurate(placed_triangle(points, d, seed, order))

    @pytest.mark.parametrize("t", [10.0**-e for e in range(1, 9)])
    @pytest.mark.parametrize("kind", ["needle", "flatten"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_needles_and_flattened_triangles(self, kind, t, d):
        if kind == "needle":
            points = needle_family(2, t).vertices
        else:
            points = [[0.0, 0.0], [1.0, 0.0], [0.5, t * math.sqrt(3.0) / 2.0]]
        for seed, order in enumerate(itertools.permutations(range(3))):
            self.assert_accurate(placed_triangle(points, d, seed, order))
