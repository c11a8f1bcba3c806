"""Tests for subsimplex enumeration, the two conditions, and the equivalence audit."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from minangle import (
    AUDIT_TOLERANCE,
    DegeneracyError,
    InvalidInputError,
    Mesh,
    MeshQuality,
    Simplex,
    cell_quality,
    certified_dsine_bound,
    flatten_family,
    is_degenerate,
    mesh_quality,
    needle_family,
    random_simplex,
    regular_simplex,
    verdict_min_dihedral,
    verdict_min_dsine,
    vertex_sines,
)
from minangle.regularity import _combinations, _scan
from oracles import (
    HUGE_INT,
    exact_angle,
    exact_subsimplex_forms,
    fraction_sqrt,
    planar_angle,
    shown,
)

REGULAR_TETRA_DSINE = 4.0 / (3.0 * math.sqrt(3.0))
# Vertices 0, 1, 2 lie 1e-155 apart: the tolerance times that triangle's
# diameter squared is 0, so it passes its own rule, but (0, 1, 3) fails it.
CLUSTERED_TETRA = [[0.0, 0.0, 0.0], [1e-155, 0.0, 0.0], [0.0, 1e-155, 0.0], [0.3, 0.4, 1.0]]
CORNER3_OFF_CORNER_DSINE = 1.0 / math.sqrt(3.0)


def corner(d):
    return Simplex(np.vstack([np.zeros(d), np.eye(d)]))


def scan_subset_count(d):
    """How many vertex subsets the scan of a d-cell visits, of sizes 3 to d + 1."""
    return sum(len(_combinations(d + 1, size)) for size in range(3, d + 2))


def extreme_angles(s):
    quality = cell_quality(s)
    return quality.min_dihedral(), quality.max_dihedral()


def single_cell_mesh(simplex):
    return Mesh(simplex.vertices, [list(range(simplex.vertex_count))])


def triangle_with_angles(alpha, beta, origin=(0.0, 0.0)):
    """Triangle with angle alpha at vertex 0 and beta at vertex 1, base length 1."""
    gamma = math.pi - alpha - beta
    ac = math.sin(beta) / math.sin(gamma)
    ox, oy = origin
    return [
        [ox, oy],
        [ox + 1.0, oy],
        [ox + ac * math.cos(alpha), oy + ac * math.sin(alpha)],
    ]


class TestSubsimplices:
    def test_tetrahedron_count(self):
        # four triangles and the cell
        assert scan_subset_count(3) == 5

    def test_four_simplex_count(self):
        assert scan_subset_count(4) == 16

    def test_triangle_is_its_only_subsimplex(self):
        assert scan_subset_count(2) == 1

    @pytest.mark.parametrize("d", range(2, 9))
    def test_count_matches_binomial_closed_form(self, d):
        expected = sum(math.comb(d + 1, m) for m in range(3, d + 2))
        assert scan_subset_count(d) == expected

    def test_deterministic_order(self):
        # Subsets come in ascending size, lexicographic within a size.  Here the
        # triangles (0, 3, 4) and (1, 2, 3) are collinear and every larger subset
        # is flat; (0, 3, 4) comes first (in colexicographic order it would not).
        e1, e2 = np.eye(4)[:2]
        s = Simplex([e1, e2, 2.0 * e2, np.zeros(4), 2.0 * e1])
        for _ in range(2):
            with pytest.raises(DegeneracyError, match=r"subset \(0, 3, 4\)$"):
                cell_quality(s)

    def test_dimension_cap(self):
        s = regular_simplex(13)
        with pytest.raises(InvalidInputError, match=r"above the limit d <= 12.*2\^14"):
            cell_quality(s)
        with pytest.raises(InvalidInputError, match="d <= 12"):
            mesh_quality(single_cell_mesh(s))


class TestMinDihedralOverSubsimplices:
    def test_equilateral_triangle(self):
        lo, hi = extreme_angles(regular_simplex(2))
        assert lo == pytest.approx(math.pi / 3, abs=1e-12)
        assert hi == pytest.approx(math.pi / 3, abs=1e-12)

    def test_regular_tetrahedron(self):
        lo, hi = extreme_angles(regular_simplex(3))
        assert lo == pytest.approx(math.pi / 3, abs=1e-12)  # face angles
        assert hi == pytest.approx(math.acos(1.0 / 3.0), abs=1e-12)

    def test_corner_simplex(self):
        lo, hi = extreme_angles(corner(3))
        assert lo == pytest.approx(math.pi / 4, abs=1e-12)
        assert hi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_triangle_reduces_to_planar_angle_span(self):
        for seed in range(20):
            tri = random_simplex(2, seed=4400 + seed, min_quality=1e-2)
            angles = [planar_angle(tri.vertices, i) for i in range(3)]
            lo, hi = extreme_angles(tri)
            assert lo == pytest.approx(min(angles), abs=1e-10)
            assert hi == pytest.approx(max(angles), abs=1e-10)

    def test_degenerate_subsimplex_names_the_subset(self):
        # Vertices 0, 1, 3 are collinear, so the tetrahedron is flat too; the
        # triangle is named because triangles come before the cell.
        bad = Simplex(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]]
        )
        with pytest.raises(DegeneracyError, match=r"\(0, 1, 3\)"):
            cell_quality(bad)

    def test_clustered_vertices_raise_degeneracy_without_overflow(self):
        # The clustered triangle is not measured: its barycentric gradients overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegeneracyError, match=r"\(0, 1, 3\)"):
                cell_quality(Simplex(CLUSTERED_TETRA))


class TestMinVertexDsine:
    def test_regular_tetrahedron(self):
        assert min(vertex_sines(regular_simplex(3))) == pytest.approx(
            REGULAR_TETRA_DSINE, abs=1e-12
        )

    def test_corner_minimum_away_from_the_right_angle(self):
        sines = vertex_sines(corner(3))
        assert min(sines) == pytest.approx(CORNER3_OFF_CORNER_DSINE, abs=1e-12)
        assert sines.index(min(sines)) != 0
        assert cell_quality(corner(3)).min_dsine() == min(sines)

    def test_right_triangle(self):
        assert min(vertex_sines(corner(2))) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )


class TestConditionChecks:
    def test_minimum_angle_satisfied(self):
        quality = mesh_quality(single_cell_mesh(regular_simplex(3)))
        verdict = verdict_min_dihedral(quality, alpha0=1.0)
        assert verdict.satisfied
        assert verdict.worst_cell == 0
        assert verdict.worst_value == pytest.approx(math.pi / 3, abs=1e-12)
        assert quality.cells.tolist() == [0]

    def test_minimum_angle_violated(self):
        verdict = verdict_min_dihedral(mesh_quality(single_cell_mesh(regular_simplex(3))), 1.1)
        assert not verdict.satisfied
        assert verdict.worst_cell == 0
        assert verdict.worst_value == pytest.approx(1.0471975511965976, abs=1e-10)

    @pytest.mark.parametrize("verdict", [verdict_min_dihedral, verdict_min_dsine])
    def test_record_without_cells_rejected(self, verdict):
        empty = MeshQuality(3, np.empty(0, dtype=np.intp), *[np.empty(0)] * 6)
        with pytest.raises(InvalidInputError, match="mesh produced no cells to check"):
            verdict(empty, 0.5)

    def test_zero_threshold_rejected(self):
        quality = mesh_quality(single_cell_mesh(regular_simplex(3)))
        with pytest.raises(InvalidInputError):
            verdict_min_dihedral(quality, alpha0=0.0)
        with pytest.raises(InvalidInputError, match=r"alpha0 must lie in \(0, pi\), got 3\.14159"):
            verdict_min_dihedral(quality, math.pi)

    @pytest.mark.parametrize(
        "threshold",
        ["a", None, True, "0.5", "1", math.nan,
         pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400")],
    )
    @pytest.mark.parametrize(
        "verdict, rule",
        [(verdict_min_dihedral, "alpha0 must lie in (0, pi)"),
         (verdict_min_dsine, "dsine_min must lie in (0, 1]")],
        ids=["dihedral", "dsine"],
    )
    def test_threshold_that_is_not_a_number_rejected(self, verdict, rule, threshold):
        quality = mesh_quality(single_cell_mesh(regular_simplex(3)))
        with pytest.raises(InvalidInputError) as error:
            verdict(quality, threshold)
        assert str(error.value) == f"{rule}, got {threshold}"

    def test_generalized_condition_both_ways(self):
        quality = mesh_quality(single_cell_mesh(regular_simplex(3)))
        ok = verdict_min_dsine(quality, dsine_min=0.7)
        bad = verdict_min_dsine(quality, dsine_min=0.8)
        assert ok.satisfied
        assert not bad.satisfied

    def test_generalized_condition_on_sliver(self):
        quality = mesh_quality(single_cell_mesh(flatten_family(3, 0.01)))
        verdict = verdict_min_dsine(quality, dsine_min=0.5)
        assert not verdict.satisfied
        assert verdict.worst_value < 0.5

    def test_verdict_invariant(self):
        quality = mesh_quality(single_cell_mesh(regular_simplex(3)))
        for alpha0 in (0.5, 1.0, 1.0471975511965976, 1.2):
            verdict = verdict_min_dihedral(quality, alpha0)
            assert verdict.satisfied == (verdict.worst_value >= verdict.threshold_used)

    def test_ties_break_to_lowest_cell_index(self):
        tet = regular_simplex(3)
        shifted = tet.vertices + np.array([10.0, 0.0, 0.0])
        mesh = Mesh(
            np.vstack([tet.vertices, shifted]),
            [[0, 1, 2, 3], [4, 5, 6, 7]],
        )
        verdict = verdict_min_dihedral(mesh_quality(mesh), alpha0=2.0)
        assert verdict.worst_cell == 0

    def test_custom_tolerance(self):
        mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-6]], [[0, 1, 2]])
        assert mesh_quality(mesh).degenerate_cells == ()
        assert mesh_quality(mesh, 1e-4).degenerate_cells == (0,)
        assert mesh_quality(mesh, degeneracy_rel_tol=1e-4).degenerate_cells == (0,)
        # A numpy scalar is a tolerance as its double is.
        regular = Mesh(regular_simplex(2).vertices, [[0, 1, 2]])
        for tol in (1e-3, np.float64(1e-3), np.float32(1e-3)):
            assert mesh_quality(mesh, tol).degenerate_cells == (0,)
            assert mesh_quality(regular, tol).degenerate_cells == ()

    def test_degenerate_cell_yields_annotated_violation(self):
        tri = triangle_with_angles(math.pi / 3, math.pi / 3)
        flat = [[5.0, 0.0], [6.0, 0.0], [7.0, 0.0]]
        mesh = Mesh(np.vstack([tri, flat]), [[0, 1, 2], [3, 4, 5]])
        quality = mesh_quality(mesh)
        verdict = verdict_min_dihedral(quality, alpha0=0.5)
        assert not verdict.satisfied
        assert verdict.degenerate_cells == (1,)
        assert verdict.worst_cell == 1
        assert verdict.worst_value == 0.0
        assert quality.degenerate_cells == (1,)
        assert len(quality.cells) == 1


class TestCertifiedBound:
    def test_dimension_two_is_the_classical_bound(self):
        s = math.sin(0.9)
        assert certified_dsine_bound(0.9, 0.9, 2) == pytest.approx(s, abs=1e-15)

    def test_right_angle_window_gives_one(self):
        assert certified_dsine_bound(math.pi / 2, math.pi / 2, 3) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_dimension_four_exponent(self):
        alpha = math.asin(0.5)
        assert certified_dsine_bound(alpha, alpha, 4) == pytest.approx(
            0.5**6, rel=1e-12
        )

    def test_precondition_violations(self):
        with pytest.raises(InvalidInputError):
            certified_dsine_bound(0.0, 1.0, 3)
        with pytest.raises(InvalidInputError):
            certified_dsine_bound(1.0, 0.5, 3)
        with pytest.raises(InvalidInputError):
            certified_dsine_bound(1.0, math.pi, 3)
        with pytest.raises(InvalidInputError):
            certified_dsine_bound(0.5, 1.0, 1)
        for d in (3.0, True, "3", None, -HUGE_INT):
            with pytest.raises(InvalidInputError) as error:
                certified_dsine_bound(0.5, 1.0, d)
            assert str(error.value) == f"dimension must be an integer >= 2, got {shown(d, repr)}"
        # A numpy integer counts by value: d * (d - 1) // 2 must not wrap in its fixed width.
        for d in (np.int64(3), np.int8(17), np.uint8(23)):
            assert certified_dsine_bound(0.5, 0.6, d) == certified_dsine_bound(0.5, 0.6, int(d))
        windows = [("a", 1.0), (0.5, None), (True, 1.0), (0.5, "1.0"), (HUGE_INT, 1.0),
                   (0.5, -HUGE_INT)]
        for alpha0, gamma0 in windows:
            with pytest.raises(InvalidInputError) as error:
                certified_dsine_bound(alpha0, gamma0, 3)
            assert str(error.value) == (
                "angle window must satisfy 0 < alpha0 <= gamma0 < pi, "
                f"got ({shown(alpha0)}, {shown(gamma0)})"
            )
        # Numpy scalars count by value: a float32 0.5 is exactly 0.5.
        for alpha0, gamma0 in [(np.float64(0.5), 1), (np.float32(0.5), 1.0)]:
            assert certified_dsine_bound(alpha0, gamma0, 3) == certified_dsine_bound(0.5, 1.0, 3)


class TestEquivalenceAudit:
    def test_regular_tetrahedron_margins(self):
        audit = mesh_quality(single_cell_mesh(regular_simplex(3)))
        assert audit.audit_satisfied()
        # equilateral faces make the forward margin exactly zero up to rounding
        assert abs(audit.forward_margin[0]) < 1e-9
        assert audit.certified_bound[0] == pytest.approx(
            math.sin(math.pi / 3) ** 3, abs=1e-12
        )
        assert audit.backward_margin[0] == pytest.approx(
            REGULAR_TETRA_DSINE - math.sin(math.pi / 3) ** 3, abs=1e-9
        )

    def test_corner_simplex_margins(self):
        audit = mesh_quality(single_cell_mesh(corner(3)))
        assert audit.audit_satisfied()
        assert audit.certified_bound[0] == pytest.approx(
            math.sin(math.pi / 4) ** 3, abs=1e-12
        )
        assert audit.min_vertex_dsine[0] == pytest.approx(
            CORNER3_OFF_CORNER_DSINE, abs=1e-12
        )
        assert audit.backward_margin[0] > 0.0
        assert audit.forward_margin[0] >= -1e-9

    def test_many_random_tetrahedra(self):
        simplices = [
            random_simplex(3, seed=90_000 + seed, min_quality=1e-2)
            for seed in range(500)
        ]
        vertices = np.vstack([s.vertices for s in simplices])
        cells = [[4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3] for i in range(len(simplices))]
        audit = mesh_quality(Mesh(vertices, cells))
        assert audit.audit_satisfied()
        assert audit.min_forward_margin() >= -1e-9
        assert audit.min_backward_margin() >= -1e-9

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bound_column_equals_the_scalar_formula_bit_for_bit(self, d):
        simplices = [random_simplex(d, seed, min_quality=1e-2) for seed in range(60)]
        cells = [list(range(k * (d + 1), (k + 1) * (d + 1))) for k in range(len(simplices))]
        audit = mesh_quality(Mesh(np.vstack([s.vertices for s in simplices]), cells))
        windows = list(
            zip(audit.min_dihedral_all_sub.tolist(), audit.max_dihedral_all_sub.tolist())
        )
        assert audit.certified_bound.tolist() == [
            min(math.sin(lo), math.sin(hi)) ** (d * (d - 1) // 2) for lo, hi in windows
        ]
        assert audit.certified_bound.tolist() == [
            certified_dsine_bound(lo, hi, d) for lo, hi in windows
        ]

    def test_degenerate_cell_is_flagged_and_audit_continues(self):
        tet = regular_simplex(3)
        flat = np.array(
            [[9.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0], [12.0, 0.0, 0.0]]
        )
        mesh = Mesh(np.vstack([tet.vertices, flat]), [[0, 1, 2, 3], [4, 5, 6, 7]])
        audit = mesh_quality(mesh)
        assert audit.degenerate_cells == (1,)
        assert len(audit.cells) == 1
        assert audit.cells[0] == 0
        assert not audit.audit_satisfied()

    @staticmethod
    def record(forward=0.0, backward=0.1, cells=(0,), degenerate=()):
        """Cells of a regular tetrahedron's angles with the given margins."""
        n = len(cells)
        angles = np.full(n, math.pi / 3)
        dsine = np.full(n, math.sin(math.pi / 3) ** 3 + backward)
        return MeshQuality(
            3, np.array(cells, dtype=np.intp), angles, angles, dsine, np.full(n, 0.2),
            np.full(n, 7.0), np.full(n, forward), degenerate,
        )

    @pytest.mark.parametrize(
        "changes, satisfied",
        [
            ({}, True),
            ({"forward": -AUDIT_TOLERANCE}, True),
            ({"forward": -2 * AUDIT_TOLERANCE}, False),
            ({"backward": -2 * AUDIT_TOLERANCE}, False),
            ({"degenerate": (1,)}, False),
            ({"cells": ()}, False),
        ],
        ids=["margins", "forward-at-tolerance", "forward-below", "backward-below",
             "degenerate", "no-cells"],
    )
    def test_audit_satisfied(self, changes, satisfied):
        record = self.record(**changes)
        assert record.audit_satisfied() is satisfied
        if len(record.cells):
            assert record.backward_margin[0] == pytest.approx(changes.get("backward", 0.1))

    REDUCERS = (
        MeshQuality.min_dihedral, MeshQuality.max_dihedral, MeshQuality.min_dsine,
        MeshQuality.min_ball_ratio, MeshQuality.min_forward_margin,
        MeshQuality.min_backward_margin,
    )

    @pytest.mark.parametrize(
        "vertices",
        [[[-1.5e308, 0], [1.5e308, 0], [0, 1]], [[0, 0], [1, 0], [2, 0]]],
        ids=["wider-than-the-double-range", "collinear"],
    )
    def test_reducers_give_none_without_good_cells(self, vertices):
        quality = mesh_quality(Mesh(vertices, [[0, 1, 2]]))
        assert quality.degenerate_cells == (0,)
        assert [reduce(quality) for reduce in self.REDUCERS] == [None] * 6
        assert quality.audit_satisfied() is False
        assert [reduce(self.record(cells=())) for reduce in self.REDUCERS] == [None] * 6


class TestTwoDimensionalEquivalence:
    """For acute triangles the two conditions name the same worst cell."""

    def build_mesh(self):
        tris = [
            triangle_with_angles(math.pi / 3, math.pi / 3, origin=(0.0, 0.0)),
            triangle_with_angles(math.radians(50), math.radians(60), origin=(10.0, 0.0)),
            triangle_with_angles(math.radians(45), math.radians(60), origin=(20.0, 0.0)),
        ]
        vertices = np.vstack(tris)
        cells = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(len(tris))]
        return Mesh(vertices, cells)

    def test_triangle_builder_matches_oracle(self):
        tri = np.asarray(triangle_with_angles(math.radians(45), math.radians(60)))
        assert planar_angle(tri, 0) == pytest.approx(math.radians(45), abs=1e-12)
        assert planar_angle(tri, 1) == pytest.approx(math.radians(60), abs=1e-12)

    def test_argmin_agreement_for_acute_meshes(self):
        mesh = self.build_mesh()
        quality = mesh_quality(mesh)
        assert (quality.max_dihedral_all_sub <= math.pi / 2 + 1e-12).all()
        angle_verdict = verdict_min_dihedral(quality, alpha0=1.0)
        sine_verdict = verdict_min_dsine(quality, dsine_min=0.9)
        assert angle_verdict.worst_cell == sine_verdict.worst_cell == 2

    def test_verdict_agreement_with_related_thresholds(self):
        quality = mesh_quality(self.build_mesh())
        for alpha0 in (0.7, 0.8, 1.0, 1.05):
            angle_verdict = verdict_min_dihedral(quality, alpha0)
            sine_verdict = verdict_min_dsine(quality, math.sin(alpha0))
            assert angle_verdict.satisfied == sine_verdict.satisfied


class TestDegeneratingFamily:
    def test_flatten_family_monotone_decay(self):
        dsines = []
        min_dihedrals = []
        for exponent in range(1, 11):
            s = flatten_family(3, 2.0**-exponent)
            dsines.append(min(vertex_sines(s)))
            min_dihedrals.append(cell_quality(s).min_dihedral())
        assert all(b < a for a, b in zip(dsines, dsines[1:]))
        assert all(b < a for a, b in zip(min_dihedrals, min_dihedrals[1:]))
        assert dsines[-1] < 1e-3


class TestFlatSliversAtATinyTolerance:
    """Flat cells at degeneracy_rel_tol 1e-300, whose gradients reach 1/t, against exact rationals.

    A d-sine multiplies d gradient lengths of about 1/t, and their squared norms pass 1e308
    long before the cell fails the rule: the kernel rescales each norm and the d-sine product
    by exact powers of two.  A value whose exact value is a normal double agrees to 1e-12
    relative; the rest (a d-sine below the normal range) are finite and >= 0.
    """

    @pytest.mark.parametrize(
        "d, t", [(3, 1e-110), (3, 1e-140), (3, 1e-160), (4, 1e-80), (4, 1e-95), (5, 1e-65),
                 (5, 1e-75)],
    )
    def test_values_match_the_exact_oracle(self, d, t):
        s = flatten_family(d, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            quality = mesh_quality(single_cell_mesh(s), 1e-300)
        assert quality.cells.tolist() == [0]
        forms = exact_subsimplex_forms(s.vertices)
        angles = [list(map(exact_angle, sin2, obtuse)) for sin2, obtuse, _, _ in forms.values()]
        _, _, sigma2, grad2 = forms[tuple(range(d + 1))]
        diameter = math.sqrt(max(  # of vertex distances close to 1: no square leaves the range
            math.fsum((x - y) ** 2 for x, y in zip(p, q))
            for p, q in itertools.combinations(s.vertices.tolist(), 2)
        ))
        exact = {
            "min_dihedral_all_sub": min(map(min, angles)),
            "max_dihedral_all_sub": max(map(max, angles)),
            "min_vertex_dsine": float(fraction_sqrt(min(sigma2))),
            "ball_ratio": float(1 / sum(map(fraction_sqrt, grad2))) / diameter,
            "dihedral_sum_top": math.fsum(angles[-1]),
        }
        for field, want in exact.items():
            got = float(getattr(quality, field)[0])
            if want >= sys.float_info.min:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), field
            else:
                assert math.isfinite(got) and got >= 0.0, field
        for field in ("forward_margin", "certified_bound", "backward_margin"):
            assert np.isfinite(getattr(quality, field)).all(), field

    @pytest.mark.parametrize("d", range(3, 13))
    @pytest.mark.parametrize("e", [10, 20, 50, 100, 150, 200, 250, 300])
    def test_flatten_sweep_is_finite_and_positive(self, d, e):
        # The exact smallest d-sine is about t^(d-1): 0.0 is its correctly rounded value only
        # once that lies below the subnormal range.  At t = 1e-300 the cell fails the rule.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            quality = mesh_quality(single_cell_mesh(flatten_family(d, 10.0**-e)), 1e-300)
        if e == 300:
            assert (quality.cells.tolist(), quality.degenerate_cells) == ([], (0,))
            return
        assert (quality.cells.tolist(), quality.degenerate_cells) == ([0], ())
        for field in ("min_dihedral_all_sub", "max_dihedral_all_sub", "ball_ratio",
                      "dihedral_sum_top"):
            value = getattr(quality, field)[0]
            assert math.isfinite(value) and value > 0.0, field
        dsine = quality.min_vertex_dsine[0]
        assert math.isfinite(dsine) and (dsine > 0.0 if (d - 1) * e <= 300 else dsine >= 0.0)
        for field in ("forward_margin", "certified_bound", "backward_margin"):
            assert np.isfinite(getattr(quality, field)).all(), field

    @pytest.mark.parametrize("d", range(3, 13))
    def test_needle_stays_finite(self, d):
        # A needle's short edges square below the normal range; each side is a _norms length.
        def quality(t):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                return mesh_quality(single_cell_mesh(needle_family(d, t)), 1e-300)

        reference = quality(1e-150)
        for t in (1e-170, 1e-200, 1e-250):
            record = quality(t)
            assert record.cells.tolist() == [0], t
            for got, want in (
                (record.min_dsine() / t, reference.min_dsine() / 1e-150),
                (record.min_ball_ratio() / t, reference.min_ball_ratio() / 1e-150),
                (record.max_dihedral(), reference.max_dihedral()),
            ):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), t

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 8: g_0 = -(g_1 + ... + g_k) cancels on a needle"
    )
    def test_needle_keeps_its_smallest_angle(self):
        # The exact angle between F_0 and F_1 is 9.43e-18; the scan gives 0.0.
        quality = mesh_quality(single_cell_mesh(needle_family(3, 1e-17)), 1e-300)
        assert quality.min_dihedral_all_sub[0] > 0.0


class TestCellQuality:
    def test_regular_tetrahedron_record(self):
        record = cell_quality(regular_simplex(3))
        assert record.ambient_dim == 3
        assert record.cells.tolist() == [0] and record.degenerate_cells == ()
        assert record.min_dihedral() <= record.max_dihedral()
        assert 0.0 < record.min_dsine() <= 1.0
        assert record.dihedral_sum_top[0] == pytest.approx(
            6.0 * math.acos(1.0 / 3.0), abs=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_equals_the_one_cell_mesh_quality_bit_for_bit(self, d):
        for seed in range(20):
            s = random_simplex(d, seed)
            record, quality = cell_quality(s), mesh_quality(single_cell_mesh(s))
            assert (record.ambient_dim, record.degenerate_cells) == (d, ())
            for field in (
                "cells", "min_dihedral_all_sub", "max_dihedral_all_sub", "min_vertex_dsine",
                "ball_ratio", "dihedral_sum_top", "forward_margin", "certified_bound",
                "backward_margin",
            ):
                got, want = getattr(record, field), getattr(quality, field)
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), field

    def test_degenerate_cell_raises(self):
        with pytest.raises(DegeneracyError):
            cell_quality(flatten_family(3, 1e-15))


def first_degenerate_subset(s, tol):
    """The scan's first vertex subset of ``s`` that fails the rule at ``tol``, or None."""
    quality, failing = _scan(s.vertices[None], tol)
    return tuple(failing[0, failing[0] >= 0].tolist()) if quality.degenerate_cells else None


class TestOneDegeneracyRule:
    """A triangle with ratio w / h^2 just below or just above the tolerance gets the same
    verdict from is_degenerate, from the scan of a one-triangle mesh, and from the scan of
    a full-dimensional cell that holds it as its face (0, 1, 2).

    The coordinates are dyadic and the cells' diameters powers of two, so the kernel's
    normalization is exact and the ratio is the apex height y exactly.  Such a cell
    is always below the tolerance itself (its own ratio is less than its face's), so it
    is degenerate either way: what must agree is whether the triangle is its first
    degenerate subset.
    """

    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    @pytest.mark.parametrize("side", [-1, 0, 1], ids=["below", "at", "above"])
    def test_planar_triangle(self, tol, side):
        y = {-1: np.nextafter(tol, 0.0), 0: tol, 1: np.nextafter(tol, 1.0)}[side]
        triangle = Simplex([[0.0, 0.0], [1.0, 0.0], [0.5, y]])
        tetrahedron = Simplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, y, 0.0], [0.5, 0.25, 0.5]])
        self.assert_one_verdict(triangle, tetrahedron, tol, side <= 0)
        quality = mesh_quality(single_cell_mesh(triangle), tol)
        assert quality.degenerate_cells == ((0,) if side <= 0 else ())

    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_triangle_embedded_in_r5(self, tol, side):
        # y on the 2^-53 grid next to tol keeps 1/4 +- y/2 exact.
        y = (math.floor if side < 0 else math.ceil)(tol * 2.0**53) / 2.0**53
        assert (y < tol) if side < 0 else (y > tol)
        b = np.array([0.5, 0.5, 0.5, 0.5, 0.0])  # |b| = 1, the diameter
        apex = b / 2 + y * np.array([0.5, -0.5, 0.5, -0.5, 0.0])
        others = b / 2 + 0.5 * np.array(
            [[0.0, 0.0, 0.0, 0.0, 1.0], [0.5, 0.5, -0.5, -0.5, 0.0], [0.5, -0.5, -0.5, 0.5, 0.0]]
        )
        triangle = Simplex([np.zeros(5), b, apex])
        cell = Simplex(np.vstack([np.zeros(5), b, apex, others]))
        self.assert_one_verdict(triangle, cell, tol, side < 0)

    def assert_one_verdict(self, triangle, cell, tol, degenerate):
        assert is_degenerate(triangle, tol) == degenerate
        assert mesh_quality(single_cell_mesh(cell), tol).degenerate_cells == (0,)
        assert (first_degenerate_subset(cell, tol) == (0, 1, 2)) == degenerate


def oracle_first_subset(s):
    """The first vertex subset of ``s`` that is_degenerate flags, sizes 3 to d + 1 in turn,
    each in itertools.combinations order: the scan's visiting order, stated without it."""
    d = s.vertex_count - 1
    for size in range(3, d + 2):
        for subset in itertools.combinations(range(d + 1), size):
            if is_degenerate(Simplex(s.vertices[list(subset)])):
                return subset
    return None


# Cells whose degenerate faces sit at different places in the scan's order, each with the
# first of them.  "x ~ y": vertex y lies 1e-14 from vertex x, so every triangle on both is
# degenerate and every other one is not.
VISITING_ORDER = {
    "d2-flat": ([[0, 0], [1, 0], [0.5, 1e-14]], (0, 1, 2)),
    "d3-0~1": ([[0, 0, 0], [1e-14, 0, 0], [1, 0, 0], [0.3, 0.8, 0.5]], (0, 1, 2)),
    "d3-1~3": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1e-14, 0]], (0, 1, 3)),
    "d3-2~3": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1e-14, 1, 0]], (0, 2, 3)),
    # Every face a good triangle, the cell flat.
    "d3-flat-cell": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.7, 0.6, 1e-14]], (0, 1, 2, 3)),
    "d4-3~4": (
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1e-14, 1, 0]], (0, 3, 4)
    ),
    # Vertices 1..4 are a planar quadrilateral: (1, 2, 3, 4) is the last tetrahedron visited.
    "d4-flat-last-tet": (
        [[0, 0, 0, 1], [0, 0, 0, 0], [1, 0, 0, 0], [1.2, 0.9, 0, 0], [0.1, 1, 0, 0]],
        (1, 2, 3, 4),
    ),
    # Five points in general position in a hyperplane: only the cell itself is flat.
    "d4-flat-cell": (
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0.3, 0.2, 0.4, 1e-14]],
        (0, 1, 2, 3, 4),
    ),
}


class TestVisitingOrder:
    """The subset a degenerate cell names is the first one an itertools oracle over sizes 3 to
    d + 1 finds with is_degenerate, wherever in the order it sits."""

    @pytest.mark.parametrize("vertices, expected", VISITING_ORDER.values(), ids=VISITING_ORDER)
    def test_cell_quality_names_the_oracles_subset(self, vertices, expected):
        cell = Simplex(vertices)
        assert oracle_first_subset(cell) == expected
        with pytest.raises(DegeneracyError) as caught:
            cell_quality(cell)
        assert str(caught.value) == f"degenerate subsimplex on vertex subset {expected}"

    @pytest.mark.parametrize("d", [3, 4])
    def test_a_mesh_scan_keeps_one_subset_per_degenerate_cell(self, d):
        cases = [case for case in VISITING_ORDER.values() if len(case[0]) == d + 1]
        good = regular_simplex(d).vertices
        points = np.stack([good, *(np.array(vertices, float) for vertices, _ in cases), good])
        quality, failing = _scan(points, 1e-12)
        assert quality.cells.tolist() == [0, len(cases) + 1]
        assert quality.degenerate_cells == tuple(range(1, len(cases) + 1))
        named = [tuple(row[row >= 0].tolist()) for row in failing]
        assert named == [expected for _, expected in cases]
