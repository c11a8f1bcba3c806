"""End-to-end tests of the command-line interface and its exit-code contract."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minangle
from minangle import (
    Mesh,
    Simplex,
    all_dihedral_angles,
    cell_quality,
    dump_mesh,
    is_degenerate,
    mesh_quality,
    product_decomposition,
    random_simplex,
    regular_simplex,
    vertex_sines,
)
from minangle.cli import main
from oracles import kuhn_triangulation
from test_golden import kuhn_mesh

EXIT_OK, EXIT_VIOLATED, EXIT_INPUT_ERROR, EXIT_DEGENERATE = 0, 1, 2, 3


@pytest.fixture
def tetra_path(tmp_path):
    path = tmp_path / "regular.json"
    assert main(["generate", "--kind", "regular", "--dim", "3", "-o", str(path)]) == 0
    return path


def write_mesh_file(path, vertices, cells):
    path.write_text(dump_mesh(Mesh(vertices, cells)))
    return path


def glued_pair_file(tmp_path):
    base = regular_simplex(3).vertices
    mirrored = base[3].copy()
    mirrored[2] = -mirrored[2]
    return write_mesh_file(
        tmp_path / "pair.json",
        np.vstack([base, mirrored]),
        [[0, 1, 2, 3], [0, 1, 2, 4]],
    )


def overshared_file(tmp_path):
    base = regular_simplex(3).vertices
    mirrored = base[3].copy()
    mirrored[2] = -mirrored[2]
    tall = base[3].copy()
    tall[2] *= 2.0
    return write_mesh_file(
        tmp_path / "triple.json",
        np.vstack([base, mirrored, tall]),
        [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]],
    )


class TestCheckCommand:
    def test_satisfied_threshold(self, tetra_path, tmp_path):
        report = tmp_path / "r.json"
        code = main(["check", str(tetra_path), "--alpha0", "1.0", "-o", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["verdicts"][0]["satisfied"] is True

    def test_violated_threshold_names_worst_cell(self, tetra_path, tmp_path):
        report = tmp_path / "r.json"
        code = main(["check", str(tetra_path), "--alpha0", "1.1", "-o", str(report)])
        assert code == EXIT_VIOLATED
        doc = json.loads(report.read_text())
        assert doc["verdicts"][0]["worst_cell"] == 0
        assert doc["verdicts"][0]["worst_value"] == pytest.approx(1.0471976, abs=1e-6)

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "none.json"), "--alpha0", "1.0"])
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_threshold_required(self, tetra_path, capsys):
        assert main(["check", str(tetra_path)]) == EXIT_INPUT_ERROR
        assert "--alpha0" in capsys.readouterr().err

    def test_invalid_threshold_value(self, tetra_path, capsys):
        assert main(["check", str(tetra_path), "--alpha0", "0.0"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    def test_degenerate_geometry_exit(self, tmp_path):
        sliver = tmp_path / "sliver.json"
        assert (
            main(
                ["generate", "--kind", "flatten", "--dim", "3",
                 "--param", "1e-15", "-o", str(sliver)]
            )
            == EXIT_OK
        )
        report = tmp_path / "r.json"
        code = main(["check", str(sliver), "--alpha0", "0.5", "-o", str(report)])
        assert code == EXIT_DEGENERATE
        doc = json.loads(report.read_text())
        assert doc["degenerate_cells"] == [0]
        assert doc["verdicts"][0]["satisfied"] is False

    def test_clustered_vertices_exit_degenerate_and_warn_nothing(self, tmp_path, capsys):
        # Three vertices 1e-155 apart: a triangle that passes its own rule at a
        # subnormal threshold, in a cell that another triangle flags.
        mesh = write_mesh_file(
            tmp_path / "clustered.json",
            [[0.0, 0.0, 0.0], [1e-155, 0.0, 0.0], [0.0, 1e-155, 0.0], [0.3, 0.4, 1.0]],
            [[0, 1, 2, 3]],
        )
        argv = ["check", str(mesh), "--alpha0", "0.5", "-o", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_DEGENERATE
        assert main(["info", str(mesh)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_both_thresholds_in_one_report(self, tetra_path, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            ["check", str(tetra_path), "--alpha0", "1.0", "--dsine-min", "0.8",
             "-o", str(report)]
        )
        assert code == EXIT_VIOLATED  # d-sine 0.7698 < 0.8
        doc = json.loads(report.read_text())
        conditions = {v["condition"]: v["satisfied"] for v in doc["verdicts"]}
        assert conditions == {"min_dihedral": True, "min_dsine": False}

    def test_reports_are_byte_identical_across_runs(self, tetra_path, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        argv = ["check", str(tetra_path), "--alpha0", "1.0", "--dsine-min", "0.7"]
        assert main(argv + ["-o", str(first)]) == EXIT_OK
        assert main(argv + ["-o", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_degrees_flag_annotates_but_does_not_change_verdicts(
        self, tetra_path, tmp_path
    ):
        plain = tmp_path / "plain.json"
        annotated = tmp_path / "deg.json"
        assert main(["check", str(tetra_path), "--alpha0", "1.0", "-o", str(plain)]) == 0
        assert (
            main(["check", str(tetra_path), "--alpha0", "1.0", "--degrees",
                  "-o", str(annotated)])
            == 0
        )
        plain_doc = json.loads(plain.read_text())
        annotated_doc = json.loads(annotated.read_text())
        assert annotated_doc["verdicts"] == plain_doc["verdicts"]
        assert annotated_doc["cells"][0]["min_dihedral_deg"] == pytest.approx(60.0)

    def test_report_to_stdout(self, tetra_path, capsys):
        assert main(["check", str(tetra_path), "--alpha0", "1.0", "-o", "-"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["cell_count"] == 1

    def test_degeneracy_tol_override(self, tmp_path):
        thin = tmp_path / "thin.json"
        assert (
            main(["generate", "--kind", "flatten", "--dim", "3",
                  "--param", "1e-6", "-o", str(thin)])
            == EXIT_OK
        )
        # not degenerate at the default tolerance, degenerate at a loose one
        assert main(["check", str(thin), "--alpha0", "1e-8", "-o", "/dev/null"]) == EXIT_OK
        assert (
            main(["check", str(thin), "--alpha0", "1e-8", "--degeneracy-tol", "1e-3",
                  "-o", "/dev/null"])
            == EXIT_DEGENERATE
        )

    @staticmethod
    def assert_tolerance_rejected(path, capsys, command, tol):
        argv = [command[0], str(path), *command[1:], "--degeneracy-tol", tol]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: degeneracy_rel_tol must lie in (0, sqrt(3)/2), got {float(tol)}\n"
        )

    @pytest.mark.parametrize("tol", ["inf", "1.0", "1e300"])
    @pytest.mark.parametrize(
        "command", [["check", "--alpha0", "0.5"], ["audit"], ["info"]], ids=["check", "audit", "info"]
    )
    def test_degeneracy_tol_of_one_or_more_is_an_input_error(
        self, tetra_path, capsys, command, tol
    ):
        # sqrt(det G) <= (max edge)^k, so such a tolerance would flag every cell (exit 3).
        self.assert_tolerance_rejected(tetra_path, capsys, command, tol)

    @pytest.mark.parametrize("tol", ["0.87", "0.99"])
    @pytest.mark.parametrize(
        "command", [["check", "--alpha0", "0.5"], ["audit"], ["info"]], ids=["check", "audit", "info"]
    )
    def test_degeneracy_tol_above_the_equilateral_ratio_is_an_input_error(
        self, tmp_path, capsys, command, tol
    ):
        # Every cell has triangles, and no triangle's |det R| / diameter^2 exceeds the
        # equilateral sqrt(3)/2 = 0.866..., so such a tolerance flags every cell (exit 3).
        path = tmp_path / "triangle.json"
        assert main(["generate", "--kind", "regular", "--dim", "2", "-o", str(path)]) == EXIT_OK
        self.assert_tolerance_rejected(path, capsys, command, tol)

    def test_degeneracy_tol_just_below_the_equilateral_ratio_passes(self, tmp_path, capsys):
        path = tmp_path / "triangle.json"
        assert main(["generate", "--kind", "regular", "--dim", "2", "-o", str(path)]) == EXIT_OK
        argv = ["check", str(path), "--alpha0", "0.5", "--degeneracy-tol", "0.86", "-o", "-"]
        assert main(argv) == EXIT_OK
        assert "degenerate_cells" not in json.loads(capsys.readouterr().out)


class TestAuditCommand:
    def test_regular_tetrahedron(self, tetra_path, tmp_path):
        report = tmp_path / "audit.json"
        assert main(["audit", str(tetra_path), "-o", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["satisfied"] is True
        cell = doc["cells"][0]
        assert cell["backward_margin"] == pytest.approx(0.1202813, abs=1e-6)
        assert cell["certified_bound"] == pytest.approx(
            math.sin(math.pi / 3) ** 3, abs=1e-12
        )

    def test_corner_simplex(self, tmp_path):
        corner = tmp_path / "corner.json"
        assert main(["generate", "--kind", "corner", "--dim", "3", "-o", str(corner)]) == 0
        assert main(["audit", str(corner), "-o", "/dev/null"]) == EXIT_OK

    def test_near_flat_sliver_never_crashes(self, tmp_path):
        sliver = tmp_path / "s.json"
        assert (
            main(["generate", "--kind", "flatten", "--dim", "3",
                  "--param", "1e-6", "-o", str(sliver)])
            == EXIT_OK
        )
        code = main(["audit", str(sliver), "-o", "/dev/null"])
        assert code in (EXIT_OK, EXIT_DEGENERATE)

    def test_fully_degenerate_cell(self, tmp_path):
        sliver = tmp_path / "s.json"
        assert (
            main(["generate", "--kind", "flatten", "--dim", "3",
                  "--param", "1e-15", "-o", str(sliver)])
            == EXIT_OK
        )
        assert main(["audit", str(sliver), "-o", "/dev/null"]) == EXIT_DEGENERATE

    def test_angle_rounding_to_pi_gets_a_margin(self, tmp_path):
        """A good cell whose largest angle rounds to pi is audited, not rejected as input."""
        path = write_mesh_file(
            tmp_path / "flat.json", [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-17]], [[0, 1, 2]]
        )
        report = tmp_path / "audit.json"
        argv = ["audit", str(path), "--degeneracy-tol", "1e-300", "-o", str(report)]
        assert main(argv) in (EXIT_OK, EXIT_VIOLATED)
        cell = json.loads(report.read_text())["cells"][0]
        assert cell["max_dihedral_rad"] == math.pi
        assert math.isfinite(cell["backward_margin"])


class TestReportLayout:
    """The key order at every level of the ``check`` and ``audit`` reports, as literals."""

    CHECK_TOP = ["ambient_dimension", "cell_count", "aggregates", "cells", "verdicts"]
    CHECK_AGGREGATES = ["min_dihedral_rad", "max_dihedral_rad", "min_dsine", "min_ball_ratio"]
    CHECK_AGGREGATES_DEG = ["min_dihedral_deg", "max_dihedral_deg"]
    CHECK_ROW = ["index", "min_dihedral_rad", "max_dihedral_rad", "min_dsine", "ball_ratio",
                 "dihedral_sum_rad"]
    CHECK_ROW_DEG = ["min_dihedral_deg", "max_dihedral_deg", "dihedral_sum_deg"]
    CHECK_DEGENERATE_ROW = [*CHECK_ROW, "degenerate"]
    VERDICT = ["condition", "threshold", "satisfied", "worst_cell", "worst_value"]
    AUDIT_TOP = ["ambient_dimension", "cell_count", "audit_tolerance", "aggregates", "cells",
                 "satisfied"]
    AUDIT_AGGREGATES = ["min_forward_margin", "min_backward_margin"]
    AUDIT_ROW = ["index", "min_dsine", "min_dihedral_rad", "max_dihedral_rad",
                 "certified_bound", "forward_margin", "backward_margin"]
    AUDIT_ROW_DEG = ["min_dihedral_deg", "max_dihedral_deg"]
    AUDIT_DEGENERATE_ROW = ["index", "degenerate"]

    @staticmethod
    def mesh_file(tmp_path, with_degenerate):
        """A regular tetrahedron, then a flat cell if ``with_degenerate``."""
        flat = [[9.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0], [12.0, 0.0, 0.0]]
        vertices = np.vstack([regular_simplex(3).vertices, flat])
        cells = [[0, 1, 2, 3], [4, 5, 6, 7]] if with_degenerate else [[0, 1, 2, 3]]
        return write_mesh_file(tmp_path / "layout.json", vertices[: 4 * len(cells)], cells)

    @staticmethod
    def report(tmp_path, argv):
        out = tmp_path / "report.json"
        main([*argv, "-o", str(out)])
        return json.loads(out.read_text())

    @pytest.mark.parametrize("degrees", [False, True])
    @pytest.mark.parametrize("with_degenerate", [False, True])
    def test_check_report(self, tmp_path, degrees, with_degenerate):
        path = self.mesh_file(tmp_path, with_degenerate)
        flags = ["--alpha0", "0.5", "--dsine-min", "0.1"] + (["--degrees"] if degrees else [])
        doc = self.report(tmp_path, ["check", str(path), *flags])
        tail = ["degenerate_cells"] if with_degenerate else []
        assert list(doc) == self.CHECK_TOP + tail
        assert list(doc["aggregates"]) == self.CHECK_AGGREGATES + (
            self.CHECK_AGGREGATES_DEG if degrees else []
        )
        assert list(doc["cells"][0]) == self.CHECK_ROW + (self.CHECK_ROW_DEG if degrees else [])
        if with_degenerate:
            assert list(doc["cells"][1]) == self.CHECK_DEGENERATE_ROW
        assert [list(verdict) for verdict in doc["verdicts"]] == [self.VERDICT + tail] * 2

    @pytest.mark.parametrize("degrees", [False, True])
    @pytest.mark.parametrize("with_degenerate", [False, True])
    def test_audit_report(self, tmp_path, degrees, with_degenerate):
        path = self.mesh_file(tmp_path, with_degenerate)
        doc = self.report(tmp_path, ["audit", str(path), *(["--degrees"] if degrees else [])])
        assert list(doc) == self.AUDIT_TOP + (["degenerate_cells"] if with_degenerate else [])
        assert list(doc["aggregates"]) == self.AUDIT_AGGREGATES
        assert list(doc["cells"][0]) == self.AUDIT_ROW + (self.AUDIT_ROW_DEG if degrees else [])
        if with_degenerate:
            assert list(doc["cells"][1]) == self.AUDIT_DEGENERATE_ROW


class TestFamilyCommand:
    def make_family(self, tmp_path, params):
        paths = []
        for i, t in enumerate(params):
            path = tmp_path / f"m{i}.json"
            assert (
                main(["generate", "--kind", "flatten", "--dim", "3",
                      "--param", str(t), "-o", str(path)])
                == EXIT_OK
            )
            paths.append(path.name)
        manifest = tmp_path / "family.json"
        manifest.write_text(json.dumps({"meshes": paths}))
        return manifest

    def test_degenerating_family_violates_and_reports_trend(self, tmp_path):
        manifest = self.make_family(tmp_path, [0.5, 0.25, 0.125])
        report = tmp_path / "family_report.json"
        code = main(["family", str(manifest), "--dsine-min", "0.5", "-o", str(report)])
        assert code == EXIT_VIOLATED
        doc = json.loads(report.read_text())
        trend = [row["min_dsine"] for row in doc["trend"]]
        assert trend == sorted(trend, reverse=True)
        assert len(trend) == 3
        assert doc["verdicts"][0]["satisfied"] is False

    @pytest.mark.parametrize(
        "params, worst_mesh, code",
        [
            ([0.5, 0.125, 0.25], 1, EXIT_VIOLATED),  # the worst member in the middle
            ([0.5, 0.125, 0.125], 1, EXIT_VIOLATED),  # a tie: the earlier member is the worst
            ([0.125, 0.5, 0.125], 0, EXIT_VIOLATED),
            ([0.5, 0.25, 0.25], 1, EXIT_OK),
        ],
    )
    def test_family_verdicts_reduce_member_verdicts(self, tmp_path, params, worst_mesh, code):
        manifest = self.make_family(tmp_path, params)
        report = tmp_path / "family_report.json"
        argv = ["family", str(manifest), "--alpha0", "0.5", "--dsine-min", "0.3"]
        assert main([*argv, "-o", str(report)]) == code
        doc = json.loads(report.read_text())
        expected = []
        for rows in zip(*(member["verdicts"] for member in doc["meshes"])):
            values = [row["worst_value"] for row in rows]
            first = values.index(min(values))
            expected.append(
                {
                    "condition": rows[0]["condition"],
                    "threshold": rows[0]["threshold"],
                    "satisfied": all(row["satisfied"] for row in rows),
                    "worst_mesh": first,
                    "worst_cell": rows[first]["worst_cell"],
                    "worst_value": values[first],
                }
            )
        assert doc["verdicts"] == expected
        assert [v["condition"] for v in expected] == ["min_dihedral", "min_dsine"]
        assert {v["worst_mesh"] for v in expected} == {worst_mesh}
        assert all(v["satisfied"] is (code == EXIT_OK) for v in expected)

    # Kinds of member: a regular tetrahedron, a flat sliver whose one cell is degenerate, and
    # a thin one that violates --alpha0 0.5.
    MEMBERS = {
        "regular": ["--kind", "regular"],
        "degenerate": ["--kind", "flatten", "--param", "1e-15"],
        "violating": ["--kind", "flatten", "--param", "0.125"],
    }

    @staticmethod
    def expected_from_members(paths, reports):
        """The family aggregates and trend, worked out from each member's ``check`` report."""
        picks = {"min_dihedral_rad": min, "max_dihedral_rad": max, "min_dsine": min,
                 "min_ball_ratio": min}
        aggregates = {}
        for key, pick in picks.items():
            values = [report["aggregates"][key] for report in reports]
            present = [value for value in values if value is not None]
            aggregates[key] = pick(present) if present else None
        trend = [
            {"index": index, "path": str(path),
             "min_dihedral_rad": report["aggregates"]["min_dihedral_rad"],
             "min_dsine": report["aggregates"]["min_dsine"]}
            for index, (path, report) in enumerate(zip(paths, reports))
        ]
        return aggregates, trend

    @pytest.mark.parametrize(
        "kinds, member_codes",
        [
            (["regular", "degenerate"], [EXIT_OK, EXIT_DEGENERATE]),
            (["degenerate", "degenerate"], [EXIT_DEGENERATE, EXIT_DEGENERATE]),
            (["violating", "degenerate"], [EXIT_VIOLATED, EXIT_DEGENERATE]),
        ],
    )
    def test_degenerate_members(self, tmp_path, kinds, member_codes):
        paths = []
        for index, kind in enumerate(kinds):
            path = tmp_path / f"m{index}.json"
            argv = ["generate", "--dim", "3", *self.MEMBERS[kind], "-o", str(path)]
            assert main(argv) == EXIT_OK
            paths.append(path)
        manifest = tmp_path / "family.json"
        manifest.write_text(json.dumps({"meshes": [path.name for path in paths]}))
        flags = ["--alpha0", "0.5", "--dsine-min", "0.1"]
        reports = []
        for path, member_code in zip(paths, member_codes):
            out = tmp_path / f"{path.stem}-check.json"
            assert main(["check", str(path), *flags, "-o", str(out)]) == member_code
            reports.append(json.loads(out.read_text()))
        out = tmp_path / "family-report.json"
        # A degenerate member outranks a violating one.
        assert main(["family", str(manifest), *flags, "-o", str(out)]) == EXIT_DEGENERATE
        doc = json.loads(out.read_text())

        aggregates, trend = self.expected_from_members(paths, reports)
        assert doc["family_aggregates"] == aggregates
        assert doc["trend"] == trend
        assert doc["meshes"] == [
            {"index": index, "path": str(path), **report}
            for index, (path, report) in enumerate(zip(paths, reports))
        ]
        assert doc["trend"][-1]["min_dihedral_rad"] is doc["trend"][-1]["min_dsine"] is None
        if kinds[0] == "degenerate":
            assert set(aggregates.values()) == {None}
        else:
            assert aggregates == reports[0]["aggregates"]
        assert [v["satisfied"] for v in doc["verdicts"]] == [False, False]

    @pytest.mark.parametrize("d, finest", [(2, 4), (3, 4), (4, 3)])
    def test_kuhn_refinement_family_has_the_closed_form(self, tmp_path, d, finest):
        """Every cell of every Kuhn mesh is congruent to the path simplex with vertices
        v_j = e_1 + ... + e_j, so the smallest angle is the same at every refinement.

        Its triangle (v_0, v_1, v_d) has a right angle at v_1, as v_1 - v_0 = e_1 is
        orthogonal to v_d - v_1 = e_2 + ... + e_d, and legs of length 1 and sqrt(d - 1).  Its
        angle at v_d is therefore arctan(1 / sqrt(d - 1)): 45 degrees for d = 2, 35.26 for
        d = 3, 30 for d = 4.  The family must satisfy the condition just below that value and
        violate it just above, and every member's worst value is that angle.
        """
        closed = math.atan(1.0 / math.sqrt(d - 1))
        paths = []
        for n in range(1, finest + 1):
            paths.append(write_mesh_file(tmp_path / f"kuhn{n}.json", *kuhn_triangulation(d, n)))
        manifest = tmp_path / "family.json"
        manifest.write_text(json.dumps({"meshes": [path.name for path in paths]}))
        report = tmp_path / "report.json"
        for factor, code in [(1 - 1e-12, EXIT_OK), (1 + 1e-12, EXIT_VIOLATED)]:
            argv = ["family", str(manifest), "--alpha0", repr(closed * factor)]
            assert main([*argv, "-o", str(report)]) == code
            doc = json.loads(report.read_text())
            assert doc["verdicts"][0]["satisfied"] is (code == EXIT_OK)
            for member in doc["meshes"]:
                worst = member["verdicts"][0]["worst_value"]
                assert worst == pytest.approx(closed, rel=1e-14, abs=0.0)

    def test_family_of_regular_meshes_passes(self, tmp_path, tetra_path):
        manifest = tmp_path / "family.json"
        manifest.write_text(json.dumps({"meshes": [str(tetra_path)] * 3}))
        assert main(["family", str(manifest), "--alpha0", "1.0", "-o", "/dev/null"]) == EXIT_OK

    def test_mixed_dimensions_rejected(self, tmp_path, capsys):
        tri = tmp_path / "tri.json"
        tet = tmp_path / "tet.json"
        assert main(["generate", "--kind", "regular", "--dim", "2", "-o", str(tri)]) == 0
        assert main(["generate", "--kind", "regular", "--dim", "3", "-o", str(tet)]) == 0
        manifest = tmp_path / "family.json"
        manifest.write_text(json.dumps({"meshes": [tri.name, tet.name]}))
        assert main(["family", str(manifest), "--alpha0", "1.0"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    def test_unreadable_member_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "family.json"
        manifest.write_text(json.dumps({"meshes": ["missing.json"]}))
        assert main(["family", str(manifest), "--alpha0", "1.0"]) == EXIT_INPUT_ERROR
        capsys.readouterr()


class TestGenerateCommand:
    def test_regular_dim4_mesh(self, tmp_path):
        path = tmp_path / "r4.json"
        assert main(["generate", "--kind", "regular", "--dim", "4", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["ambient_dimension"] == 4
        assert len(doc["vertices"]) == 5
        assert doc["cells"] == [[0, 1, 2, 3, 4]]
        v = np.asarray(doc["vertices"])
        lengths = [
            np.linalg.norm(v[i] - v[j]) for i in range(5) for j in range(i + 1, 5)
        ]
        np.testing.assert_allclose(lengths, 1.0, atol=1e-12)

    def test_random_generation_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["generate", "--kind", "random", "--dim", "3", "--seed", "7"]
        assert main(argv + ["-o", str(a)]) == EXIT_OK
        assert main(argv + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_spec(self, capsys):
        assert main(["generate", "--kind", "flatten", "--dim", "2"]) == EXIT_INPUT_ERROR
        assert main(["generate", "--kind", "regular", "--dim", "1"]) == EXIT_INPUT_ERROR
        assert (
            main(["generate", "--kind", "flatten", "--dim", "3", "--param", "2.0"])
            == EXIT_INPUT_ERROR
        )
        capsys.readouterr()

    @pytest.mark.parametrize("scale", ["inf", "-inf", "nan", "0"])
    def test_bad_scale_is_one_error_line(self, capsys, scale):
        argv = ["generate", "--kind", "regular", "--dim", "3", f"--scale={scale}"]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: scale must be positive and finite, got {float(scale)}\n"

    def test_huge_dimension_is_one_error_line(self, capsys):
        # Its (d+1, d) vertex array would take 71 PiB, so the allocation fails at once.
        argv = ["generate", "--kind", "regular", "--dim", "100000000"]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1

    def test_unknown_kind_is_a_usage_error(self, capsys):
        assert main(["generate", "--kind", "spiky", "--dim", "3"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    def test_stdout_output(self, capsys):
        assert main(["generate", "--kind", "corner", "--dim", "2", "-o", "-"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


class TestDimensionLimit:
    def test_dimension_above_twelve_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "d13.json"
        assert main(["generate", "--kind", "regular", "--dim", "13", "-o", str(path)]) == EXIT_OK
        for argv in (["check", str(path), "--alpha0", "0.5"], ["audit", str(path)],
                     ["info", str(path)]):
            assert main(argv) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: dimension 13 is above the limit d <= 12: "
                "the subsimplex scan visits all 2^14 vertex subsets of each cell\n"
            )


class TestInfoCommand:
    def test_regular_tetrahedron_table(self, tetra_path, capsys):
        assert main(["info", str(tetra_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ambient dimension: 3" in out
        assert "1.0471976" in out
        assert "0.7698004" in out
        assert "0.2041241" in out
        assert "conformity: OK" in out

    def test_glued_pair_is_conforming(self, tmp_path, capsys):
        assert main(["info", str(glued_pair_file(tmp_path))]) == EXIT_OK
        assert "conformity: OK" in capsys.readouterr().out

    def test_overshared_facet_reported_but_exit_zero(self, tmp_path, capsys):
        assert main(["info", str(overshared_file(tmp_path))]) == EXIT_OK
        out = capsys.readouterr().out
        assert "conformity: VIOLATED" in out
        assert "shared by 3 cells" in out

    def test_unused_vertices_and_duplicate_cells_warned(self, tmp_path, capsys):
        base = regular_simplex(3).vertices
        path = write_mesh_file(
            tmp_path / "mesh.json", np.vstack([base, base + 5.0]),
            [[0, 1, 2, 3], [3, 2, 1, 0], [0, 1, 2, 3]],
        )
        assert main(["info", str(path)]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().out.splitlines() if "warning" in line]
        assert warnings == [
            "warning: unused vertices [4, 5, 6, 7]",
            "warning: duplicate cells [1, 2]",
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kuhn_mesh_facet_counts(self, tmp_path, capsys, n):
        """The n x n Kuhn mesh of the square has 3n^2 - 2n interior and 4n boundary edges."""
        path = write_mesh_file(tmp_path / "kuhn.json", *kuhn_triangulation(2, n))
        assert main(["info", str(path)]) == EXIT_OK
        expected = f"conformity: OK ({3 * n * n - 2 * n} interior, {4 * n} boundary facets)"
        assert expected in capsys.readouterr().out.splitlines()

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["info", str(bad)]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize(
        "bad_cell, flags",
        [
            # The cell's own ratio is 1.06e-17, above the tolerance, but its
            # vertices 1, 2 and 3 are collinear: that face has |det R| = 0 exactly.
            ([[0.0, 1.0, -2 / 3], [1.0, 0.0, 0.0], [-1 / 3, 0.0, 0.0], [2 / 3, 0.0, 0.0]],
             ["--degeneracy-tol", "1e-300"]),
            ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], []),
        ],
        ids=["singular-subsimplex", "flat-triangle"],
    )
    def test_warning_lists_exactly_the_degenerate_rows(self, tmp_path, capsys, bad_cell, flags):
        d = len(bad_cell[0])
        good_cell = regular_simplex(d).vertices + 5.0
        path = write_mesh_file(
            tmp_path / "mesh.json", np.vstack([good_cell, bad_cell]),
            [list(range(d + 1)), list(range(d + 1, 2 * d + 2))],
        )
        assert main(["info", str(path), *flags]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        rows = [int(line.split()[0]) for line in lines if line.split()[1:] == ["degenerate"]]
        assert rows == [1]
        warnings = [line for line in lines if line.startswith("warning: degenerate cells")]
        assert warnings == [f"warning: degenerate cells {rows}"]


class TestMalformedInput:
    """Input no parser can take is an input error (exit 2, one line), never a traceback."""

    def assert_input_error(self, argv, capsys, *needles):
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        for needle in needles:
            assert needle in captured.err

    def test_huge_integer_coordinate(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(
            '{"ambient_dimension": 2, "vertices": [[%s, 0], [1, 0], [0, 1]], '
            '"cells": [[0, 1, 2]]}' % ("9" * 400)
        )
        for command in (["check", str(path), "--alpha0", "0.1"], ["audit", str(path)],
                        ["info", str(path)]):
            self.assert_input_error(command, capsys, "outside the double range")

    def test_integer_literal_too_long_to_decode(self, tmp_path, capsys):
        # Past Python's digit limit json.loads raises a bare ValueError; below it,
        # the vertex rule rejects the value as outside the double range.
        path = tmp_path / "long.json"
        path.write_text(
            '{"ambient_dimension": 2, "vertices": [[%s, 0], [1, 0], [0, 1]], '
            '"cells": [[0, 1, 2]]}' % ("9" * 5000)
        )
        self.assert_input_error(["check", str(path), "--alpha0", "0.1"], capsys, str(path))

    def test_deeply_nested_mesh_and_manifest(self, tmp_path, capsys):
        deep = "[" * 100_000 + "]" * 100_000
        mesh = tmp_path / "deep.json"
        mesh.write_text('{"ambient_dimension": 2, "vertices": %s, "cells": [[0, 1, 2]]}' % deep)
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"meshes": %s}' % deep)
        self.assert_input_error(["audit", str(mesh)], capsys, "nested too deeply")
        self.assert_input_error(
            ["family", str(manifest), "--alpha0", "0.1"], capsys, str(manifest), "nested too deeply"
        )

    def test_non_utf8_mesh_and_manifest(self, tmp_path, capsys, tetra_path):
        mesh = tmp_path / "ff.json"
        mesh.write_bytes(b'{"ambient_dimension": 3, \xff "vertices": []}')
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"meshes": ["' + str(tetra_path).encode() + b'\xff"]}')
        self.assert_input_error(["info", str(mesh)], capsys, "not valid UTF-8")
        self.assert_input_error(["check", str(mesh), "--alpha0", "0.1"], capsys, "UTF-8")
        self.assert_input_error(
            ["family", str(manifest), "--alpha0", "0.1"], capsys, str(manifest), "not valid UTF-8"
        )

    @pytest.mark.parametrize(
        "member, shown", [("a\0b.json", "a\\x00b.json"), ("a\nb\r\x1b.json", "a\\nb\\r\\x1b.json")]
    )
    def test_control_characters_in_member_path(self, tmp_path, capsys, member, shown):
        """A NUL byte is an input error too, and control characters are escaped in the one line."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"meshes": [member]}))
        self.assert_input_error(
            ["family", str(manifest), "--alpha0", "0.1"], capsys,
            f"cannot read mesh file {tmp_path}/{shown}",
        )

    @pytest.mark.parametrize(
        "text, needle",
        [
            ('["a.json"]', "must be an object with a 'meshes' array"),
            ('{"meshes": []}', "must be a nonempty array of paths"),
            ('{"meshes": [1]}', "entry 0 is not a path string"),
        ],
    )
    def test_non_object_manifest(self, tmp_path, capsys, text, needle):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        self.assert_input_error(
            ["family", str(manifest), "--alpha0", "0.1"], capsys, f"error: {manifest}: ", needle
        )


def golden_bases():
    """A small golden-corpus mesh (a sliver, a collapse), and that mesh without the collapse."""
    mesh = kuhn_mesh(2, 2, seed=1_002)
    good = mesh.cells[mesh_quality(mesh).cells]
    return [dump_mesh(mesh).encode(), dump_mesh(Mesh(mesh.vertices, good.tolist())).encode()]


FUZZ_BASES = golden_bases()
# Bytes that make an inserted run likely to stay JSON-like, or to break it in a known way.
FUZZ_TOKENS = [b"-", b"e", b"9", b"0", b".", b",", b"[", b"]", b"{", b"}", b'"', b" ", b"1e400",
               b"NaN", b"Infinity", b"true", b"null", b"\xff", b"\xef\xbb\xbf", b"\\u0000"]
BITS = [1 << i for i in range(8)]
MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.sampled_from(BITS)),
    st.tuples(
        st.just("insert"),
        st.integers(0, 1 << 20),
        st.one_of(st.sampled_from(FUZZ_TOKENS), st.binary(min_size=1, max_size=6)),
    ),
    st.tuples(st.just("delete"), st.integers(0, 1 << 20), st.integers(1, 12)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.just(0)),
)

# Half the files stay intact, so the commands also get past parsing.
EDITS = st.one_of(st.just([]), st.lists(MUTATION, min_size=1, max_size=3))


def mutate(data, mutations):
    """``data`` with each (kind, position, argument) edit applied in turn; flips are bit flips."""
    for kind, position, argument in mutations:
        at = position % (len(data) + 1)
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ argument]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + argument + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + argument:]
        elif kind == "truncate":
            data = data[:at]
    return data


class TestFuzzedInput:
    """Mutated mesh and manifest bytes keep the exit-code contract of every reading command."""

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from(range(len(FUZZ_BASES))),
        mesh_edits=EDITS,
        manifest_edits=EDITS,
        threshold=st.sampled_from(["1e-9", "0.3"]),
    )
    def test_exit_code_contract(self, tmp_path_factory, base, mesh_edits, manifest_edits,
                                threshold):
        workdir = tmp_path_factory.mktemp("fuzz")
        mesh = workdir / "mesh.json"
        mesh.write_bytes(mutate(FUZZ_BASES[base], mesh_edits))
        manifest = workdir / "manifest.json"
        manifest.write_bytes(mutate(json.dumps({"meshes": ["mesh.json"] * 2}).encode(),
                                    manifest_edits))
        report = workdir / "report.json"
        flags = ["--alpha0", threshold, "--dsine-min", threshold, "-o", str(report)]
        for argv in (["check", str(mesh), *flags], ["audit", str(mesh), "-o", str(report)],
                     ["info", str(mesh)], ["family", str(manifest), *flags]):
            report.unlink(missing_ok=True)
            self.assert_contract(argv)

    @staticmethod
    def assert_contract(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)  # any exception escaping main fails the test
        assert code in (EXIT_OK, EXIT_VIOLATED, EXIT_INPUT_ERROR, EXIT_DEGENERATE), argv
        lines = err.getvalue().split("\n")[:-1]
        if code == EXIT_INPUT_ERROR:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        else:
            # Exit 3 from a report has no error line, from a DegeneracyError exactly one.
            assert lines == [] or (code == EXIT_DEGENERATE and len(lines) == 1
                                   and lines[0].startswith("error: ")), (argv, lines)
        if code != EXIT_VIOLATED:
            return
        doc = json.loads(Path(argv[argv.index("-o") + 1]).read_text())
        if argv[0] == "audit":
            tolerance = doc["audit_tolerance"]
            assert min(doc["aggregates"].values()) < -tolerance, doc["aggregates"]
        else:
            assert not all(verdict["satisfied"] for verdict in doc["verdicts"]), argv


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["polish"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "check" in capsys.readouterr().out


SCALES = [1e-300, 1e-100, 1e-60, 1e60, 1e100, 1e300]


class TestProcessStartup:
    """What a fresh process imports, and the BLAS thread setting it leaves."""

    @staticmethod
    def child(code, **env):
        """Run ``code`` in a new interpreter without OPENBLAS_NUM_THREADS, plus ``env``."""
        environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = str(Path(minangle.__file__).resolve().parent.parent)
        environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
        environ.update(env)
        result = subprocess.run(
            [sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    def test_import_minangle_loads_no_numpy_and_sets_nothing(self):
        code = (
            "import os, sys, minangle\n"
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        assert self.child(code) == ["False", "None"]

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_cli_runs_blas_single_threaded_unless_set(self, preset, expected):
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        code = "import os, minangle.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.child(code, **env) == [expected]

    def test_cli_imported_after_numpy_sets_nothing(self):
        code = "import os, numpy, minangle.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert self.child(code) == ["None"]

    def test_info_loads_neither_generators_nor_angles(self, tetra_path):
        code = (
            "import sys\n"
            "from minangle.cli import main\n"
            f"code = main(['info', {str(tetra_path)!r}])\n"
            "print(code, *(f'minangle.{m}' in sys.modules for m in ('generators', 'angles')))"
        )
        assert self.child(code)[-3:] == ["0", "False", "False"]

    def test_cli_loads_dataclasses_only_if_numpy_does(self):
        code = "import sys, {}; print('dataclasses' in sys.modules)"
        numpy_loads = self.child(code.format("numpy"))
        assert self.child(code.format("minangle.cli")) == numpy_loads

    def test_run_freezes_the_import_time_heap(self):
        code = (
            "import gc, minangle.cli as cli\n"
            "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
            "cli.run()"
        )
        assert int(self.child(code)[0]) > 0

    def test_main_freezes_nothing(self, tetra_path, capsys):
        before = gc.get_freeze_count()
        assert main(["info", str(tetra_path)]) == EXIT_OK
        assert gc.get_freeze_count() == before


class TestClosedStdout:
    """A reader that closes the pipe before the command writes, as `| head` can, changes
    nothing: the command exits with its own code and prints no error.  The Kuhn mesh's
    report spans several chunks of rows, so buffered output meets the closed pipe mid-table."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "mesh, command, expected",
        [
            ("tetra", ["info"], EXIT_OK),
            ("tetra", ["check", "--alpha0", "0.5", "-o", "-"], EXIT_OK),
            ("tetra", ["check", "--alpha0", "1.5", "-o", "-"], EXIT_VIOLATED),
            ("tetra", ["audit", "-o", "-"], EXIT_OK),
            ("tetra", ["family", "--alpha0", "1.5", "-o", "-"], EXIT_VIOLATED),
            # 648 cells, more than two chunks of rows; two of them degenerate.
            ("kuhn", ["info"], EXIT_OK),
            ("kuhn", ["check", "--alpha0", "0.5", "-o", "-"], EXIT_DEGENERATE),
            ("kuhn", ["audit", "-o", "-"], EXIT_DEGENERATE),
            ("kuhn", ["family", "--alpha0", "0.5", "-o", "-"], EXIT_DEGENERATE),
            # No mesh is read: the command writes one.
            (None, ["generate", "--kind", "regular", "--dim", "3", "-o", "-"], EXIT_OK),
        ],
        ids=[
            "info", "check", "check-violated", "audit", "family",
            "info-kuhn", "check-kuhn", "audit-kuhn", "family-kuhn", "generate",
        ],
    )
    def test_exit_code_is_the_commands_own(
        self, tetra_path, tmp_path, mesh, command, expected, unbuffered
    ):
        path = tetra_path
        if mesh == "kuhn":
            path = tmp_path / "kuhn.json"
            path.write_text(dump_mesh(kuhn_mesh(2, 18, seed=5)))
        if command[0] == "family":
            manifest = tmp_path / "family.json"
            manifest.write_text(json.dumps({"meshes": [path.name]}))
            path = manifest
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = str(Path(minangle.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        operands = [] if mesh is None else [str(path)]
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "minangle.cli", command[0], *operands, *command[1:]],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr.decode()) == (expected, "")


class TestExtremeScale:
    """check, audit and the single-simplex API see the same regular 6-simplex at every scale.

    At the scales below, the unnormalized Gram determinant of the cell
    underflows (wrongly degenerate, exit 3) or the d-sine formula overflows.
    """

    @staticmethod
    def run(path, command, capsys):
        argv = [command, str(path), "-o", "-"]
        if command == "check":
            argv += ["--alpha0", "0.5", "--dsine-min", "0.5"]
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("command", ["check", "audit"])
    @pytest.mark.parametrize("scale", SCALES)
    def test_matches_unit_scale(self, tmp_path, capsys, command, scale):
        vertices = regular_simplex(6).vertices
        cells = [list(range(7))]
        unit = write_mesh_file(tmp_path / "unit.json", vertices, cells)
        scaled = write_mesh_file(tmp_path / "scaled.json", vertices * scale, cells)
        unit_code, unit_doc = self.run(unit, command, capsys)
        code, doc = self.run(scaled, command, capsys)
        assert code == unit_code == EXIT_OK
        assert doc.get("degenerate_cells") is None
        for key, value in unit_doc["aggregates"].items():
            # The forward margin of a regular simplex is 0 up to rounding.
            assert doc["aggregates"][key] == pytest.approx(value, rel=1e-12, abs=1e-15), key

    @pytest.mark.parametrize("scale", SCALES)
    def test_library_matches_unit_scale(self, scale):
        unit = regular_simplex(6)
        scaled = Simplex(unit.vertices * scale)
        assert not is_degenerate(scaled)
        for s in (unit, scaled):
            assert min(vertex_sines(s)) == cell_quality(s).min_dsine()
        for metric in (
            vertex_sines,
            lambda s: vertex_sines(s)[2],
            lambda s: min(vertex_sines(s)),
            lambda s: cell_quality(s).ball_ratio[0],
            lambda s: all_dihedral_angles(s).values(),
        ):
            np.testing.assert_allclose(metric(scaled), metric(unit), rtol=1e-12, atol=0.0)
        # The inradius is cell_quality(s).ball_ratio[0] * s.diameter().
        assert cell_quality(scaled).ball_ratio[0] * scaled.diameter() == pytest.approx(
            scale * cell_quality(unit).ball_ratio[0] * unit.diameter(), rel=1e-12, abs=0.0
        )
        # The residual of a regular simplex is 0 up to rounding.
        assert product_decomposition(scaled, 1).residual == pytest.approx(
            product_decomposition(unit, 1).residual, rel=1e-12, abs=1e-15
        )


# Report keys holding differences on the sine scale, which may be 0: compared absolutely.
MARGIN_KEYS = {"forward_margin", "backward_margin", "min_forward_margin", "min_backward_margin"}


def assert_reports_match(doc, unit_doc, where=""):
    """Same layout, verdict flags and cells; numbers to 1e-12, relative or (margins) absolute."""
    if isinstance(unit_doc, dict):
        assert list(doc) == list(unit_doc), where
        for key, value in unit_doc.items():
            assert_reports_match(doc[key], value, f"{where}.{key}")
    elif isinstance(unit_doc, list):
        assert len(doc) == len(unit_doc), where
        for position, (got, want) in enumerate(zip(doc, unit_doc)):
            assert_reports_match(got, want, f"{where}[{position}]")
    elif isinstance(unit_doc, float) and where.rsplit(".", 1)[-1] in MARGIN_KEYS:
        assert doc == pytest.approx(unit_doc, rel=0.0, abs=1e-12), where
    elif isinstance(unit_doc, float):
        assert doc == pytest.approx(unit_doc, rel=1e-12, abs=0.0), where
    else:
        assert doc == unit_doc, where


class TestExtremeScaleRandom:
    """Random well-shaped simplices under a rigid motion give the same reports at 1e+-100."""

    @staticmethod
    def moved_cells(d):
        """Three random simplices of dimension d, rotated and translated by a seeded motion."""
        rng = np.random.default_rng(7_000 + d)
        rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
        blocks = [
            random_simplex(d, seed, min_quality=1e-2).vertices @ rotation.T
            + rng.uniform(-1.0, 1.0, d)
            for seed in range(3)
        ]
        return np.vstack(blocks), [list(range(k * (d + 1), (k + 1) * (d + 1))) for k in range(3)]

    @pytest.mark.parametrize("command", ["check", "audit"])
    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_unit_scale(self, tmp_path, capsys, command, scale, d):
        vertices, cells = self.moved_cells(d)
        unit = write_mesh_file(tmp_path / "unit.json", vertices, cells)
        scaled = write_mesh_file(tmp_path / "scaled.json", vertices * scale, cells)
        run = TestExtremeScale.run
        unit_code, unit_doc = run(unit, command, capsys)
        code, doc = run(scaled, command, capsys)
        assert code == unit_code
        assert "degenerate_cells" not in unit_doc
        assert_reports_match(doc, unit_doc)
