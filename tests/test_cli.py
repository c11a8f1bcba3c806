"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import math

import numpy as np
import pytest

from minangle import (
    Mesh,
    Simplex,
    all_dihedral_angles,
    ball_ratio,
    cell_quality,
    d_sine,
    dump_mesh,
    inradius,
    is_degenerate,
    min_vertex_dsine,
    product_decomposition,
    regular_simplex,
    vertex_sines,
)
from minangle.cli import main

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

    def test_unknown_kind_is_a_usage_error(self, capsys):
        assert main(["generate", "--kind", "spiky", "--dim", "3"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    def test_stdout_output(self, capsys):
        assert main(["generate", "--kind", "corner", "--dim", "2", "-o", "-"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


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

    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["info", str(bad)]) == EXIT_INPUT_ERROR
        capsys.readouterr()


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
            assert min_vertex_dsine(s) == cell_quality(s).min_vertex_dsine
        for metric in (
            lambda s: vertex_sines(s).sines,
            lambda s: d_sine(s, 2),
            min_vertex_dsine,
            ball_ratio,
            lambda s: all_dihedral_angles(s).values(),
        ):
            np.testing.assert_allclose(metric(scaled), metric(unit), rtol=1e-12, atol=0.0)
        assert inradius(scaled) == pytest.approx(scale * inradius(unit), rel=1e-12, abs=0.0)
        # The residual of a regular simplex is 0 up to rounding.
        assert product_decomposition(scaled, 1).residual == pytest.approx(
            product_decomposition(unit, 1).residual, rel=1e-12, abs=1e-15
        )
