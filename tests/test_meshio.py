"""Tests for mesh parsing, validation, conformity, and report serialization."""

import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minangle import (
    InvalidInputError,
    Mesh,
    MeshQuality,
    Simplex,
    dump_mesh,
    load_mesh,
    mesh_quality,
    parse_family_manifest,
    parse_mesh,
    regular_simplex,
    validate_mesh,
    verdict_min_dihedral,
    verdict_min_dsine,
    write_report,
)
from minangle.meshio import _CHUNK_ROWS, _pieces, audit_to_dict, report_to_dict
from oracles import HUGE_INT, audit_doc, report_doc, shown
from test_golden import kuhn_mesh

TETRA_DOC = {
    "ambient_dimension": 3,
    "vertices": [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, math.sqrt(3.0) / 2.0, 0.0],
        [0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)],
    ],
    "cells": [[0, 1, 2, 3]],
}


def glued_pair_mesh():
    """Two tetrahedra sharing their base triangle (apex mirrored through it)."""
    base = regular_simplex(3).vertices
    mirrored = base[3].copy()
    mirrored[2] = -mirrored[2]
    vertices = np.vstack([base, mirrored])
    return Mesh(vertices, [[0, 1, 2, 3], [0, 1, 2, 4]])


def overshared_triple_mesh():
    """Three tetrahedra all sharing the facet {0, 1, 2}."""
    base = regular_simplex(3).vertices
    mirrored = base[3].copy()
    mirrored[2] = -mirrored[2]
    tall = base[3].copy()
    tall[2] = 2.0 * tall[2]
    vertices = np.vstack([base, mirrored, tall])
    return Mesh(vertices, [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])


class TestParseMesh:
    def test_single_tetrahedron(self):
        mesh = parse_mesh(json.dumps(TETRA_DOC))
        assert mesh.ambient_dim == 3
        assert mesh.vertex_count == 4
        assert mesh.cell_count == 1
        assert mesh.cell_simplex(0).intrinsic_dim == 3
        assert mesh.cell_simplex(np.int64(0)).intrinsic_dim == 3
        assert repr(mesh) == "Mesh(d=3, vertices=4, cells=1)"

    @pytest.mark.parametrize(
        "index", [2, -1, 1.0, True, "0", None, pytest.param(HUGE_INT, id="1e5000")]
    )
    def test_cell_index_out_of_range_rejected(self, index):
        with pytest.raises(InvalidInputError) as error:
            glued_pair_mesh().cell_simplex(index)
        rule = "out of range 0..1" if type(index) is int else "is not an integer"
        assert str(error.value) == f"cell index {shown(index, repr)} {rule}"

    def test_repeated_cell_index_rejected(self):
        doc = dict(TETRA_DOC, cells=[[0, 1, 1, 2]])
        with pytest.raises(InvalidInputError, match="repeated"):
            parse_mesh(json.dumps(doc))

    def test_wrong_vertex_arity_rejected(self):
        doc = dict(TETRA_DOC, vertices=[[0.0, 0.0]] + TETRA_DOC["vertices"][1:])
        with pytest.raises(InvalidInputError, match="vertex 0"):
            parse_mesh(json.dumps(doc))

    def test_wrong_cell_arity_rejected(self):
        doc = dict(TETRA_DOC, cells=[[0, 1, 2]])
        with pytest.raises(InvalidInputError, match="cell 0"):
            parse_mesh(json.dumps(doc))

    def test_index_out_of_range_rejected(self):
        doc = dict(TETRA_DOC, cells=[[0, 1, 2, 9]])
        with pytest.raises(InvalidInputError, match="out of range"):
            parse_mesh(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(InvalidInputError, match="line 1"):
            parse_mesh('{"ambient_dimension": 3,,}')

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidInputError, match="cells"):
            parse_mesh(json.dumps({"ambient_dimension": 2, "vertices": [[0.0, 0.0]]}))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "mesh document must be a JSON object"),
            (json.dumps(dict(TETRA_DOC, vertices=[])),
             "vertices must be a nonempty array of coordinate arrays"),
            (json.dumps(dict(TETRA_DOC, ambient_dimension=3.0)),
             "ambient_dimension must be an integer >= 1, got 3.0"),
        ],
        ids=["array", "no-vertices", "float-dimension"],
    )
    def test_document_shape_rejected(self, text, message):
        with pytest.raises(InvalidInputError) as error:
            parse_mesh(text)
        assert str(error.value) == message

    def test_non_numeric_coordinate_rejected(self):
        doc = dict(TETRA_DOC, vertices=[["x", 0.0, 0.0]] + TETRA_DOC["vertices"][1:])
        with pytest.raises(InvalidInputError, match="not a number"):
            parse_mesh(json.dumps(doc))

    def test_empty_cells_rejected(self):
        doc = dict(TETRA_DOC, cells=[])
        with pytest.raises(InvalidInputError):
            parse_mesh(json.dumps(doc))

    def test_boolean_dimension_rejected(self):
        doc = dict(TETRA_DOC, ambient_dimension=True)
        with pytest.raises(InvalidInputError):
            parse_mesh(json.dumps(doc))

    def test_accepts_bytes_and_file_objects(self):
        text = json.dumps(TETRA_DOC)
        assert parse_mesh(text.encode()).cell_count == 1
        assert parse_mesh(io.StringIO(text)).cell_count == 1


class TestRoundTrip:
    def test_parse_write_parse_is_bit_exact(self):
        rng = np.random.default_rng(8)
        vertices = rng.uniform(-1.0, 1.0, size=(8, 3))
        cells = [[0, 1, 2, 3], [4, 5, 6, 7]]
        mesh = Mesh(vertices, cells)
        again = parse_mesh(dump_mesh(mesh))
        assert np.array_equal(again.vertices, mesh.vertices)  # bitwise
        assert np.array_equal(again.cells, mesh.cells)
        third = parse_mesh(dump_mesh(again))
        assert np.array_equal(third.vertices, mesh.vertices)

    def test_load_mesh_from_disk(self, tmp_path):
        path = tmp_path / "tet.json"
        path.write_text(json.dumps(TETRA_DOC))
        assert load_mesh(path).cell_count == 1

    def test_load_mesh_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="cannot read"):
            load_mesh(tmp_path / "nope.json")


class TestValidateMesh:
    def test_clean_mesh(self):
        report = validate_mesh(glued_pair_mesh())
        assert report.is_clean

    def test_degenerate_cell_flagged(self):
        # Degeneracy is mesh_quality's decision; validation checks references only.
        mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])
        assert mesh_quality(mesh).degenerate_cells == (0,)
        assert validate_mesh(mesh).is_clean

    def test_unused_vertex_flagged(self):
        doc_vertices = TETRA_DOC["vertices"] + [[9.0, 9.0, 9.0]]
        mesh = Mesh(doc_vertices, [[0, 1, 2, 3]])
        assert validate_mesh(mesh).unused_vertices == (4,)

    def test_duplicate_cells_flagged(self):
        mesh = Mesh(TETRA_DOC["vertices"], [[0, 1, 2, 3], [3, 2, 1, 0]])
        assert validate_mesh(mesh).duplicate_cells == (1,)


class TestConformity:
    def test_glued_pair_is_conforming(self):
        report = validate_mesh(glued_pair_mesh())
        assert report.is_conforming
        assert report.interior_facets == 1
        assert report.boundary_facets == 6

    def test_three_cells_sharing_a_facet(self):
        report = validate_mesh(overshared_triple_mesh())
        assert not report.is_conforming
        assert report.is_clean  # an over-shared facet is no referential problem
        assert report.overshared_facets == (((0, 1, 2), 3),)

    def test_single_cell_is_conforming(self):
        report = validate_mesh(parse_mesh(json.dumps(TETRA_DOC)))
        assert report.is_conforming
        assert report.boundary_facets == 4
        assert report.interior_facets == 0


class TestQualityReport:
    def build(self, mesh, alpha0=None, dsine_min=None):
        quality = mesh_quality(mesh)
        verdicts = []
        if alpha0 is not None:
            verdicts.append(verdict_min_dihedral(quality, alpha0))
        if dsine_min is not None:
            verdicts.append(verdict_min_dsine(quality, dsine_min))
        return quality, verdicts

    @staticmethod
    def written(quality, verdicts):
        """The report ``write_report`` writes, decoded."""
        sink = io.StringIO()
        write_report(quality, verdicts, sink)
        return json.loads(sink.getvalue())

    def test_regular_tetrahedron_report_values(self):
        quality, verdicts = self.build(parse_mesh(json.dumps(TETRA_DOC)), alpha0=1.0)
        sink = io.StringIO()
        write_report(quality, verdicts, sink)
        doc = json.loads(sink.getvalue())
        assert doc["aggregates"]["min_dihedral_rad"] == pytest.approx(
            1.0471976, abs=1e-6
        )
        assert doc["cells"][0]["min_dsine"] == pytest.approx(0.7698004, abs=1e-6)
        assert doc["verdicts"][0] == {
            "condition": "min_dihedral",
            "threshold": 1.0,
            "satisfied": True,
            "worst_cell": 0,
            "worst_value": doc["cells"][0]["min_dihedral_rad"],
        }

    def test_aggregates_equal_extrema_of_cells(self):
        doc = self.written(*self.build(glued_pair_mesh(), alpha0=0.5, dsine_min=0.1))
        cells = doc["cells"]
        assert doc["aggregates"]["min_dihedral_rad"] == min(
            c["min_dihedral_rad"] for c in cells
        )
        assert doc["aggregates"]["max_dihedral_rad"] == max(
            c["max_dihedral_rad"] for c in cells
        )
        assert doc["aggregates"]["min_dsine"] == min(c["min_dsine"] for c in cells)
        assert doc["aggregates"]["min_ball_ratio"] == min(
            c["ball_ratio"] for c in cells
        )
        assert len(cells) == 2

    def test_degenerate_cell_row_is_annotated(self):
        mesh = Mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 0.0], [6.0, 0.0], [7.0, 0.0]],
            [[0, 1, 2], [3, 4, 5]],
        )
        doc = self.written(*self.build(mesh, alpha0=0.5))
        assert doc["degenerate_cells"] == [1]
        degenerate_row = doc["cells"][1]
        assert degenerate_row["degenerate"] is True
        assert degenerate_row["min_dsine"] is None

    def test_empty_quality_rejected(self):
        with pytest.raises(InvalidInputError, match="empty mesh"):
            report_to_dict(MeshQuality(3, *[np.empty(0)] * 7), ())

    @pytest.mark.parametrize("verdict", [verdict_min_dihedral, verdict_min_dsine])
    def test_numpy_scalar_threshold_writes_the_same_bytes(self, verdict):
        quality = mesh_quality(glued_pair_mesh())
        for plain, scalar in [(0.5, np.float64(0.5)), (0.5, np.float32(0.5)), (1, np.int64(1))]:
            texts = []
            for threshold in (plain, scalar):
                sink = io.StringIO()
                write_report(quality, [verdict(quality, threshold)], sink)
                texts.append(sink.getvalue())
            assert texts[0] == texts[1]
        assert type(verdict(quality, np.float64(0.5)).satisfied) is bool

    def test_value_json_cannot_encode_is_a_type_error(self):
        with pytest.raises(TypeError, match="float32 is not JSON serializable"):
            "".join(_pieces({"x": np.float32(1)}))


class TestFamilyManifest:
    def test_paths_resolve_against_base_dir(self, tmp_path):
        manifest = json.dumps({"meshes": ["a.json", "sub/b.json"]})
        paths = parse_family_manifest(manifest, base_dir=tmp_path)
        assert paths == [tmp_path / "a.json", tmp_path / "sub" / "b.json"]

    def test_absolute_paths_kept(self, tmp_path):
        manifest = json.dumps({"meshes": [str(tmp_path / "abs.json")]})
        assert parse_family_manifest(manifest, base_dir="/elsewhere") == [
            tmp_path / "abs.json"
        ]

    def test_empty_manifest_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_family_manifest(json.dumps({"meshes": []}))

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_family_manifest(json.dumps({"files": ["a.json"]}))


class TestMeshConstruction:
    def test_float_indices_rejected(self):
        with pytest.raises(InvalidInputError, match="not an integer"):
            Mesh(TETRA_DOC["vertices"], [[0.0, 1, 2, 3]])

    @pytest.mark.parametrize("index", [HUGE_INT, -HUGE_INT], ids=["1e5000", "-1e5000"])
    def test_index_past_the_digit_limit_is_named_by_its_length(self, index):
        # No JSON document holds such an int: the decoder refuses it, so only Mesh sees it.
        with pytest.raises(InvalidInputError) as error:
            Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, index]])
        assert str(error.value) == f"cell 0: vertex index {shown(index)} out of range 0..2"

    @pytest.mark.parametrize("row", [5, None, {0, 1, 2, 3}, {0: 1, 1: 2, 2: 3, 3: 0}, "0123"])
    def test_row_that_is_not_a_sequence_named(self, row):
        with pytest.raises(InvalidInputError) as error:
            Mesh(TETRA_DOC["vertices"], [[0, 1, 2, 3], row])
        assert str(error.value) == "cell 1: expected an array of vertex indices"

    def test_no_cells_rejected(self):
        with pytest.raises(InvalidInputError):
            Mesh(TETRA_DOC["vertices"], [])

    @pytest.mark.parametrize("cells", [[], 5, None, "abc", np.zeros((0, 4), dtype=int)])
    def test_cells_that_are_not_a_nonempty_row_sequence_rejected(self, cells):
        with pytest.raises(InvalidInputError) as error:
            Mesh(TETRA_DOC["vertices"], cells)
        assert str(error.value) == "cells must be a nonempty array of index arrays"

    def test_nonfinite_vertex_rejected(self):
        bad = [[0.0, 0.0, math.nan]] + TETRA_DOC["vertices"][1:]
        with pytest.raises(InvalidInputError):
            Mesh(bad, [[0, 1, 2, 3]])


class TestStructuralErrors:
    """Whole-array checks must name the same first bad cell, with the same message, as a scan."""

    VERTICES = TETRA_DOC["vertices"]
    GOOD = [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0, True, 2, 3], "cell 2: vertex index True is not an integer"),
            ([0, 1.0, 2, 3], "cell 2: vertex index 1.0 is not an integer"),
            ([0, 1, 2, 4], "cell 2: vertex index 4 out of range 0..3"),
            ([-1, 1, 2, 3], "cell 2: vertex index -1 out of range 0..3"),
            ([0, 1, 2, 10**400], f"cell 2: vertex index {10**400} out of range 0..3"),
            ([0, 1, 1, 3], "cell 2: repeated vertex index in [0, 1, 1, 3]"),
            ([0, 1, 2], "cell 2: expected 4 vertex indices for dimension 3, got 3"),
            ([0, 1, 2, 3, 0], "cell 2: expected 4 vertex indices for dimension 3, got 5"),
            ([0, 1, 1], "cell 2: expected 4 vertex indices for dimension 3, got 3"),
            ([0, 9, 2.5, 3], "cell 2: vertex index 9 out of range 0..3"),
            ([1, True, 2, 3], "cell 2: vertex index True is not an integer"),
        ],
    )
    def test_first_bad_cell_is_named(self, bad, message):
        # A later cell breaking a different rule must not be the one reported.
        cells = [self.GOOD, [3, 2, 1, 0], bad, [0.5, 1, 2, 3], [0, 0, 0]]
        with pytest.raises(InvalidInputError) as mesh_error:
            Mesh(self.VERTICES, cells)
        assert str(mesh_error.value) == message
        with pytest.raises(InvalidInputError) as parse_error:
            parse_mesh(json.dumps(dict(TETRA_DOC, cells=cells)))
        assert str(parse_error.value) == message

    def test_bad_row_before_a_non_array_row_is_named(self):
        cells = [[0, 1, 2], 7]
        message = "cell 0: expected 4 vertex indices for dimension 3, got 3"
        with pytest.raises(InvalidInputError) as mesh_error:
            Mesh(self.VERTICES, cells)
        assert str(mesh_error.value) == message
        with pytest.raises(InvalidInputError) as parse_error:
            parse_mesh(json.dumps(dict(TETRA_DOC, cells=cells)))
        assert str(parse_error.value) == message

    def test_ragged_cells_name_the_first_short_row(self):
        cells = [self.GOOD] * 5 + [[0, 1]] + [self.GOOD, [0, 1, 2, 3, 0, 1]]
        with pytest.raises(InvalidInputError, match=r"^cell 5: expected 4 vertex indices"):
            Mesh(self.VERTICES, cells)

    def test_numpy_bool_index_rejected(self):
        # numpy 2 spells the value np.True_.
        with pytest.raises(InvalidInputError, match=r"^cell 0: vertex index (np\.)?True_? is not"):
            Mesh(self.VERTICES, [[np.bool_(True), 0, 2, 3]])

    @pytest.mark.parametrize(
        "cells",
        [
            [(0, 1, 2, 3), (3, 2, 1, 0)],
            np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.int32),
            np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.uint64),
            [[np.int16(0), 1, 2, 3], [np.uint64(3), 2, 1, 0]],
        ],
    )
    def test_integer_types_accepted(self, cells):
        mesh = Mesh(self.VERTICES, cells)
        assert mesh.cells.dtype == np.int64
        assert mesh.cells.tolist() == [[0, 1, 2, 3], [3, 2, 1, 0]]
        assert not mesh.cells.flags.writeable

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([[0.0, 0.0, 0.0], [1.0, 0.0], [0.0, "x", 0.0]],
             "vertex 1: expected 3 coordinates, got 2"),
            ([[0.0, 0.0, 0.0], [1.0, True, 0.0], [0.0, 0.0]],
             "vertex 1: coordinate True is not a number"),
            ([[0.0, 0.0, 0.0], [1.0, None, 0.0]], "vertex 1: coordinate None is not a number"),
            ([[0.0, 0.0, 0.0], 5, [0.0, 0.0]], "vertex 1: expected 3 coordinates, got int"),
            ([[0.0, 0.0, 0.0], {"x": 1}], "vertex 1: expected 3 coordinates, got dict"),
            ([[0.0, 0.0, 0.0], [1.0, "0", 0.0]], "vertex 1: coordinate '0' is not a number"),
            ([[0, 0, 0], [1, 0, 0], [0, False, 1]], "vertex 2: coordinate False is not a number"),
            (np.eye(3, dtype=bool), "vertex 0: coordinate True is not a number"),
            (np.array([["0", "0", "0"], ["1", "0", "0"]]),
             "vertex 0: coordinate '0' is not a number"),
            ([[0.0, 0.0, 0.0], [1.0, math.nan, 0.0]], "vertex 1: coordinate nan is not finite"),
            ([[0.0, 0.0, 0.0], [1.0, 0.0, math.inf]], "vertex 1: coordinate inf is not finite"),
            ([[0, 0, 0], [10**400, 0, 0]], "vertex 1: coordinate outside the double range"),
            ([[0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "vertex 1: expected 2 coordinates, got 3"),
            ([], "vertices must be a nonempty array of coordinate arrays"),
        ],
    )
    def test_first_bad_vertex_is_named(self, vertices, message):
        # One rule for every entry point; the document declares vertex 0's length,
        # and json.dumps writes NaN and inf as the literals NaN and Infinity.
        rows = vertices.tolist() if isinstance(vertices, np.ndarray) else vertices
        doc = {"ambient_dimension": len(rows[0]) if rows else 3, "vertices": rows,
               "cells": [[0, 1, 2]]}
        builds = (Simplex, lambda v: Mesh(v, [[0, 1, 2]]), lambda v: parse_mesh(json.dumps(doc)))
        for build in builds:
            with pytest.raises(InvalidInputError) as error:
                build(vertices)
            assert str(error.value) == message

    @pytest.mark.parametrize("dtype", [np.longdouble, object])
    def test_long_double_past_the_double_range_is_out_of_range(self, dtype):
        # Finite in its own type (where long double is wider than double), so not "not finite".
        with np.errstate(over="ignore"):
            big = np.longdouble(10) ** 400
        if not np.isfinite(big):
            pytest.skip("long double is no wider than double here")
        vertices = np.array([[0, 0], [1, 0], [0, big]], dtype=dtype)
        for build in (Simplex, lambda v: Mesh(v, [[0, 1, 2]])):
            with pytest.raises(InvalidInputError) as error:
                build(vertices)
            assert str(error.value) == "vertex 2: coordinate outside the double range"
        infinite = np.array([[0, 0], [np.longdouble("inf"), 0]], dtype=dtype)
        with pytest.raises(InvalidInputError, match=r"^vertex 1: coordinate .*inf.* is not finite"):
            Simplex(infinite)

    @pytest.mark.parametrize(
        "convert",
        [
            lambda v: v.astype(np.float32),
            lambda v: v.astype(np.int64),
            lambda v: [tuple(row) for row in v.tolist()],
            list,  # a list of ndarray rows
            lambda v: v.astype(object),
        ],
        ids=["float32", "int", "tuple-rows", "array-rows", "object-array"],
    )
    def test_real_coordinate_forms_accepted(self, convert):
        expected = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -3.0]])
        for vertices in (Simplex(convert(expected)).vertices,
                         Mesh(convert(expected), [[0, 1, 2, 3]]).vertices):
            assert vertices.dtype == np.float64 and not vertices.flags.writeable
            assert vertices.tobytes() == expected.tobytes()

    def test_non_array_cell_row_named(self):
        doc = dict(TETRA_DOC, cells=[self.GOOD, 7, "abc"])
        with pytest.raises(InvalidInputError, match=r"^cell 1: expected an array of vertex"):
            parse_mesh(json.dumps(doc))

    def test_huge_integer_coordinate_is_an_input_error(self):
        doc = dict(TETRA_DOC, vertices=[[10**400, 0, 0]] + TETRA_DOC["vertices"][1:])
        with pytest.raises(InvalidInputError, match="outside the double range"):
            parse_mesh(json.dumps(doc))

    def test_deep_nesting_is_an_input_error(self):
        deep = '{"ambient_dimension": 3, "vertices": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(InvalidInputError, match="nested too deeply"):
            parse_mesh(deep)
        with pytest.raises(InvalidInputError, match="nested too deeply"):
            parse_family_manifest('{"meshes": ' + "[" * 100_000 + "]" * 100_000 + "}")

    def test_invalid_utf8_is_an_input_error(self):
        with pytest.raises(InvalidInputError, match="not valid UTF-8"):
            parse_mesh(b'{"ambient_dimension": 3, "\xff": 1}')
        with pytest.raises(InvalidInputError, match="not valid UTF-8"):
            parse_family_manifest(b'{"meshes": ["\xff.json"]}')


def _reference_validation(cells):
    """(duplicates, facet counts) by the dict scan over every cell and facet."""
    seen, duplicates, counts = set(), [], {}
    for index, cell in enumerate(cells):
        key = tuple(sorted(cell))
        if key in seen:
            duplicates.append(index)
        seen.add(key)
        for omit in range(len(cell)):
            facet_key = tuple(sorted(cell[:omit] + cell[omit + 1 :]))
            counts[facet_key] = counts.get(facet_key, 0) + 1
    return tuple(duplicates), counts


@st.composite
def planted_meshes(draw):
    """Random cells on a small vertex pool, with planted duplicates and over-shared facets."""
    d = draw(st.integers(2, 4))
    pool = draw(st.integers(d + 2, d + 6))
    subsets = st.lists(st.integers(0, pool - 1), min_size=d + 1, max_size=d + 1, unique=True)
    cells = draw(st.lists(subsets, min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.sampled_from(cells))
        cells.insert(draw(st.integers(0, len(cells))), draw(st.permutations(source)))
    for _ in range(draw(st.integers(0, 3))):
        facet = draw(st.sampled_from(cells))[:d]
        apex = draw(st.sampled_from([v for v in range(pool) if v not in facet]))
        cells.append(draw(st.permutations(facet + [apex])))
    vertices = np.random.default_rng(draw(st.integers(0, 99))).uniform(size=(pool, d))
    return Mesh(vertices, cells), cells


class TestValidationAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(planted_meshes())
    def test_duplicates_and_facets_match_dict_scan(self, planted):
        mesh, cells = planted
        duplicates, counts = _reference_validation(cells)
        report = validate_mesh(mesh)
        assert report.duplicate_cells == duplicates
        used = {v for cell in cells for v in cell}
        unused = tuple(v for v in range(mesh.vertex_count) if v not in used)
        assert report.unused_vertices == unused
        assert report.facet_count == len(counts)
        assert report.boundary_facets == sum(c == 1 for c in counts.values())
        assert report.interior_facets == sum(c == 2 for c in counts.values())
        assert report.overshared_facets == tuple(
            (key, count) for key, count in sorted(counts.items()) if count > 2
        )
        assert report.is_conforming == all(c <= 2 for c in counts.values())
        assert all(type(v) is int for key, count in report.overshared_facets
                   for v in (*key, count))

    def test_planted_defects_on_a_refined_mesh(self):
        # A 3x3 grid of squares, two triangles each.
        side = 4
        vertices = [[x, y] for x in range(side) for y in range(side)]
        cells = []
        for x, y in itertools.product(range(side - 1), repeat=2):
            v = x * side + y
            cells += [[v, v + side, v + side + 1], [v, v + 1, v + side + 1]]
        cells.insert(5, cells[2][::-1])
        cells.append([cells[0][0], cells[0][1], 15])
        cells.append([cells[0][1], cells[0][0], 11])
        mesh = Mesh(vertices, cells)
        duplicates, counts = _reference_validation(cells)
        report = validate_mesh(mesh)
        assert report.duplicate_cells == duplicates == (5,)
        overshared = report.overshared_facets
        assert overshared == tuple((k, c) for k, c in sorted(counts.items()) if c > 2)
        assert (tuple(sorted(cells[0][:2])), 3) in overshared


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-5])
)
KEYS = st.sampled_from(["index", "value", "%", "%s", "%(x)s", "a, b", '"q"', "é", "\u2603"])
TEXT = st.text() | st.sampled_from(["%", "%s%%", ", ", "a, b", '", "', "é ü", "\u2603", "\x00"])
RECORDS = st.lists(st.dictionaries(KEYS, SCALARS, max_size=5), max_size=6)
DOCS = st.recursive(
    SCALARS | TEXT,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(KEYS | TEXT, children, max_size=5)
    | RECORDS,
    max_leaves=40,
)


class TestJsonWriter:
    """``_pieces`` must join to ``json.dumps(value, indent=2)`` and a newline, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(DOCS)
    @example({"cells": [{"index": 0, "min": 1.5}, {"index": 1, "degenerate": True}, {}]})
    @example({"values": [math.nan, math.inf, -math.inf, -0.0, 10**30, True, False, None]})
    @example([{"%s": 1, "a, b": 2.5}, {"a, b": None, "%s": -0.0}, {"%%": "x, y"}])
    @example({"nested": [[], {}, [{}], [[1, 2], [3.5]], "", "é, %s"]})
    @example({1: [1.5], "a": {None: True, 2.5: "x"}})
    @example([{"a": 1}, {2: 3}, {"a": [1, {"b": None}]}])
    @example((1, (2.5, "x"), [{"t": (1,)}]))
    def test_matches_json_dumps(self, doc):
        assert "".join(_pieces(doc)) == json.dumps(doc, indent=2) + "\n"

    def test_reports_and_meshes_match_json_dumps(self):
        mesh = overshared_triple_mesh()
        quality = mesh_quality(mesh)
        verdicts = [verdict_min_dihedral(quality, 1.0)]
        sink = io.StringIO()
        write_report(quality, verdicts, sink)
        assert sink.getvalue() == json.dumps(report_doc(quality, verdicts), indent=2) + "\n"
        doc = {
            "ambient_dimension": 3,
            "vertices": mesh.vertices.tolist(),
            "cells": mesh.cells.tolist(),
        }
        assert dump_mesh(mesh) == json.dumps(doc, indent=2) + "\n"


ROW_VALUES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e300, -1e300, 1e-300, -1e-300]
)


@st.composite
def qualities(draw, good=None):
    """A MeshQuality of random columns over a random split of 1-8 cells into good and degenerate."""
    if good is None:
        good = draw(st.lists(st.booleans(), min_size=1, max_size=8))
    good = np.array(good)
    size = int(good.sum())
    columns = [
        np.array(draw(st.lists(ROW_VALUES, min_size=size, max_size=size)), dtype=float)
        for _ in range(6)
    ]
    degenerate = tuple(np.flatnonzero(~good).tolist())
    return MeshQuality(draw(st.integers(2, 5)), np.flatnonzero(good), *columns, degenerate)


class TestRowRenderer:
    """A report's rows, rendered from the columns, against the oracle's dict per cell."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(qualities(), qualities(good=[False] * 3), qualities(good=[True] * 4)))
    def test_reports_match_json_dumps_of_the_oracle(self, quality):
        # Random angles are not angles: their sines and margins may be NaN.
        with np.errstate(all="ignore"):
            verdicts = [verdict_min_dihedral(quality, 0.5), verdict_min_dsine(quality, 0.5)]
            check = report_to_dict(quality, verdicts)
            pairs = [
                (check, report_doc(quality, verdicts)),
                (audit_to_dict(quality), audit_doc(quality)),
            ]
        for doc, expected in pairs:
            assert "".join(_pieces(doc)) == json.dumps(expected, indent=2) + "\n"
            member = {"meshes": [{"index": 0, "path": "m.json", **doc}]}
            expected = {"meshes": [{"index": 0, "path": "m.json", **expected}]}
            assert "".join(_pieces(member)) == json.dumps(expected, indent=2) + "\n"


class RecordingSink:
    """A text sink that keeps each write apart."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)


class TestDistinctValues:
    """A chunk encodes each distinct bit pattern once, so equal values share one text."""

    def test_signed_zeros_and_repeats_keep_their_own_text(self):
        values = [0.0, -0.0, 0.0, math.nan, -0.0, 1.5, 1.5, math.inf, -math.inf, 0.1]
        column = np.array(values)
        quality = MeshQuality(3, np.arange(len(values)), *[column] * 6)
        verdicts = [verdict_min_dihedral(quality, 0.5)]
        text = "".join(_pieces(report_to_dict(quality, verdicts)))
        assert text == json.dumps(report_doc(quality, verdicts), indent=2) + "\n"
        cells = json.loads(text)["cells"]
        assert [repr(row["min_dsine"]) for row in cells] == [repr(value) for value in values]


class TestStreamedTables:
    """A report reaches its sink in pieces: none holds more than ``_CHUNK_ROWS`` rows beyond
    the document's skeleton, so the text held at once does not grow with the mesh."""

    def test_no_piece_holds_more_than_a_chunk_of_rows(self):
        quality = mesh_quality(kuhn_mesh(2, 40, seed=4))
        assert len(quality.cells) + len(quality.degenerate_cells) == 3200
        verdicts = [verdict_min_dihedral(quality, 0.5)]
        for write in (
            lambda sink: write_report(quality, verdicts, sink),
            lambda sink: sink.pieces.extend(_pieces(audit_to_dict(quality))),
        ):
            sink = RecordingSink()
            write(sink)
            decoded = json.loads("".join(sink.pieces))
            skeleton = json.dumps({**decoded, "cells": []}, indent=2).count("\n") + 1
            row = max(len(cell) for cell in decoded["cells"]) + 2  # its fields and braces
            assert len(sink.pieces) > 1
            assert max(piece.count("\n") for piece in sink.pieces) <= _CHUNK_ROWS * row + skeleton
