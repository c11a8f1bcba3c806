"""The public names of the package: adding or removing one must show up here."""

import importlib
import types

import minangle

# Defining submodule -> the public names it contributes.
DEFINING_MODULE_NAMES = {
    "angles": {
        "DihedralAngleSet",
        "ProductDecomposition",
        "all_dihedral_angles",
        "ball_ratio",
        "dihedral_sum",
        "product_decomposition",
        "vertex_sines",
    },
    "errors": {
        "DegeneracyError",
        "GenerationError",
        "InvalidInputError",
        "MinAngleError",
    },
    "generators": {
        "corner_simplex",
        "flatten_family",
        "generate",
        "needle_family",
        "random_simplex",
        "regular_simplex",
    },
    "geometry": {
        "DEFAULT_TOLERANCES",
        "Simplex",
        "ToleranceConfig",
        "facet",
        "is_degenerate",
        "outward_unit_normals",
        "simplex_measure",
    },
    "meshio": {
        "ConformityReport",
        "Mesh",
        "ValidationReport",
        "conformity_check",
        "dump_mesh",
        "load_mesh",
        "parse_family_manifest",
        "parse_mesh",
        "validate_mesh",
        "write_report",
    },
    "regularity": {
        "AUDIT_TOLERANCE",
        "ConditionVerdict",
        "MeshQuality",
        "cell_quality",
        "certified_dsine_bound",
        "mesh_quality",
        "min_dihedral_over_subsimplices",
        "subsimplex_count",
        "verdict_min_dihedral",
        "verdict_min_dsine",
    },
}
PUBLIC_NAMES = set().union(*DEFINING_MODULE_NAMES.values())


def test_public_names_are_the_listed_ones():
    assert len(PUBLIC_NAMES) == 44
    assert set(minangle.__all__) == PUBLIC_NAMES
    assert len(minangle.__all__) == len(PUBLIC_NAMES)
    public = {
        name
        for name in dir(minangle)
        if not name.startswith("_") and not isinstance(getattr(minangle, name), types.ModuleType)
    }
    assert public == PUBLIC_NAMES


def test_each_name_is_the_object_its_module_defines():
    for module_name, names in DEFINING_MODULE_NAMES.items():
        module = importlib.import_module(f"minangle.{module_name}")
        # The package's table is the one list of public names.
        assert not hasattr(module, "__all__"), module_name
        for name in names:
            assert getattr(minangle, name) is vars(module)[name], name


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(minangle, "no_such_name")
