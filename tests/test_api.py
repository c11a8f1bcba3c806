"""The public names of the package: adding or removing one must show up here."""

import types

import minangle

PUBLIC_NAMES = {
    # angles
    "DihedralAngleSet",
    "ProductDecomposition",
    "VertexSineSet",
    "all_dihedral_angles",
    "ball_ratio",
    "d_sine",
    "dihedral_angle",
    "dihedral_sum",
    "inradius",
    "product_decomposition",
    "vertex_sines",
    # errors
    "DegeneracyError",
    "GenerationError",
    "InvalidInputError",
    "MinAngleError",
    # generators
    "GeneratorSpec",
    "corner_simplex",
    "flatten_family",
    "generate",
    "needle_family",
    "random_simplex",
    "regular_simplex",
    # geometry
    "DEFAULT_TOLERANCES",
    "Simplex",
    "ToleranceConfig",
    "facet",
    "is_degenerate",
    "outward_unit_normal",
    "outward_unit_normals",
    "simplex_measure",
    # meshio
    "ConformityReport",
    "Mesh",
    "ValidationReport",
    "conformity_check",
    "dump_mesh",
    "load_mesh",
    "parse_family_manifest",
    "parse_mesh",
    "report_to_dict",
    "validate_mesh",
    "write_report",
    # regularity
    "AUDIT_TOLERANCE",
    "ConditionVerdict",
    "EquivalenceAudit",
    "MeshQuality",
    "SimplexQuality",
    "cell_quality",
    "certified_dsine_bound",
    "check_generalized_condition",
    "check_minimum_angle_condition",
    "equivalence_audit",
    "mesh_quality",
    "min_dihedral_over_subsimplices",
    "min_vertex_dsine",
    "subsimplex_count",
    "subsimplices",
}


def test_public_names_are_the_listed_ones():
    public = {
        name
        for name, value in vars(minangle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
