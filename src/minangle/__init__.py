"""Regularity metrics for simplicial meshes in any dimension.

minangle measures the dihedral angles and vertex d-sines of d-simplices,
checks the two classical mesh regularity conditions built on them (a
lower bound on all subsimplex dihedral angles, and a lower bound on all
vertex d-sines), and numerically audits the equivalence of the two.
"""

from .angles import (
    DihedralAngleSet,
    ProductDecomposition,
    VertexSineSet,
    all_dihedral_angles,
    ball_ratio,
    d_sine,
    dihedral_angle,
    dihedral_sum,
    inradius,
    product_decomposition,
    vertex_sines,
)
from .errors import DegeneracyError, GenerationError, InvalidInputError, MinAngleError
from .generators import (
    GeneratorSpec,
    corner_simplex,
    flatten_family,
    generate,
    needle_family,
    random_simplex,
    regular_simplex,
)
from .geometry import (
    DEFAULT_TOLERANCES,
    Simplex,
    ToleranceConfig,
    facet,
    is_degenerate,
    outward_unit_normal,
    outward_unit_normals,
    simplex_measure,
)
from .meshio import (
    ConformityReport,
    Mesh,
    ValidationReport,
    conformity_check,
    dump_mesh,
    load_mesh,
    parse_family_manifest,
    parse_mesh,
    report_to_dict,
    validate_mesh,
    write_report,
)
from .regularity import (
    AUDIT_TOLERANCE,
    ConditionVerdict,
    EquivalenceAudit,
    MeshQuality,
    SimplexQuality,
    cell_quality,
    certified_dsine_bound,
    check_generalized_condition,
    check_minimum_angle_condition,
    equivalence_audit,
    mesh_quality,
    min_dihedral_over_subsimplices,
    min_vertex_dsine,
    subsimplex_count,
    subsimplices,
)

__version__ = "0.1.0"
