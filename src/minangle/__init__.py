"""Regularity metrics for simplicial meshes in any dimension.

minangle measures the dihedral angles and vertex d-sines of d-simplices,
checks the two classical mesh regularity conditions built on them (a
lower bound on all subsimplex dihedral angles, and a lower bound on all
vertex d-sines), and numerically audits the equivalence of the two.

The public names below are loaded from their submodules on first access,
so ``import minangle`` imports neither numpy nor any submodule.
"""

import importlib

# Submodule -> the public names it defines: the one list of them, as no submodule has __all__.
_PUBLIC = {
    "angles": (
        "DihedralAngleSet",
        "ProductDecomposition",
        "all_dihedral_angles",
        "product_decomposition",
        "vertex_sines",
    ),
    "errors": ("DegeneracyError", "GenerationError", "InvalidInputError", "MinAngleError"),
    "generators": (
        "corner_simplex",
        "flatten_family",
        "needle_family",
        "random_simplex",
        "regular_simplex",
    ),
    "geometry": (
        "DEGENERACY_REL_TOL",
        "Simplex",
        "facet",
        "is_degenerate",
        "outward_unit_normals",
        "simplex_measure",
    ),
    "meshio": (
        "Mesh",
        "ValidationReport",
        "dump_mesh",
        "load_mesh",
        "parse_mesh",
        "validate_mesh",
        "write_report",
    ),
    "regularity": (
        "AUDIT_TOLERANCE",
        "ConditionVerdict",
        "MeshQuality",
        "cell_quality",
        "certified_dsine_bound",
        "mesh_quality",
        "verdict_min_dihedral",
        "verdict_min_dsine",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _run() -> None:
    """The console script: :func:`minangle.cli.run`, its imports made with the collector off,
    as under ``python -m minangle.cli``."""
    import gc

    gc.disable()
    from .cli import run

    run()
