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
    "errors": ("DegeneracyError", "GenerationError", "InvalidInputError", "MinAngleError"),
    "generators": (
        "corner_simplex",
        "flatten_family",
        "needle_family",
        "random_simplex",
        "regular_simplex",
    ),
    "meshio": (
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
        "DEGENERACY_REL_TOL",
        "DihedralAngleSet",
        "Mesh",
        "MeshQuality",
        "ProductDecomposition",
        "Simplex",
        "all_dihedral_angles",
        "cell_quality",
        "certified_dsine_bound",
        "facet",
        "is_degenerate",
        "mesh_quality",
        "outward_unit_normals",
        "product_decomposition",
        "simplex_measure",
        "verdict_min_dihedral",
        "verdict_min_dsine",
        "vertex_sines",
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
