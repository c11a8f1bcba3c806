"""The public names of the package, their parameters, and the README's examples of them.

Adding or removing a name or a parameter must show up here.
"""

import argparse
import ast
import importlib
import inspect
import re
import types
import typing
from pathlib import Path

import minangle
from minangle.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# Defining submodule -> the public names it contributes.
DEFINING_MODULE_NAMES = {
    "errors": {
        "DegeneracyError",
        "GenerationError",
        "InvalidInputError",
        "MinAngleError",
    },
    "generators": {
        "corner_simplex",
        "flatten_family",
        "needle_family",
        "random_simplex",
        "regular_simplex",
    },
    "meshio": {
        "ValidationReport",
        "dump_mesh",
        "load_mesh",
        "parse_mesh",
        "validate_mesh",
        "write_report",
    },
    "regularity": {
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
    },
}
PUBLIC_NAMES = set().union(*DEFINING_MODULE_NAMES.values())

# Public function or class -> the names of the parameters it takes.  A record's
# constructor takes its fields (tests/test_records.py pins their defaults).
PARAMETERS = {
    "ConditionVerdict": (
        "condition", "threshold_used", "satisfied", "worst_cell", "worst_value",
        "degenerate_cells",
    ),
    "DihedralAngleSet": ("simplex_dim", "angles"),
    "Mesh": ("vertices", "cells"),
    "MeshQuality": (
        "ambient_dim", "cells", "min_dihedral_all_sub", "max_dihedral_all_sub",
        "min_vertex_dsine", "ball_ratio", "dihedral_sum_top", "forward_margin",
        "degenerate_cells",
    ),
    "ProductDecomposition": (
        "vertex_index", "sub_sine", "dihedral_sines", "product", "d_sine", "residual",
    ),
    "Simplex": ("vertices",),
    "ValidationReport": (
        "facet_count", "boundary_facets", "interior_facets", "overshared_facets",
        "unused_vertices", "duplicate_cells",
    ),
    "all_dihedral_angles": ("s",),
    "cell_quality": ("s",),
    "certified_dsine_bound": ("alpha0", "gamma0", "d"),
    "corner_simplex": ("d",),
    "dump_mesh": ("mesh",),
    "facet": ("s", "i"),
    "flatten_family": ("d", "t"),
    "is_degenerate": ("s", "degeneracy_rel_tol"),
    "load_mesh": ("path",),
    "mesh_quality": ("mesh", "degeneracy_rel_tol"),
    "needle_family": ("d", "t"),
    "outward_unit_normals": ("s",),
    "parse_mesh": ("source",),
    "product_decomposition": ("s", "i"),
    "random_simplex": ("d", "seed", "min_quality"),
    "regular_simplex": ("d",),
    "simplex_measure": ("s",),
    "validate_mesh": ("mesh",),
    "verdict_min_dihedral": ("quality", "alpha0"),
    "verdict_min_dsine": ("quality", "dsine_min"),
    "vertex_sines": ("s",),
    "write_report": ("quality", "verdicts", "sink"),
}

# CLI command -> the values it lets a caller set: its positional arguments by dest, then its
# long options (help aside).  The command line's counterpart of PARAMETERS.
CLI_OPTIONS = {
    "check": ("mesh", "--alpha0", "--dsine-min", "--report", "--degeneracy-tol"),
    "audit": ("mesh", "--report", "--degeneracy-tol"),
    "family": ("manifest", "--alpha0", "--dsine-min", "--report", "--degeneracy-tol"),
    "generate": ("--kind", "--dim", "--param", "--seed", "--output"),
    "info": ("mesh", "--degeneracy-tol"),
}

# Importing module -> {defining module: the private names it imports from there}: how far the
# modules reach into each other.  The coupling counterpart of CLI_OPTIONS.
PRIVATE_IMPORTS = {
    "cli": {
        "meshio": {"_ESCAPES", "_family_meshes", "_pieces"},
        "regularity": {"_tolerance"},
    },
    "generators": {
        "regularity": {"_require_index", "_require_integer", "_require_real", "_shown"},
    },
    "meshio": {
        "regularity": {"_Record", "_combinations", "_coordinates", "_require_integer"},
    },
}


def test_public_names_are_the_listed_ones():
    assert len(PUBLIC_NAMES) == 35
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


def test_modules_are_the_defining_ones_and_cli():
    # No module only re-exports another's names, and none lies outside the table.
    modules = {path.stem for path in (ROOT / "src" / "minangle").glob("*.py")}
    assert modules == {*DEFINING_MODULE_NAMES, "cli", "__init__"}


def test_private_imports_are_the_listed_ones():
    imports = {}
    for path in (ROOT / "src" / "minangle").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                names = {alias.name for alias in node.names if alias.name.startswith("_")}
                if names:
                    imports.setdefault(path.stem, {}).setdefault(node.module, set()).update(names)
    assert imports == PRIVATE_IMPORTS
    assert sum(len(names) for by_module in imports.values() for names in by_module.values()) == 12


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(minangle, "no_such_name")
    # The CLI maps a generator kind's name to its generator; the library has no such name.
    assert not hasattr(minangle, "generate")
    # A family's manifest is read only by `minangle family`, against the manifest's directory.
    assert not hasattr(minangle, "parse_family_manifest")


def parameters(obj) -> tuple[str, ...]:
    """The parameter names of a public callable; a record's come from its fields."""
    if isinstance(obj, type) and hasattr(obj, "_fields"):
        # The record base's __init__ takes *args and **kwargs and checks them against _fields.
        assert tuple(inspect.signature(obj).parameters) == ("args", "kwargs")
        return obj._fields
    return tuple(inspect.signature(obj).parameters)


def test_parameters_are_the_listed_ones():
    public = {name: getattr(minangle, name) for name in PUBLIC_NAMES}
    # The errors take a message, as every exception does.
    errors = {name for name, obj in public.items() if isinstance(obj, type)
              and issubclass(obj, Exception)}
    assert set(PARAMETERS) == {name for name, obj in public.items() if callable(obj)} - errors
    assert {name: parameters(getattr(minangle, name)) for name in PARAMETERS} == PARAMETERS


def annotated(obj) -> list:
    """A public function, or a public class's own __init__, methods and property getters."""
    if not isinstance(obj, type):
        return [obj]
    members = [m.fget if isinstance(m, property) else m for m in vars(obj).values()]
    return [m for m in members if inspect.isfunction(m)]


def test_every_public_annotation_resolves():
    # Each module postpones its annotations, so a name one of them uses but its module does
    # not import goes unnoticed until a caller resolves it.
    public = [getattr(minangle, name) for name in sorted(PUBLIC_NAMES)]
    functions = [f for obj in public if callable(obj) for f in annotated(obj)]
    assert minangle.mesh_quality in functions and minangle.Mesh.cell_simplex in functions
    for function in functions:
        typing.get_type_hints(function)
    assert typing.get_type_hints(minangle.mesh_quality)["mesh"] is minangle.Mesh


def test_cli_options_are_the_listed_ones():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {}
    for name, sub in commands.choices.items():
        settable = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        options[name] = tuple(
            next((o for o in a.option_strings if o.startswith("--")), a.dest) for a in settable
        )
    assert options == CLI_OPTIONS
    assert sum(map(len, CLI_OPTIONS.values())) == 20


def test_readme_library_blocks_run(tmp_path, monkeypatch):
    # The two Python blocks of "## Library" run in order, in one namespace, on a
    # regular tetrahedron named as they name it; CI runs them once more on the
    # installed package.
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2, len(blocks)
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--kind", "regular", "--dim", "3", "-o", "mesh.json"]) == 0
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["quality"].audit_satisfied()
