"""Layer spans around the real CLI for the traced run.

The traced run calls ``minangle.cli.main(argv)`` in-process.  While it runs,
the layer functions that ``minangle.cli`` imported -- and the ``json``
module that ``minangle.cli`` and ``minangle.meshio`` use -- are replaced,
on those modules only, by wrappers that record a span around each call.
Nothing inside ``src/`` is edited, and the command runs its own code: the
self time of the span around ``main`` is the CLI's own share (argparse, the
``info`` table, file writes, family aggregation).

A name the CLI no longer imports is an absent layer: it gets no span and
reports no time.  Single calls into ``regularity`` and ``angles`` are also
timed on a fixed sample of cells (:func:`per_call`).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import types
from pathlib import Path

from spans import Tracer


def _mesh_arg(args, result) -> int:
    return args[0].cell_count


def _audit_arg(args, result) -> int:
    return len(args[0].cells) + len(args[0].degenerate_cells)


def _no_cells(args, result) -> int:
    return 0


def doc_cells(doc) -> int:
    """Cells described by a decoded mesh or an encoded report document."""
    if not isinstance(doc, dict):
        return 0
    if isinstance(doc.get("meshes"), list):
        return sum(doc_cells(member) for member in doc["meshes"])
    cells = doc.get("cells")
    return len(cells) if isinstance(cells, list) else 0


# Names imported by minangle.cli -> (layer, cells the call processed).  The
# JSON decode has its own span inside load_mesh, so load_mesh's self time is
# the mesh construction.  A report is counted once, by build_quality_report
# or audit_to_dict.
CLI_LAYERS = {
    "load_mesh": ("meshio.mesh_build", lambda args, result: result.cell_count),
    "validate_mesh": ("meshio.validate_mesh", _mesh_arg),
    "conformity_check": ("meshio.conformity_check", _mesh_arg),
    "build_quality_report": ("meshio.report_build", _mesh_arg),
    "report_to_dict": ("meshio.report_build", _no_cells),
    "audit_to_dict": ("meshio.report_build", _audit_arg),
    "mesh_quality": ("regularity.mesh_quality", _mesh_arg),
    "equivalence_audit": ("regularity.equivalence_audit", _mesh_arg),
    "verdict_min_dihedral": ("regularity.verdicts", _no_cells),
    "verdict_min_dsine": ("regularity.verdicts", _no_cells),
}
# (module, json function) -> layer.
JSON_LAYERS = {
    ("meshio", "loads"): ("meshio.json_decode", lambda args, result: doc_cells(result)),
    ("cli", "dumps"): ("meshio.json_dumps", lambda args, result: doc_cells(args[0])),
}

# Single-call layers timed on the cell sample: metric -> (module, function).
PER_CALL = {
    "regularity.cell_quality_us": ("regularity", "cell_quality"),
    "regularity.min_dihedral_over_subsimplices_us": ("regularity", "min_dihedral_over_subsimplices"),
    "angles.all_dihedral_angles_us": ("angles", "all_dihedral_angles"),
    "angles.vertex_sines_us": ("angles", "vertex_sines"),
    "angles.ball_ratio_us": ("angles", "ball_ratio"),
    "angles.dihedral_sum_us": ("angles", "dihedral_sum"),
}
SAMPLE_CELLS = 16
SAMPLE_REPEATS = 3


def _module(name: str):
    try:
        return importlib.import_module(f"minangle.{name}")
    except ModuleNotFoundError:
        return None


def _spanned(tracer: Tracer, layer: str, count, func):
    def call(*args, **kwargs):
        with tracer.span(layer) as span:
            result = func(*args, **kwargs)
        span.cells = count(args, result)
        return result

    return call


@contextlib.contextmanager
def _patched(tracer: Tracer, absent: set[str]):
    """Swap the spanned wrappers in for the duration of the block."""
    cli, meshio = _module("cli"), _module("meshio")
    saved = []

    def swap(module, name, value):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    for name, (layer, count) in CLI_LAYERS.items():
        func = getattr(cli, name, None)
        if func is None:
            absent.add(f"cli.{name}")
        else:
            swap(cli, name, _spanned(tracer, layer, count, func))
    for (where, name), (layer, count) in JSON_LAYERS.items():
        module = {"cli": cli, "meshio": meshio}[where]
        if getattr(module, "json", None) is not json:
            absent.add(f"{where}.json.{name}")
            continue
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        setattr(proxy, name, _spanned(tracer, layer, count, getattr(json, name)))
        swap(module, "json", proxy)
    try:
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def traced_main(tracer: Tracer, command: str, argv: list[str], absent: set[str]) -> int | None:
    """Run ``minangle.cli.main(argv)`` inside a ``cli.<command>`` span.

    Returns its exit code, or None when ``main`` itself is gone.
    """
    main = getattr(_module("cli"), "main", None)
    if main is None:
        absent.add("cli.main")
        return None
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink), _patched(tracer, absent), \
            tracer.span(f"cli.{command}"):
        return main(argv)


def per_call(tracer: Tracer, path: Path, skip: frozenset[int], absent: set[str]) -> dict[str, float]:
    """Median microseconds per call of each single-simplex layer.

    The sample is up to ``SAMPLE_CELLS`` evenly spaced cells, leaving out
    the cells in ``skip`` (exactly collapsed ones).
    """
    load_mesh = getattr(_module("meshio"), "load_mesh", None)
    if load_mesh is None:
        absent.add("meshio.load_mesh")
        return {metric: 0.0 for metric in PER_CALL}
    mesh = load_mesh(path)
    good = [i for i in range(mesh.cell_count) if i not in skip]
    sample = good[:: max(1, len(good) // SAMPLE_CELLS)][:SAMPLE_CELLS]
    simplices = [mesh.cell_simplex(i) for i in sample]
    result = {}
    for metric, (module, name) in PER_CALL.items():
        func = getattr(_module(module), name, None)
        if func is None:
            absent.add(f"{module}.{name}")
            result[metric] = 0.0
            continue
        layer = metric.removesuffix("_us")
        for _ in range(SAMPLE_REPEATS):
            for simplex in simplices:
                with tracer.span(layer, cells=1):
                    func(simplex)
        result[metric] = statistics.median(tracer.durations(layer)) * 1e6
    return result


def import_times(stderr: str) -> tuple[float, float]:
    """(numpy, everything else) in ms from ``python -X importtime`` output.

    Top-level entries sum to the whole import; numpy's cumulative time is
    taken out of it wherever numpy appears.
    """
    total = numpy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        name = parts[2].rstrip()
        try:
            cumulative = float(parts[1])
        except ValueError:
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        if name.strip() == "numpy":
            numpy += cumulative
        if depth == 1:
            total += cumulative
    return numpy / 1e3, (total - numpy) / 1e3
