"""Command-line front end for mesh regularity checks.

Commands::

    minangle check <mesh> --alpha0 A [--dsine-min C] [-o report.json]
    minangle audit <mesh> [-o report.json]
    minangle family <manifest> --alpha0 A [--dsine-min C] [-o report.json]
    minangle generate --kind regular --dim 3 [-o mesh.json]
    minangle info <mesh>

Exit codes (usable directly in CI)::

    0  all requested conditions satisfied
    1  a condition or audit margin violated
    2  input error (bad file, bad flags, unreadable manifest member)
    3  degenerate geometry encountered mid-check

Angle thresholds are always given in radians; --degrees only adds degree
annotations to the emitted reports and never changes a verdict.  Reports
go to the path given with -o/--report, or to standard output with ``-o -``.
Identical inputs and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from pathlib import Path
from typing import IO, Any, Callable, Sequence

# minangle gives BLAS no work: its linear algebra is one small (k <= 12) LAPACK
# factorization per matrix.  Yet OpenBLAS starts a thread pool when numpy loads,
# which cost 70-85 ms of every command on a 2-vCPU machine.  The variable only
# takes effect before numpy's first import, and a value the user set is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import DegeneracyError, GenerationError, InvalidInputError
from .geometry import KINDS, ToleranceConfig
from .meshio import (
    Mesh,
    _cell_lines,
    _quality_columns,
    _read_file,
    _write,
    audit_to_dict,
    conformity_check,
    dump_mesh,
    load_mesh,
    parse_family_manifest,
    report_to_dict,
    validate_mesh,
)
from .regularity import mesh_quality, verdict_min_dihedral, verdict_min_dsine

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minangle",
        description=(
            "Measure dihedral angles and vertex d-sines of simplicial meshes, "
            "check minimum-angle regularity conditions, and audit their equivalence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check regularity conditions against thresholds")
    check.add_argument("mesh", help="mesh file in the canonical JSON format")
    _add_threshold_args(check)
    _add_report_args(check)
    check.set_defaults(func=cmd_check)

    audit = sub.add_parser("audit", help="audit the equivalence of the two conditions")
    audit.add_argument("mesh", help="mesh file in the canonical JSON format")
    _add_report_args(audit)
    audit.set_defaults(func=cmd_audit)

    family = sub.add_parser("family", help="check every mesh of a family manifest")
    family.add_argument("manifest", help="manifest JSON listing mesh files, coarse to fine")
    _add_threshold_args(family)
    _add_report_args(family)
    family.set_defaults(func=cmd_family)

    gen = sub.add_parser("generate", help="write a single-cell mesh from a generator")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--dim", required=True, type=int)
    gen.add_argument(
        "--param",
        type=float,
        default=None,
        help="family parameter t for flatten/needle, quality floor for random",
    )
    gen.add_argument("--seed", type=int, default=0, help="random generator seed")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("-o", "--output", default="-", help="output path, or - for stdout")
    gen.set_defaults(func=cmd_generate)

    info = sub.add_parser("info", help="print mesh statistics, conformity, and quality")
    info.add_argument("mesh", help="mesh file in the canonical JSON format")
    info.add_argument("--degeneracy-tol", type=float, default=None, dest="degeneracy_tol")
    info.set_defaults(func=cmd_info)

    return parser


def _add_threshold_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha0", type=float, default=None, help="dihedral lower bound in radians")
    sub.add_argument(
        "--dsine-min", type=float, default=None, dest="dsine_min", help="d-sine lower bound"
    )


def _add_report_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--report", default="-", help="report path, or - for stdout")
    sub.add_argument(
        "--degrees",
        action="store_true",
        help="annotate report angles in degrees (verdicts are unaffected)",
    )
    sub.add_argument("--degeneracy-tol", type=float, default=None, dest="degeneracy_tol")


def _tolerances(args: argparse.Namespace) -> ToleranceConfig:
    if getattr(args, "degeneracy_tol", None) is None:
        return ToleranceConfig()
    return ToleranceConfig(degeneracy_rel_tol=args.degeneracy_tol)


def _emit(render: Callable[[IO[str]], Any], destination: str) -> None:
    if destination != "-":
        with Path(destination).open("w") as sink:
            render(sink)
        return
    try:
        render(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left, as `| head` does; on devnull the flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_json(doc: dict[str, Any], destination: str) -> None:
    _emit(lambda sink: _write(doc, sink.write) or sink.write("\n"), destination)


def _require_threshold(args: argparse.Namespace) -> None:
    if args.alpha0 is None and args.dsine_min is None:
        raise InvalidInputError("at least one of --alpha0 / --dsine-min is required")


def _check_report(mesh: Mesh, cfg: ToleranceConfig, args: argparse.Namespace) -> dict[str, Any]:
    """The ``check`` report of one mesh under the requested thresholds."""
    quality = mesh_quality(mesh, cfg)
    verdicts = []
    if args.alpha0 is not None:
        verdicts.append(verdict_min_dihedral(quality, args.alpha0))
    if args.dsine_min is not None:
        verdicts.append(verdict_min_dsine(quality, args.dsine_min))
    return report_to_dict(quality, verdicts, args.degrees)


def _check_exit(docs: list[dict[str, Any]]) -> int:
    """The exit code of ``check`` reports: degenerate geometry first, then any violation."""
    if any("degenerate_cells" in doc for doc in docs):
        return EXIT_DEGENERATE
    if any(not verdict["satisfied"] for doc in docs for verdict in doc["verdicts"]):
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    _require_threshold(args)
    cfg = _tolerances(args)
    doc = _check_report(load_mesh(args.mesh), cfg, args)
    _emit_json(doc, args.report)
    return _check_exit([doc])


def cmd_audit(args: argparse.Namespace) -> int:
    cfg = _tolerances(args)
    doc = audit_to_dict(mesh_quality(load_mesh(args.mesh), cfg), degrees=args.degrees)
    _emit_json(doc, args.report)
    if "degenerate_cells" in doc:
        return EXIT_DEGENERATE
    return EXIT_OK if doc["satisfied"] else EXIT_VIOLATED


# Family aggregate -> how the members' values of the same report key combine.
_FAMILY_AGGREGATES = {
    "min_dihedral_rad": min,
    "max_dihedral_rad": max,
    "min_dsine": min,
    "min_ball_ratio": min,
}


def _family_aggregates(mesh_docs: list[dict[str, Any]]) -> dict[str, float | None]:
    """Extrema over the members' report aggregates; None where no member has cells."""
    result = {}
    for key, pick in _FAMILY_AGGREGATES.items():
        values = [doc["aggregates"][key] for doc in mesh_docs]
        result[key] = pick((value for value in values if value is not None), default=None)
    return result


def _family_verdicts(mesh_docs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Each condition's verdict over the members.

    A condition holds when every member satisfies it.  Its worst mesh is the
    member with the lowest worst value, the earliest one on a tie.  Every
    member's report lists the same conditions in the same order.
    """
    result = []
    for verdicts in zip(*(doc["verdicts"] for doc in mesh_docs)):
        worst_mesh = min(range(len(verdicts)), key=lambda i: verdicts[i]["worst_value"])
        worst = verdicts[worst_mesh]
        result.append(
            {
                "condition": worst["condition"],
                "threshold": worst["threshold"],
                "satisfied": all(verdict["satisfied"] for verdict in verdicts),
                "worst_mesh": worst_mesh,
                "worst_cell": worst["worst_cell"],
                "worst_value": worst["worst_value"],
            }
        )
    return result


def cmd_family(args: argparse.Namespace) -> int:
    _require_threshold(args)
    cfg = _tolerances(args)
    manifest_path = Path(args.manifest)
    paths = _read_file(
        manifest_path,
        "manifest",
        lambda data: parse_family_manifest(data, base_dir=manifest_path.parent),
    )
    meshes = [load_mesh(p) for p in paths]
    dims = {m.ambient_dim for m in meshes}
    if len(dims) > 1:
        raise InvalidInputError(
            f"family members disagree on ambient dimension: {sorted(dims)}"
        )

    mesh_docs = [
        {"index": index, "path": str(path), **_check_report(mesh, cfg, args)}
        for index, (path, mesh) in enumerate(zip(paths, meshes))
    ]
    trend = [
        {
            "index": doc["index"],
            "path": doc["path"],
            "min_dihedral_rad": doc["aggregates"]["min_dihedral_rad"],
            "min_dsine": doc["aggregates"]["min_dsine"],
        }
        for doc in mesh_docs
    ]
    family_doc: dict[str, Any] = {
        "ambient_dimension": meshes[0].ambient_dim,
        "mesh_count": len(meshes),
        "family_aggregates": _family_aggregates(mesh_docs),
        "trend": trend,
        "verdicts": _family_verdicts(mesh_docs),
        "meshes": mesh_docs,
    }
    _emit_json(family_doc, args.report)
    return _check_exit(mesh_docs)


def cmd_generate(args: argparse.Namespace) -> int:
    from .generators import generate  # only this command builds simplices

    simplex = generate(args.kind, args.dim, args.param, args.seed, args.scale)
    mesh = Mesh(simplex.vertices, [list(range(simplex.vertex_count))])
    _emit(lambda sink: sink.write(dump_mesh(mesh)), args.output)
    return EXIT_OK


_INFO_HEADER = "%5s %17s %17s %10s %10s %17s\n"
_INFO_ROW = "%5d %17.7f %17.7f %10.7f %10.7f %17.7f\n"
# A degenerate cell's row takes six values like any other and prints only the first.
_INFO_DEGENERATE_ROW = "%5d        degenerate" + "%.0s" * 5 + "\n"


def cmd_info(args: argparse.Namespace) -> int:
    cfg = _tolerances(args)
    mesh = load_mesh(args.mesh)
    validation = validate_mesh(mesh)
    conformity = conformity_check(mesh)
    quality = mesh_quality(mesh, cfg)

    out = []
    out.append(f"mesh: {args.mesh}\n")
    out.append(f"ambient dimension: {mesh.ambient_dim}\n")
    out.append(f"vertices: {mesh.vertex_count}\n")
    out.append(f"cells: {mesh.cell_count}\n")
    if conformity.is_conforming:
        out.append(
            f"conformity: OK ({conformity.interior_facets} interior, "
            f"{conformity.boundary_facets} boundary facets)\n"
        )
    else:
        out.append("conformity: VIOLATED\n")
        for facet_key, count in conformity.overshared_facets:
            out.append(f"  facet {list(facet_key)} shared by {count} cells\n")
    if validation.unused_vertices:
        out.append(f"warning: unused vertices {list(validation.unused_vertices)}\n")
    if validation.duplicate_cells:
        out.append(f"warning: duplicate cells {list(validation.duplicate_cells)}\n")
    if quality.degenerate_cells:
        out.append(f"warning: degenerate cells {list(quality.degenerate_cells)}\n")

    columns = _quality_columns(quality)
    out.append(_INFO_HEADER % ("cell", *columns))
    rows = _cell_lines(quality, _INFO_ROW, _INFO_DEGENERATE_ROW, [*columns.values()])
    _emit(lambda sink: sink.writelines(itertools.chain(out, rows)), "-")
    return EXIT_OK


# Control characters, say from a path in a manifest, are escaped so an error stays one line.
_ESCAPES = {code: repr(chr(code))[1:-1] for code in [*range(32), 127]}


def _error(message: str, code: int) -> int:
    print(f"error: {message.translate(_ESCAPES)}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map exceptions onto exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (InvalidInputError, GenerationError, OSError) as exc:
        return _error(str(exc), EXIT_INPUT_ERROR)
    except DegeneracyError as exc:
        return _error(f"degenerate geometry: {exc}", EXIT_DEGENERATE)
    except MemoryError as exc:  # an input too large to hold, such as generate --dim 10**8
        return _error(f"out of memory: {str(exc) or 'allocation failed'}", EXIT_INPUT_ERROR)


def run() -> None:
    """Console-script entry point."""
    # The imports live until exit; frozen, no collection walks them again, even at shutdown.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
