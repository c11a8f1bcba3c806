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

Thresholds are always given in radians; --degrees only adds degree
annotations to the emitted reports and never changes a verdict.  Reports
go to the path given with -o/--report, or to standard output with ``-o -``.
Identical inputs and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

from .errors import DegeneracyError, GenerationError, InvalidInputError
from .generators import KINDS, GeneratorSpec, generate
from .geometry import ToleranceConfig
from .meshio import (
    Mesh,
    audit_to_dict,
    build_quality_report,
    conformity_check,
    dump_mesh,
    load_mesh,
    parse_family_manifest,
    report_to_dict,
    validate_mesh,
)
from .regularity import (
    equivalence_audit,
    mesh_quality,
    verdict_min_dihedral,
    verdict_min_dsine,
)

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


def _emit(text: str, destination: str) -> None:
    if destination == "-":
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text)


def _emit_json(doc: dict[str, Any], destination: str) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", destination)


def _require_threshold(args: argparse.Namespace) -> None:
    if args.alpha0 is None and args.dsine_min is None:
        raise InvalidInputError("at least one of --alpha0 / --dsine-min is required")


def _mesh_verdicts(quality, args: argparse.Namespace) -> list:
    verdicts = []
    if args.alpha0 is not None:
        verdicts.append(verdict_min_dihedral(quality, args.alpha0))
    if args.dsine_min is not None:
        verdicts.append(verdict_min_dsine(quality, args.dsine_min))
    return verdicts


def cmd_check(args: argparse.Namespace) -> int:
    _require_threshold(args)
    cfg = _tolerances(args)
    mesh = load_mesh(args.mesh)
    quality = mesh_quality(mesh, cfg)
    verdicts = _mesh_verdicts(quality, args)
    report = build_quality_report(mesh, quality, verdicts)
    _emit_json(report_to_dict(report, degrees=args.degrees), args.report)
    if quality.degenerate_cells:
        return EXIT_DEGENERATE
    if any(not v.satisfied for v in verdicts):
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    cfg = _tolerances(args)
    mesh = load_mesh(args.mesh)
    audit = equivalence_audit(mesh, cfg)
    _emit_json(audit_to_dict(audit, degrees=args.degrees), args.report)
    if audit.degenerate_cells:
        return EXIT_DEGENERATE
    if not audit.satisfied():
        return EXIT_VIOLATED
    return EXIT_OK


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


def cmd_family(args: argparse.Namespace) -> int:
    _require_threshold(args)
    cfg = _tolerances(args)
    manifest_path = Path(args.manifest)
    try:
        manifest_text = manifest_path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read manifest {manifest_path}: {exc}") from exc
    paths = parse_family_manifest(manifest_text, base_dir=manifest_path.parent)
    meshes = [load_mesh(p) for p in paths]
    dims = {m.ambient_dim for m in meshes}
    if len(dims) > 1:
        raise InvalidInputError(
            f"family members disagree on ambient dimension: {sorted(dims)}"
        )

    mesh_docs = []
    trend = []
    any_degenerate = False
    any_violated = False
    family_worst: dict[str, dict[str, Any]] = {}
    for index, (path, mesh) in enumerate(zip(paths, meshes)):
        quality = mesh_quality(mesh, cfg)
        verdicts = _mesh_verdicts(quality, args)
        report = build_quality_report(mesh, quality, verdicts)
        doc = report_to_dict(report, degrees=args.degrees)
        mesh_docs.append({"index": index, "path": str(path), **doc})
        any_degenerate = any_degenerate or bool(quality.degenerate_cells)
        any_violated = any_violated or any(not v.satisfied for v in verdicts)
        trend.append(
            {
                "index": index,
                "path": str(path),
                "min_dihedral_rad": doc["aggregates"]["min_dihedral_rad"],
                "min_dsine": doc["aggregates"]["min_dsine"],
            }
        )
        for verdict in verdicts:
            worst = family_worst.setdefault(
                verdict.condition,
                {
                    "condition": verdict.condition,
                    "threshold": verdict.threshold_used,
                    "satisfied": True,
                    "worst_mesh": index,
                    "worst_cell": verdict.worst_cell,
                    "worst_value": math.inf,
                },
            )
            worst["satisfied"] = worst["satisfied"] and verdict.satisfied
            if verdict.worst_value < worst["worst_value"]:
                worst["worst_value"] = verdict.worst_value
                worst["worst_mesh"] = index
                worst["worst_cell"] = verdict.worst_cell

    family_doc: dict[str, Any] = {
        "ambient_dimension": meshes[0].ambient_dim,
        "mesh_count": len(meshes),
        "family_aggregates": _family_aggregates(mesh_docs),
        "trend": trend,
        "verdicts": list(family_worst.values()),
        "meshes": mesh_docs,
    }
    _emit_json(family_doc, args.report)
    if any_degenerate:
        return EXIT_DEGENERATE
    if any_violated:
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        kind=args.kind, dim=args.dim, param=args.param, seed=args.seed, scale=args.scale
    )
    simplex = generate(spec)
    mesh = Mesh(simplex.vertices, [list(range(simplex.vertex_count))])
    _emit(dump_mesh(mesh), args.output)
    return EXIT_OK


def cmd_info(args: argparse.Namespace) -> int:
    cfg = _tolerances(args)
    mesh = load_mesh(args.mesh)
    validation = validate_mesh(mesh, cfg)
    conformity = conformity_check(mesh)
    quality = mesh_quality(mesh, cfg)

    out = sys.stdout
    out.write(f"mesh: {args.mesh}\n")
    out.write(f"ambient dimension: {mesh.ambient_dim}\n")
    out.write(f"vertices: {mesh.vertex_count}\n")
    out.write(f"cells: {mesh.cell_count}\n")
    if conformity.is_conforming:
        out.write(
            f"conformity: OK ({conformity.interior_facets} interior, "
            f"{conformity.boundary_facets} boundary facets)\n"
        )
    else:
        out.write("conformity: VIOLATED\n")
        for facet_key, count in conformity.overshared_facets:
            out.write(f"  facet {list(facet_key)} shared by {count} cells\n")
    if validation.unused_vertices:
        out.write(f"warning: unused vertices {list(validation.unused_vertices)}\n")
    if validation.duplicate_cells:
        out.write(f"warning: duplicate cells {list(validation.duplicate_cells)}\n")
    if validation.degenerate_cells:
        out.write(f"warning: degenerate cells {list(validation.degenerate_cells)}\n")

    header = (
        f"{'cell':>5} {'min_dihedral_rad':>17} {'max_dihedral_rad':>17} "
        f"{'min_dsine':>10} {'ball_ratio':>10} {'dihedral_sum_rad':>17}"
    )
    out.write(header + "\n")
    rows = {c.cell_index: c for c in quality.cells}
    for index in range(mesh.cell_count):
        cell = rows.get(index)
        if cell is None:
            out.write(f"{index:>5} {'degenerate':>17}\n")
            continue
        out.write(
            f"{index:>5} {cell.min_dihedral_all_sub:>17.7f} "
            f"{cell.max_dihedral_all_sub:>17.7f} {cell.min_vertex_dsine:>10.7f} "
            f"{cell.ball_ratio:>10.7f} {cell.dihedral_sum_top:>17.7f}\n"
        )
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map exceptions onto exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (InvalidInputError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DegeneracyError as exc:
        print(f"error: degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
