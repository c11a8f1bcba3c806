"""Command-line front end for mesh regularity checks.

Commands::

    minangle check <mesh> [--alpha0 A] [--dsine-min C] [-o report.json]
    minangle audit <mesh> [-o report.json]
    minangle family <manifest> [--alpha0 A] [--dsine-min C] [-o report.json]
    minangle generate --kind regular --dim 3 [-o mesh.json]
    minangle info <mesh>

check and family need at least one of --alpha0 and --dsine-min.

Each command parses its arguments, loads, scans, builds the verdicts, and
emits what :mod:`minangle.meshio` lays out.  Exit codes (usable directly in CI)
come from the records::

    0  every ConditionVerdict.satisfied; for audit, MeshQuality.audit_satisfied()
    1  a ConditionVerdict not satisfied; for audit, audit_satisfied() is false
    2  input error (bad file, bad flags, unreadable manifest member)
    3  a MeshQuality.degenerate_cells is nonempty, or a DegeneracyError

Angle thresholds and every angle in a report are in radians.  Reports
go to the path given with -o/--report, or to standard output with ``-o -``.
Identical inputs and flags produce byte-identical reports.
"""

from __future__ import annotations

import errno
import gc
import os
import sys

# Run as the program, nothing the imports below allocate is garbage: no collection runs
# until run() has frozen their objects and turned the collector back on.
if __name__ == "__main__":
    gc.disable()
# minangle gives BLAS no work: its kernel is elementwise array arithmetic, with no
# LAPACK call.  Yet OpenBLAS starts a thread pool when numpy loads,
# which cost 70-85 ms of every command on a 2-vCPU machine.  The variable only
# takes effect before numpy's first import, and a value the user set is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
from pathlib import Path
from typing import Iterable, NoReturn, Sequence, TextIO

from .errors import DegeneracyError, GenerationError, InvalidInputError
from .geometry import DEGENERACY_REL_TOL, _tolerance
from .meshio import (
    Mesh,
    _ESCAPES,
    _family_meshes,
    _pieces,
    audit_to_dict,
    dump_mesh,
    family_to_dict,
    info_lines,
    load_mesh,
    report_to_dict,
    validate_mesh,
)
from .regularity import (
    ConditionVerdict, MeshQuality, mesh_quality, verdict_min_dihedral, verdict_min_dsine
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3

# --kind -> its simplex, given the generators module and the parsed flags; each generator checks
# its own arguments.  --param is the family parameter t of flatten and needle (default 1) and
# the quality floor of random (default 0); only random reads --seed.
_KINDS = {
    "regular": lambda g, a: g.regular_simplex(a.dim, a.scale),
    "corner": lambda g, a: g.corner_simplex(a.dim, a.scale),
    "flatten": lambda g, a: g.flatten_family(a.dim, 1.0 if a.param is None else a.param, a.scale),
    "needle": lambda g, a: g.needle_family(a.dim, 1.0 if a.param is None else a.param, a.scale),
    "random": lambda g, a: g.random_simplex(
        a.dim, a.seed, a.scale, 0.0 if a.param is None else a.param
    ),
}


class _Parser(argparse.ArgumentParser):
    """Help and usage errors go through :func:`_write`: argparse drops a help that fails to
    write, and writes usage errors to stdout if stderr is closed."""

    def print_help(self, file: TextIO | None = None) -> None:
        _write(file or sys.stdout, [self.format_help()])

    def error(self, message: str) -> NoReturn:
        _write(sys.stderr, [self.format_usage(), f"{self.prog}: error: {message}\n"])
        raise SystemExit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    gen.add_argument("--kind", required=True, choices=_KINDS)
    gen.add_argument("--dim", required=True, type=int)
    gen.add_argument(
        "--param",
        type=float,
        help="family parameter t for flatten/needle, quality floor for random",
    )
    gen.add_argument("--seed", type=int, default=0, help="random generator seed")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("-o", "--output", default="-", help="output path, or - for stdout")
    gen.set_defaults(func=cmd_generate)

    info = sub.add_parser("info", help="print mesh statistics, conformity, and quality")
    info.add_argument("mesh", help="mesh file in the canonical JSON format")
    _add_tolerance_arg(info)
    info.set_defaults(func=cmd_info)

    return parser


def _add_threshold_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha0", type=float, help="dihedral lower bound in radians")
    sub.add_argument("--dsine-min", type=float, help="d-sine lower bound")


def _add_report_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--report", default="-", help="report path, or - for stdout")
    _add_tolerance_arg(sub)


def _add_tolerance_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--degeneracy-tol", type=float, default=DEGENERACY_REL_TOL)


def _emit(pieces: Iterable[str], destination: str) -> None:
    """Write ``pieces`` to the file at ``destination``, opened before the first piece is made,
    or to standard output for ``-``."""
    if destination != "-":
        with Path(destination).open("w") as sink:
            _write(sink, pieces)
        return
    _write(sys.stdout, pieces)


def _write(stream: TextIO | None, pieces: Iterable[str] = ()) -> None:
    """Write ``pieces`` to ``stream`` and flush it.  A character the stream cannot encode, say
    of a path under ``PYTHONIOENCODING=latin-1``, is written escaped, as standard error does.
    An output nobody can read ends the writing without an error: a reader that left (``| head``),
    a stream closed at start (``None``) or read-only, or a standard error failing in any way.
    Any other error, such as a full disk, is raised once: the stream then points at devnull."""
    if stream is None:
        return
    try:
        for piece in pieces:
            try:
                stream.write(piece)
            except UnicodeEncodeError:  # nothing of the piece was written
                encoding = stream.encoding
                stream.write(piece.encode(encoding, "backslashreplace").decode(encoding))
        stream.flush()
    except OSError as exc:
        # On devnull, what stays buffered flushes silently, at exit or in run().
        os.dup2(null := os.open(os.devnull, os.O_WRONLY), stream.fileno())
        os.close(null)
        if exc.errno not in (errno.EPIPE, errno.EBADF) and stream is not sys.stderr:
            raise


def _require_threshold(args: argparse.Namespace) -> None:
    if args.alpha0 is None and args.dsine_min is None:
        raise InvalidInputError("at least one of --alpha0 / --dsine-min is required")


def _verdicts(quality: MeshQuality, args: argparse.Namespace) -> list[ConditionVerdict]:
    """The verdicts of ``quality`` under the requested thresholds, ``--alpha0`` first."""
    requested = [(verdict_min_dihedral, args.alpha0), (verdict_min_dsine, args.dsine_min)]
    return [verdict(quality, bound) for verdict, bound in requested if bound is not None]


def _exit_code(qualities: Sequence[MeshQuality], satisfied: bool) -> int:
    """The exit code of every report command: degenerate geometry outranks a violation."""
    if any(quality.degenerate_cells for quality in qualities):
        return EXIT_DEGENERATE
    return EXIT_OK if satisfied else EXIT_VIOLATED


def cmd_check(args: argparse.Namespace) -> int:
    _require_threshold(args)
    tol = _tolerance(args.degeneracy_tol)
    quality = mesh_quality(load_mesh(args.mesh), tol)
    verdicts = _verdicts(quality, args)
    _emit(_pieces(report_to_dict(quality, verdicts)), args.report)
    return _exit_code([quality], all(verdict.satisfied for verdict in verdicts))


def cmd_audit(args: argparse.Namespace) -> int:
    tol = _tolerance(args.degeneracy_tol)
    quality = mesh_quality(load_mesh(args.mesh), tol)
    _emit(_pieces(audit_to_dict(quality)), args.report)
    return _exit_code([quality], quality.audit_satisfied())


def cmd_family(args: argparse.Namespace) -> int:
    _require_threshold(args)
    tol = _tolerance(args.degeneracy_tol)
    members = []
    for path, mesh in _family_meshes(Path(args.manifest)):
        quality = mesh_quality(mesh, tol)
        members.append((path, quality, _verdicts(quality, args)))
    _emit(_pieces(family_to_dict(members)), args.report)
    _, qualities, verdicts = zip(*members)
    return _exit_code(qualities, all(verdict.satisfied for row in verdicts for verdict in row))


def cmd_generate(args: argparse.Namespace) -> int:
    from . import generators  # only this command builds simplices

    simplex = _KINDS[args.kind](generators, args)
    mesh = Mesh(simplex.vertices, [list(range(simplex.vertex_count))])
    _emit(map(dump_mesh, [mesh]), args.output)  # lazy: -o opens first, as for a report
    return EXIT_OK


def cmd_info(args: argparse.Namespace) -> int:
    tol = _tolerance(args.degeneracy_tol)
    mesh = load_mesh(args.mesh)
    quality = mesh_quality(mesh, tol)
    _emit(info_lines(args.mesh, mesh, validate_mesh(mesh), quality), "-")
    return EXIT_OK


def _error(message: str, code: int) -> int:
    _write(sys.stderr, [f"error: {message.translate(_ESCAPES)}\n"])
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map exceptions onto exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    except OSError as exc:  # --help to a full standard output
        return _error(str(exc), EXIT_INPUT_ERROR)
    try:
        return args.func(args)
    except (InvalidInputError, GenerationError, OSError) as exc:
        return _error(str(exc), EXIT_INPUT_ERROR)
    except DegeneracyError as exc:
        return _error(f"degenerate geometry: {exc}", EXIT_DEGENERATE)
    except MemoryError as exc:  # an input too large to hold, such as generate --dim 10**8
        return _error(f"out of memory: {str(exc) or 'allocation failed'}", EXIT_INPUT_ERROR)


def run() -> NoReturn:
    """Console-script entry point: :func:`main`, then the process ends without a teardown."""
    # The imports live until exit; frozen, no collection walks them again.  The command
    # then collects as main() does anywhere.
    gc.freeze()
    gc.enable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        _write(stream)
    # Freeing a heap that dies with the process only costs time; streams are flushed above
    # and every file the command writes is closed.
    os._exit(code)


if __name__ == "__main__":
    run()
