"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N ...: PASS/FAIL`` line (run pytest with
``-s`` to see the lines for passing tests).  The random samples are drawn
with the package's deterministic generator.  The shared d >= 3 pool uses
the quality floor 1e-3 stated by the product-formula criterion; the
classical-sine and invariance samples use 1e-2 so that double-precision
comparisons stay meaningful at their tighter tolerances (near-degenerate
draws would exceed any fixed tolerance for reasons of conditioning, not
correctness).
"""

import functools
import json
import math

import numpy as np
import pytest

from minangle import (
    Mesh,
    Simplex,
    all_dihedral_angles,
    cell_quality,
    certified_dsine_bound,
    corner_simplex,
    dump_mesh,
    flatten_family,
    mesh_quality,
    product_decomposition,
    random_simplex,
    regular_simplex,
    vertex_sines,
)
from minangle.cli import main
from oracles import planar_angle, rigid_motion
from test_golden import CORPUS, MESH_QUALITY_FIELDS, kuhn_mesh

POOL_DIMS = (3, 4, 5, 6)
POOL_SIZE = 1000
QUALITY_FLOOR = 1e-3


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL")
                raise
            print(f"criterion {number} ({description}): PASS")
            return result

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def sample_pool():
    """1000 random simplices per dimension with min d-sine > 1e-3."""
    return {
        d: [
            random_simplex(d, seed=100_000 * d + k, min_quality=QUALITY_FLOOR)
            for k in range(POOL_SIZE)
        ]
        for d in POOL_DIMS
    }


@pytest.fixture(scope="module")
def flatten_sequence():
    return [flatten_family(3, 2.0**-e) for e in range(1, 11)]


@criterion(1, "d=2 sine reduces to the classical sine")
def test_criterion_1_classical_sine_reduction():
    worst = 0.0
    for k in range(1000):
        tri = random_simplex(2, seed=200_000 + k, min_quality=1e-2)
        for i in range(3):
            gap = abs(vertex_sines(tri)[i] - math.sin(planar_angle(tri.vertices, i)))
            worst = max(worst, gap)
    assert worst < 1e-12, f"worst |sin_2 - classical sine| = {worst:.3e}"


@criterion(2, "product decomposition residual < 1e-9 relative")
def test_criterion_2_product_formula(sample_pool):
    worst = 0.0
    for d in POOL_DIMS:
        for s in sample_pool[d]:
            for i in range(d):
                worst = max(worst, product_decomposition(s, i).residual)
    assert worst < 1e-9, f"worst relative residual = {worst:.3e}"


@criterion(3, "closed-form oracles")
def test_criterion_3_closed_forms():
    assert all_dihedral_angles(regular_simplex(3)).min_angle() == pytest.approx(
        math.acos(1.0 / 3.0), abs=1e-10
    )
    for d in range(2, 9):
        for value in all_dihedral_angles(regular_simplex(d)).values():
            assert value == pytest.approx(math.acos(1.0 / d), abs=1e-10)
    assert min(vertex_sines(regular_simplex(3))) == pytest.approx(
        4.0 / (3.0 * math.sqrt(3.0)), abs=1e-10
    )
    for d in range(2, 9):
        assert vertex_sines(corner_simplex(d))[0] == pytest.approx(1.0, abs=1e-12)
    tet = regular_simplex(3)
    assert cell_quality(tet).ball_ratio[0] * tet.diameter() == pytest.approx(  # the inradius
        1.0 / (2.0 * math.sqrt(6.0)), abs=1e-10
    )


@criterion(4, "forward inequality: dihedral sines dominate the min vertex d-sine")
def test_criterion_4_forward_inequality(sample_pool):
    worst = math.inf
    for d in POOL_DIMS:
        for s in sample_pool[d]:
            floor = min(vertex_sines(s))
            for beta in all_dihedral_angles(s).values():
                worst = min(worst, math.sin(beta) - floor)
    assert worst >= -1e-9, f"worst forward margin = {worst:.3e}"


@criterion(5, "backward certified bound never exceeds the min vertex d-sine")
def test_criterion_5_backward_bound(sample_pool):
    worst = math.inf
    for d in POOL_DIMS:
        exponent = d * (d - 1) // 2
        for s in sample_pool[d]:
            quality = cell_quality(s)
            lo, hi = quality.min_dihedral(), quality.max_dihedral()
            smallest_sine = min(math.sin(lo), math.sin(hi))
            bound = smallest_sine**exponent
            assert bound == certified_dsine_bound(lo, hi, d)
            worst = min(worst, min(vertex_sines(s)) - bound)
    assert worst >= -1e-9, f"worst backward margin = {worst:.3e}"


@criterion(6, "flattening family degenerates monotonically")
def test_criterion_6_degeneration_trend(flatten_sequence):
    dsines = [min(vertex_sines(s)) for s in flatten_sequence]
    qualities = [cell_quality(s) for s in flatten_sequence]
    min_dihedrals = [quality.min_dihedral() for quality in qualities]
    max_dihedrals = [quality.max_dihedral() for quality in qualities]
    assert all(b < a for a, b in zip(dsines, dsines[1:])), "min d-sine not decreasing"
    assert all(
        b < a for a, b in zip(min_dihedrals, min_dihedrals[1:])
    ), "min dihedral not decreasing"
    assert dsines[-1] < 1e-3
    assert max_dihedrals[-1] > math.pi - 0.1


@criterion(7, "tetrahedron dihedral sums stay strictly inside (2*pi, 3*pi)")
def test_criterion_7_dihedral_sum_range(sample_pool, flatten_sequence):
    for s in sample_pool[3] + flatten_sequence:
        total = cell_quality(s).dihedral_sum_top[0]
        assert 2.0 * math.pi < total < 3.0 * math.pi, f"sum {total} out of range"


@criterion(8, "d-sines and dihedral angles are rigid-motion and scale invariant")
def test_criterion_8_invariance_suite():
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(7_000 + d)
        for k in range(100):
            s = random_simplex(d, seed=300_000 * d + k, min_quality=1e-2)
            lam = float(rng.uniform(0.1, 10.0))
            moved = Simplex(rigid_motion(s.vertices * lam, rng))
            np.testing.assert_allclose(vertex_sines(moved), vertex_sines(s), rtol=1e-9)
            base = all_dihedral_angles(s)
            transformed = all_dihedral_angles(moved)
            for key, value in base.angles.items():
                assert transformed.angles[key] == pytest.approx(value, rel=1e-9)


@criterion(8, "mesh quality is bit for bit the same at every power-of-two scale")
def test_criterion_8_whole_double_range():
    columns = ("cells", *MESH_QUALITY_FIELDS, "certified_bound", "backward_margin")
    for d, n in CORPUS:
        mesh = kuhn_mesh(d, n, seed=1_000 + d)
        base = mesh_quality(mesh)
        for exponent in (-1000, -600, -1, 1, 600, 1000):
            scaled = mesh_quality(Mesh(np.ldexp(mesh.vertices, exponent), mesh.cells))
            assert scaled.degenerate_cells == base.degenerate_cells, (d, exponent)
            for column in columns:
                new, old = getattr(scaled, column), getattr(base, column)
                assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), (d, exponent, column)


@criterion(9, "CLI exit-code matrix and byte-identical reports")
def test_criterion_9_cli_contract(tmp_path):
    # example meshes: regular, corner, glued pair, non-conforming triple, sliver
    regular = tmp_path / "regular.json"
    corner = tmp_path / "corner.json"
    sliver = tmp_path / "sliver.json"
    assert main(["generate", "--kind", "regular", "--dim", "3", "-o", str(regular)]) == 0
    assert main(["generate", "--kind", "corner", "--dim", "3", "-o", str(corner)]) == 0
    assert (
        main(["generate", "--kind", "flatten", "--dim", "3", "--param", "1e-15",
              "-o", str(sliver)])
        == 0
    )
    base = regular_simplex(3).vertices
    mirrored = base[3].copy()
    mirrored[2] = -mirrored[2]
    tall = base[3].copy()
    tall[2] *= 2.0
    pair = tmp_path / "pair.json"
    pair.write_text(
        dump_mesh(Mesh(np.vstack([base, mirrored]), [[0, 1, 2, 3], [0, 1, 2, 4]]))
    )
    triple = tmp_path / "triple.json"
    triple.write_text(
        dump_mesh(
            Mesh(
                np.vstack([base, mirrored, tall]),
                [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]],
            )
        )
    )

    # exit code 0: satisfied checks, audits, info, generate
    assert main(["check", str(regular), "--alpha0", "1.0", "-o", "/dev/null"]) == 0
    assert main(["check", str(corner), "--alpha0", "0.7", "-o", "/dev/null"]) == 0
    assert main(["check", str(pair), "--alpha0", "1.0", "--dsine-min", "0.7",
                 "-o", "/dev/null"]) == 0
    assert main(["audit", str(regular), "-o", "/dev/null"]) == 0
    assert main(["audit", str(pair), "-o", "/dev/null"]) == 0
    assert main(["info", str(triple)]) == 0  # diagnostics only, even when non-conforming

    # exit code 1: violated conditions
    assert main(["check", str(regular), "--alpha0", "1.1", "-o", "/dev/null"]) == 1
    assert main(["check", str(corner), "--dsine-min", "0.6", "-o", "/dev/null"]) == 1
    assert main(["check", str(pair), "--alpha0", "1.1", "-o", "/dev/null"]) == 1

    # exit code 2: input errors
    assert main(["check", str(tmp_path / "missing.json"), "--alpha0", "1.0"]) == 2
    assert main(["check", str(regular)]) == 2  # no threshold given
    assert main(["generate", "--kind", "flatten", "--dim", "2"]) == 2
    mixed = tmp_path / "mixed.json"
    tri = tmp_path / "tri.json"
    assert main(["generate", "--kind", "regular", "--dim", "2", "-o", str(tri)]) == 0
    mixed.write_text(json.dumps({"meshes": [tri.name, "regular.json"]}))
    assert main(["family", str(mixed), "--alpha0", "0.5", "-o", "/dev/null"]) == 2

    # exit code 3: degenerate geometry mid-check
    assert main(["check", str(sliver), "--alpha0", "0.5", "-o", "/dev/null"]) == 3
    assert main(["audit", str(sliver), "-o", "/dev/null"]) == 3

    # byte-identical reports across two runs
    for argv, name in [
        (["check", str(pair), "--alpha0", "1.0", "--dsine-min", "0.5"], "check"),
        (["audit", str(pair)], "audit"),
        (["generate", "--kind", "random", "--dim", "3", "--seed", "11"], "gen"),
    ]:
        first = tmp_path / f"{name}_a.json"
        second = tmp_path / f"{name}_b.json"
        assert main(argv + ["-o", str(first)]) in (0, 1)
        assert main(argv + ["-o", str(second)]) in (0, 1)
        assert first.read_bytes() == second.read_bytes(), f"{name} report not deterministic"
