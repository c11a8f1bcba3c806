"""Seeded mesh corpus for the benchmark workloads.

Every mesh is a Kuhn-Freudenthal triangulation of [0, 1]^d: the cube is
split into n^d sub-cubes of side h = 1/n and each sub-cube into d! simplices,
one per ordering of the axes (walk from the sub-cube's low corner one unit
step per axis).  All vertices are then jittered by a uniform offset of at
most ``JITTER * h`` per coordinate, drawn from the workload seed.

Two defects can be planted on top:

* a sliver: one vertex of a chosen cell is pushed to ``SLIVER_GAP * h`` from
  the plane of the opposite face, so that cell becomes nearly flat but
  stays well above the program's degeneracy tolerance;
* a collapse: a vertex is moved exactly onto a neighbour, so every cell that
  holds their shared edge has a zero-length edge and is degenerate.

Defects are planted on vertices whose cell stars do not touch each other,
so no cell is hit by two of them.  The same (parameters, seed) always gives
byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

JITTER = 0.1
SLIVER_GAP = 1e-6


@dataclass(frozen=True)
class MeshSpec:
    """One generated mesh: dimension, subdivisions and planted defects."""

    dim: int
    n: int
    slivers: int = 0
    collapses: int = 0


def kuhn_mesh(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unjittered Kuhn triangulation of [0, 1]^dim with n subdivisions per axis.

    Returns (vertices, cells) with d! * n^d cells; vertex ids are the
    lexicographic grid index.
    """
    side = n + 1
    grid = np.array(list(itertools.product(range(side), repeat=dim)), dtype=float)
    strides = np.array([side ** (dim - 1 - a) for a in range(dim)], dtype=np.int64)
    cells = []
    for corner in itertools.product(range(n), repeat=dim):
        base = int(np.dot(corner, strides))
        for order in itertools.permutations(range(dim)):
            walk = [base]
            for axis in order:
                walk.append(walk[-1] + int(strides[axis]))
            cells.append(walk)
    return grid / n, np.array(cells, dtype=np.int64)


def _vertex_stars(cells: np.ndarray, vertex_count: int) -> list[set[int]]:
    stars: list[set[int]] = [set() for _ in range(vertex_count)]
    for index, cell in enumerate(cells):
        for v in cell:
            stars[int(v)].add(index)
    return stars


def _reserve(cells: np.ndarray, star: set[int], blocked: set[int]) -> bool:
    """Block every vertex of the given cells unless one is blocked already."""
    touched = {int(v) for c in star for v in cells[c]}
    if touched & blocked:
        return False
    blocked |= touched
    return True


def build_mesh(spec: MeshSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Jittered Kuhn mesh with the spec's slivers and collapses planted."""
    vertices, cells = kuhn_mesh(spec.dim, spec.n)
    h = 1.0 / spec.n
    vertices = vertices + rng.uniform(-JITTER * h, JITTER * h, vertices.shape)
    stars = _vertex_stars(cells, len(vertices))
    blocked: set[int] = set()

    planted = 0
    for cell_index in rng.permutation(len(cells)):
        if planted == spec.slivers:
            break
        cell = cells[cell_index]
        v = int(cell[rng.integers(len(cell))])
        if not _reserve(cells, stars[v], blocked):
            continue
        face = vertices[[int(u) for u in cell if u != v]]
        # Unit normal of the opposite face's hyperplane: the null direction
        # of its edge vectors.
        edges = face[1:] - face[0]
        normal = np.linalg.svd(edges)[2][-1]
        offset = float(np.dot(vertices[v] - face[0], normal))
        vertices[v] -= (offset - np.sign(offset) * SLIVER_GAP * h) * normal
        planted += 1

    collapsed = 0
    for cell_index in rng.permutation(len(cells)):
        if collapsed == spec.collapses:
            break
        cell = cells[cell_index]
        u, v = (int(x) for x in rng.choice(cell, size=2, replace=False))
        if not _reserve(cells, stars[u] | stars[v], blocked):
            continue
        vertices[v] = vertices[u]
        collapsed += 1
    if planted != spec.slivers or collapsed != spec.collapses:
        raise RuntimeError(f"mesh {spec} has no room for its planted defects")
    return vertices, cells


def mesh_document(vertices: np.ndarray, cells: np.ndarray) -> str:
    """Canonical mesh JSON; floats go through repr, so they round-trip exactly."""
    doc = {
        "ambient_dimension": int(vertices.shape[1]),
        "vertices": vertices.tolist(),
        "cells": cells.tolist(),
    }
    return json.dumps(doc) + "\n"


def write_mesh(path: Path, spec: MeshSpec, rng: np.random.Generator) -> Path:
    path.write_text(mesh_document(*build_mesh(spec, rng)))
    return path


def write_manifest(path: Path, members: list[Path]) -> Path:
    """Family manifest listing members by path relative to the manifest."""
    doc = {"meshes": [str(m.relative_to(path.parent)) for m in members]}
    path.write_text(json.dumps(doc) + "\n")
    return path
