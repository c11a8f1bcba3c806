"""Deterministic simplex generators: reference shapes and degenerating families.

The regular and corner simplices are closed-form reference shapes (all
dihedral angles have cosine 1/d; corner d-sine exactly 1).  The flatten and
needle families interpolate from the regular simplex down to a flat
sliver or a collapsed edge as the parameter t drops toward 0, which is
exactly the degeneration the regularity conditions are designed to catch.

Random simplices are reproducible across runs and across language ports:
coordinates come from a splitmix64 stream (seeded 64-bit mixing
generator), (d+1) vertices drawn row by row, each coordinate a uniform
double in [0, 1) built from the top 53 bits of the next output.
Rejection continues until the smallest vertex d-sine clears the requested
quality floor.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import DegeneracyError, GenerationError
from .regularity import (
    Simplex, _require_index, _require_integer, _require_real, _shown, vertex_sines,
)

_REJECTION_BUDGET = 10_000

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> Iterator[float]:
    """splitmix64, a 64-bit mixing generator with a one-word state, the seed: each step advances
    the state by the golden-ratio increment, applies the standard two-round xorshift-multiply
    finalizer and yields the top 53 bits of the result as a double in [0, 1)."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield ((z ^ (z >> 31)) >> 11) * 2.0**-53


def _require_param(t: float) -> None:
    _require_real(t, "family parameter must lie in (0, 1]", lambda x: 0.0 < x <= 1.0)


def _vertex_rows(d: int) -> np.ndarray:
    """The zero (d+1, d) array a generator fills; MemoryError for one too large to hold."""
    try:
        return np.zeros((d + 1, d))
    except ValueError as exc:  # numpy's "array is too big" or "Maximum allowed dimension exceeded"
        raise MemoryError(str(exc)) from None


def regular_simplex(d: int) -> Simplex:
    """Regular d-simplex with unit edge length.

    Built by the iterative coordinate lift: vertex k sits above the
    centroid of the previous ones at height sqrt((k+1)/(2k)), which keeps
    every edge at unit length.
    """
    d = _require_integer(d, "dimension", 2)
    v = _vertex_rows(d)
    v[1, 0] = 1.0
    for k in range(2, d + 1):
        v[k] = v[:k].mean(axis=0)
        v[k, k - 1] = math.sqrt((k + 1) / (2.0 * k))
    return Simplex(v)


def corner_simplex(d: int) -> Simplex:
    """Corner (orthogonal-edge) d-simplex conv{0, e_1, ..., e_d}.

    Its d-sine at vertex 0 is exactly 1, the largest possible value.
    """
    d = _require_integer(d, "dimension", 2)
    v = _vertex_rows(d)
    v[1:] = np.eye(d)
    return Simplex(v)


def flatten_family(d: int, t: float) -> Simplex:
    """Sliver family: regular (d-1)-simplex base with an apex at height t.

    The base has unit edge length and lies in the hyperplane x_d = 0;
    the apex sits over the base centroid.  At t = sqrt((d+1) / (2d)) the
    apex reaches the regular height and the simplex is regular; as t -> 0
    the cell flattens, its measure shrinking linearly in t while the
    largest dihedral angle climbs toward pi.
    """
    d = _require_integer(d, "dimension", 3)
    _require_param(t)
    base = regular_simplex(d - 1).vertices
    lifted = np.hstack([base, np.zeros((d, 1))])
    apex = np.append(base.mean(axis=0), t)
    return Simplex(np.vstack([lifted, apex]))


def needle_family(d: int, t: float) -> Simplex:
    """Needle family: unit regular simplex with one edge shrunk to length t.

    Vertex 1 is pulled toward vertex 0 along their shared edge; t = 1
    reproduces the regular simplex, t -> 0 collapses the edge.
    """
    d = _require_integer(d, "dimension", 2)
    _require_param(t)
    v = regular_simplex(d).vertices.copy()
    v[1] = v[0] + t * (v[1] - v[0])
    return Simplex(v)


def random_simplex(d: int, seed: int = 0, *, min_quality: float = 0.0) -> Simplex:
    """Reproducible random simplex drawn uniformly from the unit cube [0, 1)^d.

    Vertices are redrawn until the simplex is nondegenerate (at the
    default tolerance) and its smallest vertex d-sine exceeds
    ``min_quality``.  The same (d, seed, min_quality) always returns the
    same simplex.

    Raises:
        GenerationError: if the rejection budget (10^4 draws) runs out,
            which happens only for quality floors close to 1.
    """
    d = _require_integer(d, "dimension", 2)
    seed = _require_integer(seed, "seed", 0)
    _require_index(seed, "seed", 1 << 64)  # the generator's state is one 64-bit word
    _require_real(min_quality, "quality floor must lie in [0, 1)", lambda x: 0.0 <= x < 1.0)
    coords = _vertex_rows(d)  # sized before the first draw; Simplex copies it
    stream = _splitmix64(seed)
    for _ in range(_REJECTION_BUDGET):
        coords[:] = [[next(stream) for _ in range(d)] for _ in range(d + 1)]
        candidate = Simplex(coords)
        try:
            sines = vertex_sines(candidate)
        except DegeneracyError:  # is_degenerate's rule, at the same default tolerance
            continue
        if min(sines) > min_quality:
            return candidate
    raise GenerationError(
        f"no simplex with min d-sine > {min_quality} in {_REJECTION_BUDGET} draws "
        f"(d={d}, seed={_shown(seed)})"
    )
