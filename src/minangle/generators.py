"""Deterministic simplex generators: reference shapes and degenerating families.

The regular and corner simplices are closed-form reference shapes (all
dihedral angles have cosine 1/d; corner d-sine exactly 1).  The flatten and
needle families interpolate from the regular simplex down to a flat
sliver or a collapsed edge as the parameter t drops toward 0, which is
exactly the degeneration the regularity conditions are designed to catch.

Random simplices are reproducible across runs and across language ports:
coordinates come from a splitmix64 stream (seeded 64-bit mixing
generator), (d+1) vertices drawn row by row, each coordinate a uniform
double in [0, scale) built from the top 53 bits of the next output.
Rejection continues until the smallest vertex d-sine clears the requested
quality floor.
"""

from __future__ import annotations

import math

import numpy as np

from .angles import vertex_sines
from .errors import DegeneracyError, GenerationError, InvalidInputError
from .geometry import KINDS, Simplex, _is_real_type, _require_integer

_REJECTION_BUDGET = 10_000

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: a 64-bit mixing generator with a one-word state.

    next_uint64 advances the state by the golden-ratio increment and
    applies the standard two-round xorshift-multiply finalizer.  uniform()
    maps the top 53 bits onto [0, 1).
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        _require_integer(seed, "seed", 0)
        self.state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53


def _require_scale(scale: float) -> None:
    if not (_is_real_type(type(scale)) and 0.0 < scale < math.inf):
        raise InvalidInputError(f"scale must be positive and finite, got {scale}")


def _require_param(t: float) -> None:
    if not (_is_real_type(type(t)) and 0.0 < t <= 1.0):
        raise InvalidInputError(f"family parameter must lie in (0, 1], got {t}")


def regular_simplex(d: int, scale: float = 1.0) -> Simplex:
    """Regular d-simplex with edge length ``scale``.

    Built by the iterative coordinate lift: vertex k sits above the
    centroid of the previous ones at height sqrt((k+1)/(2k)), which keeps
    every edge at unit length before scaling.
    """
    _require_integer(d, "dimension", 2)
    _require_scale(scale)
    v = np.zeros((d + 1, d))
    v[1, 0] = 1.0
    for k in range(2, d + 1):
        v[k] = v[:k].mean(axis=0)
        v[k, k - 1] = math.sqrt((k + 1) / (2.0 * k))
    return Simplex(v * scale)


def corner_simplex(d: int, scale: float = 1.0) -> Simplex:
    """Corner (orthogonal-edge) d-simplex conv{0, scale*e_1, ..., scale*e_d}.

    Its d-sine at vertex 0 is exactly 1, the largest possible value.
    """
    _require_integer(d, "dimension", 2)
    _require_scale(scale)
    v = np.zeros((d + 1, d))
    v[1:] = np.eye(d) * scale
    return Simplex(v)


def flatten_family(d: int, t: float, scale: float = 1.0) -> Simplex:
    """Sliver family: regular (d-1)-simplex base with an apex at height t*scale.

    The base has edge length ``scale`` and lies in the hyperplane x_d = 0;
    the apex sits over the base centroid.  At t = sqrt((d+1) / (2d)) the
    apex reaches the regular height and the simplex is regular; as t -> 0
    the cell flattens, its measure shrinking linearly in t while the
    largest dihedral angle climbs toward pi.
    """
    _require_integer(d, "dimension", 3)
    _require_scale(scale)
    _require_param(t)
    base = regular_simplex(d - 1, scale).vertices
    lifted = np.hstack([base, np.zeros((d, 1))])
    apex = np.append(base.mean(axis=0), t * scale)
    return Simplex(np.vstack([lifted, apex]))


def needle_family(d: int, t: float, scale: float = 1.0) -> Simplex:
    """Needle family: regular simplex with one edge shrunk to t*scale.

    Vertex 1 is pulled toward vertex 0 along their shared edge; t = 1
    reproduces the regular simplex, t -> 0 collapses the edge.
    """
    _require_integer(d, "dimension", 2)
    _require_scale(scale)
    _require_param(t)
    v = regular_simplex(d, scale).vertices.copy()
    v[1] = v[0] + t * (v[1] - v[0])
    return Simplex(v)


def random_simplex(
    d: int, seed: int = 0, scale: float = 1.0, min_quality: float = 0.0
) -> Simplex:
    """Reproducible random simplex drawn uniformly from the scale-cube.

    Vertices are redrawn until the simplex is nondegenerate (at the
    default tolerance) and its smallest vertex d-sine exceeds
    ``min_quality``.  The same (d, seed, scale, min_quality) always returns
    the same simplex.

    Raises:
        GenerationError: if the rejection budget (10^4 draws) runs out,
            which happens only for quality floors close to 1.
    """
    _require_integer(d, "dimension", 2)
    _require_scale(scale)
    stream = SplitMix64(seed)
    if not (_is_real_type(type(min_quality)) and 0.0 <= min_quality < 1.0):
        raise InvalidInputError(f"quality floor must lie in [0, 1), got {min_quality}")
    for _ in range(_REJECTION_BUDGET):
        coords = np.array(
            [[stream.uniform() * scale for _ in range(d)] for _ in range(d + 1)]
        )
        candidate = Simplex(coords)
        try:
            sines = vertex_sines(candidate)
        except DegeneracyError:  # is_degenerate's rule, at the same default tolerance
            continue
        if min(sines) > min_quality:
            return candidate
    raise GenerationError(
        f"no simplex with min d-sine > {min_quality} in {_REJECTION_BUDGET} draws "
        f"(d={d}, seed={seed})"
    )


def generate(
    kind: str, dim: int, param: float | None = None, seed: int = 0, scale: float = 1.0
) -> Simplex:
    """Run the generator named ``kind``, one of :data:`KINDS`.

    ``param`` means the family parameter t for flatten/needle (default 1)
    and the quality floor for random (default 0); regular and corner ignore
    it, and only random uses ``seed``.  Each generator checks its own
    arguments.
    """
    if kind == "regular":
        return regular_simplex(dim, scale)
    if kind == "corner":
        return corner_simplex(dim, scale)
    if kind == "flatten":
        return flatten_family(dim, 1.0 if param is None else param, scale)
    if kind == "needle":
        return needle_family(dim, 1.0 if param is None else param, scale)
    if kind == "random":
        return random_simplex(dim, seed, scale, 0.0 if param is None else param)
    raise InvalidInputError(f"unknown generator kind {kind!r}; expected one of {KINDS}")
