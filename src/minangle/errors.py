"""Exception taxonomy shared across the package.

Invalid input (bad arguments, malformed files), degenerate geometry (angles are
mathematically undefined) and a generator giving up are distinct.  The CLI exit
codes do not mirror the split: degeneracy exits 3, the other two both exit 2.
"""


class MinAngleError(Exception):
    """Base class for all package errors."""


class InvalidInputError(MinAngleError, ValueError):
    """Malformed input: bad arguments, files, indices, or thresholds."""


class DegeneracyError(MinAngleError, ArithmeticError):
    """Geometry too close to degenerate for the requested quantity."""


class GenerationError(MinAngleError, RuntimeError):
    """A rejection-sampling generator exhausted its draw budget."""
