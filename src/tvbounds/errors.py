"""Exception types shared across the package."""

__all__ = [
    "TVBoundError",
    "GapZeroError",
    "DegenerateVarianceError",
    "DimensionMismatchError",
    "BadParameterError",
    "WitnessConstructionError",
]


class TVBoundError(Exception):
    """Base class for package-specific errors."""


class GapZeroError(TVBoundError):
    """An operation required the two means to differ, but they are equal.

    The infimum of the TV distance is 0 in that regime and is not attained,
    so there is no extremal pair to construct; use the vanishing sequence
    instead.
    """


class DegenerateVarianceError(TVBoundError):
    """A construction needed a strictly positive standard deviation."""


class DimensionMismatchError(TVBoundError):
    """The two sides of a multivariate pair disagree on dimension."""


class BadParameterError(TVBoundError, ValueError):
    """A run parameter, flag or moments file is malformed or out of range."""


class WitnessConstructionError(TVBoundError):
    """A constructed witness failed its own round-trip validation.

    Raised instead of returning an unverified pair: every constructor checks
    that the claimed TV value and the declared moments are actually realized
    by the atoms it built.
    """


def _whole(name: str, value) -> int:
    """``value`` as an int if it is a finite whole number of any numeric
    type, else ``BadParameterError`` naming ``name``."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    # int() truncates 2.9 to 2: only a value equal to its int is whole
    if n is None or n != value:
        raise BadParameterError(f"{name} must be a whole number, got {value!r}")
    return n
