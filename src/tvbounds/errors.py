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
    """A run parameter is outside its allowed range."""


class WitnessConstructionError(TVBoundError):
    """A constructed witness failed its own round-trip validation.

    Raised instead of returning an unverified pair: every constructor checks
    that the claimed TV value and the declared moments are actually realized
    by the atoms it built.
    """
