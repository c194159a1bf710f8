"""Lower bounds on total variation distance from means and variances.

The one-dimensional bound is tight and ships with constructors for the
discrete pairs that attain it; an embedded linear-programming oracle
re-derives the bound numerically as an independent check.  A trace bound
covers distributions on d-space.

Only the d-dimensional bound (:mod:`tvbounds.nd`), the oracle and its
simplex import numpy; their names are resolved here on first use.
"""

from .discrete import DiscreteDist, MomentSummary, check_moments, tv_distance
from .errors import (
    BadParameterError,
    DegenerateVarianceError,
    DimensionMismatchError,
    GapZeroError,
    TVBoundError,
    WitnessConstructionError,
)
from .moments import (
    BoundReport1D,
    MomentPair1D,
    Moments1D,
    SiblingBranch,
    anchored_tv,
    bound_report,
    gap,
    radical_v,
    sibling_branch_tv,
    tv_lower_bound_1d,
    two_point_tv,
)
from .witness import (
    WitnessKind,
    WitnessPair,
    construct_anchored_witness,
    construct_tight_witness,
    construct_two_point,
    construct_vanishing_sequence,
)

__version__ = "0.1.0"

#: Names whose modules import numpy, by the module that defines them.  They
#: are loaded on first access, so that the one-dimensional closed forms and
#: witnesses, and the CLI commands built on them, never import numpy.
_LAZY = {
    "MomentsND": ".nd",
    "MomentPairND": ".nd",
    "tv_lower_bound_nd": ".nd",
    "GridSpec": ".oracle",
    "LPStandardForm": ".oracle",
    "OracleResult": ".oracle",
    "OracleStatus": ".oracle",
    "build_grid": ".oracle",
    "check_nd_bound_random": ".oracle",
    "formulate": ".oracle",
    "minimize_tv_on_grid": ".oracle",
    "solve": ".oracle",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module, __name__), name)
    # bind it, so later lookups no longer reach this hook
    globals()[name] = value
    return value


__all__ = [
    "BadParameterError",
    "BoundReport1D",
    "DegenerateVarianceError",
    "DimensionMismatchError",
    "DiscreteDist",
    "GapZeroError",
    "GridSpec",
    "LPStandardForm",
    "MomentPair1D",
    "MomentPairND",
    "Moments1D",
    "MomentsND",
    "MomentSummary",
    "OracleResult",
    "OracleStatus",
    "SiblingBranch",
    "TVBoundError",
    "WitnessConstructionError",
    "WitnessKind",
    "WitnessPair",
    "anchored_tv",
    "bound_report",
    "build_grid",
    "check_moments",
    "check_nd_bound_random",
    "construct_anchored_witness",
    "construct_tight_witness",
    "construct_two_point",
    "construct_vanishing_sequence",
    "formulate",
    "gap",
    "minimize_tv_on_grid",
    "radical_v",
    "sibling_branch_tv",
    "solve",
    "tv_distance",
    "tv_lower_bound_1d",
    "tv_lower_bound_nd",
    "two_point_tv",
]
