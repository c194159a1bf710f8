"""Lower bounds on total variation distance from means and variances.

The one-dimensional bound is tight and ships with constructors for the
discrete pairs that attain it; an embedded linear-programming oracle
re-derives the bound numerically as an independent check.  A trace bound
covers distributions on d-space.

Importing the package loads only the errors and the closed forms
(:mod:`tvbounds.moments`).  The names of every other layer are resolved
here on first use: the discrete distributions and witnesses, the grid
oracle, which only ``verify`` needs, and the d-dimensional layer
(:mod:`tvbounds.nd`), which reads each input in one walk.  numpy is imported
by one gate there, for its randomized check and for a d > 1 covariance the
Cholesky proof does not settle, and without numpy the gate refuses each.
"""

# Each module's ``__all__`` declares its public names; the package republishes
# them as they stand.
from .errors import *
from .moments import *

__version__ = "0.1.0"

#: Names loaded on first access, by the module that defines them.  So the
#: closed-form commands, ``bound`` and ``sweep``, load no other layer; the
#: witness commands load the discrete distributions and witnesses; only
#: ``verify`` loads the oracle, and only ``nd-check`` loads numpy
#: (``nd-bound`` too, for a d > 1 covariance its proof does not settle).
_LAZY = {
    "DiscreteDist": ".discrete",
    "MomentSummary": ".discrete",
    "check_moments": ".discrete",
    "tv_distance": ".discrete",
    "WitnessKind": ".witness",
    "WitnessPair": ".witness",
    "construct_anchored_witness": ".witness",
    "construct_tight_witness": ".witness",
    "construct_two_point": ".witness",
    "construct_vanishing_sequence": ".witness",
    "MomentsND": ".nd",
    "MomentPairND": ".nd",
    "tv_lower_bound_nd": ".nd",
    "GridSpec": ".oracle",
    "LPStandardForm": ".oracle",
    "OracleResult": ".oracle",
    "OracleStatus": ".oracle",
    "build_grid": ".oracle",
    "check_nd_bound_random": ".nd",
    "formulate": ".oracle",
    "minimize_tv_on_grid": ".oracle",
    "solve": ".oracle",
}


def _lazy_getattr(namespace: dict):
    """A module ``__getattr__`` that loads a name of ``_LAZY`` on first
    access and binds it in ``namespace``, the module's globals, as an import
    would: a tracer that swaps it out and back restores the original."""

    def __getattr__(name: str):
        if name not in _LAZY:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from importlib import import_module

        value = namespace[name] = getattr(import_module(_LAZY[name], __name__), name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals())


# the imports above bind each submodule's name here
__all__ = [*errors.__all__, *moments.__all__, *_LAZY]
