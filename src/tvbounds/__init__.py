"""Lower bounds on total variation distance from means and variances.

The one-dimensional bound is tight and ships with constructors for the
discrete pairs that attain it; an embedded linear-programming oracle
re-derives the bound numerically as an independent check.  A trace bound
covers distributions on d-space.

Only the d-dimensional bound (:mod:`tvbounds.nd`), the oracle and its
simplex import numpy; their names are resolved here on first use.
"""

# Each module's ``__all__`` declares its public names; the package republishes
# them as they stand.
from .discrete import *
from .errors import *
from .moments import *
from .witness import *

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


# the imports above bind each submodule's name here
__all__ = [
    *discrete.__all__, *errors.__all__, *moments.__all__, *witness.__all__, *_LAZY
]
