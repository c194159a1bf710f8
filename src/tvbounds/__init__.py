"""Lower bounds on total variation distance from means and variances.

The one-dimensional bound is tight and ships with constructors for the
discrete pairs that attain it; an embedded linear-programming oracle
re-derives the bound numerically as an independent check.  A trace bound
covers distributions on d-space.

Only the d-dimensional layer (:mod:`tvbounds.nd`) imports numpy.  Its
names, and those of the grid oracle, which only ``verify`` needs, are
resolved here on first use.
"""

# Each module's ``__all__`` declares its public names; the package republishes
# them as they stand.
from .discrete import *
from .errors import *
from .moments import *
from .witness import *

__version__ = "0.1.0"

#: Names loaded on first access, by the module that defines them: the n-d
#: layer's, whose module imports numpy, and the grid oracle's.  So the
#: one-dimensional commands, ``verify`` included, never import numpy, and
#: the closed forms and witnesses never import the oracle either.
_LAZY = {
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
__all__ = [
    *discrete.__all__, *errors.__all__, *moments.__all__, *witness.__all__, *_LAZY
]
