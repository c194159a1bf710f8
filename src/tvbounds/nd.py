"""Moment records, the trace lower bound and its randomized check for
distributions on d-space.

The bound ``|a|^2 / (2 (tr Sp + tr Sq) + |a|^2)`` holds in every dimension
and is not claimed tight for d > 1.  The records and the bound are plain
Python: one walk reads each input, a Cholesky factorization proves a
covariance positive semidefinite at every d, and ``|a|^2`` and the traces
are correctly rounded sums, so the bound is the same on every platform and
under any order of the coordinates.  numpy is imported only by
``check_nd_bound_random``, when it runs, and by ``MomentsND`` for a
covariance of d > 1 that factorization does not prove, whose smallest
eigenvalue then decides; without numpy that covariance is refused by name.
The one-dimensional closed forms live in :mod:`tvbounds.moments` and the
grid oracle in :mod:`tvbounds.oracle`.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import BadParameterError, DimensionMismatchError, _whole
from .moments import FrozenRecord

__all__ = [
    "MomentsND",
    "MomentPairND",
    "tv_lower_bound_nd",
    "gap_norm_sq",
    "finite_traces",
    "trace_bound",
    "check_nd_bound_random",
]

#: Absolute entrywise tolerance for accepting a covariance matrix as symmetric.
COV_SYMMETRY_TOL = 1e-10
#: Relative tolerance for the smallest eigenvalue of a covariance matrix.
COV_PSD_TOL = 1e-10
#: Violation slack for the randomized check.
ND_CHECK_TOL = 1e-10
#: Most normal coordinates (trials * atoms * d) one randomized check draws; a
#: larger batch is refused before anything is drawn.  A batch at the limit
#: peaks at 340 to 540 MiB resident with atoms d + 4, the most at d = 1, and
#: at 620 MiB with d = 1 and the fewest atoms, 3.
ND_CHECK_MAX_DRAWS = 10_000_000


def trace_bound(gap_norm_sq: float, trace_p: float, trace_q: float) -> float:
    """``|a|^2 / (2 (tr Sp + tr Sq) + |a|^2)`` from its three ingredients,
    and 0 where ``|a|^2`` is 0."""
    if gap_norm_sq == 0.0:
        return 0.0
    # computed as (|a|^2 / 2) / (tr Sp + tr Sq + |a|^2 / 2), the same bits
    # wherever |a|^2 / 2 is a normal float, so that a trace sum above about
    # 9e307 leaves a positive bound instead of doubling to inf; traces can
    # only dip below zero by the PSD round-off allowance.  max() keeps a nan
    # in its first argument, as the clamp of the array form does.
    half_gap = 0.5 * gap_norm_sq
    denom = max(trace_p + trace_q, 0.0) + half_gap
    if not math.isfinite(denom):
        # a denominator past the float range is taken from quartered terms,
        # which fit in it; quartering rounds only a term too small to change
        # the sum, or a numerator whose quotient underflows to 0 either way
        half_gap *= 0.25
        denom = max(0.25 * trace_p + 0.25 * trace_q, 0.0) + half_gap
    if denom == 0.0:
        # |a|^2 = 5e-324 halves to 0 and the traces clamp to 0: the bound
        # is |a|^2 / |a|^2
        return 1.0
    return half_gap / denom


def _twice_trace_bound_batch(gap_norm_sq, trace_sum):
    """Twice ``trace_bound(gap_norm_sq, trace_sum, 0.0)``, elementwise over
    numpy arrays of positive trace sums at the randomized check's scale,
    where halving the gap and doubling the bound are exact."""
    return gap_norm_sq / (trace_sum + 0.5 * gap_norm_sq)


def _leaves(value):
    """The scalar entries of ``value`` in row-major order, and the shape
    ``numpy.array(value)`` gives it, or None where it is ragged: a level's
    items differ in length or depth.  A list or tuple is a level, an object
    with a ``tolist()`` is read through it, and anything else is an entry."""
    if hasattr(value, "tolist"):
        # an empty array's tolist() is [] whatever its trailing dimensions
        if getattr(value, "size", 1) == 0:
            return [], value.shape
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        return [value], ()
    leaves, shapes = [], set()
    for item in value:
        entries, shape = _leaves(item)
        leaves += entries
        shapes.add(shape)
    if len(shapes) > 1 or None in shapes:
        return leaves, None
    return leaves, (len(value), *(shapes.pop() if shapes else ()))


def _floats(value, name: str):
    """``value``'s entries as a flat tuple of floats, and its shape, as
    ``numpy.array(value, dtype=float)`` reads them.  A ragged nesting, or
    one too deep for the walk's recursion, raises ``ValueError`` naming
    ``name``, before ``float()`` meets any entry."""
    try:
        leaves, shape = _leaves(value)
    except RecursionError:
        raise ValueError(f"{name} nests too deeply to read") from None
    if shape is None:
        raise ValueError(f"{name} is ragged: its nested lists differ in length or depth")
    return tuple(map(float, leaves)), shape


def _average(a: float, b: float) -> float:
    """``(a + b) / 2``, halving each term first where the sum would pass the
    float range (only there: halving first rounds subnormal terms
    differently)."""
    mid = (a + b) * 0.5
    return mid if not math.isinf(mid) else 0.5 * a + 0.5 * b


def _certified_psd(sym, shift: float) -> bool:
    """Whether a Cholesky factorization of ``sym + shift * I`` runs to the
    end with every pivot positive and finite.

    Success proves the smallest eigenvalue of ``sym`` is above ``-shift``
    less a round-off of order ``d^2`` ulps of the largest shifted diagonal
    entry (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10),
    in any order of its inner products.  A non-finite entry of the factor
    reaches a later pivot's sum of squares, so it fails the run, and so does
    a shifted diagonal entry past the float range.
    """
    factor = []
    for i, row in enumerate(sym):
        low = []
        for j, prior in enumerate(factor):
            low.append((row[j] - sum(map(mul, low, prior))) / prior[j])
        pivot = row[i] + shift - sum(x * x for x in low)
        if not 0.0 < pivot < math.inf:
            return False
        low.append(math.sqrt(pivot))
        factor.append(low)
    return True


class MomentsND(FrozenRecord):
    """Mean vector and covariance matrix of a distribution on d-space.

    ``mean`` is a tuple of d floats and ``covariance`` a tuple of d row
    tuples.  Each is read in one walk as ``numpy.array(..., dtype=float)``
    would read it, from nested lists or tuples of numbers or from arrays,
    but a ragged nesting, or one too deep for the walk's recursion, raises
    ``ValueError`` naming the field.  The checks
    then run in this order, the first that fails raising ``ValueError``: a
    non-empty 1-D mean, a finite mean, a ``(d, d)`` covariance, a finite
    covariance, symmetry within ``COV_SYMMETRY_TOL`` (entrywise, absolute),
    and a smallest eigenvalue no lower than ``-COV_PSD_TOL * (1 + max
    diagonal entry)``, which a refusal names.  User-supplied matrices
    routinely carry round-off, so the symmetrized average with the
    transpose is what gets stored and tested.

    At every d a Cholesky factorization of the matrix shifted by half that
    tolerance proves it positive semidefinite: success bounds the smallest
    eigenvalue above minus the half, less a round-off far inside the other
    half.  A matrix it does not prove is decided by its smallest eigenvalue,
    a 1x1 matrix's entry or else ``numpy.linalg.eigvalsh``'s, so every
    decision and message is the eigenvalue rule's; where numpy is not
    installed, that larger matrix is refused by a ``ValueError`` saying so.
    """

    __slots__ = ("mean", "covariance")

    def __init__(self, mean, covariance) -> None:
        mean, shape = _floats(mean, "mean")
        if len(shape) != 1 or not mean:
            raise ValueError("mean must be a non-empty 1-D vector")
        entries, cov_shape = _floats(covariance, "covariance")
        if not all(map(math.isfinite, mean)):
            raise ValueError("mean must be finite")
        d = len(mean)
        if cov_shape != (d, d):
            raise ValueError(f"covariance must have shape ({d}, {d}), got {cov_shape}")
        if not all(map(math.isfinite, entries)):
            raise ValueError("covariance must be finite")
        cov = [entries[i : i + d] for i in range(0, d * d, d)]
        # a difference past the float range reads inf: an asymmetry that
        # large is refused
        if not all(
            abs(row[j] - cov[j][i]) <= COV_SYMMETRY_TOL
            for i, row in enumerate(cov)
            for j in range(i)
        ):
            raise ValueError(f"covariance is not symmetric within {COV_SYMMETRY_TOL:g}")
        sym = tuple(tuple(map(_average, row, col)) for row, col in zip(cov, zip(*cov)))
        limit = COV_PSD_TOL * (1.0 + max(row[i] for i, row in enumerate(sym)))
        if not _certified_psd(sym, 0.5 * limit):
            min_eig = _min_eigenvalue(sym)
            if min_eig < -limit:
                raise ValueError(
                    f"covariance is not positive semidefinite (min eigenvalue {min_eig:g})"
                )
        set_mean, set_cov = self._setters
        set_mean(self, mean)
        set_cov(self, sym)

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def trace(self) -> float:
        """The covariance trace, correctly rounded; inf past the float range."""
        try:
            return math.fsum(row[i] for i, row in enumerate(self.covariance))
        except OverflowError:
            return math.inf


def _min_eigenvalue(sym) -> float:
    """The smallest eigenvalue LAPACK computes for the symmetric ``sym``: a
    1x1 matrix's entry, and for a larger one ``ValueError`` without numpy."""
    if len(sym) == 1:
        return sym[0][0]
    try:
        import numpy as np
    except ImportError:
        raise ValueError(
            "covariance is not proved positive semidefinite, and deciding it "
            "needs numpy, which is not installed"
        ) from None
    return float(np.linalg.eigvalsh(np.array(sym))[0])


class MomentPairND(FrozenRecord):
    """Moment constraints for a pair of distributions on d-space."""

    __slots__ = ("p_side", "q_side")

    def __init__(self, p_side: MomentsND, q_side: MomentsND) -> None:
        if p_side.dim != q_side.dim:
            raise DimensionMismatchError(
                f"sides have dimensions {p_side.dim} and {q_side.dim}"
            )
        set_p, set_q = self._setters
        set_p(self, p_side)
        set_q(self, q_side)

    @property
    def dim(self) -> int:
        return self.p_side.dim


#: The exponent of the smallest subnormal float: every float is a whole
#: multiple of 2**-_UNIT_EXP.
_UNIT_EXP = 1074


def _units(x: float) -> int:
    """``x`` as an exact whole multiple of ``2**-_UNIT_EXP``."""
    numerator, denominator = x.as_integer_ratio()
    return numerator << (_UNIT_EXP + 1 - denominator.bit_length())


def gap_norm_sq(pair: MomentPairND) -> float:
    """``|a|^2`` for the difference ``a`` of the mean vectors, correctly
    rounded: the exact sum of the squares of the exact differences, rounded
    once.  Raises ``BadParameterError`` when it passes the float range."""
    means = zip(pair.p_side.mean, pair.q_side.mean)
    exact = sum((_units(p) - _units(q)) ** 2 for p, q in means)
    try:
        # int / int rounds the exact quotient once, to nearest
        return exact / (1 << 2 * _UNIT_EXP)
    except OverflowError:
        raise BadParameterError(
            "the squared mean gap overflows the float range: "
            "the means lie about 1.34e154 or more apart"
        ) from None


def finite_traces(pair: MomentPairND) -> tuple[float, float]:
    """The covariance traces of the p and q sides, correctly rounded.
    Raises ``BadParameterError`` naming the first side whose trace passes
    the float range, though each diagonal entry is finite."""
    traces = pair.p_side.trace, pair.q_side.trace
    for side, trace in zip("pq", traces):
        if not math.isfinite(trace):
            raise BadParameterError(
                f"the {side} side's covariance trace overflows the float range: "
                "its diagonal sums past about 1.8e308"
            )
    return traces


def tv_lower_bound_nd(pair: MomentPairND) -> float:
    """Trace lower bound on TV(P, Q) for distributions on d-space.

    Returns ``|a|^2 / (2 (tr Sp + tr Sq) + |a|^2)`` where ``a`` is the
    difference of the mean vectors, and 0 when the means coincide.  For
    d = 1 this never exceeds ``tv_lower_bound_1d`` and matches it exactly
    when the standard deviations agree.  Raises ``BadParameterError`` when
    a covariance trace or ``|a|^2`` overflows the float range, the traces
    checked first.
    """
    trace_p, trace_q = finite_traces(pair)
    return trace_bound(gap_norm_sq(pair), trace_p, trace_q)


def check_nd_bound_random(d: int, atoms: int, trials: int, seed: int) -> int:
    """Count violations of the d-dimensional trace bound on random pairs.

    Each trial draws ``atoms`` shared points from a standard normal in
    d-space and two Dirichlet(1, ..., 1) probability vectors, computes the
    means, covariance traces and TV of the resulting pair, and evaluates
    the trace bound at those computed moments.  A correct implementation
    returns 0 for any seed; every violation beyond ``ND_CHECK_TOL`` counts.
    Fully reproducible for a fixed seed.

    The draws come in one batch, and so does the rest: first the points of
    every trial, then one Dirichlet draw of ``2 * trials`` weight vectors,
    the p side's ``trials`` first, then the q side's.  The bound reads only
    ``g = |a|^2`` and ``tr Sp + tr Sq``, so no covariance matrix is formed:
    both sides' means are one stacked product, and one weighted pass over
    the squared deviations from them gives every trial's trace sum.  The
    deviations are centred, as ``E|x|^2 - |m|^2`` would cancel where a
    side's weights pile onto one atom.  The TV's and the bound's halves fold
    into one comparison, ``|p - q|_1 < g / (tr Sp + tr Sq + g / 2) - 2 *
    ND_CHECK_TOL``; doubling is exact, so it decides as ``TV < bound -
    ND_CHECK_TOL`` does.  numpy is imported when the check runs.
    A count that is not a whole number, a negative seed, and a batch of more
    than ``ND_CHECK_MAX_DRAWS`` normal coordinates (``trials * atoms * d``)
    raise ``BadParameterError`` before any draw.
    """
    d, atoms, trials = _whole("d", d), _whole("atoms", atoms), _whole("trials", trials)
    seed = _whole("seed", seed)
    if not 1 <= d <= 4:
        raise BadParameterError(f"d must be in [1, 4], got {d}")
    if atoms < d + 2:
        raise BadParameterError(f"atoms must be >= d + 2, got {atoms}")
    if trials < 1:
        raise BadParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise BadParameterError(f"seed must be >= 0, got {seed}")
    if trials * atoms * d > ND_CHECK_MAX_DRAWS:
        raise BadParameterError(
            f"trials * atoms * d = {trials} * {atoms} * {d} is more than "
            f"ND_CHECK_MAX_DRAWS = {ND_CHECK_MAX_DRAWS}; run fewer trials per seed"
        )
    import numpy as np

    rng = np.random.default_rng(seed)
    points = rng.standard_normal(size=(trials, atoms, d))
    # both sides at once: axis 0 is the side (p, q), axis 1 the trial
    weights = rng.dirichlet(np.ones(atoms), size=(2, trials))
    l1 = np.abs(weights[0] - weights[1]).sum(axis=1)
    means = weights[:, :, None, :] @ points
    centred = points - means
    trace_sums = np.einsum("sta,stai,stai->t", weights, centred, centred)
    a = (means[0] - means[1])[:, 0]
    twice_bounds = _twice_trace_bound_batch(np.einsum("ti,ti->t", a, a), trace_sums)
    return int(np.count_nonzero(l1 < twice_bounds - 2 * ND_CHECK_TOL))
