"""Moment records, the trace lower bound and its randomized check for
distributions on d-space.

The bound ``|a|^2 / (2 (tr Sp + tr Sq) + |a|^2)`` holds in every dimension
and is not claimed tight for d > 1.  This is the only module of the package
that imports numpy; the one-dimensional closed forms live in
:mod:`tvbounds.moments` and the grid oracle in :mod:`tvbounds.oracle`.
"""

from __future__ import annotations

import math

import numpy as np

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
#: peaks at 0.55 to 0.65 GB resident, the most at d = 1.
ND_CHECK_MAX_DRAWS = 10_000_000


def trace_bound(gap_norm_sq, trace_p, trace_q):
    """``|a|^2 / (2 (tr Sp + tr Sq) + |a|^2)`` from its three ingredients,
    and 0 where ``|a|^2`` is 0; elementwise over arrays."""
    # computed as (|a|^2 / 2) / (tr Sp + tr Sq + |a|^2 / 2), the same bits
    # wherever |a|^2 / 2 is a normal float, so that a trace sum above about
    # 9e307 leaves a positive bound instead of doubling to inf; traces can
    # only dip below zero by the PSD round-off allowance
    half_gap = 0.5 * gap_norm_sq
    with np.errstate(over="ignore"):
        denom = np.maximum(0.0, trace_p + trace_q) + half_gap
    far = ~np.isfinite(denom)
    if far.any():
        # a denominator past the float range is taken from quartered terms,
        # which fit in it; quartering rounds only a term too small to change
        # the sum, or a numerator whose quotient underflows to 0 either way
        half_gap = np.where(far, 0.25 * half_gap, half_gap)
        quartered = np.maximum(0.0, 0.25 * trace_p + 0.25 * trace_q) + half_gap
        denom = np.where(far, quartered, denom)
    return half_gap / np.where(gap_norm_sq == 0.0, 1.0, denom)


class MomentsND(FrozenRecord):
    """Mean vector and covariance matrix of a distribution on d-space.

    The checks run in this order, the first that fails raising
    ``ValueError``: a non-empty 1-D finite mean, a ``(d, d)`` finite
    covariance, symmetry within ``COV_SYMMETRY_TOL`` (entrywise, absolute),
    and a smallest eigenvalue no lower than
    ``-COV_PSD_TOL * (1 + max diagonal entry)``, which a refusal names.
    User-supplied matrices routinely carry round-off, so the symmetrized
    average with the transpose is what gets stored and tested; at d = 1
    that average is the entry itself, and so is its eigenvalue.  Compares
    by identity: its fields are arrays.
    """

    __slots__ = ("mean", "covariance")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, mean, covariance) -> None:
        mean = np.array(mean, dtype=float)
        if mean.ndim != 1 or mean.size < 1:
            raise ValueError("mean must be a non-empty 1-D vector")
        cov = np.array(covariance, dtype=float)
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError(f"covariance must have shape ({d}, {d}), got {cov.shape}")
        cov_t = cov.T
        # a difference or sum past the float range reads inf: an asymmetry
        # that large is refused, and a sum that large is halved term by term
        # (only there: halving first rounds subnormal entries differently).
        # A nan or inf entry leaves a nan or inf difference, so the finite
        # check, which comes first, need only run when symmetry fails.
        with np.errstate(over="ignore", invalid="ignore"):
            asymmetry = np.abs(cov - cov_t).max()
            sym = cov + cov_t
        if not asymmetry <= COV_SYMMETRY_TOL:
            if not np.isfinite(cov).all():
                raise ValueError("covariance must be finite")
            raise ValueError(f"covariance is not symmetric within {COV_SYMMETRY_TOL:g}")
        sym *= 0.5
        overflow = np.isinf(sym)
        if overflow.any():
            sym[overflow] = (0.5 * cov + 0.5 * cov_t)[overflow]
        # a 1x1 matrix is its own eigenvalue, the very value LAPACK returns
        # for it; the call would add a third to a 1-D build
        min_eig = float(sym[0, 0] if d == 1 else np.linalg.eigvalsh(sym)[0])
        if min_eig < -COV_PSD_TOL * (1.0 + max(sym.diagonal().tolist())):
            raise ValueError(
                f"covariance is not positive semidefinite (min eigenvalue {min_eig:g})"
            )
        mean.setflags(write=False)
        sym.setflags(write=False)
        set_mean, set_cov = self._setters
        set_mean(self, mean)
        set_cov(self, sym)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def trace(self) -> float:
        """The covariance trace; inf, without a warning, past the float range."""
        with np.errstate(over="ignore"):
            return float(self.covariance.trace())


class MomentPairND(FrozenRecord):
    """Moment constraints for a pair of distributions on d-space.

    Compares by identity, like the ``MomentsND`` sides it holds.
    """

    __slots__ = ("p_side", "q_side")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

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


def gap_norm_sq(pair: MomentPairND) -> float:
    """``|a|^2`` for the difference ``a`` of the mean vectors.  Raises
    ``BadParameterError`` when it overflows the float range."""
    # a gap past the float range reads inf here and is refused below
    with np.errstate(over="ignore"):
        a = pair.p_side.mean - pair.q_side.mean
        value = float(a @ a)
    if not math.isfinite(value):
        raise BadParameterError(
            "the squared mean gap overflows the float range: "
            "the means lie about 1.34e154 or more apart"
        )
    return value


def finite_traces(pair: MomentPairND) -> tuple[float, float]:
    """The covariance traces of the p and q sides.  Raises
    ``BadParameterError`` naming the first side whose trace overflows the
    float range, though each diagonal entry is finite."""
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
    return float(trace_bound(gap_norm_sq(pair), trace_p, trace_q))


def check_nd_bound_random(d: int, atoms: int, trials: int, seed: int) -> int:
    """Count violations of the d-dimensional trace bound on random pairs.

    Each trial draws ``atoms`` shared points from a standard normal in
    d-space and two Dirichlet(1, ..., 1) probability vectors, computes the
    exact means, covariances and TV of the resulting pair, and evaluates
    the trace bound at those computed moments.  A correct implementation
    returns 0 for any seed; every violation beyond ``ND_CHECK_TOL`` counts.
    Fully reproducible for a fixed seed.

    The draws come in one batch, and so does the rest: first the points of
    every trial, then one Dirichlet draw of ``2 * trials`` weight vectors,
    the p side's ``trials`` first, then the q side's.  The moments of both
    sides of every trial are stacks of shape ``(2, trials, d)`` and
    ``(2, trials, d, d)``, and the bound is ``trace_bound``, which
    ``tv_lower_bound_nd`` also uses.  The covariances are weighted Gram
    matrices of finite draws, symmetric and PSD up to a round-off far inside
    the tolerances of ``MomentsND``, so they are not re-checked; the bound
    reads only their traces, which symmetrizing would leave unchanged.
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
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(trials, atoms, d))
    # both sides at once: axis 0 is the side (p, q), axis 1 the trial
    weights = rng.dirichlet(np.ones(atoms), size=(2, trials))
    tv = 0.5 * np.abs(weights[0] - weights[1]).sum(axis=1)
    means = (weights[:, :, None, :] @ points)[:, :, 0, :]
    centred = points - means[:, :, None, :]
    covs = centred.swapaxes(-1, -2) @ (centred * weights[..., None])
    traces = np.einsum("stii->st", covs)
    a = means[0] - means[1]
    bound = trace_bound(np.einsum("ti,ti->t", a, a), traces[0], traces[1])
    return int(np.count_nonzero(tv < bound - ND_CHECK_TOL))
