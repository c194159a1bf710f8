"""Finite discrete distributions on the real line.

The :class:`DiscreteDist` value type is the common carrier for extremal
witnesses and LP solutions.  Moment and TV arithmetic on it is exact up to
compensated summation (``math.fsum``), which keeps the advertised round-trip
tolerances reachable even on supports spanning several orders of magnitude.
All values are immutable after construction and every operation is pure.

The records follow the package's two idioms: ``MomentSummary``, which
checks nothing, is a ``typing.NamedTuple``; ``DiscreteDist`` validates, so
it is a ``__slots__`` subclass of :class:`~tvbounds.moments.FrozenRecord`
that checks in its ``__init__`` and refuses assignment afterwards.  Neither
idiom imports more of the standard library than ``typing``.
"""

from __future__ import annotations

import math
from operator import mul, sub
from typing import NamedTuple

from .moments import FrozenRecord, Moments1D

__all__ = ["DiscreteDist", "MomentSummary", "tv_distance", "check_moments"]

#: Relative scale of the tolerance used to identify nearby support points.
SUPPORT_MERGE_REL = 1e-12
#: How far the probabilities may sum from 1.
PROB_SUM_TOL = 1e-12


def _merge_tol(points) -> float:
    return SUPPORT_MERGE_REL * (1.0 + max(map(abs, points)))


def _sum_nonnegative(terms) -> float:
    # fsum raises OverflowError when finite terms sum past the float range;
    # with no negative term that sum is +inf, which the moment checks reject
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


class MomentSummary(NamedTuple):
    """Mean and variance of a discrete distribution."""

    mean: float
    variance: float


class DiscreteDist(FrozenRecord):
    """A probability distribution with finitely many atoms on the real line.

    Construction sorts the atoms, merges support points closer than
    ``SUPPORT_MERGE_REL * (1 + max |x|)`` by summing their probabilities,
    and validates that probabilities are non-negative and sum to 1 within
    ``PROB_SUM_TOL``.  Atoms with probability exactly 0 are kept if supplied
    (witness pairs use them to make a shared support explicit); ``compact``
    strips them on demand.
    """

    __slots__ = ("support", "probs")

    def __init__(self, support: tuple[float, ...], probs: tuple[float, ...]) -> None:
        support = list(map(float, support))
        probs = list(map(float, probs))
        if len(support) != len(probs):
            raise ValueError(
                f"support has {len(support)} points but probs has {len(probs)}"
            )
        if not support:
            raise ValueError("a distribution needs at least one atom")
        # screened in C; the walks only name the first offender
        if not all(map(math.isfinite, support)):
            x = next(x for x in support if not math.isfinite(x))
            raise ValueError(f"support point {x!r} is not finite")
        if not all(map(math.isfinite, probs)) or min(probs) < 0.0:
            p = next(p for p in probs if not math.isfinite(p) or p < 0.0)
            raise ValueError(f"probability {p!r} is not finite and non-negative")

        order = sorted(range(len(support)), key=support.__getitem__)
        tol = _merge_tol(support)
        merged_x: list[float] = []
        merged_p: list[float] = []
        # the last kept point; x - (-inf) is inf, so the first point is kept
        last = -math.inf
        for idx in order:
            x = support[idx]
            if x - last <= tol:
                merged_p[-1] += probs[idx]
            else:
                merged_x.append(x)
                merged_p.append(probs[idx])
                last = x
        total = math.fsum(merged_p)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        set_support, set_probs = self._setters
        set_support(self, tuple(merged_x))
        set_probs(self, tuple(merged_p))

    @classmethod
    def delta(cls, x: float) -> "DiscreteDist":
        """Point mass at ``x``."""
        return cls((x,), (1.0,))

    def __len__(self) -> int:
        return len(self.support)

    def moments(self) -> MomentSummary:
        """Mean and variance via compensated summation.

        The variance is summed about the mean in a second pass, because
        ``E[x^2] - mean^2`` cancels catastrophically once the mean is large
        against the spread.
        """
        return MomentSummary(*_mean_variance(self))

    def compact(self) -> "DiscreteDist":
        """Copy with zero-probability atoms removed."""
        kept = [(x, p) for x, p in zip(self.support, self.probs) if p != 0.0]
        return DiscreteDist(tuple(x for x, _ in kept), tuple(p for _, p in kept))

    def to_json_dict(self) -> dict:
        return {"support": list(self.support), "probs": list(self.probs)}


def _mean_variance(d: DiscreteDist) -> tuple[float, float]:
    # the one moment routine: DiscreteDist.moments wraps its result and
    # check_moments, on every witness's path, unpacks it
    mean = math.fsum(map(mul, d.probs, d.support))
    # squared by a product: float ** raises OverflowError where the
    # product overflows to inf, which the moment checks then reject; a
    # zero-mass atom adds nothing, even where its square overflows
    deviations = [x - mean if p else 0.0 for x, p in zip(d.support, d.probs)]
    return mean, _sum_nonnegative(map(mul, d.probs, map(mul, deviations, deviations)))


def tv_distance(p: DiscreteDist, q: DiscreteDist) -> float:
    """Total variation distance between two finite discrete distributions.

    The two supports are merged, identifying points within the same relative
    tolerance the constructor uses, and the result is half the L1 distance
    between the aligned probability vectors.  Always in [0, 1], and exactly
    0 for two identical values.
    """
    if p.support == q.support:
        # as every tight, two-point and anchored witness has (the sides of
        # the vanishing sequence differ); the walk below would pair exactly
        # these terms, in this order
        return min(1.0, 0.5 * math.fsum(map(abs, map(sub, p.probs, q.probs))))
    # the supports are sorted, so their largest magnitudes sit at their ends
    tol = _merge_tol((p.support[0], p.support[-1], q.support[0], q.support[-1]))
    terms: list[float] = []
    i = j = 0
    np_, nq = len(p.support), len(q.support)
    while i < np_ or j < nq:
        if j >= nq or (i < np_ and p.support[i] < q.support[j] - tol):
            terms.append(p.probs[i])
            i += 1
        elif i >= np_ or q.support[j] < p.support[i] - tol:
            terms.append(q.probs[j])
            j += 1
        else:
            terms.append(abs(p.probs[i] - q.probs[j]))
            i += 1
            j += 1
    return min(1.0, 0.5 * math.fsum(terms))


def check_moments(d: DiscreteDist, target: Moments1D, tol: float) -> bool:
    """True iff the moments of ``d`` match ``target`` within ``tol``.

    The mean is compared within ``tol * (1 + |mean|)`` and the variance
    within ``tol * (1 + variance)``, absolute below unit scale and relative
    above.  A ``tol`` that is not positive and finite raises ``ValueError``:
    nan would read as a mismatch and inf would accept any atoms.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    mean, variance = _mean_variance(d)
    return (
        abs(mean - target.mean) <= tol * (1.0 + abs(target.mean))
        and abs(variance - target.variance) <= tol * (1.0 + target.variance)
    )
