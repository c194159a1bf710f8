"""Moment records and closed-form lower bounds on total variation distance.

Every function here is a pure function of the first two moments of a pair of
distributions.  The one-dimensional bound ``tv_lower_bound_1d`` is tight: it
is attained by explicit two- or three-atom pairs (see
:mod:`tvbounds.witness`).  The companion quantities exposed alongside it,
the two-point value, the sign-branch value and the anchored values, are the
other stationary levels of the underlying minimization and always dominate
the tight bound, which makes them useful consistency diagnostics.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    BadParameterError,
    DegenerateVarianceError,
    GapZeroError,
)

__all__ = [
    "Moments1D",
    "MomentPair1D",
    "BoundReport1D",
    "SiblingBranch",
    "gap",
    "radical_v",
    "tv_lower_bound_1d",
    "two_point_tv",
    "sibling_branch_tv",
    "anchored_tv",
    "bound_report",
]


class FrozenRecord:
    """Base of the immutable records that validate their fields.

    A subclass lists its fields in ``__slots__`` and checks them in its own
    ``__init__``, which ends by storing each checked value through its
    slot's setter, in slot order: ``set_x, set_y = self._setters`` and then
    ``set_x(self, x)``.  Each subclass collects those setters once, when it
    is defined, and calls them directly, since records are built on every
    hot path; afterwards every assignment or deletion raises
    ``AttributeError``.  A subclass without an ``__init__`` takes its
    values positionally, one per slot.  Records compare, hash and print by
    the values of their fields, in slot order.  Records without checks are
    ``typing.NamedTuple`` classes instead.
    """

    __slots__ = ()
    # the __set__ of each slot's descriptor, in slot order
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values) -> None:
        if len(values) != len(self._setters):
            raise ValueError(
                f"{type(self).__qualname__} takes {len(self._setters)} values, "
                f"got {len(values)}"
            )
        for store, value in zip(self._setters, values):
            store(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__, so a copy or unpickled record is checked
        return type(self), self._values()


class Moments1D(FrozenRecord):
    """Mean and standard deviation of a distribution on the real line."""

    __slots__ = ("mean", "stddev")

    def __init__(self, mean: float, stddev: float) -> None:
        if not math.isfinite(mean := float(mean)):
            raise ValueError(f"mean must be finite, got {mean!r}")
        if not math.isfinite(stddev := float(stddev)):
            raise ValueError(f"stddev must be finite, got {stddev!r}")
        if stddev < 0.0:
            raise ValueError(f"stddev must be non-negative, got {stddev}")
        set_mean, set_stddev = self._setters
        set_mean(self, mean)
        set_stddev(self, stddev)

    @property
    def variance(self) -> float:
        return self.stddev * self.stddev


class MomentPair1D(NamedTuple):
    """Moment constraints for a pair of distributions on the real line."""

    p_side: Moments1D
    q_side: Moments1D

    @classmethod
    def from_scalars(
        cls, mean_p: float, sd_p: float, mean_q: float, sd_q: float
    ) -> "MomentPair1D":
        return cls(Moments1D(mean_p, sd_p), Moments1D(mean_q, sd_q))


class SiblingBranch(NamedTuple):
    """Value and side-condition flag of the alternate sign branch."""

    value: float
    valid: bool


class BoundReport1D(NamedTuple):
    """Tight bound plus the dominating stationary diagnostics for one pair.

    ``attained`` is False exactly when the means agree but the standard
    deviations differ: the bound is then 0 as an infimum that no pair
    realizes.  Diagnostics that are undefined for the input (equal means, or
    a vanishing standard deviation on the side an anchored value needs) are
    reported as None.
    """

    gap_a: float
    radical_v: float
    tight_bound: float
    attained: bool
    two_point_tv: float | None = None
    sibling_branch_tv: float | None = None
    sibling_branch_valid: bool | None = None
    anchored_p_tv: float | None = None
    anchored_q_tv: float | None = None


def gap(pair: MomentPair1D) -> float:
    """Difference of means; the quantity all one-dimensional bounds feed on."""
    return pair.p_side.mean - pair.q_side.mean


#: Gap, p stddev and q stddev scaled by 2**shift, then shift.
_Scaled = tuple[float, float, float, int]


def _scaled_quantities(pair: MomentPair1D) -> _Scaled:
    """Gap and stddevs rescaled by an exact power of two, plus the shift.

    The largest magnitude lands in [0.5, 1) (subnormal inputs are lifted as
    far as the exponent range allows).  All the bound formulas are ratios of
    degree-2 forms, so the rescaling leaves them bit-identical in the normal
    floating-point range while keeping their intermediates clear of overflow
    and underflow at extreme input magnitudes.  Scaling down can round a
    subnormal gap to 0, so equal means are tested on the unscaled gap.
    A gap that overflows raises ``BadParameterError`` naming both means.
    """
    a = pair.p_side.mean - pair.q_side.mean
    if not math.isfinite(a):
        raise BadParameterError(
            f"the mean gap overflows the float range: mean_p {pair.p_side.mean!r} "
            f"- mean_q {pair.q_side.mean!r} is {a!r}"
        )
    sp = pair.p_side.stddev
    sq = pair.q_side.stddev
    # frexp(0.0) has exponent 0, so all-zero inputs keep factor 1
    shift = min(1023, -math.frexp(max(abs(a), sp, sq))[1])
    factor = math.ldexp(1.0, shift)
    return a * factor, sp * factor, sq * factor, shift


def _radical_poly(a: float, sp: float, sq: float) -> float:
    # the radicand is a sum of non-negative terms, so the sum cannot cancel;
    # the variance difference is taken as (sq - sp)(sq + sp), which keeps
    # the relative accuracy of the stddevs where vq - vp of the rounded
    # squares would cancel for close stddevs
    a2 = a * a
    dv = (sq - sp) * (sq + sp)
    return math.sqrt(dv * dv + 2.0 * a2 * (sp * sp + sq * sq) + a2 * a2)


def _radical_v(scaled: _Scaled) -> float:
    a_s, sp_s, sq_s, shift = scaled
    try:
        return math.ldexp(_radical_poly(a_s, sp_s, sq_s), -2 * shift)
    except OverflowError:
        raise BadParameterError(
            "radical_v overflows the float range: it grows as the square of "
            "the mean gap and stddevs, which must stay below about 1.34e154"
        ) from None


def radical_v(pair: MomentPair1D) -> float:
    """Normalizer of the two-point TV value.

    Computes ``sqrt((vq - vp)^2 + 2 a^2 (vp + vq) + a^4)`` with ``a`` the
    mean gap and ``vp``, ``vq`` the variances.  Zero if and only if the
    means agree and the standard deviations coincide.  The value scales
    quadratically with the inputs and raises ``BadParameterError`` once it
    overflows, at a mean gap or stddev above about 1.34e154.
    """
    return _radical_v(_scaled_quantities(pair))


def _tight_bound(scaled: _Scaled) -> float:
    a, sp, sq, _ = scaled
    if a == 0.0:
        return 0.0
    s = sp + sq
    return (a * a) / (s * s + a * a)


def tv_lower_bound_1d(pair: MomentPair1D) -> float:
    """Tight lower bound on TV(P, Q) given two means and standard deviations.

    Returns ``a^2 / ((sd_p + sd_q)^2 + a^2)`` when the means differ.  When
    they agree, the infimum over the constraint set is 0 and that value is
    returned; it is attained only if the standard deviations also agree
    (see ``BoundReport1D.attained``).
    """
    return _tight_bound(_scaled_quantities(pair))


# The helpers below take the scaled quantities of a pair whose unscaled gap
# is nonzero; their public wrappers refuse equal means first.


def _two_point(scaled: _Scaled) -> float:
    a, sp, sq, _ = scaled
    if sp == 0.0 or sq == 0.0:
        # v collapses onto (sp + sq)^2 + a^2: the value is the tight bound.
        # The scaled stddevs are tested, because a subnormal one scales to 0
        return _tight_bound(scaled)
    v = _radical_poly(a, sp, sq)
    if v == 0.0:
        # reachable only when the squared gap underflows with equal spreads,
        # where v ~ |a| (sp + sq)
        return min(1.0, abs(a) / (sp + sq))
    # the ratio is <= 1 analytically; min() only absorbs the final rounding
    return min(1.0, (a * a) / v)


def two_point_tv(pair: MomentPair1D) -> float:
    """TV of the unique pair supported on a common two-point set.

    Equals ``a^2 / v`` and strictly dominates ``tv_lower_bound_1d`` whenever
    both standard deviations are positive; they coincide when one of them
    vanishes.

    Raises
    ------
    GapZeroError
        If the means are equal; no such pair exists then.
    """
    if gap(pair) == 0.0:
        raise GapZeroError("two-point value is undefined for equal means")
    return _two_point(_scaled_quantities(pair))


def _sibling_branch(unscaled: float, scaled: _Scaled) -> SiblingBranch:
    a, sp, sq, _ = scaled
    ds = sp - sq
    denom = ds * ds + a * a
    # denom underflows only when ds == 0, where the ratio is identically 1
    value = 1.0 if denom == 0.0 else min(1.0, (a * a) / denom)
    # the sign comes from the unscaled gap, which scaling can round to 0
    valid = ds != 0.0 and (unscaled > 0.0) != (ds > 0.0)
    return SiblingBranch(value, valid)


def sibling_branch_tv(pair: MomentPair1D) -> SiblingBranch:
    """Stationary value of the alternate sign branch, with its side condition.

    The value ``a^2 / ((sd_p - sd_q)^2 + a^2)`` always dominates the tight
    bound and is reported unconditionally as an ordering diagnostic.  The
    branch corresponds to an actual three-point stationary configuration
    only when the mean gap and the stddev gap have opposite signs; ``valid``
    reports that condition and is False whenever the stddevs are equal.
    """
    unscaled = gap(pair)
    if unscaled == 0.0:
        raise GapZeroError("sign-branch value is undefined for equal means")
    return _sibling_branch(unscaled, _scaled_quantities(pair))


def _anchored(scaled: _Scaled, p_anchor: bool) -> float:
    # the non-anchored side's stddev is positive, which the callers check
    a, sp, sq, _ = scaled
    own_sd, other_sd = (sp, sq) if p_anchor else (sq, sp)
    own, other = own_sd * own_sd, other_sd * other_sd
    if own == 0.0:
        # v collapses onto other + a^2 and the ratio is identically 1
        return 1.0
    a2 = a * a
    v = _radical_poly(a, sp, sq)
    # factored as in _radical_poly, so close stddevs do not cancel
    excess = (other_sd - own_sd) * (other_sd + own_sd)
    if excess >= 0.0:
        # v - excess cancels at small gaps.  With v^2 - excess^2 = a^2 k and
        # k = 2 (own + other) + a^2 the ratio is 2 (v + excess) / (v + excess
        # + k): no difference, a denominator of at least k, and the small-gap
        # limit 1 - own / other
        s = v + excess
        return min(1.0, 2.0 * s / (s + 2.0 * (own + other) + a2))
    return min(1.0, 2.0 * a2 / (v - excess + a2))


def anchored_tv(pair: MomentPair1D, anchor: str) -> float:
    """Stationary TV of the three-point family where one side keeps an
    exclusive atom.

    ``anchor="p"`` gives ``2 a^2 / (v + vp - vq + a^2)`` (the first measure
    holds an atom the second puts no mass on); ``anchor="q"`` is the same
    expression with the two sides switched.  Both dominate the tight bound,
    strictly so when both standard deviations are positive.

    Raises
    ------
    GapZeroError
        If the means are equal.
    DegenerateVarianceError
        If the standard deviation of the non-anchored side is zero (the
        construction needs it to spread over two atoms).
    BadParameterError
        If ``anchor`` is not ``"p"`` or ``"q"``.
    """
    if gap(pair) == 0.0:
        raise GapZeroError("anchored values are undefined for equal means")
    if anchor == "p":
        if pair.q_side.stddev == 0.0:
            raise DegenerateVarianceError(
                "p-anchored value needs a positive stddev on the q side"
            )
    elif anchor == "q":
        if pair.p_side.stddev == 0.0:
            raise DegenerateVarianceError(
                "q-anchored value needs a positive stddev on the p side"
            )
    else:
        raise BadParameterError(f"anchor must be 'p' or 'q', got {anchor!r}")
    return _anchored(_scaled_quantities(pair), anchor == "p")


def bound_report(pair: MomentPair1D) -> BoundReport1D:
    """Evaluate the tight bound and every diagnostic defined for ``pair``."""
    a = gap(pair)
    scaled = _scaled_quantities(pair)
    v = _radical_v(scaled)
    tight = _tight_bound(scaled)
    sd_p = pair.p_side.stddev
    sd_q = pair.q_side.stddev
    attained = a != 0.0 or sd_p == sd_q
    if a == 0.0:
        return BoundReport1D(a, v, tight, attained)
    sibling = _sibling_branch(a, scaled)
    return BoundReport1D(
        gap_a=a,
        radical_v=v,
        tight_bound=tight,
        attained=attained,
        two_point_tv=_two_point(scaled),
        sibling_branch_tv=sibling.value,
        sibling_branch_valid=sibling.valid,
        anchored_p_tv=_anchored(scaled, True) if sd_q > 0.0 else None,
        anchored_q_tv=_anchored(scaled, False) if sd_p > 0.0 else None,
    )
