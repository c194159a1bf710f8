"""Constructors for the extremal distribution pairs behind the 1-D bounds.

Each constructor returns a :class:`WitnessPair` whose claimed TV value and
declared moments have been re-verified on the actual atoms before the pair
is handed back; a pair that fails its own round-trip raises
:class:`~tvbounds.errors.WitnessConstructionError` instead of being
returned.  The families covered are the bound-attaining two/three-atom
pairs, the unique pair on a shared two-point support, the anchored
three-point family (one side keeps an exclusive atom), and the sequence
with equal means whose TV marches down to the unattained infimum 0.
"""

from __future__ import annotations

import enum
import math
import sys

from .discrete import DiscreteDist, check_moments, tv_distance
from .errors import (
    BadParameterError,
    DegenerateVarianceError,
    GapZeroError,
    WitnessConstructionError,
)
from .moments import (
    FrozenRecord,
    MomentPair1D,
    _anchored,
    _radical_poly,
    _radical_v,
    _scaled_quantities,
    _tight_bound,
    _two_point,
    gap,
)

__all__ = [
    "WitnessKind",
    "WitnessPair",
    "construct_tight_witness",
    "construct_two_point",
    "construct_anchored_witness",
    "construct_vanishing_sequence",
]

#: Absolute agreement required between the claimed TV and the recomputed one.
TV_MATCH_TOL = 1e-12
#: Relative agreement required between declared and recomputed moments.
MOMENT_MATCH_TOL = 1e-9
#: Power of two the two-point masses are evaluated at (see construct_two_point).
_MASS_SCALE = 2.0**249


class WitnessKind(enum.Enum):
    """Which construction produced a witness pair."""

    THREE_POINT = "three_point"
    TWO_POINT_Q_DEGENERATE = "two_point_q_degenerate"
    TWO_POINT_P_DEGENERATE = "two_point_p_degenerate"
    BOTH_POINT_MASSES = "both_point_masses"
    TWO_POINT_SHARED = "two_point_shared"
    ANCHORED_THREE_POINT = "anchored_three_point"
    VANISHING_SEQUENCE = "vanishing_sequence"


class WitnessPair(FrozenRecord):
    """Two distributions with a verified TV value.  The tight, two-point and
    anchored witnesses put both sides on one support; the vanishing
    sequence with unequal stddevs does not (its sides have 4 and 2 atoms)."""

    __slots__ = ("p_dist", "q_dist", "claimed_tv", "kind")

    def __init__(
        self,
        p_dist: DiscreteDist,
        q_dist: DiscreteDist,
        claimed_tv: float,
        kind: WitnessKind,
    ) -> None:
        if not 0.0 <= claimed_tv <= 1.0:
            raise WitnessConstructionError(f"claimed TV {claimed_tv!r} is outside [0, 1]")
        actual = tv_distance(p_dist, q_dist)
        if abs(actual - claimed_tv) > TV_MATCH_TOL:
            raise WitnessConstructionError(
                f"claimed TV {claimed_tv!r} but the atoms give {actual!r}"
            )
        set_p, set_q, set_tv, set_kind = self._setters
        set_p(self, p_dist)
        set_q(self, q_dist)
        set_tv(self, claimed_tv)
        set_kind(self, kind)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "p": self.p_dist.to_json_dict(),
            "q": self.q_dist.to_json_dict(),
            "tv": self.claimed_tv,
        }


def _stable_mass(signed: float, v: float, scale: float) -> tuple[float, float]:
    """(m, 1 - m) for m = 1/2 + signed/(2v), both at full relative accuracy.

    Uses ``(v - signed)(v + signed) = 4 scale^2`` to express the small one
    of the two as a product instead of a cancelling difference.  The
    product is ``(v - |signed|) / (2v)``, at most 1/2; the difference is at
    least 1/2 and can pass 1 only by the rounding of ``|signed| / (2v)``.
    """
    if signed >= 0.0:
        m = min(1.0, 0.5 + signed / (2.0 * v))
        complement = 2.0 * scale * scale / (v * (v + signed))
    else:
        m = 2.0 * scale * scale / (v * (v - signed))
        complement = min(1.0, 0.5 - signed / (2.0 * v))
    return m, complement


def _nonzero(value: float, what: str, a: float) -> float:
    # an exclusive atom sits at a distance proportional to 1 / value, so a
    # value that underflowed to 0 leaves it no finite position
    if value == 0.0:
        raise WitnessConstructionError(
            f"{what} underflows to 0 at mean gap {a!r}; "
            "the exclusive atom has no finite position"
        )
    return value


def _refuse_overflowing_variance(pair: MomentPair1D) -> None:
    # no atoms match a variance past the float range, so the moment check
    # would refuse the pair by comparing inf or nan with inf
    sp, sq = pair.p_side.stddev, pair.q_side.stddev
    if math.isinf(sp * sp) or math.isinf(sq * sq):
        label, sd = ("p", sp) if math.isinf(sp * sp) else ("q", sq)
        raise BadParameterError(
            f"the {label} side's variance overflows the float range: "
            f"stddev {sd!r} squares past it, and stddevs must stay below "
            "about 1.34e154"
        )


def _checked(
    kind: WitnessKind,
    p_atoms: tuple[list[float], list[float]],
    q_atoms: tuple[list[float], list[float]],
    claimed_tv: float,
    targets: MomentPair1D,
) -> WitnessPair:
    _refuse_overflowing_variance(targets)
    # each side's atoms come as (support, masses), the masses in [0, 1]
    p_dist = DiscreteDist(*p_atoms)
    q_dist = DiscreteDist(*q_atoms)
    for dist, target, label in zip((p_dist, q_dist), targets, "pq"):
        if not check_moments(dist, target, MOMENT_MATCH_TOL):
            got = dist.moments()
            raise WitnessConstructionError(
                f"{kind.value} witness: {label} side moments "
                f"(mean {got.mean!r}, variance {got.variance!r}) do not match "
                f"the target (mean {target.mean!r}, variance {target.variance!r})"
            )
    return WitnessPair(p_dist, q_dist, claimed_tv, kind)


def construct_tight_witness(pair: MomentPair1D) -> WitnessPair:
    """Pair of two- or three-atom distributions attaining the tight bound.

    With both standard deviations positive the pair lives on three shared
    points, the two measures agreeing on one of them and holding exclusive
    mass ``p`` (the bound value) on the other two.  A vanishing standard
    deviation collapses that side to a point mass at its mean, and the kind
    names that side; the other keeps ``1 - p`` there and puts ``p`` on the
    atom its own mean pins.  With both zero the pair is two distinct point
    masses with TV 1.

    Raises
    ------
    GapZeroError
        If the means agree; the infimum 0 has no minimizer then and the
        vanishing sequence is the right object.
    BadParameterError
        If a stddev squares past the float range.
    WitnessConstructionError
        If the bound or the gap-to-spread ratio underflows to 0.
    """
    a = gap(pair)
    if a == 0.0:
        raise GapZeroError(
            "the tight bound has no minimizer for equal means; "
            "use construct_vanishing_sequence"
        )
    mp, sp = pair.p_side.mean, pair.p_side.stddev
    mq, sq = pair.q_side.mean, pair.q_side.stddev
    scaled = _scaled_quantities(pair)
    p = _tight_bound(scaled)
    # 1 - p keeps only the absolute rounding of p, so once p passes 1/2 the
    # complement is the bound's own ratio with the gap and spread swapped
    a_s, sp_s, sq_s, _ = scaled
    spread_sq = (sp_s + sq_s) * (sp_s + sq_s)
    rest = 1.0 - p if p <= 0.5 else spread_sq / (spread_sq + a_s * a_s)
    if sp > 0.0 and sq > 0.0:
        # one shared formula for both signs of the gap
        s = math.copysign(1.0, a)
        t = _nonzero(abs(a) / (sp + sq), "gap-to-spread ratio", a)
        x1 = mp - s * sp * t
        x2 = mp + s * sp / t
        x3 = mq - s * sq / t
        support = [x1, x2, x3]
        return _checked(
            WitnessKind.THREE_POINT,
            (support, [rest, p, 0.0]),
            (support, [rest, 0.0, p]),
            p,
            pair,
        )
    _nonzero(p, "tight bound", a)
    if sp == 0.0 and sq == 0.0:
        return _checked(
            WitnessKind.BOTH_POINT_MASSES,
            ([mp, mq], [1.0, 0.0]),
            ([mp, mq], [0.0, 1.0]),
            p,
            pair,
        )
    if sq == 0.0:
        kind, c, m, d = WitnessKind.TWO_POINT_Q_DEGENERATE, mq, mp, a
    else:
        kind, c, m, d = WitnessKind.TWO_POINT_P_DEGENERATE, mp, mq, -a
    # far - c = d / p; past p = 1/2 the atom sits near the spread side's
    # mean m = c + d, and is placed from there to keep it clear of the
    # rounding of c + d / p
    far = c + d / p if p <= 0.5 else m + d * (rest / p)
    point = ([c, far], [1.0, 0.0])
    spread = ([c, far], [rest, p])
    p_atoms, q_atoms = (spread, point) if sq == 0.0 else (point, spread)
    return _checked(kind, p_atoms, q_atoms, p, pair)


def construct_two_point(pair: MomentPair1D) -> WitnessPair:
    """The unique pair supported on a common two-point set.

    Its TV is ``a^2 / v``, ``bound_report``'s ``two_point_tv``.  The
    canonical labeling puts the larger support point first; the relabeled
    twin describes the same pair and is not exposed.  With a point mass on
    either side the pair is the tight witness, relabeled: the point mass
    sits on one of the two shared points, and the two-point value is the
    tight bound there.  A stddev that squares past the float range raises
    ``BadParameterError``.
    """
    a = gap(pair)
    if a == 0.0:
        raise GapZeroError("no two-point pair exists for equal means")
    mp, sp = pair.p_side.mean, pair.p_side.stddev
    sq = pair.q_side.stddev
    if sp == 0.0 or sq == 0.0:
        tight = construct_tight_witness(pair)
        return WitnessPair(
            tight.p_dist, tight.q_dist, tight.claimed_tv, WitnessKind.TWO_POINT_SHARED
        )
    scaled = _scaled_quantities(pair)
    # refuses, with BadParameterError, a pair whose radical overflows;
    # a stddev that squares past the float range is named first
    _refuse_overflowing_variance(pair)
    _radical_v(scaled)
    s = math.copysign(1.0, a)
    # p = 1/2 + s (sp^2 - sq^2 - a^2) / (2v) and q = p + a|a|/v; whichever of
    # each mass and its complement is small is computed by the equivalent
    # product form (v^2 minus the squared numerator factors through 4 a^2
    # times the matching variance) to keep its relative error at machine level.
    # The masses are ratios of forms of degree 2 and 4 in the gap and
    # stddevs, so they are evaluated on the three scaled by one power of
    # two: bit-identical wherever no intermediate leaves the normal range.
    # _scaled_quantities puts the largest in [0.5, 1), and _MASS_SCALE lifts
    # it to [2^248, 2^249), where no degree-4 product overflows and
    # underflow waits for gap-to-stddev ratios near 1e-229 (unscaled, it
    # starts at 1e-154 for inputs near 1, and at any ratio for inputs near
    # 1e-153).  The variance difference is factored as in
    # moments._radical_poly, so close stddevs do not cancel
    a_s, sp_s, sq_s, _ = scaled
    a_s, sp_s, sq_s = a_s * _MASS_SCALE, sp_s * _MASS_SCALE, sq_s * _MASS_SCALE
    v = _radical_poly(a_s, sp_s, sq_s)
    if v == 0.0:
        # equal stddevs and a gap whose square underflows even when scaled:
        # the masses differ from 1/2 by far less than an ulp
        p = one_minus_p = q = one_minus_q = 0.5
    else:
        dv = (sp_s - sq_s) * (sp_s + sq_s)
        p, one_minus_p = _stable_mass(s * (dv - a_s * a_s), v, a_s * sp_s)
        q, one_minus_q = _stable_mass(s * (dv + a_s * a_s), v, a_s * sq_s)
    # the p side's masses place the atoms, unless its smaller mass has left
    # the normal range and the q side's is larger, as in the swapped pair:
    # an atom sd / sqrt(mass) away would overflow or lose its digits.  A
    # mass whose inverse still overflows leaves that atom no position
    m, sd, w, w_c = mp, sp, p, one_minus_p
    if min(p, one_minus_p) < min(q, one_minus_q, sys.float_info.min):
        m, sd, w, w_c = pair.q_side.mean, sq, q, one_minus_q
    small = min(w, w_c)
    if small <= 0.0 or math.isinf(max(w, w_c) / small):
        raise WitnessConstructionError(
            f"two-point mass {small!r} leaves no room for a second atom"
        )
    x1 = m + sd * math.sqrt(w / w_c)
    x2 = m - sd * math.sqrt(w_c / w)
    return _checked(
        WitnessKind.TWO_POINT_SHARED,
        ([x1, x2], [one_minus_p, p]),
        ([x1, x2], [one_minus_q, q]),
        _two_point(scaled),
        pair,
    )


def construct_anchored_witness(pair: MomentPair1D, q_param: float = 0.5) -> WitnessPair:
    """Three-point pair in which the first measure keeps an exclusive atom.

    The second measure spreads over two points carrying mass ``q_param``
    and ``1 - q_param``; the family is genuinely one-parameter, and the
    default ``q_param = 1/2`` picks the symmetric representative.  The TV
    equals the p-anchored stationary value ``2 a^2 / (v + vp - vq + a^2)``
    exactly, for every admissible ``q_param``.

    Raises
    ------
    GapZeroError
        If the means agree.
    DegenerateVarianceError
        If either standard deviation is zero.
    BadParameterError
        If ``q_param`` is not strictly inside (0, 1), or a stddev squares
        past the float range.
    WitnessConstructionError
        If the anchored value underflows to 0 (a gap whose square
        underflows), which leaves the exclusive atom no finite position.
    """
    a = gap(pair)
    if a == 0.0:
        raise GapZeroError("anchored witnesses are undefined for equal means")
    mp, sp = pair.p_side.mean, pair.p_side.stddev
    mq, sq = pair.q_side.mean, pair.q_side.stddev
    if sp == 0.0 or sq == 0.0:
        raise DegenerateVarianceError(
            "anchored witnesses need positive stddev on both sides"
        )
    q_param = float(q_param)
    if not 0.0 < q_param < 1.0:
        raise BadParameterError(f"q_param must be in (0, 1), got {q_param}")
    p = _nonzero(_anchored(_scaled_quantities(pair), True), "anchored value", a)
    x3 = (a + p * mq) / p
    x1 = mq + sq * math.sqrt(q_param / (1.0 - q_param))
    x2 = mq - sq * math.sqrt((1.0 - q_param) / q_param)
    support = [x1, x2, x3]
    return _checked(
        WitnessKind.ANCHORED_THREE_POINT,
        (support, [(1.0 - p) * (1.0 - q_param), (1.0 - p) * q_param, p]),
        (support, [1.0 - q_param, q_param, 0.0]),
        p,
        pair,
    )


def construct_vanishing_sequence(
    m: float, sigma_p: float, sigma_q: float, k: int
) -> WitnessPair:
    """Element ``k`` of the equal-means family whose TV is exactly ``1/k``.

    The side with the larger standard deviation puts mass ``1/(2k)`` on a
    pair of far-out points chosen so its variance still matches, and
    ``1/2 - 1/(2k)`` on the two near points the other side uses with mass
    ``1/2`` each.  With equal standard deviations the two sides are the
    same two-point distribution and the TV is 0.  Like every witness, the
    pair is checked against the moments it is built for.

    Raises
    ------
    BadParameterError
        If ``k`` is not an integer >= 2, or a stddev squares past the float
        range, or the stddevs differ and ``k`` is past the float range.
    WitnessConstructionError
        If the atoms miss those moments, as when the spread is too small
        against ``m`` for the near points to stay apart.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise BadParameterError(f"k must be an integer >= 2, got {k!r}")
    targets = MomentPair1D.from_scalars(m, sigma_p, m, sigma_q)
    m, sigma_p, sigma_q = float(m), float(sigma_p), float(sigma_q)
    kind = WitnessKind.VANISHING_SEQUENCE
    if sigma_p == sigma_q:
        near = ([m - sigma_p, m + sigma_p], [0.5, 0.5])
        return _checked(kind, near, near, 0.0, targets)
    try:
        outer = 0.5 / k
    except OverflowError:
        raise BadParameterError(
            f"k must fit in a float, below about 1.8e308; got {k.bit_length()} bits"
        ) from None
    s_small, s_big = sorted((sigma_p, sigma_q))
    inner = 0.5 - outer
    x_far = math.sqrt((s_big * s_big - s_small * s_small) * k + s_small * s_small)
    narrow = ([m - s_small, m + s_small], [0.5, 0.5])
    wide = ([m - x_far, m - s_small, m + s_small, m + x_far], [outer, inner, inner, outer])
    p_atoms, q_atoms = (wide, narrow) if sigma_p > sigma_q else (narrow, wide)
    return _checked(kind, p_atoms, q_atoms, 1.0 / k, targets)
