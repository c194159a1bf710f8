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
    _radical_poly,
    _scaled_quantities,
    anchored_tv,
    gap,
    radical_v,
    tv_lower_bound_1d,
    two_point_tv,
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
    """Two distributions on a shared support with a verified TV value."""

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
        object.__setattr__(self, "p_dist", p_dist)
        object.__setattr__(self, "q_dist", q_dist)
        object.__setattr__(self, "claimed_tv", claimed_tv)
        object.__setattr__(self, "kind", kind)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "p": self.p_dist.to_json_dict(),
            "q": self.q_dist.to_json_dict(),
            "tv": self.claimed_tv,
        }


def _clamp_unit(p: float) -> float:
    # tolerate sub-ulp excursions of the closed forms outside [0, 1]
    if -1e-12 <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + 1e-12:
        return 1.0
    return p


def _stable_mass(signed: float, v: float, scale: float) -> tuple[float, float]:
    """(m, 1 - m) for m = 1/2 + signed/(2v), both at full relative accuracy.

    Uses ``(v - signed)(v + signed) = 4 scale^2`` to express the small one
    of the two as a product instead of a cancelling difference.
    """
    if signed >= 0.0:
        m = _clamp_unit(0.5 + signed / (2.0 * v))
        complement = _clamp_unit(2.0 * scale * scale / (v * (v + signed)))
    else:
        m = _clamp_unit(2.0 * scale * scale / (v * (v - signed)))
        complement = _clamp_unit(0.5 - signed / (2.0 * v))
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


def _checked(
    kind: WitnessKind,
    p_atoms: list[tuple[float, float]],
    q_atoms: list[tuple[float, float]],
    claimed_tv: float,
    targets: MomentPair1D,
) -> WitnessPair:
    p_dist = DiscreteDist(
        tuple(x for x, _ in p_atoms), tuple(_clamp_unit(w) for _, w in p_atoms)
    )
    q_dist = DiscreteDist(
        tuple(x for x, _ in q_atoms), tuple(_clamp_unit(w) for _, w in q_atoms)
    )
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
    deviation collapses the corresponding side to a point mass anchoring a
    two-point pair, and with both zero the pair is two distinct point
    masses with TV 1.

    Raises
    ------
    GapZeroError
        If the means agree; the infimum 0 has no minimizer then and the
        vanishing sequence is the right object.
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
    p = tv_lower_bound_1d(pair)
    if sp > 0.0 and sq > 0.0:
        # one shared formula for both signs of the gap
        s = math.copysign(1.0, a)
        t = _nonzero(abs(a) / (sp + sq), "gap-to-spread ratio", a)
        x1 = mp - s * sp * t
        x2 = mp + s * sp / t
        x3 = mq - s * sq / t
        return _checked(
            WitnessKind.THREE_POINT,
            [(x1, 1.0 - p), (x2, p), (x3, 0.0)],
            [(x1, 1.0 - p), (x2, 0.0), (x3, p)],
            p,
            pair,
        )
    _nonzero(p, "tight bound", a)
    if sp > 0.0:
        # q side is a point mass; the second p atom is pinned by the moments
        x2 = mq + a / p
        return _checked(
            WitnessKind.TWO_POINT_Q_DEGENERATE,
            [(mq, 1.0 - p), (x2, p)],
            [(mq, 1.0), (x2, 0.0)],
            p,
            pair,
        )
    if sq > 0.0:
        y = mp - a / p
        return _checked(
            WitnessKind.TWO_POINT_P_DEGENERATE,
            [(mp, 1.0), (y, 0.0)],
            [(mp, 1.0 - p), (y, p)],
            p,
            pair,
        )
    return _checked(
        WitnessKind.BOTH_POINT_MASSES,
        [(mp, 1.0), (mq, 0.0)],
        [(mp, 0.0), (mq, 1.0)],
        p,
        pair,
    )


def construct_two_point(pair: MomentPair1D) -> WitnessPair:
    """The unique pair supported on a common two-point set.

    Its TV is ``a^2 / v`` (see :func:`tvbounds.moments.two_point_tv`).  The
    canonical labeling puts the larger support point first; the relabeled
    twin describes the same pair and is not exposed.  With a point mass on
    either side the pair is the tight witness, relabeled: the point mass
    sits on one of the two shared points, and ``two_point_tv`` is the tight
    bound there.
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
    # refuses, with BadParameterError, a pair whose radical overflows
    radical_v(pair)
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
    a_s, sp_s, sq_s, _ = _scaled_quantities(pair)
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
    if p <= 0.0 or one_minus_p <= 0.0:
        raise WitnessConstructionError(
            f"two-point mass parameter {p!r} leaves no room for a second atom"
        )
    x1 = mp + sp * math.sqrt(p / one_minus_p)
    x2 = mp - sp * math.sqrt(one_minus_p / p)
    return _checked(
        WitnessKind.TWO_POINT_SHARED,
        [(x1, one_minus_p), (x2, p)],
        [(x1, one_minus_q), (x2, q)],
        two_point_tv(pair),
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
        If ``q_param`` is not strictly inside (0, 1).
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
    p = _nonzero(anchored_tv(pair, "p"), "anchored value", a)
    x3 = (a + p * mq) / p
    x1 = mq + sq * math.sqrt(q_param / (1.0 - q_param))
    x2 = mq - sq * math.sqrt((1.0 - q_param) / q_param)
    return _checked(
        WitnessKind.ANCHORED_THREE_POINT,
        [(x1, (1.0 - p) * (1.0 - q_param)), (x2, (1.0 - p) * q_param), (x3, p)],
        [(x1, 1.0 - q_param), (x2, q_param), (x3, 0.0)],
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
        If ``k`` is not an integer >= 2.
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
        near = [(m - sigma_p, 0.5), (m + sigma_p, 0.5)]
        return _checked(kind, near, near, 0.0, targets)
    s_small, s_big = sorted((sigma_p, sigma_q))
    outer = 0.5 / k
    inner = 0.5 - outer
    x_far = math.sqrt((s_big * s_big - s_small * s_small) * k + s_small * s_small)
    narrow = [(m - s_small, 0.5), (m + s_small, 0.5)]
    wide = [(m - x_far, outer), (m - s_small, inner), (m + s_small, inner), (m + x_far, outer)]
    p_atoms, q_atoms = (wide, narrow) if sigma_p > sigma_q else (narrow, wide)
    return _checked(kind, p_atoms, q_atoms, 1.0 / k, targets)
