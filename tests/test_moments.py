"""Closed-form bound formulas and their ordering/invariance properties."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tvbounds import (
    BadParameterError,
    BoundReport1D,
    DimensionMismatchError,
    DiscreteDist,
    MomentPair1D,
    MomentPairND,
    MomentsND,
    TVBoundError,
    WitnessPair,
    bound_report,
    check_nd_bound_random,
    construct_tight_witness,
    construct_two_point,
    gap,
    tv_distance,
    tv_lower_bound_1d,
    tv_lower_bound_nd,
)
from tvbounds.nd import (
    COV_PSD_TOL,
    _floats,
    _twice_trace_bound_batch,
    finite_traces,
    gap_norm_sq,
    trace_bound,
)

from conftest import ref_moments
from domain import BOX, NEAR_UNIT, POSITIVE, draws, pair, pairs, sample

#: Spreads to 10, any zero side or equal means: the box of means in
#: [-10, 10] and stddevs 0 or in [1e-6, 5], as axes.
ANY_PAIRS = pairs(scale=(-324, 1.31), offset=(0, 16), gap=(-324, 7.4), ratio=(-7, 7))


# ---------------------------------------------------------------- gap / radical


@pytest.mark.parametrize(
    "mp,mq,expected",
    [(1.0, 0.0, 1.0), (3.0, 3.0, 0.0), (0.0, 2.5, -2.5)],
)
def test_gap_is_plain_subtraction(mp, mq, expected):
    assert gap(pair(mp, 1.0, mq, 1.0)) == expected


@pytest.mark.parametrize(
    "args,expected",
    [
        ((1, 1, 0, 1), math.sqrt(5.0)),
        ((1, 0, 0, 0), 1.0),
        ((0, 2, 0, 1), 3.0),
    ],
)
def test_radical_values(args, expected):
    assert bound_report(pair(*args)).radical_v == pytest.approx(expected, rel=1e-15)


def test_radical_zero_iff_identical_moments():
    assert bound_report(pair(2, 1.5, 2, 1.5)).radical_v == 0.0
    assert bound_report(pair(2, 1.5, 2, 1.4)).radical_v > 0.0
    assert bound_report(pair(2.1, 1.5, 2, 1.5)).radical_v > 0.0


@pytest.mark.parametrize("sp,sq", [(1.0, 1.0), (0.0, 0.0)])
def test_radical_overflow_is_a_specific_error(sp, sq):
    # v grows as a^2, which passes the float range at a gap of about 1.34e154
    assert math.isfinite(bound_report(pair(1e154, sp, 0.0, sq)).radical_v)
    with pytest.raises(BadParameterError, match="overflows"):
        bound_report(pair(1.35e154, sp, 0.0, sq))
    with pytest.raises(BadParameterError, match="overflows"):
        bound_report(pair(0.0, sp, 1e200, sq))


def test_overflowing_mean_gap_is_a_specific_error():
    # two finite means whose difference passes the float range, where the
    # closed forms would give nan
    with pytest.raises(BadParameterError) as err:
        tv_lower_bound_1d(pair(1e308, 1.0, -1e308, 1.0))
    assert str(err.value) == (
        "the mean gap overflows the float range: mean_p 1e+308 - mean_q -1e+308 is inf"
    )
    with pytest.raises(BadParameterError, match=r"mean_p -1e\+308 - mean_q 1e\+308 is -inf"):
        bound_report(pair(-1e308, 0.0, 1e308, 0.0))


# ------------------------------------------------------------------ 1-D bound


def test_tight_bound_examples():
    assert tv_lower_bound_1d(pair(1, 1, 0, 1)) == 0.2
    assert tv_lower_bound_1d(pair(4, 0.3, 4, 2.7)) == 0.0
    assert tv_lower_bound_1d(pair(1, 0, 0, 0)) == 1.0


def two_point(this):
    return bound_report(this).two_point_tv


def sibling_branch(this):
    report = bound_report(this)
    return report.sibling_branch_tv, report.sibling_branch_valid


def anchored(this):
    report = bound_report(this)
    return report.anchored_p_tv, report.anchored_q_tv


def test_two_point_examples():
    assert two_point(pair(1, 1, 0, 1)) == pytest.approx(1 / math.sqrt(5), rel=1e-15)
    assert two_point(pair(1, 1, 0, 0)) == pytest.approx(0.5, rel=1e-15)
    assert two_point(pair(1, 0, 0, 0)) == 1.0


def test_sibling_branch_examples():
    value, valid = sibling_branch(pair(1, 1, 0, 2))
    assert value == pytest.approx(0.5, rel=1e-15)
    assert valid is True
    value, valid = sibling_branch(pair(1, 2, 0, 1))
    assert value == pytest.approx(0.5, rel=1e-15)
    assert valid is False
    value, valid = sibling_branch(pair(1, 1, 0, 1))
    assert value == 1.0
    assert valid is False


def test_sibling_branch_realized_by_stationary_configuration():
    # when the side condition holds, an explicit three-point configuration
    # with the branch's TV and the right moments exists; build it and check
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        mp, sp, mq, sq = sample(rng, POSITIVE)
        a = mp - mq
        if a == 0 or sp == sq or (a > 0) == (sp > sq):
            continue
        u = -a / (sp - sq)
        assert u > 0
        p = u * u / (1.0 + u * u)
        x1 = mp + sp * u
        x2 = mp - sp / u
        x3 = mq - sq / u
        p_atoms = ((x1, 1 - p), (x2, p))
        q_atoms = ((x1, 1 - p), (x3, p))
        for atoms, (m_t, s_t) in ((p_atoms, (mp, sp)), (q_atoms, (mq, sq))):
            mean, var = ref_moments([x for x, _ in atoms], [w for _, w in atoms])
            assert mean == pytest.approx(m_t, abs=1e-9)
            assert var == pytest.approx(s_t * s_t, rel=1e-9, abs=1e-9)
        tv = tv_distance(
            DiscreteDist((x1, x2, x3), (1 - p, p, 0.0)),
            DiscreteDist((x1, x2, x3), (1 - p, 0.0, p)),
        )
        value, valid = sibling_branch(pair(mp, sp, mq, sq))
        assert valid is True
        assert tv == pytest.approx(value, abs=1e-12)
        checked += 1


def test_anchored_examples():
    assert anchored(pair(1, 1, 0, 1))[0] == pytest.approx(2 / (1 + math.sqrt(5)), rel=1e-15)
    anchored_p, anchored_q = anchored(pair(1, 2, 0, 1))
    assert anchored_p == pytest.approx(2 / (math.sqrt(20) + 4), rel=1e-15)
    assert anchored_q == pytest.approx(2 / (math.sqrt(20) - 2), rel=1e-15)


def test_anchored_swap_symmetry():
    for mp, sp, mq, sq in draws(11, 50, POSITIVE):
        fwd = pair(mp, sp, mq, sq)
        rev = pair(mq, sq, mp, sp)
        assert anchored(fwd) == anchored(rev)[::-1]


def _decimal_reference(a, sp, sq):
    """radical_v, two_point_tv, both anchored values and the two-point
    masses (p side, then q side, each on the lower atom first) at 60
    digits, from the exact values of the float inputs."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        a2, vp, vq = Decimal(a) ** 2, Decimal(sp) ** 2, Decimal(sq) ** 2
        v = ((vq - vp) ** 2 + 2 * a2 * (vp + vq) + a2 * a2).sqrt()
        # the lower atom's masses: 1/2 + s (vp - vq -+ a^2) / (2v), s = sign(a)
        s = 1 if a > 0 else -1
        p = Decimal("0.5") + s * (vp - vq - a2) / (2 * v)
        q = Decimal("0.5") + s * (vp - vq + a2) / (2 * v)
        return (
            v,
            a2 / v,
            2 * a2 / (v + vp - vq + a2),
            2 * a2 / (v + vq - vp + a2),
            p,
            1 - p,
            q,
            1 - q,
        )


def test_close_stddevs_match_decimal_reference():
    # close stddevs at small gaps, where a variance difference taken from
    # the rounded squares cancels (relative errors up to 6.8e-13 in the
    # closed forms and 3e-13 in the two-point masses)
    from decimal import Decimal

    close = dict(scale=(-0.3, 0.7), offset=(0, 0), gap=(-7.2, -3), ratio=(-8e-4, 8e-4), zero=("none",), equal=False)
    for mp, sp, mq, sq in draws(29, 2000, **close):
        a = mp - mq
        this = pair(a, sp, 0.0, sq)
        witness = construct_two_point(this)
        report = bound_report(this)
        got = (
            report.radical_v,
            report.two_point_tv,
            report.anchored_p_tv,
            report.anchored_q_tv,
            *witness.p_dist.probs,
            *witness.q_dist.probs,
        )
        want = _decimal_reference(a, sp, sq)
        assert len(got) == len(want)
        for value, ref in zip(got, want):
            assert abs(Decimal(value) - ref) <= Decimal("1e-14") * ref, (a, sp, sq)


# ----------------------------------------------------------------- report


def test_bound_report_gap_zero():
    report = bound_report(pair(2, 1, 2, 2))
    assert report.tight_bound == 0.0
    assert report.attained is False
    assert report.two_point_tv is None
    assert report.sibling_branch_tv is None
    assert report.anchored_p_tv is None
    assert report.anchored_q_tv is None


def test_bound_report_gap_zero_equal_sigmas_is_attained():
    assert bound_report(pair(2, 1, 2, 1)).attained is True


def test_bound_report_degenerate_sides():
    report = bound_report(pair(1, 1, 0, 0))
    assert report.attained is True
    assert report.anchored_p_tv is None  # needs spread on the q side
    assert report.anchored_q_tv is not None
    report = bound_report(pair(1, 0, 0, 1))
    assert report.anchored_p_tv is not None
    assert report.anchored_q_tv is None  # needs spread on the p side


def _outcome(fn, *args):
    # the value, or the class and message of the package error it raised
    try:
        return fn(*args)
    except TVBoundError as exc:
        return type(exc), str(exc)


def _bits(x):
    # float.hex tells -0.0 from 0.0 and reads nan as nan
    return x.hex() if isinstance(x, float) else x


# a subnormal gap that the scaling rounds to 0, against either sign of the
# stddev difference and with either stddev 0
SCALED_GAP_ZERO = [
    pair(5e-324, 2.0, 0.0, 1.0),
    pair(0.0, 2.0, 5e-324, 1.0),
    pair(5e-324, 1.0, 0.0, 2.0),
    pair(-1e-320, 0.0, 0.0, 3.0),
    pair(1e-320, 3.0, 0.0, 0.0),
]


RADICAL_OVERFLOW = (
    BadParameterError,
    "radical_v overflows the float range: it grows as the square of "
    "the mean gap and stddevs, which must stay below about 1.34e154",
)


@pytest.mark.parametrize("seed", range(4))
def test_bound_report_equals_the_public_closed_forms_bit_for_bit(seed):
    # bound_report and the witnesses share one scaled tuple per call; each
    # value must be the one the public function computes on its own
    # the whole domain
    for p in [*SCALED_GAP_ZERO, *(pair(*x) for x in draws(seed, 1000))]:
        report = _outcome(bound_report, p)
        tight = _outcome(tv_lower_bound_1d, p)
        if not isinstance(report, BoundReport1D):
            # an overflowing gap refuses as the bound does; past it, only
            # radical_v overflows
            assert report == (tight if isinstance(tight, tuple) else RADICAL_OVERFLOW), p
            continue
        assert _bits(report.gap_a) == _bits(gap(p)), p
        assert _bits(report.tight_bound) == _bits(tight), p
        if report.gap_a == 0.0:
            assert report[4:] == (None,) * 5, p
            continue
        witness = _outcome(construct_tight_witness, p)
        if isinstance(witness, WitnessPair):
            assert _bits(witness.claimed_tv) == _bits(report.tight_bound), p
        two = _outcome(construct_two_point, p)
        if isinstance(two, WitnessPair):
            assert _bits(two.claimed_tv) == _bits(report.two_point_tv), p


def _saturated(x):
    """Whether the gap ratio r times the stddev ratio, sp / sq or its
    inverse, passes 1e8, where the diagnostics can round an ulp below the
    bound (``test_bound_report_diagnostics_dominate_at_saturation``)."""
    mp, sp, mq, sq = x
    return sp > 0.0 and sq > 0.0 and abs(mp - mq) * max(sp, sq) / (sp + sq) > 1e8 * min(sp, sq)


@given(ANY_PAIRS)
@settings(deadline=None)
def test_bound_report_diagnostics_dominate(x):
    assume(not _saturated(x))
    report = bound_report(pair(*x))
    assert 0.0 <= report.tight_bound <= 1.0
    for value in (
        report.two_point_tv,
        report.sibling_branch_tv,
        report.anchored_p_tv,
        report.anchored_q_tv,
    ):
        if value is not None:
            assert value >= report.tight_bound
            assert value <= 1.0


@pytest.mark.xfail(
    raises=AssertionError,
    reason="FOUND: where the gap ratio times the stddev ratio passes about "
    "1e8, the bound and the diagnostics lie within an ulp of 1 and "
    "two_point_tv rounds one ulp below tight_bound (ROADMAP item 2)",
)
def test_bound_report_diagnostics_dominate_at_saturation():
    report = bound_report(pair(-1.0, 2.0131533866289757e-07, 0.9999997810987835, 2.2793226233641796e-10))
    assert report.two_point_tv >= report.tight_bound


# ------------------------------------------------------------- properties


@given(ANY_PAIRS)
@settings(deadline=None)
def test_bound_range_and_symmetry(x):
    mp, sp, mq, sq = x
    this = tv_lower_bound_1d(pair(mp, sp, mq, sq))
    assert 0.0 <= this <= 1.0
    assert this == tv_lower_bound_1d(pair(mq, sq, mp, sp))


@given(
    pairs(BOX, ratio=(-4, 6.7), zero=("none", "q")),
    st.floats(1.01, 3),
)
@settings(deadline=None)
def test_bound_strictly_increasing_in_gap(x, factor):
    # a positive stddev sum keeps the bound away from its saturation at 1
    mp, sp, mq, sq = x
    a1 = mp - mq
    a2 = a1 * factor
    lo = tv_lower_bound_1d(pair(mq + a1, sp, mq, sq))
    hi = tv_lower_bound_1d(pair(mq + a2, sp, mq, sq))
    assert hi > lo


@given(pairs(BOX, ratio=(0, 0), zero=("none",)), st.floats(1.01, 3))
@settings(deadline=None)
def test_bound_strictly_decreasing_in_sigma_sum(x, factor):
    mp, sp, mq, _ = x
    assume(abs(mp - mq) > 1e-3)
    narrow = tv_lower_bound_1d(pair(mp, sp, mq, sp))
    wide = tv_lower_bound_1d(pair(mp, sp * factor, mq, sp * factor))
    assert wide < narrow


# strictly positive stddevs stay above the scale where sub-ulp ordering
# margins round away
@given(pairs(BOX, zero=("none",)))
@settings(deadline=None)
def test_orderings_strict_for_positive_sigmas(x):
    mp, sp, mq, sq = x
    assume(abs(mp - mq) > 1e-3)
    report = bound_report(pair(*x))
    tight = report.tight_bound
    assert report.two_point_tv > tight
    assert report.anchored_p_tv > tight
    assert report.anchored_q_tv > tight
    assert report.sibling_branch_tv >= tight


def test_two_point_equals_bound_when_one_sigma_vanishes():
    this = pair(2, 1.5, 0, 0)
    assert two_point(this) == tv_lower_bound_1d(this)
    that = pair(2, 0, 0, 1.5)
    assert two_point(that) == tv_lower_bound_1d(that)


dyadic = st.integers(-(2**20), 2**20).map(lambda n: n * 2.0**-10)


@given(dyadic, st.floats(0, 5), dyadic, st.floats(0, 5), dyadic)
@settings(deadline=None)
def test_translation_invariance_bit_exact(mp, sp, mq, sq, shift):
    # dyadic inputs make the shifted means exact, so only the gap reaches
    # the formulas and every output must be bit-identical
    base = pair(mp, sp, mq, sq)
    moved = pair(mp + shift, sp, mq + shift, sq)
    assert gap(base) == gap(moved)
    assert tv_lower_bound_1d(base) == tv_lower_bound_1d(moved)
    assert bound_report(base) == bound_report(moved)


def _scaled(x, t):
    """The pair ``x`` and the pair of its gap and stddevs scaled by ``t``."""
    _, sp, _, sq = x
    base = pair(*x)
    # the formulas see only the gap, so the gap itself is scaled: t * mp -
    # t * mq cancels for close means and is not t times the gap (mp=1.0,
    # mq=0.99999, t=0.75 puts the bound off by 7.4e-12 relative)
    return base, pair(t * gap(base), t * sp, 0.0, t * sq)


def _assert_scale_covariant(base, scaled):
    assert tv_lower_bound_1d(scaled) == pytest.approx(
        tv_lower_bound_1d(base), rel=1e-12, abs=1e-300
    )
    if gap(base) != 0.0 and gap(scaled) != 0.0:
        assert two_point(scaled) == pytest.approx(two_point(base), rel=1e-12)


def _subnormal_break(x):
    """A subnormal stddev, or a subnormal gap beside a positive stddev under
    1e-6 (``test_scale_covariance_at_subnormal_inputs``)."""
    mp, sp, mq, sq = x
    subnormal = [0.0 < abs(v) < sys.float_info.min for v in (mp - mq, sp, sq)]
    return subnormal[1] or subnormal[2] or (subnormal[0] and any(0.0 < s < 1e-6 for s in (sp, sq)))


@given(ANY_PAIRS, st.floats(1e-3, 1e3))
@example(x=(0.0, 0.0, 5e-324, 1.0), t=1.0)
@settings(deadline=None)
def test_scale_covariance(x, t):
    assume(not _subnormal_break(x))
    base, scaled = _scaled(x, t)
    # t * a can round a distinct gap onto 0.0 (0.5 * 5e-324 == 0.0); the
    # scaled pair then has equal means and is no longer the base pair
    # scaled, so the property does not apply to it
    assume((gap(scaled) == 0.0) == (gap(base) == 0.0))
    _assert_scale_covariant(base, scaled)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="FOUND: a subnormal stddev or mean gap holds fewer than 53 bits, so "
    "t times it moves the bound by more than 1e-12 relative (ROADMAP item 3)",
)
@pytest.mark.parametrize(
    "x, t",
    [((-1e-312, 1e-312, 1e-312, 1e-312), 1.5), ((-1e-312, 1e-168, 1e-312, 1e-168), 0.25)],
    ids=["stddevs", "gap"],
)
def test_scale_covariance_at_subnormal_inputs(x, t):
    _assert_scale_covariant(*_scaled(x, t))


# ------------------------------------------------------------------- d-dim


def test_nd_bound_identity_covariance_example():
    eye = np.eye(2)
    bound = tv_lower_bound_nd(
        MomentPairND(MomentsND([1, 0], eye), MomentsND([0, 0], eye))
    )
    assert bound == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_nd_bound_zero_gap():
    cov = [[2.0, 0.3], [0.3, 1.0]]
    assert tv_lower_bound_nd(
        MomentPairND(MomentsND([1, 2], cov), MomentsND([1, 2], np.eye(2)))
    ) == 0.0


def test_nd_bound_dimension_one_matches_formula():
    bound = tv_lower_bound_nd(
        MomentPairND(MomentsND([1.0], [[1.0]]), MomentsND([0.0], [[1.0]]))
    )
    assert bound == pytest.approx(0.2, rel=1e-15)
    # equal stddevs is exactly the equality case of the dominance relation
    assert bound == tv_lower_bound_1d(pair(1, 1, 0, 1))


def test_nd_dominated_by_1d():
    for mp, sp, mq, sq in draws(3, 500, NEAR_UNIT):
        nd = tv_lower_bound_nd(
            MomentPairND(
                MomentsND([mp], [[sp * sp]]), MomentsND([mq], [[sq * sq]])
            )
        )
        assert nd <= tv_lower_bound_1d(pair(mp, sp, mq, sq)) + 1e-12


def test_nd_bound_respected_by_moment_matched_cross_pairs():
    # exact construction: atoms mean +- sqrt(d) * (rotated basis vector),
    # each with mass 1/(2d), has the identity covariance exactly
    rng = np.random.default_rng(5)
    d = 2
    target = 1.0 / 9.0
    for _ in range(50):
        rot_p = np.linalg.qr(rng.normal(size=(d, d)))[0]
        rot_q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        atoms_p = [
            (sign * math.sqrt(d)) * rot_p[:, i] + np.array([1.0, 0.0])
            for i in range(d)
            for sign in (1.0, -1.0)
        ]
        atoms_q = [
            (sign * math.sqrt(d)) * rot_q[:, i]
            for i in range(d)
            for sign in (1.0, -1.0)
        ]
        for atoms, mean in ((atoms_p, [1.0, 0.0]), (atoms_q, [0.0, 0.0])):
            stacked = np.array(atoms)
            np.testing.assert_allclose(stacked.mean(axis=0), mean, atol=1e-12)
            centered = stacked - mean
            cov = centered.T @ centered / len(atoms)
            np.testing.assert_allclose(cov, np.eye(d), atol=1e-12)
        # shared-point mass cancels in the TV; distinct atoms carry 1/(2d)
        keys_p = {tuple(a) for a in atoms_p}
        keys_q = {tuple(a) for a in atoms_q}
        tv = len(keys_p ^ keys_q) / (4.0 * d)
        assert tv >= target - 1e-12


@pytest.mark.parametrize(
    "mean_p,mean_q", [([1e200, 0.0], [0.0, 0.0]), ([1e308], [-1e308])]
)
def test_nd_bound_refuses_an_overflowing_squared_gap(mean_p, mean_q):
    # |a|^2 used to read inf and the bound nan, after numpy RuntimeWarnings
    eye = np.eye(len(mean_p))
    nd_pair = MomentPairND(MomentsND(mean_p, eye), MomentsND(mean_q, eye))
    with pytest.raises(BadParameterError) as raised:
        tv_lower_bound_nd(nd_pair)
    assert str(raised.value) == (
        "the squared mean gap overflows the float range: "
        "the means lie about 1.34e154 or more apart"
    )


def test_nd_bound_keeps_a_squared_gap_just_inside_the_float_range():
    eye = np.eye(2)
    nd_pair = MomentPairND(MomentsND([1e154, 0.0], eye), MomentsND([0.0, 0.0], eye))
    assert tv_lower_bound_nd(nd_pair) == 1.0


def test_nd_bound_keeps_a_denominator_past_the_float_range():
    # |a|^2 / 2 + tr Sp + tr Sq = 8.45e307 + 1e308 overflows, though each
    # term is finite; the bound used to read 0 there after a RuntimeWarning
    cov = [[5e307, 0.0], [0.0, 0.0]]
    nd_pair = MomentPairND(MomentsND([1.3e154, 0.0], cov), MomentsND([0.0, 0.0], cov))
    gap = Fraction(1.3e154) ** 2
    exact = gap / (2 * (Fraction(5e307) + Fraction(5e307)) + gap)
    assert tv_lower_bound_nd(nd_pair) == pytest.approx(float(exact), rel=1e-15)


def test_trace_bound_rescales_only_the_overflowing_entries():
    ingredients = [
        (1.69e308, 5e307, 5e307),
        (2.0, 1.0, 1.0),
        (0.0, 1e308, 1e308),
        (1.69e308, 1e308, 1e308),
    ]
    bound = [trace_bound(*entry) for entry in ingredients]
    assert bound[0] == pytest.approx(0.845 / 1.845, rel=1e-15)
    assert bound[1] == 1.0 / 3.0  # untouched: (2 / 2) / (1 + 1 + 2 / 2)
    assert bound[2] == 0.0  # equal means, whatever the traces
    # here tr Sp + tr Sq alone passes the float range
    exact = Fraction(1.69e308) / (4 * Fraction(1e308) + Fraction(1.69e308))
    assert bound[3] == pytest.approx(float(exact), rel=1e-15)


@pytest.mark.parametrize("side", ["p", "q"])
def test_nd_bound_refuses_an_overflowing_trace(side):
    # each diagonal entry is finite, their sum is not; the bound used to
    # read 0 there, where nd-bound refused
    eye, big = np.eye(2), [[1e308, 0.0], [0.0, 1e308]]
    sides = {"p": MomentsND([10.0, 0.0], eye), "q": MomentsND([0.0, 0.0], eye)}
    sides[side] = MomentsND([10.0, 0.0] if side == "p" else [0.0, 0.0], big)
    with pytest.raises(BadParameterError) as raised:
        tv_lower_bound_nd(MomentPairND(sides["p"], sides["q"]))
    assert str(raised.value) == (
        f"the {side} side's covariance trace overflows the float range: "
        "its diagonal sums past about 1.8e308"
    )


def test_nd_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        MomentPairND(MomentsND([0, 0], np.eye(2)), MomentsND([0, 0, 0], np.eye(3)))


def test_momentsnd_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        MomentsND([0, 0], [[1.0, 0.5], [0.2, 1.0]])


def test_momentsnd_rejects_indefinite():
    with pytest.raises(ValueError, match="semidefinite"):
        MomentsND([0, 0], [[1.0, 2.0], [2.0, 1.0]])


def test_momentsnd_symmetrizes_roundoff():
    wobble = 1e-13
    m = MomentsND([0, 0], [[1.0, 0.5 + wobble], [0.5 - wobble, 1.0]])
    assert m.covariance[0][1].hex() == m.covariance[1][0].hex()
    assert m.trace == pytest.approx(2.0)


_GOOD_2D = [[2.0, 0.3], [0.3, 1.0]]


@pytest.mark.parametrize(
    "mean,bad,message",
    [
        (
            [0.0, 0.0],
            [[1.0, 0.5], [0.2, 1.0]],
            "covariance is not symmetric within 1e-10",
        ),
        (
            [0.0, 0.0],
            [[1.0, 2.0], [2.0, 1.0]],
            "covariance is not positive semidefinite (min eigenvalue -1)",
        ),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]], "covariance must be finite"),
        ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]], "covariance must be finite"),
        ([np.nan, 0.0], _GOOD_2D, "mean must be finite"),
        (
            [0.0],
            [[-1.0]],
            "covariance is not positive semidefinite (min eigenvalue -1)",
        ),
        ([0.0], [[np.inf]], "covariance must be finite"),
        # an empty array keeps its trailing dimension, as numpy reads it
        ([0.0, 0.0], np.zeros((0, 2)), "covariance must have shape (2, 2), got (0, 2)"),
    ],
    ids=[
        "asymmetric", "indefinite", "nan", "inf", "nan-mean", "negative-1x1", "inf-1x1",
        "empty-array",
    ],
)
def test_momentsnd_refuses_with_the_exact_message(mean, bad, message):
    with pytest.raises(ValueError) as raised:
        MomentsND(mean, bad)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_momentsnd_names_a_mean_nested_too_deeply_to_read():
    # built iteratively, deeper than the walk that reads it can recurse
    mean = [0.0]
    for _ in range(5000):
        mean = [mean]
    with pytest.raises(ValueError, match="^mean nests too deeply to read$"):
        MomentsND(mean, [[1.0]])


def _hex_rows(rows):
    """A matrix's entries as ``float.hex`` strings, row by row: equal only
    bit for bit, where ``==`` takes -0.0 for 0.0."""
    return tuple(tuple(float(x).hex() for x in row) for row in rows)


def test_asymmetry_is_refused_only_past_its_tolerance():
    at_tol = MomentsND([0.0, 0.0], [[1.0, 1e-10], [0.0, 1.0]])
    assert _hex_rows(at_tol.covariance) == _hex_rows([[1.0, 0.5e-10], [0.5e-10, 1.0]])
    past = float(np.nextafter(1e-10, 1.0))
    with pytest.raises(ValueError) as raised:
        MomentsND([0.0, 0.0], [[1.0, past], [0.0, 1.0]])
    assert str(raised.value) == "covariance is not symmetric within 1e-10"


def _reference_psd_rule(cov):
    """The PSD rule by eigenvalues alone, for one symmetric matrix: the
    symmetrized matrix, or the message naming its smallest eigenvalue.
    A sum past the float range is halved term by term."""
    with np.errstate(over="ignore"):
        sym = 0.5 * (cov + cov.T)
    sym = np.where(np.isinf(sym), 0.5 * cov + 0.5 * cov.T, sym)
    min_eig = np.linalg.eigvalsh(sym)[0]
    if min_eig < -COV_PSD_TOL * (1.0 + np.max(np.diagonal(sym))):
        return f"covariance is not positive semidefinite (min eigenvalue {min_eig:g})"
    return sym


def _assert_matches_reference_rule(cov):
    expected = _reference_psd_rule(cov)
    mean = np.zeros(cov.shape[0])
    if isinstance(expected, str):
        with pytest.raises(ValueError) as raised:
            MomentsND(mean, cov)
        assert str(raised.value) == expected
    else:
        assert _hex_rows(MomentsND(mean, cov).covariance) == _hex_rows(expected)


def _with_min_eigenvalue(rng, d, scale, k):
    """A d x d symmetric matrix of the given scale whose smallest
    eigenvalue is k times its PSD tolerance, up to round-off."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eig = rng.uniform(0.1, 1.0, size=d) * scale
    eig[0] = 0.0
    a = (q * eig) @ q.T
    a = 0.5 * (a + a.T)
    tol = COV_PSD_TOL * (1.0 + np.max(np.diag(a)))
    return a + (k * tol) * np.eye(d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
def test_psd_decisions_match_the_eigenvalue_rule(d):
    # smallest eigenvalues near -tol and -tol / 2, at every scale
    rng = np.random.default_rng(1100 + d)
    for k in (-3.0, -1.01, -1.0, -0.9999, -0.51, -0.5, -0.49, 0.0):
        for scale in (1e-150, 1e-50, 1e-5, 1.0, 1e5, 1e50, 1e150):
            for _ in range(3):
                good = [_with_min_eigenvalue(rng, d, scale, 1.0) for _ in range(4)]
                offender = _with_min_eigenvalue(rng, d, scale, k)
                for cov in good + [offender]:
                    _assert_matches_reference_rule(cov)
    # singular Gram matrices: fewer atoms than dimensions
    for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150):
        roots = rng.normal(size=(6, d - 1, d)) * math.sqrt(scale)
        for cov in np.swapaxes(roots, -1, -2) @ roots:
            _assert_matches_reference_rule(cov)


_MAX = np.finfo(float).max


@pytest.mark.parametrize(
    "top",
    [
        [[_MAX, 0.0], [0.0, 1.0]],
        [[_MAX, 1e300], [1e300, _MAX]],
        [[_MAX, _MAX], [_MAX, _MAX]],
        [[_MAX, -_MAX], [-_MAX, _MAX]],
        [[_MAX, _MAX], [_MAX, 0.0]],
        [[_MAX, 1e-300], [1e-300, 1e308]],
    ],
    ids=["diagonal", "near-diagonal", "singular", "singular-negative", "indefinite", "tiny-off"],
)
@pytest.mark.parametrize("d", [2, 4])
def test_float_maximum_diagonal_matches_the_eigenvalue_rule(top, d):
    # the symmetrizing sum of each such entry passes the float range, and
    # must not warn
    cov = np.zeros((d, d))
    cov[:2, :2] = top
    for matrix in (np.eye(d), cov):
        _assert_matches_reference_rule(matrix)


# the PSD tolerance at d = 1 is -1e-10 * (1 + c): the first entry below it
# and the last one above
_PAST_TOL_1X1 = -9.999999999000001e-11
_INSIDE_TOL_1X1 = -9.999999999e-11


@pytest.mark.parametrize(
    "entry",
    [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.0, 1e300, _MAX, _INSIDE_TOL_1X1, _PAST_TOL_1X1],
)
def test_one_by_one_matches_the_eigenvalue_rule(entry):
    cov = np.array([[entry]])
    _assert_matches_reference_rule(cov)
    # the 1x1 matrix is its own symmetrized average and eigenvalue, to the bit
    refused = entry < -COV_PSD_TOL * (1.0 + entry)
    assert refused == (entry == _PAST_TOL_1X1)
    if refused:
        with pytest.raises(ValueError) as raised:
            MomentsND([0.0], cov)
        assert str(raised.value) == (
            f"covariance is not positive semidefinite (min eigenvalue {entry:g})"
        )
    else:
        assert _hex_rows(MomentsND([0.0], cov).covariance) == ((entry.hex(),),)


def test_an_overflowing_symmetric_sum_is_halved_term_by_term():
    m = MomentsND([0.0, 0.0], [[1e308, 5e-324], [5e-324, 1.0]])
    assert m.trace == 1e308
    # where the sum stays finite, subnormal entries are averaged as before
    # (halving 5e-324 first would round it to 0)
    assert _hex_rows(m.covariance) == _hex_rows([[1e308, 5e-324], [5e-324, 1.0]])


_STRINGS = ("1.5", " -2e3 ", "inf", "1e400", "abc", "")


def _scalar(rng):
    """One entry: mostly a float, int or numpy scalar, sometimes a 0-d
    array, a bool, a string or an int past the float range."""
    kind = rng.random()
    if kind < 0.45:
        return rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-300, 300)
    if kind < 0.6:
        return rng.randint(-(2**70), 2**70)
    if kind < 0.8:
        dtype = rng.choice((np.float64, np.float32, np.int64, np.float16))
        return dtype(rng.gauss(0.0, 100.0))
    if kind < 0.88:
        return np.array(rng.gauss(0.0, 1.0))
    if kind < 0.94:
        return rng.random() < 0.5
    if kind < 0.98:
        return rng.choice(_STRINGS)
    return rng.choice((1, -1)) * 10**400


def _nesting(rng, shape, ragged):
    """Nested lists, tuples, arrays and scalars of ``shape``.  With
    ``ragged``, one child of some level takes another length or depth."""
    if not shape:
        return _scalar(rng)
    if not ragged and rng.random() < 0.15:
        dtype = rng.choice((np.float64, np.float32, np.int64))
        return np.random.default_rng(rng.randrange(2**32)).normal(size=shape).astype(dtype)
    sub = shape[1:]
    odd = rng.randrange(shape[0]) if ragged and shape[0] else None
    deeper = odd is not None and rng.random() < 0.5
    items = [_nesting(rng, sub, deeper and i == odd) for i in range(shape[0])]
    if odd is not None and not deeper:
        other = rng.choice((sub + (rng.randint(0, 2),), sub[:-1], sub[:-1] + (rng.randint(0, 3),)))
        items[odd] = _nesting(rng, other, False)
    return items if rng.random() < 0.5 else tuple(items)


def test_the_reader_matches_numpy_array_of_dtype_float():
    # MomentsND reads a field as numpy.array(field, dtype=float) would: the
    # same entries, bit for bit, and shape, the named ragged refusal where
    # numpy reports an inhomogeneous shape, and the same exception type
    # where an entry does not convert
    rng = random.Random(2700)
    outcomes = set()
    for _ in range(4000):
        depth = rng.choice((0, 1, 2, 2, 3, 5))
        shape = tuple(rng.choice((0, 1, 1, 2, 2, 3, 3)) for _ in range(depth))
        value = _nesting(rng, shape, rng.random() < 0.35)
        try:
            want = np.array(value, dtype=float)
        except (ValueError, OverflowError) as exc:
            want = exc
        if isinstance(want, np.ndarray):
            entries, got_shape = _floats(value, "field")
            assert got_shape == want.shape
            assert [x.hex() for x in entries] == [float(x).hex() for x in want.ravel()]
            outcomes.add("read")
            continue
        ragged = "inhomogeneous" in str(want)
        with pytest.raises(type(want)) as raised:
            _floats(value, "field")
        assert type(raised.value) is type(want)
        if ragged:
            assert str(raised.value) == (
                "field is ragged: its nested lists differ in length or depth"
            )
        outcomes.add("ragged" if ragged else type(want).__name__)
    assert outcomes == {"read", "ragged", "ValueError", "OverflowError"}
    # the README's one documented difference: numpy reads None as nan
    assert math.isnan(np.array([[1.0, None]], dtype=float)[0, 1])
    with pytest.raises(TypeError):
        _floats([[1.0, None]], "field")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_nd_check_computes_no_eigenvalues_on_certified_stacks(monkeypatch, d):
    # the check reads traces of its own draws and forms no covariance
    # matrix: nothing factors one or computes its eigenvalues
    def refuse(*args, **kwargs):
        raise AssertionError("the n-d check validated a covariance matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    assert check_nd_bound_random(d, d + 4, 1000, 70 + d) == 0


def _correctly_rounded(value: float, exact: Fraction) -> bool:
    """Whether no float next to ``value`` lies nearer ``exact``."""
    error = abs(Fraction(value) - exact)
    return all(
        error <= abs(Fraction(math.nextafter(value, toward)) - exact)
        for toward in (-math.inf, math.inf)
    )


def test_gap_and_traces_are_correctly_rounded():
    # the exact sums, by Fraction, rounded once; a sum of rounded squares
    # is not correctly rounded on about a fifth of such vectors
    rng = np.random.default_rng(2600)
    for _ in range(2000):
        d = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-150, 150)
        means = rng.normal(size=(2, d)) * scale
        roots = rng.normal(size=(2, d, d)) * math.sqrt(scale)
        sides = [MomentsND(m, r @ r.T) for m, r in zip(means, roots)]
        nd_pair = MomentPairND(*sides)
        exact_gap = sum(
            (Fraction(p) - Fraction(q)) ** 2
            for p, q in zip(sides[0].mean, sides[1].mean)
        )
        assert _correctly_rounded(gap_norm_sq(nd_pair), exact_gap), means
        for side, trace in zip(sides, finite_traces(nd_pair)):
            exact_trace = sum(Fraction(row[i]) for i, row in enumerate(side.covariance))
            assert _correctly_rounded(trace, exact_trace), side


def test_batch_bound_equals_trace_bound_elementwise():
    # the randomized check's array arithmetic, halved, against the scalar
    # bound on the same trace sum, on ingredients of the check's scale and
    # shape, equal means included
    rng = np.random.default_rng(2601)
    for d in (1, 2, 3, 4):
        points = rng.normal(size=(500, d + 4, d))
        a = points[:, 0] - points[:, 1]
        a[::7] = 0.0
        gaps = np.einsum("ti,ti->t", a, a)
        trace_sums = np.einsum("tai,tai->t", points, points) * rng.uniform(0.0, 2.0, size=500)
        batch = _twice_trace_bound_batch(gaps, trace_sums)
        for got, gap_sq, trace_sum in zip(batch, gaps, trace_sums):
            want = trace_bound(float(gap_sq), float(trace_sum), 0.0)
            assert (0.5 * float(got)).hex() == want.hex()


def test_trace_bound_of_a_halved_gap_that_rounds_to_zero():
    # |a|^2 = 5e-324 halves to 0: with zero traces the bound is |a|^2 / |a|^2
    nd_pair = MomentPairND(MomentsND([2.2e-162], [[0.0]]), MomentsND([0.0], [[0.0]]))
    assert gap_norm_sq(nd_pair) == 5e-324
    assert tv_lower_bound_nd(nd_pair) == 1.0
    assert trace_bound(5e-324, 0.0, 0.0) == 1.0


def test_moments1d_validation():
    with pytest.raises(ValueError):
        MomentPair1D.from_scalars(0, -1, 0, 1)
    with pytest.raises(ValueError):
        MomentPair1D.from_scalars(math.nan, 1, 0, 1)
    with pytest.raises(ValueError):
        MomentPair1D.from_scalars(0, math.inf, 0, 1)
