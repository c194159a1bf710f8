"""Closed-form bound formulas and their ordering/invariance properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tvbounds import (
    BadParameterError,
    DegenerateVarianceError,
    DimensionMismatchError,
    DiscreteDist,
    GapZeroError,
    MomentPair1D,
    MomentPairND,
    MomentsND,
    anchored_tv,
    bound_report,
    construct_two_point,
    gap,
    radical_v,
    sibling_branch_tv,
    tv_distance,
    tv_lower_bound_1d,
    tv_lower_bound_nd,
    two_point_tv,
)
from tvbounds.nd import validate_moments

from conftest import ref_moments


def pair(mp, sp, mq, sq):
    return MomentPair1D.from_scalars(mp, sp, mq, sq)


means = st.floats(-10, 10)
# zero is a meaningful degenerate case; strictly positive draws stay above
# the scale where sub-ulp ordering margins round away
sigmas = st.one_of(st.just(0.0), st.floats(1e-6, 5))
pos_sigmas = st.floats(1e-3, 5)


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
    assert radical_v(pair(*args)) == pytest.approx(expected, rel=1e-15)


def test_radical_zero_iff_identical_moments():
    assert radical_v(pair(2, 1.5, 2, 1.5)) == 0.0
    assert radical_v(pair(2, 1.5, 2, 1.4)) > 0.0
    assert radical_v(pair(2.1, 1.5, 2, 1.5)) > 0.0


@pytest.mark.parametrize("sp,sq", [(1.0, 1.0), (0.0, 0.0)])
def test_radical_overflow_is_a_specific_error(sp, sq):
    # v grows as a^2, which passes the float range at a gap of about 1.34e154
    assert math.isfinite(radical_v(pair(1e154, sp, 0.0, sq)))
    with pytest.raises(BadParameterError, match="overflows"):
        radical_v(pair(1.35e154, sp, 0.0, sq))
    with pytest.raises(BadParameterError, match="overflows"):
        bound_report(pair(0.0, sp, 1e200, sq))


# ------------------------------------------------------------------ 1-D bound


def test_tight_bound_examples():
    assert tv_lower_bound_1d(pair(1, 1, 0, 1)) == 0.2
    assert tv_lower_bound_1d(pair(4, 0.3, 4, 2.7)) == 0.0
    assert tv_lower_bound_1d(pair(1, 0, 0, 0)) == 1.0


def test_two_point_examples():
    assert two_point_tv(pair(1, 1, 0, 1)) == pytest.approx(1 / math.sqrt(5), rel=1e-15)
    assert two_point_tv(pair(1, 1, 0, 0)) == pytest.approx(0.5, rel=1e-15)
    assert two_point_tv(pair(1, 0, 0, 0)) == 1.0
    with pytest.raises(GapZeroError):
        two_point_tv(pair(1, 1, 1, 2))


def test_sibling_branch_examples():
    value, valid = sibling_branch_tv(pair(1, 1, 0, 2))
    assert value == pytest.approx(0.5, rel=1e-15)
    assert valid is True
    value, valid = sibling_branch_tv(pair(1, 2, 0, 1))
    assert value == pytest.approx(0.5, rel=1e-15)
    assert valid is False
    value, valid = sibling_branch_tv(pair(1, 1, 0, 1))
    assert value == 1.0
    assert valid is False
    with pytest.raises(GapZeroError):
        sibling_branch_tv(pair(2, 1, 2, 2))


def test_sibling_branch_realized_by_stationary_configuration():
    # when the side condition holds, an explicit three-point configuration
    # with the branch's TV and the right moments exists; build it and check
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        mp, mq = rng.uniform(-5, 5, size=2)
        sp, sq = rng.uniform(0.1, 3, size=2)
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
        value, valid = sibling_branch_tv(pair(mp, sp, mq, sq))
        assert valid is True
        assert tv == pytest.approx(value, abs=1e-12)
        checked += 1


def test_anchored_examples():
    assert anchored_tv(pair(1, 1, 0, 1), "p") == pytest.approx(
        2 / (1 + math.sqrt(5)), rel=1e-15
    )
    assert anchored_tv(pair(1, 2, 0, 1), "p") == pytest.approx(
        2 / (math.sqrt(20) + 4), rel=1e-15
    )
    assert anchored_tv(pair(1, 2, 0, 1), "q") == pytest.approx(
        2 / (math.sqrt(20) - 2), rel=1e-15
    )


def test_anchored_errors():
    with pytest.raises(GapZeroError):
        anchored_tv(pair(1, 1, 1, 1), "p")
    with pytest.raises(DegenerateVarianceError):
        anchored_tv(pair(1, 1, 0, 0), "p")
    with pytest.raises(DegenerateVarianceError):
        anchored_tv(pair(1, 0, 0, 1), "q")
    with pytest.raises(BadParameterError):
        anchored_tv(pair(1, 1, 0, 1), "sideways")


def test_anchored_swap_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        mp, mq = rng.uniform(-5, 5, size=2)
        sp, sq = rng.uniform(0.05, 3, size=2)
        if mp == mq:
            continue
        fwd = pair(mp, sp, mq, sq)
        rev = pair(mq, sq, mp, sp)
        assert anchored_tv(fwd, "p") == anchored_tv(rev, "q")
        assert anchored_tv(fwd, "q") == anchored_tv(rev, "p")


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

    rng = np.random.default_rng(29)
    for _ in range(2000):
        sp = rng.uniform(0.3, 2.0)
        step = math.exp(rng.uniform(math.log(2e-4), math.log(5e-4)))
        a = math.exp(rng.uniform(math.log(3e-7), math.log(5e-4)))
        sq = sp + rng.choice((-1.0, 1.0)) * step
        a *= rng.choice((-1.0, 1.0))
        this = pair(a, sp, 0.0, sq)
        witness = construct_two_point(this)
        got = (
            radical_v(this),
            two_point_tv(this),
            anchored_tv(this, "p"),
            anchored_tv(this, "q"),
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


@given(means, sigmas, means, sigmas)
@settings(deadline=None)
def test_bound_report_diagnostics_dominate(mp, sp, mq, sq):
    report = bound_report(pair(mp, sp, mq, sq))
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


# ------------------------------------------------------------- properties


@given(means, sigmas, means, sigmas)
@settings(deadline=None)
def test_bound_range_and_symmetry(mp, sp, mq, sq):
    this = tv_lower_bound_1d(pair(mp, sp, mq, sq))
    assert 0.0 <= this <= 1.0
    assert this == tv_lower_bound_1d(pair(mq, sq, mp, sp))


@given(means, pos_sigmas, sigmas, st.floats(0.01, 5), st.floats(1.01, 3))
@settings(deadline=None)
def test_bound_strictly_increasing_in_gap(mq, sp, sq, a1, factor):
    # a positive stddev sum keeps the bound away from its saturation at 1
    a2 = a1 * factor
    lo = tv_lower_bound_1d(pair(mq + a1, sp, mq, sq))
    hi = tv_lower_bound_1d(pair(mq + a2, sp, mq, sq))
    assert hi > lo


@given(means, means, pos_sigmas, st.floats(1.01, 3))
@settings(deadline=None)
def test_bound_strictly_decreasing_in_sigma_sum(mp, mq, sp, factor):
    assume(abs(mp - mq) > 1e-3)
    narrow = tv_lower_bound_1d(pair(mp, sp, mq, sp))
    wide = tv_lower_bound_1d(pair(mp, sp * factor, mq, sp * factor))
    assert wide < narrow


@given(means, pos_sigmas, means, pos_sigmas)
@settings(deadline=None)
def test_orderings_strict_for_positive_sigmas(mp, sp, mq, sq):
    assume(abs(mp - mq) > 1e-3)
    this = pair(mp, sp, mq, sq)
    tight = tv_lower_bound_1d(this)
    assert two_point_tv(this) > tight
    assert anchored_tv(this, "p") > tight
    assert anchored_tv(this, "q") > tight
    assert sibling_branch_tv(this).value >= tight


def test_two_point_equals_bound_when_one_sigma_vanishes():
    this = pair(2, 1.5, 0, 0)
    assert two_point_tv(this) == tv_lower_bound_1d(this)
    that = pair(2, 0, 0, 1.5)
    assert two_point_tv(that) == tv_lower_bound_1d(that)


dyadic = st.integers(-(2**20), 2**20).map(lambda n: n * 2.0**-10)


@given(dyadic, st.floats(0, 5), dyadic, st.floats(0, 5), dyadic)
@settings(deadline=None)
def test_translation_invariance_bit_exact(mp, sp, mq, sq, shift):
    # dyadic inputs make the shifted means exact, so only the gap reaches
    # the formulas and every output must be bit-identical
    base = pair(mp, sp, mq, sq)
    moved = pair(mp + shift, sp, mq + shift, sq)
    assert gap(base) == gap(moved)
    assert radical_v(base) == radical_v(moved)
    assert tv_lower_bound_1d(base) == tv_lower_bound_1d(moved)
    if gap(base) != 0.0:
        assert two_point_tv(base) == two_point_tv(moved)
        assert sibling_branch_tv(base) == sibling_branch_tv(moved)
        if sq > 0:
            assert anchored_tv(base, "p") == anchored_tv(moved, "p")
        if sp > 0:
            assert anchored_tv(base, "q") == anchored_tv(moved, "q")


@given(means, sigmas, means, sigmas, st.floats(1e-3, 1e3))
@example(mp=0.0, sp=0.0, mq=5e-324, sq=1.0, t=1.0)
@settings(deadline=None)
def test_scale_covariance(mp, sp, mq, sq, t):
    base = pair(mp, sp, mq, sq)
    # the formulas see only the gap, so the gap itself is scaled: t * mp -
    # t * mq cancels for close means and is not t times the gap (mp=1.0,
    # mq=0.99999, t=0.75 puts the bound off by 7.4e-12 relative)
    scaled = pair(t * gap(base), t * sp, 0.0, t * sq)
    # t * a can round a distinct gap onto 0.0 (0.5 * 5e-324 == 0.0); the
    # scaled pair then has equal means and is no longer the base pair
    # scaled, so the property does not apply to it
    assume((gap(scaled) == 0.0) == (gap(base) == 0.0))
    assert tv_lower_bound_1d(scaled) == pytest.approx(
        tv_lower_bound_1d(base), rel=1e-12, abs=1e-300
    )
    if gap(base) != 0.0 and gap(scaled) != 0.0:
        assert two_point_tv(scaled) == pytest.approx(two_point_tv(base), rel=1e-12)


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
    rng = np.random.default_rng(3)
    for _ in range(500):
        mp, mq = rng.uniform(-5, 5, size=2)
        sp, sq = rng.uniform(0, 3, size=2)
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
    assert m.covariance[0, 1] == m.covariance[1, 0]
    assert m.trace == pytest.approx(2.0)


_GOOD_2D = [[2.0, 0.3], [0.3, 1.0]]


@pytest.mark.parametrize(
    "mean,bad",
    [
        ([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]]),
        ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
        ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
        ([np.nan, 0.0], _GOOD_2D),
        ([0.0], [[-1.0]]),
        ([0.0], [[np.inf]]),
    ],
    ids=["asymmetric", "indefinite", "nan", "inf", "nan-mean", "negative-1x1", "inf-1x1"],
)
def test_validate_moments_stack_raises_what_momentsnd_raises(mean, bad):
    # a stack of shape (2, 3, d, d) with one bad matrix, as the n-d check
    # stacks (side, trial); the error is the one that matrix gives alone
    with pytest.raises(ValueError) as alone:
        MomentsND(mean, bad)
    d = len(mean)
    means = np.zeros((2, 3, d))
    covs = np.tile(np.eye(d), (2, 3, 1, 1))
    means[1, 2] = mean
    covs[1, 2] = bad
    with pytest.raises(ValueError) as stacked:
        validate_moments(means, covs)
    assert str(stacked.value) == str(alone.value)


def test_validate_moments_stack_names_first_indefinite_matrix():
    first = [[1.0, 2.0], [2.0, 1.0]]
    second = [[1.0, 3.0], [3.0, 1.0]]
    with pytest.raises(ValueError) as alone:
        MomentsND([0.0, 0.0], first)
    with pytest.raises(ValueError) as stacked:
        validate_moments(np.zeros((3, 2)), np.array([_GOOD_2D, first, second]))
    assert str(stacked.value) == str(alone.value)


def test_validate_moments_stack_matches_momentsnd_covariances():
    rng = np.random.default_rng(4)
    for d in (1, 2, 3, 4):
        roots = rng.normal(size=(5, d, d))
        covs = roots @ np.swapaxes(roots, -1, -2)
        # round-off sized asymmetry that the check repairs
        covs[:, 0, -1] += 1e-13
        means = rng.normal(size=(5, d))
        checked = validate_moments(means, covs)
        for mean, cov, got in zip(means, covs, checked):
            np.testing.assert_array_equal(got, MomentsND(mean, cov).covariance)


def test_validate_moments_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape"):
        validate_moments(np.zeros((3, 2)), np.zeros((3, 3, 3)))


def test_moments1d_validation():
    with pytest.raises(ValueError):
        MomentPair1D.from_scalars(0, -1, 0, 1)
    with pytest.raises(ValueError):
        MomentPair1D.from_scalars(math.nan, 1, 0, 1)
    with pytest.raises(ValueError):
        MomentPair1D.from_scalars(0, math.inf, 0, 1)
