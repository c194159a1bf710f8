"""Extremal pair constructors: frozen values, round-trips, orderings."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from tvbounds import (
    BadParameterError,
    DegenerateVarianceError,
    DiscreteDist,
    GapZeroError,
    Moments1D,
    WitnessConstructionError,
    WitnessKind,
    WitnessPair,
    bound_report,
    check_moments,
    construct_anchored_witness,
    construct_tight_witness,
    construct_two_point,
    construct_vanishing_sequence,
    tv_distance,
    tv_lower_bound_1d,
)

from conftest import ref_moments, ref_tv
from domain import BOX, POSITIVE, draws, pair, pairs


def assert_moments(dist, mean, sd, tol=1e-9):
    assert check_moments(dist, Moments1D(mean, sd), tol)


# -------------------------------------------------------------- tight witness


def test_tight_witness_three_point_reference_case():
    w = construct_tight_witness(pair(1, 1, 0, 1))
    assert w.kind is WitnessKind.THREE_POINT
    assert w.claimed_tv == 0.2
    assert w.p_dist.compact() == DiscreteDist((0.5, 3.0), (0.8, 0.2))
    assert w.q_dist.compact() == DiscreteDist((-2.0, 0.5), (0.2, 0.8))
    assert w.p_dist.support == w.q_dist.support  # shared, zeros explicit
    assert tv_distance(w.p_dist, w.q_dist) == pytest.approx(0.2, abs=1e-15)
    assert_moments(w.p_dist, 1.0, 1.0)
    assert_moments(w.q_dist, 0.0, 1.0)


def test_tight_witness_q_degenerate():
    w = construct_tight_witness(pair(1, 1, 0, 0))
    assert w.kind is WitnessKind.TWO_POINT_Q_DEGENERATE
    assert w.claimed_tv == 0.5
    assert w.p_dist.compact() == DiscreteDist((0.0, 2.0), (0.5, 0.5))
    assert w.q_dist.compact() == DiscreteDist.delta(0.0)
    assert_moments(w.p_dist, 1.0, 1.0)


def test_tight_witness_p_degenerate():
    w = construct_tight_witness(pair(0, 0, 1, 1))
    assert w.kind is WitnessKind.TWO_POINT_P_DEGENERATE
    assert w.claimed_tv == 0.5
    assert w.p_dist.compact() == DiscreteDist.delta(0.0)
    assert w.q_dist.compact() == DiscreteDist((0.0, 2.0), (0.5, 0.5))
    assert_moments(w.q_dist, 1.0, 1.0)


def test_tight_witness_both_point_masses():
    w = construct_tight_witness(pair(1, 0, 0, 0))
    assert w.kind is WitnessKind.BOTH_POINT_MASSES
    assert w.claimed_tv == 1.0
    assert tv_distance(w.p_dist, w.q_dist) == 1.0


def test_tight_witness_gap_zero():
    with pytest.raises(GapZeroError):
        construct_tight_witness(pair(3, 1, 3, 2))


def test_tight_witness_three_points_distinct():
    for mp, sp, mq, sq in draws(23, 100, POSITIVE):
        w = construct_tight_witness(pair(mp, sp, mq, sq))
        assert w.kind is WitnessKind.THREE_POINT
        assert len(w.p_dist) == 3
        assert len(w.q_dist) == 3


@given(pairs(BOX))
@settings(deadline=None, max_examples=300)
def test_tight_witness_round_trip_property(x):
    mp, sp, mq, sq = x
    assume(abs(mp - mq) > 1e-3)
    this = pair(*x)
    w = construct_tight_witness(this)
    assert abs(w.claimed_tv - tv_lower_bound_1d(this)) == 0.0
    assert abs(tv_distance(w.p_dist, w.q_dist) - w.claimed_tv) <= 1e-12
    assert_moments(w.p_dist, mp, sp)
    assert_moments(w.q_dist, mq, sq)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "sp, sq, kind",
    [
        (1.3, 0.7, WitnessKind.THREE_POINT),
        (1.3, 0.0, WitnessKind.TWO_POINT_Q_DEGENERATE),
        (0.0, 0.7, WitnessKind.TWO_POINT_P_DEGENERATE),
    ],
)
@pytest.mark.parametrize(
    "ratio", [1e1, 1e2, 1e3, 10**3.5, 1e4, 1e5, 1e6, 1e7, 1e8, 1e10, 1e20, 1e50, 1e100, 1e150]
)
def test_tight_witness_at_large_gap_to_spread_ratios(ratio, sp, sq, kind, sign):
    # As the bound p nears 1, 1 - p keeps only the absolute rounding of p;
    # the mass on the atom both sides share must be the complement to full
    # relative precision, or the far atom's variance comes out wrong
    mp = sign * ratio * (sp + sq)
    this = pair(mp, sp, 0.0, sq)
    w = construct_tight_witness(this)
    assert w.kind is kind
    assert w.claimed_tv == tv_lower_bound_1d(this)
    shared = [
        min(wp, wq) for wp, wq in zip(w.p_dist.probs, w.q_dist.probs) if wp > 0.0 and wq > 0.0
    ]
    assert len(shared) == 1
    spread_sq = (Fraction(sp) + Fraction(sq)) ** 2
    exact = spread_sq / (spread_sq + Fraction(mp) ** 2)
    assert abs(Fraction(shared[0]) - exact) <= 4 * 2.0**-53 * exact
    for dist, m, s in ((w.p_dist, mp, sp), (w.q_dist, 0.0, sq)):
        mean, var = ref_moments(dist.support, dist.probs)
        assert abs(mean - m) <= 1e-9 * (1.0 + abs(m))
        assert abs(var - s * s) <= 1e-9 * (1.0 + s * s)


# ------------------------------------------------------------------ two point


def test_two_point_reference_case():
    w = construct_two_point(pair(1, 1, 0, 1))
    assert w.kind is WitnessKind.TWO_POINT_SHARED
    assert w.claimed_tv == pytest.approx(1 / math.sqrt(5), rel=1e-15)
    x2, x1 = w.p_dist.support  # sorted ascending
    assert x1 == pytest.approx(1.6180339887498949, rel=1e-9)
    assert x2 == pytest.approx(-0.6180339887498949, rel=1e-9)
    p = w.p_dist.probs[0]  # mass at the lower point
    q = w.q_dist.probs[0]
    assert p == pytest.approx(0.2763932022500210, rel=1e-9)
    assert q == pytest.approx(0.7236067977499789, rel=1e-9)
    assert_moments(w.p_dist, 1.0, 1.0)
    assert_moments(w.q_dist, 0.0, 1.0)


def test_two_point_sigma_q_zero_collapses_to_tight_witness_pair():
    w = construct_two_point(pair(1, 1, 0, 0))
    assert w.claimed_tv == pytest.approx(0.5, rel=1e-15)
    assert w.p_dist.compact() == DiscreteDist((0.0, 2.0), (0.5, 0.5))
    assert w.q_dist.compact() == DiscreteDist.delta(0.0)


def test_two_point_example_with_distinct_sigmas():
    w = construct_two_point(pair(2, 1, 0, 1))
    assert w.claimed_tv == pytest.approx(4 / math.sqrt(32), rel=1e-15)


def test_two_point_mirrors_when_p_side_degenerate():
    w = construct_two_point(pair(0, 0, 1, 1))
    assert w.kind is WitnessKind.TWO_POINT_SHARED
    assert w.claimed_tv == pytest.approx(0.5, rel=1e-15)
    assert w.p_dist.compact() == DiscreteDist.delta(0.0)
    assert_moments(w.q_dist, 1.0, 1.0)


def test_two_point_both_point_masses():
    w = construct_two_point(pair(1, 0, 0, 0))
    assert w.claimed_tv == 1.0
    assert w.p_dist.compact() == DiscreteDist.delta(1.0)
    assert w.q_dist.compact() == DiscreteDist.delta(0.0)


@given(pairs(scale=(-324, 6.31), zero=("p", "q", "both"), equal=False))
@settings(deadline=None, max_examples=300)
def test_two_point_with_a_point_mass_is_the_tight_witness(x):
    # one side a point mass: the shared two-point pair is the tight witness
    mp, _, mq, _ = x
    # past a gap of about 1.34e154 the radical overflows, a named refusal
    assume(mp != mq and abs(mp - mq) < 1e154)
    this = pair(*x)
    try:
        tight = construct_tight_witness(this)
    except WitnessConstructionError:
        with pytest.raises(WitnessConstructionError):
            construct_two_point(this)
        return
    w = construct_two_point(this)
    assert w.kind is WitnessKind.TWO_POINT_SHARED
    assert (w.p_dist, w.q_dist) == (tight.p_dist, tight.q_dist)
    assert w.claimed_tv == tight.claimed_tv == bound_report(this).two_point_tv


def test_two_point_gap_zero():
    with pytest.raises(GapZeroError):
        construct_two_point(pair(0, 1, 0, 2))


@given(pairs(BOX, zero=("none", "q")))
@settings(deadline=None, max_examples=300)
def test_two_point_masses_stay_in_unit_interval(x):
    # executable version of the containment guarantee for the mass
    # parameters; the constructor validates moments and TV on top
    mp, sp, mq, sq = x
    assume(abs(mp - mq) > 1e-3)
    w = construct_two_point(pair(*x))
    assert all(0.0 <= x <= 1.0 for x in w.p_dist.probs)
    assert all(0.0 <= x <= 1.0 for x in w.q_dist.probs)
    assert_moments(w.p_dist, mp, sp)
    assert_moments(w.q_dist, mq, sq)


# ------------------------------------------------------------------- anchored


def test_anchored_reference_case():
    w = construct_anchored_witness(pair(1, 1, 0, 1), 0.5)
    assert w.kind is WitnessKind.ANCHORED_THREE_POINT
    golden = 2 / (1 + math.sqrt(5))
    assert w.claimed_tv == pytest.approx(golden, rel=1e-12)
    assert w.p_dist.support == pytest.approx((-1.0, 1.0, 1.6180339887498949))
    assert w.p_dist.probs == pytest.approx(
        (0.1909830056250526, 0.1909830056250526, 0.6180339887498948)
    )
    assert w.q_dist.probs == (0.5, 0.5, 0.0)
    assert tv_distance(w.p_dist, w.q_dist) == pytest.approx(golden, abs=1e-12)
    assert_moments(w.p_dist, 1.0, 1.0)
    assert_moments(w.q_dist, 0.0, 1.0)


def test_anchored_second_reference_case():
    w = construct_anchored_witness(pair(1, 2, 0, 1), 0.5)
    p = 2 / (math.sqrt(20) + 4)
    assert w.claimed_tv == pytest.approx(p, rel=1e-12)
    assert max(w.p_dist.support) == pytest.approx(1 / p, rel=1e-9)


@pytest.mark.parametrize("q_param", [0.1, 0.3, 0.7, 0.9])
def test_anchored_tv_independent_of_q_param(q_param):
    this = pair(1.5, 1.0, -0.5, 2.0)
    w = construct_anchored_witness(this, q_param)
    assert w.claimed_tv == bound_report(this).anchored_p_tv
    assert tv_distance(w.p_dist, w.q_dist) == pytest.approx(
        w.claimed_tv, abs=1e-12
    )


def test_anchored_errors():
    with pytest.raises(GapZeroError):
        construct_anchored_witness(pair(1, 1, 1, 1))
    with pytest.raises(DegenerateVarianceError):
        construct_anchored_witness(pair(1, 0, 0, 1))
    with pytest.raises(DegenerateVarianceError):
        construct_anchored_witness(pair(1, 1, 0, 0))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(BadParameterError):
            construct_anchored_witness(pair(1, 1, 0, 1), bad)


def test_anchored_witness_round_trips_at_small_gaps():
    # When the anchored side has the smaller variance, the textbook
    # denominator v + (own - other) + a^2 cancels as the gap shrinks; the
    # witness must still meet its own moments for gaps down to 1e-8.
    small = dict(scale=(-0.6, 0.8), offset=(0, 0), gap=(-8.8, 1.2), ratio=(-1.5, 1.5), zero=("none",), equal=False)
    for mp, sp, mq, sq in draws(0, 3000, **small):
        a = mp - mq
        this = pair(a, sp, 0.0, sq)
        w = construct_anchored_witness(this)
        assert w.claimed_tv == bound_report(this).anchored_p_tv
        for dist, m, s in ((w.p_dist, a, sp), (w.q_dist, 0.0, sq)):
            mean, var = ref_moments(dist.support, dist.probs)
            assert abs(mean - m) <= 1e-9 * (1.0 + abs(m))
            assert abs(var - s * s) <= 1e-9 * (1.0 + s * s)


def test_anchored_tv_small_gap_limit():
    # a gap whose square underflows lands on the a -> 0 limit 1 - own/other,
    # which is 0 when the two variances agree
    assert bound_report(pair(1e-170, 0.5, 0.0, 1.5)).anchored_p_tv == pytest.approx(
        1.0 - 0.25 / 2.25, rel=1e-15
    )
    assert bound_report(pair(1e-170, 1.5, 0.0, 0.5)).anchored_q_tv == pytest.approx(
        1.0 - 0.25 / 2.25, rel=1e-15
    )
    assert bound_report(pair(1e-170, 1.0, 0.0, 1.0)).anchored_p_tv == 0.0
    assert bound_report(pair(1e-170, 1.5, 0.0, 0.5)).anchored_p_tv == 0.0


@pytest.mark.parametrize("sp,sq", [(1.0, 1.0), (1.5, 0.5)])
def test_anchored_witness_refuses_underflowed_value(sp, sq):
    # the anchored value is 0 here, so the exclusive atom a / p + mq has no
    # finite position: a specific refusal, not a ZeroDivisionError
    this = pair(1e-170, sp, 0.0, sq)
    assert bound_report(this).anchored_p_tv == 0.0
    with pytest.raises(WitnessConstructionError, match="underflows to 0"):
        construct_anchored_witness(this)


@pytest.mark.parametrize(
    "args",
    [(0.0, 1.0, 1e-170, 0.0), (1e-170, 0.0, 0.0, 1.0), (5e-324, 1e300, 0.0, 1e300)],
    ids=["q-point-mass", "p-point-mass", "ratio-underflows"],
)
def test_tight_witness_refuses_underflowed_bound(args):
    # the bound (or the gap-to-spread ratio) is 0, and the constructor
    # divided by it: a specific refusal, not a ZeroDivisionError
    assert tv_lower_bound_1d(pair(*args)) == 0.0
    with pytest.raises(WitnessConstructionError, match="underflows to 0"):
        construct_tight_witness(pair(*args))


@pytest.mark.parametrize(
    "args", [(1e-170, 0.0, 0.0, 1.0), (1e-170, 1.0, 0.0, 0.0)], ids=["mirrored", "direct"]
)
def test_two_point_refuses_underflowed_value(args):
    assert bound_report(pair(*args)).two_point_tv == 0.0
    with pytest.raises(WitnessConstructionError, match="underflows to 0 at mean gap 1e-170"):
        construct_two_point(pair(*args))


def test_two_point_equal_stddevs_with_underflowed_radical():
    # equal stddevs and a gap whose square underflows even in scaled units,
    # so the radical is 0: the masses are 1/2 to far below an ulp, where the
    # generic formula divided by the radical and raised ZeroDivisionError
    this = pair(0.0, 1.0, 1e-320, 1.0)
    w = construct_two_point(this)
    assert w.p_dist.support == w.q_dist.support == (-1.0, 1.0)
    assert w.p_dist.probs == w.q_dist.probs == (0.5, 0.5)
    assert w.claimed_tv == bound_report(this).two_point_tv


def test_two_point_at_tiny_scale_refuses_without_dividing_by_zero():
    # every input near 1e-153: unscaled, v * (v - signed) underflows to 0;
    # in scaled units the masses are finite, and the refusal that remains is
    # DiscreteDist merging atoms closer than its 1e-12 absolute floor
    this = pair(
        1.8964864346998233e-153,
        5.189758418810336e-154,
        1.0594429288851018e-153,
        3.882824847705252e-154,
    )
    with pytest.raises(WitnessConstructionError):
        construct_two_point(this)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_point_with_a_tiny_stddev_builds_like_its_swap(seed):
    # a stddev of 10^-k, k up to 323, against an ordinary one: the small
    # mass of that side turns subnormal or 0, and the other side places the
    # atoms, in both orientations and with the same bits
    tiny_p = dict(scale=(-5.5, 5.5), offset=(0, 4), gap=(-1.5, 1.5), ratio=(-324, -149), zero=("none", "p"), equal=False)
    for x in draws(seed, 100, **tiny_p):
        if x not in TINY_STDDEV_BREAKS:
            assert_builds_like_its_swap(x)


def assert_builds_like_its_swap(x):
    mp, tiny, mq, sd = x
    w = construct_two_point(pair(mp, tiny, mq, sd))
    twin = construct_two_point(pair(mq, sd, mp, tiny))
    assert (w.p_dist, w.q_dist, w.claimed_tv) == (twin.q_dist, twin.p_dist, twin.claimed_tv)
    assert w.kind is twin.kind is WitnessKind.TWO_POINT_SHARED


#: Draws of the test above whose witness and its swap's place the atoms an
#: ulp apart.
TINY_STDDEV_BREAKS = [
    (-1.7178492838848386e-06, 3.4320355517910116e-159, -4.634557109018687e-06, 5.99998786055149e-06),
    (0.12499928111042416, 1.4129812720866407e-152, -0.103956196925551, 0.013529752453462874),
    (-859884.9062815054, 1.9288713921397184e-145, -410757.0686102366, 174733.72493777762),
]


@pytest.mark.xfail(
    raises=AssertionError,
    reason="FOUND: where the tiny side's smaller mass stays in the normal range, "
    "that side places the atoms in one orientation and the other side in the "
    "swap, and the two round an ulp apart (ROADMAP item 3)",
)
@pytest.mark.parametrize("x", TINY_STDDEV_BREAKS)
def test_two_point_with_a_tiny_stddev_builds_like_its_swap_where_its_mass_is_normal(x):
    assert_builds_like_its_swap(x)


@pytest.mark.parametrize("sd", [1e-160, 1e-170, 1e-200])
def test_two_point_with_two_tiny_stddevs_is_a_named_refusal(sd):
    # both small masses are subnormal or 0, so the far atom has no finite
    # position on either side
    for x in ((1.0, sd, 0.0, sd), (0.0, sd, 1.0, sd)):
        with pytest.raises(WitnessConstructionError, match="leaves no room"):
            construct_two_point(pair(*x))


# ---------------------------------------------------------------- orderings


def test_ordering_realized_by_witnesses():
    for mp, sp, mq, sq in draws(29, 200, POSITIVE):
        this = pair(mp, sp, mq, sq)
        tight = construct_tight_witness(this).claimed_tv
        assert construct_two_point(this).claimed_tv >= tight
        assert construct_anchored_witness(this).claimed_tv >= tight


# --------------------------------------------------------- vanishing sequence


def test_vanishing_sequence_reference_case():
    w = construct_vanishing_sequence(0.0, 2.0, 1.0, 10)
    assert w.kind is WitnessKind.VANISHING_SEQUENCE
    assert w.claimed_tv == 0.1
    root = math.sqrt(31.0)
    assert w.p_dist.support == pytest.approx((-root, -1.0, 1.0, root))
    assert w.p_dist.probs == (0.05, 0.45, 0.45, 0.05)
    assert w.q_dist.support == (-1.0, 1.0)
    assert w.q_dist.probs == (0.5, 0.5)
    assert tv_distance(w.p_dist, w.q_dist) == pytest.approx(0.1, abs=1e-15)


def test_vanishing_sequence_roles_follow_declared_sigmas():
    w = construct_vanishing_sequence(0.0, 1.0, 2.0, 10)
    assert len(w.p_dist) == 2  # smaller stddev side keeps the two-point law
    assert len(w.q_dist) == 4
    assert_moments(w.p_dist, 0.0, 1.0)
    assert_moments(w.q_dist, 0.0, 2.0)


def test_vanishing_sequence_point_mass_side():
    w = construct_vanishing_sequence(5.0, 1.0, 0.0, 4)
    assert w.claimed_tv == 0.25
    assert w.q_dist == DiscreteDist.delta(5.0)
    assert w.p_dist == DiscreteDist((3.0, 5.0, 7.0), (0.125, 0.75, 0.125))
    assert tv_distance(w.p_dist, w.q_dist) == pytest.approx(0.25, abs=1e-15)
    assert_moments(w.p_dist, 5.0, 1.0)


def test_vanishing_sequence_equal_sigmas_identical_pair():
    w = construct_vanishing_sequence(1.0, 1.5, 1.5, 7)
    assert w.claimed_tv == 0.0
    assert w.p_dist == w.q_dist
    assert tv_distance(w.p_dist, w.q_dist) == 0.0


@pytest.mark.parametrize("sigma", [1e7, 2e7])
def test_vanishing_sequence_refuses_pairs_that_miss_their_moments(sigma):
    # at m = 1e20 the near points m - sigma and m + sigma merge into one
    # atom, so the pair has variance 0; equal stddevs were not checked
    with pytest.raises(WitnessConstructionError, match="p side moments"):
        construct_vanishing_sequence(1e20, sigma, 1e7, 2)


@pytest.mark.parametrize("k", [2, 10, 100, 10**6])
def test_vanishing_sequence_scaling(k):
    w = construct_vanishing_sequence(0.0, 2.0, 1.0, k)
    assert w.claimed_tv == 1.0 / k
    assert abs(tv_distance(w.p_dist, w.q_dist) - 1.0 / k) <= 1e-15
    assert_moments(w.p_dist, 0.0, 2.0)
    assert_moments(w.q_dist, 0.0, 1.0)


@pytest.mark.parametrize("k", [1, 0, -3, 2.5, True])
def test_vanishing_sequence_rejects_bad_k(k):
    with pytest.raises(BadParameterError):
        construct_vanishing_sequence(0.0, 2.0, 1.0, k)


# 2**1024 - 2**970 is the least integer that float() rounds past the range
@pytest.mark.parametrize("k", [2**1024 - 2**970, 10**400], ids=["least", "401-digit"])
def test_vanishing_sequence_refuses_k_past_the_float_range(k):
    with pytest.raises(BadParameterError, match=r"below about 1\.8e308"):
        construct_vanishing_sequence(0.0, 2.0, 1.0, k)
    # with equal stddevs the pair does not depend on k and is still built
    assert construct_vanishing_sequence(0.0, 1.0, 1.0, k).claimed_tv == 0.0


@pytest.mark.parametrize(
    "m,sigma_p,sigma_q,k",
    [(0.0, 1e150, 1.0, 10**14), (0.0, 1.0, 2.0, 10**308), (-3.0, 2.0, 1.0, 6 * 10**307)],
)
def test_vanishing_sequence_refuses_a_k_whose_far_atoms_overflow(m, sigma_p, sigma_q, k):
    # (s_big^2 - s_small^2) * k overflows, and the far atoms used to reach
    # the support check as -inf
    with pytest.raises(BadParameterError) as raised:
        construct_vanishing_sequence(m, sigma_p, sigma_q, k)
    assert str(raised.value) == (
        f"k {k} puts the far atoms of the wider side past the float range"
    )


# -------------------------------------------------------- pair self-checking


def test_witness_pair_rejects_wrong_claim():
    p = DiscreteDist((0.0, 1.0), (0.5, 0.5))
    q = DiscreteDist((0.0, 1.0), (0.25, 0.75))
    with pytest.raises(WitnessConstructionError):
        WitnessPair(p, q, 0.9, WitnessKind.TWO_POINT_SHARED)


def test_witness_pair_rejects_out_of_range_claim():
    p = DiscreteDist((0.0,), (1.0,))
    with pytest.raises(WitnessConstructionError):
        WitnessPair(p, p, 1.5, WitnessKind.BOTH_POINT_MASSES)


def test_witness_serialization_shape():
    w = construct_tight_witness(pair(1, 1, 0, 1))
    payload = w.to_json_dict()
    assert list(payload.keys()) == ["kind", "p", "q", "tv"]
    assert payload["kind"] == "three_point"
    assert payload["tv"] == 0.2
    assert DiscreteDist.from_json_dict(payload["p"]) == w.p_dist


# -------------------------------------------------- independent re-derivation


def test_tight_witness_against_reference_oracles():
    for mp, sp, mq, sq in draws(31, 100, POSITIVE):
        this = pair(mp, sp, mq, sq)
        w = construct_tight_witness(this)
        atoms_p = list(zip(w.p_dist.support, w.p_dist.probs))
        atoms_q = list(zip(w.q_dist.support, w.q_dist.probs))
        assert ref_tv(atoms_p, atoms_q) == pytest.approx(w.claimed_tv, abs=1e-12)
        for dist, m, s in ((w.p_dist, mp, sp), (w.q_dist, mq, sq)):
            mean, var = ref_moments(dist.support, dist.probs)
            assert mean == pytest.approx(m, abs=1e-9)
            assert var == pytest.approx(s * s, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("offset", [1e4, 1e5, 1e6, 1e7])
def test_witnesses_round_trip_at_large_mean_offsets(offset):
    # With both means far above the spread, a variance taken as
    # E[x^2] - mean^2 cancels, and every constructor used to refuse its
    # own witness.  The gap stays above 1e-2 in size; small gaps have a
    # test of their own, test_anchored_witness_round_trips_at_small_gaps.
    near = dict(scale=(0, 0.8), offset=(0, 0), gap=(-2.8, 1.2), ratio=(-1.5, 1.5), zero=("none",), equal=False)
    for mp, sp, mq, sq in draws(2026, 100, **near):
        mp, mq = offset + mp, offset + mq
        this = pair(mp, sp, mq, sq)
        for w in (
            construct_tight_witness(this),
            construct_two_point(this),
            construct_anchored_witness(this),
        ):
            for dist, m, s in ((w.p_dist, mp, sp), (w.q_dist, mq, sq)):
                mean, var = ref_moments(dist.support, dist.probs)
                assert abs(mean - m) <= 1e-9 * (1.0 + abs(m))
                assert abs(var - s * s) <= 1e-9 * (1.0 + s * s)


def test_two_point_tv_consistent_with_radical(subtests=None):
    for mp, sp, mq, sq in draws(37, 100, POSITIVE):
        this = pair(mp, sp, mq, sq)
        w = construct_two_point(this)
        recomputed = tv_distance(w.p_dist, w.q_dist)
        assert recomputed == pytest.approx(bound_report(this).two_point_tv, abs=1e-12)
