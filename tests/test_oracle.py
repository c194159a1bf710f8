"""Grid LP verifier: formulation, simplex behavior, bound certification."""

import hashlib
import math
import random

import numpy as np
import pytest

from tvbounds import (
    BadParameterError,
    GridSpec,
    LPStandardForm,
    MomentPairND,
    MomentsND,
    OracleStatus,
    build_grid,
    check_moments,
    check_nd_bound_random,
    construct_vanishing_sequence,
    formulate,
    minimize_tv_on_grid,
    solve,
    tv_lower_bound_1d,
    tv_lower_bound_nd,
    WitnessConstructionError,
)
import tvbounds.cli as cli
import tvbounds.discrete as discrete
import tvbounds.nd as nd
import tvbounds.oracle as oracle

from dense_columns import DenseColumns
from domain import PLAIN, draws, pair, sample


# -------------------------------------------------------------------- grids


def test_build_grid_examples():
    np.testing.assert_allclose(build_grid(GridSpec(0, 1, 3)), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(
        build_grid(GridSpec(-1, 1, 2), (0.0,)), [-1.0, 0.0, 1.0]
    )


def test_grid_spec_holds_lo_hi_and_count_only():
    assert GridSpec.__slots__ == ("lo", "hi", "count")
    assert not hasattr(GridSpec, "with_extra")


@pytest.mark.parametrize("count", [5, 5.0, np.int64(5), np.float64(5.0)])
def test_grid_spec_takes_a_whole_count_of_any_numeric_type(count):
    spec = GridSpec(0.0, 1.0, count)
    assert type(spec.count) is int and spec == GridSpec(0.0, 1.0, 5)


def test_grid_spec_refuses_a_count_past_its_limit_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(oracle, "build_grid", refuse)
    limit = oracle.GRID_MAX_COUNT
    assert GridSpec(0.0, 1.0, limit).count == limit
    for count in (limit + 1, 10**12):
        with pytest.raises(BadParameterError) as raised:
            oracle.minimize_tv_on_grid(pair(0, 1, 0.5, 1), GridSpec(0.0, 1.0, count))
        assert str(raised.value) == (
            f"count must be at most GRID_MAX_COUNT = {limit}, got {count}"
        )


@pytest.mark.parametrize(
    "lo, hi, count, message",
    [
        (1.0, 1.0, 5, "need finite lo < hi, got lo=1.0, hi=1.0"),
        (2.0, 1.0, 5, "need finite lo < hi, got lo=2.0, hi=1.0"),
        (math.nan, 1.0, 5, "need finite lo < hi, got lo=nan, hi=1.0"),
        (0.0, math.inf, 5, "need finite lo < hi, got lo=0.0, hi=inf"),
        (-1e308, 1e308, 5, "the span hi - lo overflows, got lo=-1e+308, hi=1e+308"),
        (0.0, 1.0, 1, "count must be >= 2, got 1"),
        (0.0, 1.0, -3, "count must be >= 2, got -3"),
        (0.0, 1.0, 2.5, "count must be a whole number, got 2.5"),
        (0.0, 1.0, math.inf, "count must be a whole number, got inf"),
        (0.0, 1.0, 10**6, "count must be at most GRID_MAX_COUNT = 500000, got 1000000"),
    ],
)
def test_grid_spec_refuses_with_bad_parameter_error(lo, hi, count, message):
    with pytest.raises(BadParameterError) as raised:
        GridSpec(lo, hi, count)
    assert str(raised.value) == message


def test_a_grid_of_one_point_is_refused_with_bad_parameter_error():
    with pytest.raises(BadParameterError) as raised:
        formulate(pair(0, 1, 0, 1), [0.5])
    assert str(raised.value) == "grid needs at least 2 points, got 1"


def test_build_grid_merges_extras():
    grid = np.array(build_grid(GridSpec(-6, 6, 121), (0.5, 3.0, -2.0)))
    assert np.all(np.diff(grid) > 0)
    for wanted in (-2.0, 0.5, 3.0):
        assert np.min(np.abs(grid - wanted)) <= 1e-9
    # the three extras sit on the lattice, so merging keeps 121 points
    assert 121 <= grid.size <= 124


def test_build_grid_dedupes_coincident_extras():
    grid = build_grid(GridSpec(0, 1, 2), (0.0, 1.0, 0.5))
    assert grid == [0.0, 0.5, 1.0]


# `build_grid` as it stood before it built its values as a Python list:
# numpy concatenation, a stable numpy sort and the tolerance from the largest
# magnitude over the whole array.


def _ref_build_grid(spec, extra_points=()):
    pts = np.concatenate(
        [np.linspace(spec.lo, spec.hi, spec.count), np.asarray(extra_points, dtype=float)]
    )
    pts.sort(kind="stable")
    tol = discrete.SUPPORT_MERGE_REL * (1.0 + float(np.max(np.abs(pts))))
    values = pts.tolist()
    kept = values[:1]
    for x in values[1:]:
        if x - kept[-1] > tol:
            kept.append(x)
    return np.array(kept)


def _assert_same_grid(spec, extra_points=()):
    want = _ref_build_grid(spec, extra_points)
    if len(want) < 2:
        # no LP lives on one point, so build_grid refuses it
        with pytest.raises(BadParameterError, match="merges into one point"):
            build_grid(spec, extra_points)
        return
    got = build_grid(spec, extra_points)
    assert all(type(x) is float for x in got)
    # bytes, so that -0.0 and 0.0 count as different
    assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "spec, extra_points",
    [
        # a chain of extras, each within tol of the last, spanning more than tol
        (GridSpec(-1.0, 1.0, 5), tuple(0.1 + k * 0.6e-12 for k in range(8))),
        (GridSpec(-1.0, 1.0, 5), (0.5, 0.5 + 1e-12, 0.5 + 2.5e-12, 0.5 - 1e-12)),
        # extras outside [lo, hi], on both sides
        (GridSpec(0.0, 1.0, 4), (-3.0, 7.5, -1e-9, 1.0 + 1e-9)),
        # -0.0 next to 0.0, from the extras and from the uniform grid
        (GridSpec(-1.0, 1.0, 3), (-0.0, 0.0)),
        (GridSpec(-1.0, 1.0, 3), (0.0, -0.0)),
        (GridSpec(-0.0, 1.0, 2), (0.0,)),
        (GridSpec(-1.0, 0.0, 5), (-0.0,)),
        # offsets where the uniform points merge under the tolerance
        (GridSpec(1e6, 1e6 + 1e-5, 121), ()),
        (GridSpec(-1e7 - 3.0, -1e7 + 3.0, 121), (-1e7, -1e7 + 1e-6)),
        (GridSpec(1e16, 1e16 + 64.0, 121), (1e16 + 2.0,)),
        (GridSpec(1e300, 1.0000000000001e300, 9), ()),
        # subnormal span: the uniform step underflows to 0
        (GridSpec(0.0, 5e-324, 4), ()),
    ],
)
def test_build_grid_matches_reference_on_adversarial_specs(spec, extra_points):
    _assert_same_grid(spec, extra_points)


def test_build_grid_matches_reference_on_random_specs():
    rng = random.Random(17)
    for _ in range(400):
        offset = rng.choice([0.0, 1.0, -1e3, 1e6, -1e8, 1e12])
        scale = 10.0 ** rng.uniform(-9, 3)
        lo = offset + rng.uniform(-3, 0) * scale
        # at the larger offsets a small span rounds away: keep hi above lo
        hi = max(lo + rng.uniform(1e-3, 3) * scale, math.nextafter(lo, math.inf))
        extras = []
        for _ in range(rng.randrange(7)):
            # on the grid, off it, outside it, or a near-copy of an earlier one
            x = rng.choice(
                [lo + rng.uniform(-0.5, 1.5) * (hi - lo), lo, hi, 0.0, -0.0]
                + [e + rng.uniform(-2, 2) * 1e-12 * (1 + abs(e)) for e in extras]
            )
            extras.append(x)
        _assert_same_grid(GridSpec(lo, hi, rng.randrange(2, 130)), tuple(extras))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_build_grid_refuses_a_non_finite_extra_point(bad):
    with pytest.raises(ValueError) as raised:
        build_grid(GridSpec(0.0, 1.0, 5), (0.0, bad))
    assert type(raised.value) is ValueError
    assert str(raised.value) == "extra points must be finite"


def test_grid_spec_default_covers_witness_support():
    from tvbounds import construct_tight_witness

    this = pair(1, 1, 0, 1)
    spec = GridSpec.default_for(this)
    w = construct_tight_witness(this)
    for x in w.p_dist.support + w.q_dist.support:
        assert spec.lo <= x <= spec.hi


def test_grid_spec_default_pads_two_point_masses_by_one():
    # six stddevs of nothing is no room at all, so the pad falls back to 1
    spec = GridSpec.default_for(pair(0.5, 0.0, -2.0, 0.0), count=11)
    assert spec == GridSpec(-3.0, 1.5, 11)


# -------------------------------------------------------------- formulation


def test_formulate_writes_centred_rows():
    # centre 0.125, scale 0.75: t = (x - 0.125) / 0.75, t_p = 1/6, t_q = -1/6
    grid = [1.0, -1.0, 0.0]
    lp = formulate(pair(0.25, 0.5, 0.0, 0.25), grid)
    n = 3
    columns = lp.constraint_matrix
    assert columns.shape == (6, 3 * n)
    assert columns.grid == [-1.0, 0.0, 1.0]  # sorted
    # objective: the mass of the p-side excess u, nothing else
    assert [columns.cost(j) for j in range(3 * n)] == [0.0] * n + [1.0] * n + [0.0] * n
    t_p, t_q = 0.125 / 0.75, -0.125 / 0.75
    assert lp.rhs == (1.0, t_p, (0.5 / 0.75) ** 2, 1.0, t_q, (0.25 / 0.75) ** 2)
    # p = w + u carries rows 0-2 and q = w + v rows 3-5; u never meets q
    # and v never meets p
    for i, x in enumerate(columns.grid):
        t = (x - 0.125) / 0.75
        p_rows, q_rows = [1.0, t, (t - t_p) ** 2], [1.0, t, (t - t_q) ** 2]
        assert columns.column(i) == pytest.approx(p_rows + q_rows, abs=1e-15)
        assert columns.column(n + i) == pytest.approx(p_rows + [0.0] * 3, abs=1e-15)
        assert columns.column(2 * n + i) == pytest.approx([0.0] * 3 + q_rows, abs=1e-15)


@pytest.mark.parametrize(
    "moments, centre, scale",
    [
        ((3.0, 1.0, 1.0, 2.0), 2.0, 3.0),
        ((0.5, 0.0, -2.0, 0.0), -0.75, 2.5),  # both point masses: the gap
        ((4.0, 0.0, 4.0, 0.0), 4.0, 1.0),  # one point mass twice: 1
    ],
)
def test_centring_is_the_midpoint_and_the_summed_stddevs(moments, centre, scale):
    assert oracle._centring(pair(*moments)) == (centre, scale)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_formulate_refuses_a_grid_point_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="^LP coefficients must be finite$"):
        formulate(pair(0, 1, 0, 1), [-1.0, bad, 1.0])


def test_formulate_refuses_a_row_past_the_float_range():
    # the grid reaches 1e160 from a centre near 5e159, whose square overflows
    with pytest.raises(ValueError, match="^LP coefficients must be finite$"):
        formulate(pair(1e160, 1, 0, 1), [-1.0, 0.0, 1e160])


@pytest.mark.parametrize(
    "moments",
    [(0, 1e308, 1e307, 1e308), (1e308, 0, -1e308, 0)],
    ids=["summed_stddevs", "distance_of_the_means"],
)
def test_formulate_refuses_a_centring_scale_past_the_float_range(moments):
    # an infinite scale would divide every row coefficient down to 0, and
    # the collapsed program would report TV 0 for pairs with a positive bound
    with pytest.raises(ValueError, match="^LP coefficients must be finite: the centring"):
        formulate(pair(*moments), [-1e307, 0.0, 1e307])


def test_formulate_identical_moments_reaches_zero():
    this = pair(0, 1, 0, 1)
    result = solve(formulate(this, np.array([-1.0, 0.0, 1.0])))
    assert result.status is OracleStatus.OPTIMAL
    assert result.tv_min <= 1e-12


def test_formulate_rejects_tiny_grid():
    with pytest.raises(ValueError):
        formulate(pair(0, 1, 0, 1), np.array([0.0]))


# ------------------------------------------------------------------- solves


def test_solve_unique_feasible_point():
    # mean 1 and variance 1 on support {0, 2} forces (1/2, 1/2); the second
    # side collapses onto the lower point, so the TV is exactly 1/2
    this = pair(1, 1, 0, 0)
    result = solve(formulate(this, np.array([0.0, 2.0])))
    assert result.status is OracleStatus.OPTIMAL
    assert result.tv_min == pytest.approx(0.5, abs=1e-9)
    assert result.p_opt.probs == pytest.approx((0.5, 0.5), abs=1e-9)
    assert result.q_opt.support == (0.0,)


def test_solve_detects_infeasibility():
    lp = formulate(pair(0, 0.2, 5.5, 0.1), build_grid(GridSpec(5, 6, 11)))
    assert solve(lp).status is OracleStatus.INFEASIBLE


def test_solve_reports_numeric_failure_on_unbounded_program():
    lp = LPStandardForm(
        constraint_matrix=DenseColumns([[1.0, -1.0]], [-1.0, 0.0]),
        rhs=(0.0,),
        pair=pair(0, 1, 0, 1),
    )
    assert solve(lp).status is OracleStatus.NUMERIC_FAILURE


def _witness_grid_lp(this):
    return formulate(this, build_grid(GridSpec(-6, 6, 121), (0.5, 3.0, -2.0)))


def test_solve_demotes_an_optimum_whose_mass_is_off_one():
    # the mass rows ask for 2, so each optimizer totals 2 and extraction
    # refuses it
    lp = _witness_grid_lp(pair(1, 1, 0, 1))
    _, t_p, var_p, _, t_q, var_q = lp.rhs
    lp = lp._replace(rhs=(2.0, t_p, var_p, 2.0, t_q, var_q))
    assert solve(lp).status is OracleStatus.NUMERIC_FAILURE


def test_solve_demotes_an_optimum_that_misses_the_pair():
    # the rows encode sp = 1, but the pair the optimizers are certified
    # against has sp = 2
    rows = _witness_grid_lp(pair(1, 1, 0, 1))
    lp = rows._replace(pair=pair(1, 2, 0, 1))
    assert solve(rows).status is OracleStatus.OPTIMAL
    assert solve(lp).status is OracleStatus.NUMERIC_FAILURE


def test_witness_grid_attains_bound():
    this = pair(1, 1, 0, 1)
    grid = build_grid(GridSpec(-6, 6, 121), (0.5, 3.0, -2.0))
    result = solve(formulate(this, grid))
    assert result.status is OracleStatus.OPTIMAL
    assert abs(result.tv_min - 0.2) <= 1e-6


def test_minimize_with_witness_matches_bound():
    this = pair(1, 1, 0, 1)
    result = minimize_tv_on_grid(this)
    assert result.status is OracleStatus.OPTIMAL
    assert abs(result.tv_min - 0.2) <= 1e-6


def test_minimize_plain_grid_sits_at_or_above_bound():
    this = pair(1, 1, 0, 1)
    result = minimize_tv_on_grid(this, include_witness_points=False)
    assert result.status is OracleStatus.OPTIMAL
    assert 0.2 - 1e-8 <= result.tv_min <= 0.25


def test_minimize_equal_means_follows_vanishing_sequence():
    n = 121
    k = 31  # ceil(n / 4); the element's TV 1/k is below 4/n
    element = construct_vanishing_sequence(0.0, 2.0, 1.0, k)
    grid = build_grid(
        GridSpec(-13, 13, n), element.p_dist.support + element.q_dist.support
    )
    result = solve(formulate(pair(0, 2, 0, 1), grid))
    assert result.status is OracleStatus.OPTIMAL
    assert result.tv_min <= 4.0 / n + 1e-9
    # equal means have no tight witness: minimize_tv_on_grid adds no points
    # rather than raise GapZeroError
    plain = minimize_tv_on_grid(pair(0, 2, 0, 1), GridSpec(-13, 13, n))
    assert plain.status is OracleStatus.OPTIMAL


def test_optimizers_certify_their_moments():
    this = pair(0.7, 1.3, -0.4, 0.9)
    result = minimize_tv_on_grid(this)
    assert result.status is OracleStatus.OPTIMAL
    assert check_moments(result.p_opt, this.p_side, 1e-7)
    assert check_moments(result.q_opt, this.q_side, 1e-7)
    assert all(w > 0 for w in result.p_opt.probs)  # compacted


def test_grid_refinement_never_raises_optimum():
    this = pair(1.2, 0.8, -0.3, 1.1)
    spec = GridSpec(-8, 8, 41)
    coarse = solve(formulate(this, build_grid(spec)))
    fine = solve(formulate(this, build_grid(spec, (-1.234, 0.777, 2.5))))
    assert fine.tv_min <= coarse.tv_min + 1e-9


def test_seeded_sweep_has_no_numeric_failure():
    # broad enough to reach the inputs on which a badly conditioned grid LP
    # stalls or lands on a wrong vertex; no solve may fall back on
    # certification to catch it
    failures = []
    for x in draws(42, 200, PLAIN):
        this = pair(*x)
        bound = tv_lower_bound_1d(this)
        seeded = minimize_tv_on_grid(this)
        plain = minimize_tv_on_grid(this, include_witness_points=False)
        if seeded.status is not OracleStatus.OPTIMAL:
            failures.append(("witness grid", this, seeded.status))
        elif abs(seeded.tv_min - bound) > 1e-6:
            failures.append(("witness grid", this, seeded.tv_min, bound))
        if plain.status is not OracleStatus.OPTIMAL:
            failures.append(("plain grid", this, plain.status))
        elif plain.tv_min < bound - 1e-8:
            failures.append(("plain grid", this, plain.tv_min, bound))
    assert not failures, failures


def test_plain_grid_optimum_matches_reference_lp():
    # the textbook formulation, min (1/2) sum t with t >= |p - q|, built here
    # from the grid alone and solved by HiGHS
    linprog = pytest.importorskip("scipy.optimize").linprog
    for x in draws(43, 30, PLAIN):
        this = pair(*x)
        grid = np.array(build_grid(GridSpec.default_for(this)))
        n = grid.size
        eye, zero = np.eye(n), np.zeros((3, n))
        powers = np.vstack([np.ones(n), grid, grid**2])
        a_eq = np.block([[powers, zero, zero], [zero, powers, zero]])
        b_eq = [
            1.0,
            this.p_side.mean,
            this.p_side.mean**2 + this.p_side.stddev**2,
            1.0,
            this.q_side.mean,
            this.q_side.mean**2 + this.q_side.stddev**2,
        ]
        a_ub = np.block([[eye, -eye, -eye], [-eye, eye, -eye]])
        cost = np.concatenate([np.zeros(2 * n), np.full(n, 0.5)])
        reference = linprog(
            cost,
            A_ub=a_ub,
            b_ub=np.zeros(2 * n),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
        )
        assert reference.status == 0, reference.message
        result = minimize_tv_on_grid(this, include_witness_points=False)
        assert result.status is OracleStatus.OPTIMAL
        assert abs(result.tv_min - reference.fun) <= 1e-9, (this, result.tv_min)


# ------------------------------------------------------- robustness sweep
# The rows are centred and scale-free, so an offset or a scale that floats
# can represent must not make the oracle fail or undercut the bound.


#: The sweep's ordinary draws, and its gap-axis draws r = 10^U(-12, 0) at
#: offsets and spreads that keep the means apart and clear of the floors.
ROBUST = dict(scale=(-7, 7), offset=(0, 13), gap=(-3.5, 2), ratio=(-1.5, 1.5), equal=False)
SMALL_GAP = dict(ROBUST, scale=(-2, 7), offset=(0, 3), gap=(-12, 0), zero=("none", "p", "q"))
#: How far past item 3's 1 + |x| floors, 1 + |x| over the unit, the seeded
#: grid is tight.
TIGHT_REACH = 1e6


def _verdict(x, count, seeded):
    this = pair(*x)
    try:
        result = minimize_tv_on_grid(this, GridSpec.default_for(this, count), seeded)
    except WitnessConstructionError:
        # the witness layer refuses to seed the grid (ROADMAP item 3)
        return "witness refused"
    except BadParameterError as err:
        # build_grid's refusal to merge the grid into one point (ROADMAP
        # item 3); any other refusal fails the sweep
        if "merges into one point" not in str(err):
            raise
        return "grid refused"
    # verify's own verdict, so the sweep follows any change to its rules
    return cli._verdict(result, tv_lower_bound_1d(this))[0]


def _sweep(seed, draws, narrow):
    """(x, grid count, seeded, verdict) for ``draws`` domain draws, each on
    a grid of 3 to 200 points in both grid modes."""
    rng = random.Random(seed)
    inputs = [(sample(rng, **narrow), rng.randint(3, 200)) for _ in range(draws)]
    return [(x, count, seeded, _verdict(x, count, seeded)) for x, count in inputs for seeded in (True, False)]


@pytest.fixture(scope="module")
def robustness_sweep():
    return _sweep(2207, 1000, ROBUST)


@pytest.fixture(scope="module")
def small_gap_sweep():
    return _sweep(2030, 600, SMALL_GAP)


def _reach(x):
    mp, sp, mq, sq = x
    return (1.0 + max(abs(mp), abs(mq), sp, sq)) / (sp + sq or abs(mp - mq))


#: Ordinary draws that end in numeric_failure, each a strict xfail of its own.
NUMERIC_BREAKS = {
    ((-0.006945187159766194, 0.0, -0.006965568771194747, 0.028974876478723988), 118): "FOUND: with "
    "a point-mass side at a gap ratio of 7e-4 the seeded solve ends in numeric_failure (ROADMAP item 11)",
}


def _numeric_failures(sweep, seeded):
    return [
        case for case in sweep
        if case[2] is seeded and case[3] == "numeric_failure" and case[:2] not in NUMERIC_BREAKS
    ]


def _seeded_loose(sweep, far):
    """The seeded cases short of ``tight`` past ``TIGHT_REACH`` when
    ``far``, else within it, outside ``NUMERIC_BREAKS``."""
    return [
        case for case in sweep
        if case[2] and case[3] != "tight" and (_reach(case[0]) > TIGHT_REACH) is far
        and case[:2] not in NUMERIC_BREAKS
    ]


def test_robustness_sweep_never_lands_below_the_bound(robustness_sweep):
    assert [case for case in robustness_sweep if case[3] == "violated"] == []


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "plain"])
def test_robustness_sweep_has_no_numeric_failure(robustness_sweep, seeded):
    assert _numeric_failures(robustness_sweep, seeded) == []


@pytest.mark.parametrize(
    "x, count",
    [pytest.param(*case, marks=pytest.mark.xfail(raises=AssertionError, reason=why)) for case, why in NUMERIC_BREAKS.items()],
)
def test_robustness_sweep_numeric_break(x, count):
    assert _verdict(x, count, True) != "numeric_failure"


def test_robustness_sweep_seeded_grid_is_tight(robustness_sweep):
    assert _seeded_loose(robustness_sweep, far=False) == []


def test_robustness_sweep_merges_a_grid_only_far_past_the_floors(robustness_sweep):
    merged = [case for case in robustness_sweep if case[3] == "grid refused"]
    assert [case for case in merged if _reach(case[0]) <= TIGHT_REACH] == []


@pytest.mark.xfail(
    raises=AssertionError,
    reason="FOUND: build_grid merges within 1e-12 (1 + |x|) and keeps the lower point, so "
    "from about 1e6 spreads past 1 + |x| it can merge witness atoms away (ROADMAP item 3)",
)
def test_robustness_sweep_seeded_grid_is_tight_far_past_the_floors(robustness_sweep):
    assert _seeded_loose(robustness_sweep, far=True) == []


SMALL_GAP_REASON = (
    "FOUND: below a gap ratio of about 1e-6 the seeded grid LP's rows hold entries near "
    "1 / r^2 beside entries near 1, against absolute tolerances (ROADMAP item 11)"
)


@pytest.mark.parametrize(
    "seeded",
    [pytest.param(True, marks=pytest.mark.xfail(raises=AssertionError, reason=SMALL_GAP_REASON)), False],
    ids=["seeded", "plain"],
)
def test_small_gap_sweep_has_no_numeric_failure(small_gap_sweep, seeded):
    assert _numeric_failures(small_gap_sweep, seeded) == []


# ------------------------------------------------------------------ readback


def test_optimizers_clamp_and_refuse():
    columns = formulate(pair(0, 1, 0, 1), (-1.0, 0.0, 1.0)).constraint_matrix
    # the basic columns of the w, u and v blocks; p = w + u holds -5e-10 at
    # x = 1, within -1e-9, which is clamped to 0 and dropped with the other
    # empty atoms
    x = {0: 0.25, 1: 0.25, 3: 0.5, 5: -5e-10, 7: 0.5, 8: 0.0}
    p, q = columns.optimizers(x)
    assert (p.support, p.probs) == ((-1.0, 0.0), (0.75, 0.25))
    assert (q.support, q.probs) == ((-1.0, 0.0), (0.25, 0.75))
    # mass below -1e-9 on either side, or a total off 1 by more than 1e-9
    assert columns.optimizers({**x, 5: -2e-9}) is None
    assert columns.optimizers({**x, 5: 0.0, 7: 0.5 + 2e-9}) is None


# ------------------------------------------------------- d-dimensional check


@pytest.mark.parametrize(
    "d,atoms,trials",
    [(0, 6, 10), (5, 10, 10), (2, 3, 10), (2, 6, 0)],
)
def test_nd_check_parameter_validation(d, atoms, trials):
    with pytest.raises(BadParameterError):
        check_nd_bound_random(d, atoms, trials, 0)


@pytest.mark.parametrize("name", ["d", "atoms", "trials", "seed"])
@pytest.mark.parametrize("bad", [2.5, math.inf, math.nan])
def test_nd_check_refuses_a_count_that_is_not_a_whole_number(monkeypatch, name, bad):
    args = dict(d=2, atoms=6, trials=10, seed=0)
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(BadParameterError) as raised:
        check_nd_bound_random(**{**args, name: bad})
    assert str(raised.value) == f"{name} must be a whole number, got {bad!r}"


def test_nd_check_takes_whole_counts_of_any_numeric_type():
    want = check_nd_bound_random(2, 6, 40, 3)
    assert check_nd_bound_random(2.0, np.int64(6), np.float64(40.0), 3.0) == want


def test_nd_check_refuses_a_batch_past_the_limit_before_drawing(monkeypatch):
    monkeypatch.setattr(nd, "ND_CHECK_MAX_DRAWS", 2 * 5 * 10)
    assert check_nd_bound_random(2, 5, 10, 0) == 0
    # no generator is made, so nothing is drawn or allocated
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(BadParameterError, match="ND_CHECK_MAX_DRAWS = 100"):
        check_nd_bound_random(2, 5, 11, 0)


#: ``ND_CHECK_TOL`` -> the check's counts on the sweep below: each (d, atoms)
#: row's total over the seeds, in sweep order, and the sha256 of every count.
_ND_SWEEP_COUNTS = {
    1e-10: (
        [0] * 28,
        "663e95f263c1faa8e2139394d7a0e08b9ad8a4e6d35f6509d3fbf15dfcd62e23",
    ),
    -0.05: (
        [92, 19, 2, 1, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0]
        + [1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        "f9ebb708915bd6cb33756b394ef2d4f25e8203aedc54d3227bd4d77a012fd3bd",
    ),
    -0.3: (
        [4012, 3015, 2262, 1757, 1354, 1043, 825, 2850, 2104, 1677, 1197, 977, 755, 589]
        + [2040, 1522, 1219, 939, 755, 552, 471, 1526, 1100, 882, 726, 565, 496, 355],
        "037be393bc9b27ea7000caf8e00097e9404645d1a55a34bac4fbce1126335f36",
    ),
}


@pytest.mark.parametrize("tol", sorted(_ND_SWEEP_COUNTS))
def test_nd_check_counts_on_a_seeded_sweep(tol, monkeypatch):
    """The check's decisions on a seeded sweep: ``check_nd_bound_random(d,
    atoms, 200, seed)`` for d = 1..4, atoms d + 2 to d + 8 and seeds 0..29.

    The counts were taken from the check as it stood when it still formed
    each trial's covariance matrices and halved the TV, so they pin every
    decision across the rewrite to one weighted pass and one comparison.
    At -0.05 a few trials in a thousand sit near the slack, so a change to
    the arithmetic that moves a decision moves a count."""
    monkeypatch.setattr(nd, "ND_CHECK_TOL", tol)
    counts = [
        [check_nd_bound_random(d, atoms, 200, seed) for seed in range(30)]
        for d in range(1, 5)
        for atoms in range(d + 2, d + 9)
    ]
    totals, digest = _ND_SWEEP_COUNTS[tol]
    assert [sum(row) for row in counts] == totals
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest


def _loop_margins(d, atoms, trials, seed):
    """tv - bound for every trial, the way one trial at a time works it out:
    a validated ``MomentsND`` per side and ``tv_lower_bound_nd``, on the
    draws ``check_nd_bound_random`` makes for the same arguments."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(trials, atoms, d))
    pw = rng.dirichlet(np.ones(atoms), size=trials)
    qw = rng.dirichlet(np.ones(atoms), size=trials)
    margins = []
    for X, p, q in zip(points, pw, qw):
        tv = 0.5 * float(np.abs(p - q).sum())
        mean_p, mean_q = p @ X, q @ X
        cp = (X - mean_p).T @ ((X - mean_p) * p[:, None])
        cq = (X - mean_q).T @ ((X - mean_q) * q[:, None])
        pair_nd = MomentPairND(MomentsND(mean_p, cp), MomentsND(mean_q, cq))
        margins.append(tv - tv_lower_bound_nd(pair_nd))
    return margins


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("extra_atoms", [2, 4, 8])
@pytest.mark.parametrize("seed", [5, 77, 2026, 4242])
def test_nd_check_agrees_with_per_trial_loop(d, extra_atoms, seed, monkeypatch):
    # the loop draws each side's weights with a call of its own, so equal
    # counts pin the batch's one draw to the p side first, at any shape
    atoms, tol = d + extra_atoms, nd.ND_CHECK_TOL
    for trials in (120, 1):
        margins = _loop_margins(d, atoms, trials, seed)
        monkeypatch.setattr(nd, "ND_CHECK_TOL", tol)
        violations = sum(m < -tol for m in margins)
        assert check_nd_bound_random(d, atoms, trials, seed) == violations
        # the lowest margin agrees to 1e-12: no trial sits further below it,
        # and one sits within 1e-12 of it
        lowest = min(margins)
        monkeypatch.setattr(nd, "ND_CHECK_TOL", -(lowest - 1e-12))
        assert check_nd_bound_random(d, atoms, trials, seed) == 0
        monkeypatch.setattr(nd, "ND_CHECK_TOL", -(lowest + 1e-12))
        assert check_nd_bound_random(d, atoms, trials, seed) >= 1
        # a tolerance of -1 makes every trial a violation, so the counter
        # is live
        monkeypatch.setattr(nd, "ND_CHECK_TOL", -1.0)
        assert check_nd_bound_random(d, atoms, trials, seed) == trials
