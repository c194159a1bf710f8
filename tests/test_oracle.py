"""Grid LP verifier: formulation, simplex behavior, bound certification."""

import math
import random

import numpy as np
import pytest

from tvbounds import (
    BadParameterError,
    GridSpec,
    LPStandardForm,
    Moments1D,
    MomentPair1D,
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
)
import tvbounds.discrete as discrete
import tvbounds.oracle as oracle
from tvbounds.simplex import solve_dense

from test_simplex import _ref_solve_dense


def pair(mp, sp, mq, sq):
    return MomentPair1D.from_scalars(mp, sp, mq, sq)


# -------------------------------------------------------------------- grids


def test_build_grid_examples():
    np.testing.assert_allclose(build_grid(GridSpec(0, 1, 3)), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(
        build_grid(GridSpec(-1, 1, 2, (0.0,))), [-1.0, 0.0, 1.0]
    )


def test_grid_spec_refuses_a_count_past_its_limit_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", refuse)
    limit = oracle.GRID_MAX_COUNT
    assert GridSpec(0.0, 1.0, limit).count == limit
    for count in (limit + 1, 10**12):
        with pytest.raises(ValueError) as raised:
            GridSpec(0.0, 1.0, count)
        assert str(raised.value) == (
            f"count must be at most GRID_MAX_COUNT = {limit}, got {count}"
        )


def test_build_grid_merges_extras():
    grid = build_grid(GridSpec(-6, 6, 121, (0.5, 3.0, -2.0)))
    assert np.all(np.diff(grid) > 0)
    for wanted in (-2.0, 0.5, 3.0):
        assert np.min(np.abs(grid - wanted)) <= 1e-9
    # the three extras sit on the lattice, so merging keeps 121 points
    assert 121 <= grid.size <= 124


def test_build_grid_dedupes_coincident_extras():
    grid = build_grid(GridSpec(0, 1, 2, (0.0, 1.0, 0.5)))
    assert grid.tolist() == [0.0, 0.5, 1.0]


# `build_grid` as it stood before it built its values as a Python list:
# numpy concatenation, a stable numpy sort and the tolerance from the largest
# magnitude over the whole array.


def _ref_build_grid(spec):
    pts = np.concatenate(
        [np.linspace(spec.lo, spec.hi, spec.count), np.asarray(spec.extra_points)]
    )
    pts.sort(kind="stable")
    tol = discrete.SUPPORT_MERGE_REL * (1.0 + float(np.max(np.abs(pts))))
    values = pts.tolist()
    kept = values[:1]
    for x in values[1:]:
        if x - kept[-1] > tol:
            kept.append(x)
    return np.array(kept)


def _assert_same_grid(spec):
    got, want = build_grid(spec), _ref_build_grid(spec)
    assert got.dtype == want.dtype
    # bytes, so that -0.0 and 0.0 count as different
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        # a chain of extras, each within tol of the last, spanning more than tol
        GridSpec(-1.0, 1.0, 5, tuple(0.1 + k * 0.6e-12 for k in range(8))),
        GridSpec(-1.0, 1.0, 5, (0.5, 0.5 + 1e-12, 0.5 + 2.5e-12, 0.5 - 1e-12)),
        # extras outside [lo, hi], on both sides
        GridSpec(0.0, 1.0, 4, (-3.0, 7.5, -1e-9, 1.0 + 1e-9)),
        # -0.0 next to 0.0, from the extras and from the uniform grid
        GridSpec(-1.0, 1.0, 3, (-0.0, 0.0)),
        GridSpec(-1.0, 1.0, 3, (0.0, -0.0)),
        GridSpec(-0.0, 1.0, 2, (0.0,)),
        GridSpec(-1.0, 0.0, 5, (-0.0,)),
        # offsets where the uniform points merge under the tolerance
        GridSpec(1e6, 1e6 + 1e-5, 121),
        GridSpec(-1e7 - 3.0, -1e7 + 3.0, 121, (-1e7, -1e7 + 1e-6)),
        GridSpec(1e16, 1e16 + 64.0, 121, (1e16 + 2.0,)),
        GridSpec(1e300, 1.0000000000001e300, 9),
        # subnormal span: the uniform step underflows to 0
        GridSpec(0.0, 5e-324, 4),
    ],
)
def test_build_grid_matches_reference_on_adversarial_specs(spec):
    _assert_same_grid(spec)


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
        _assert_same_grid(GridSpec(lo, hi, rng.randrange(2, 130), tuple(extras)))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 5, (math.inf,))


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


def test_formulate_shapes_and_content():
    grid = np.array([-1.0, 0.0, 1.0])
    lp = formulate(pair(0.25, 0.5, 0.0, 0.25), grid)
    n = 3
    W, U, V = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    A = lp.constraint_matrix
    assert A.shape == (6, 3 * n)
    assert lp.objective.size == 3 * n
    assert lp.rhs.size == 6
    # objective: the mass of the p-side excess u, nothing else
    assert np.all(lp.objective[U] == 1.0)
    assert np.count_nonzero(lp.objective) == n
    np.testing.assert_allclose(lp.rhs, [1.0, 0.25, 0.3125, 1.0, 0.0, 0.0625])
    # p = w + u carries rows 0-2 and q = w + v rows 3-5; u never meets q
    # and v never meets p
    for k, power in enumerate((np.ones(n), grid, grid * grid)):
        np.testing.assert_array_equal(A[k, W], power)
        np.testing.assert_array_equal(A[k, U], power)
        assert np.all(A[k, V] == 0.0)
        np.testing.assert_array_equal(A[3 + k, W], power)
        np.testing.assert_array_equal(A[3 + k, V], power)
        assert np.all(A[3 + k, U] == 0.0)
    assert lp.grid == (-1.0, 0.0, 1.0)


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
        objective=np.array([-1.0, 0.0]),
        constraint_matrix=np.array([[1.0, -1.0]]),
        rhs=np.array([0.0]),
        pair=pair(0, 1, 0, 1),
        grid=(-1.0, 1.0),
    )
    assert solve(lp).status is OracleStatus.NUMERIC_FAILURE


def _witness_grid_lp(this):
    return formulate(this, build_grid(GridSpec(-6, 6, 121, (0.5, 3.0, -2.0))))


def test_solve_demotes_an_optimum_whose_mass_is_off_one():
    # the mass rows ask for 2, so each optimizer totals 2 and extraction
    # refuses it
    lp = _witness_grid_lp(pair(1, 1, 0, 1))
    lp.rhs[0] = lp.rhs[3] = 2.0
    assert solve(lp).status is OracleStatus.NUMERIC_FAILURE


def test_solve_demotes_an_optimum_that_misses_the_pair():
    # the rows encode sp = 1, but the pair the optimizers are certified
    # against has sp = 2
    rows = _witness_grid_lp(pair(1, 1, 0, 1))
    lp = LPStandardForm(
        rows.objective, rows.constraint_matrix, rows.rhs, pair(1, 2, 0, 1), rows.grid
    )
    assert solve(rows).status is OracleStatus.OPTIMAL
    assert solve(lp).status is OracleStatus.NUMERIC_FAILURE


def test_witness_grid_attains_bound():
    this = pair(1, 1, 0, 1)
    spec = GridSpec(-6, 6, 121, (0.5, 3.0, -2.0))
    result = solve(formulate(this, build_grid(spec)))
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
    spec = GridSpec(-13, 13, n, element.p_dist.support + element.q_dist.support)
    result = minimize_tv_on_grid(pair(0, 2, 0, 1), spec)
    assert result.status is OracleStatus.OPTIMAL
    assert result.tv_min <= 4.0 / n + 1e-9


def test_optimizers_certify_their_moments():
    this = pair(0.7, 1.3, -0.4, 0.9)
    result = minimize_tv_on_grid(this)
    assert result.status is OracleStatus.OPTIMAL
    assert check_moments(result.p_opt, this.p_side, 1e-7)
    assert check_moments(result.q_opt, this.q_side, 1e-7)
    assert all(w > 0 for w in result.p_opt.probs)  # compacted


def test_grid_refinement_never_raises_optimum():
    this = pair(1.2, 0.8, -0.3, 1.1)
    coarse_spec = GridSpec(-8, 8, 41)
    fine_spec = GridSpec(-8, 8, 41, (-1.234, 0.777, 2.5))
    coarse = minimize_tv_on_grid(this, coarse_spec, include_witness_points=False)
    fine = minimize_tv_on_grid(this, fine_spec, include_witness_points=False)
    assert fine.tv_min <= coarse.tv_min + 1e-9


def test_solver_determinism():
    this = pair(0.9, 1.1, -0.2, 0.7)
    first = minimize_tv_on_grid(this)
    second = minimize_tv_on_grid(this)
    assert first.tv_min == second.tv_min
    assert first.iterations == second.iterations
    assert first.p_opt == second.p_opt
    assert first.q_opt == second.q_opt


def test_soundness_floor_random_configs():
    rng = np.random.default_rng(101)
    for _ in range(5):
        mp, mq = rng.uniform(-2, 2, size=2)
        sp, sq = rng.uniform(0.4, 2.0, size=2)
        if abs(mp - mq) < 0.3:
            continue
        this = pair(mp, sp, mq, sq)
        result = minimize_tv_on_grid(this, include_witness_points=False)
        assert result.status is OracleStatus.OPTIMAL
        assert result.tv_min >= tv_lower_bound_1d(this) - 1e-8


def _sweep_pairs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mp = rng.uniform(-2, 2)
        sp, sq = rng.uniform(0.2, 2, size=2)
        yield pair(mp, sp, 0.0, sq)


def test_seeded_sweep_has_no_numeric_failure():
    # broad enough to reach the inputs on which a badly conditioned grid LP
    # stalls or lands on a wrong vertex; no solve may fall back on
    # certification to catch it
    failures = []
    for this in _sweep_pairs(42, 200):
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
    for this in _sweep_pairs(43, 30):
        grid = build_grid(GridSpec.default_for(this))
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


# ------------------------------------------------------------ simplex engine


def _lattice_pairs(seed, pool=149, lattice=(1, 12, 44)):
    """The pairs of the benchmark's ``verify_grid`` workload: a rank-1
    lattice over (mean_p, sd_p, sd_q), shifted at random by ``seed``."""
    rng = random.Random(seed)
    shift = [rng.random() for _ in lattice]
    for i in range(pool):
        u, v, w = (((i * g % pool) / pool + s) % 1.0 for g, s in zip(lattice, shift))
        yield pair(-2.0 + 4.0 * u, 0.2 + 1.8 * v, 0.0, 0.2 + 1.8 * w)


def _ref_minimize(p, include_witness_points):
    """``minimize_tv_on_grid`` on the reference ``build_grid`` and the
    reference simplex kernel, with the extraction and certification as they
    stood before both sides went through one pass."""
    spec = GridSpec.default_for(p)
    if include_witness_points:
        w = oracle.construct_tight_witness(p)
        spec = spec.with_extra(w.p_dist.support + w.q_dist.support)
    lp = formulate(p, _ref_build_grid(spec))
    res = _ref_solve_dense(lp.objective, lp.constraint_matrix, lp.rhs)
    if res.status == "infeasible":
        return oracle.OracleResult(OracleStatus.INFEASIBLE, None, None, None, res.iterations)
    failed = oracle.OracleResult(
        OracleStatus.NUMERIC_FAILURE, None, None, None, res.iterations
    )
    if res.status != "optimal":
        return failed
    n = len(lp.grid)
    dists = []
    for raw in (res.x[:n] + res.x[n : 2 * n], res.x[:n] + res.x[2 * n :]):
        if float(raw.min(initial=0.0)) < -1e-9:
            return failed
        w = np.where(raw < 0.0, 0.0, raw)
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            return failed
        w = w / total
        kept = np.flatnonzero(w)
        dists.append(
            oracle.DiscreteDist(
                tuple(lp.grid[i] for i in kept.tolist()), tuple(w[kept].tolist())
            )
        )
    for dist, row in zip(dists, (1, 4)):
        mean = float(lp.rhs[row])
        var = max(0.0, float(lp.rhs[row + 1]) - mean * mean)
        if not check_moments(dist, Moments1D(mean, var**0.5), oracle.ORACLE_MOMENT_TOL):
            return failed
    tv = min(1.0, max(0.0, res.objective))
    return oracle.OracleResult(OracleStatus.OPTIMAL, tv, *dists, res.iterations)


def test_extract_pair_clamps_and_refuses():
    grid = (-1.0, 0.0, 1.0)
    # the w, u and v blocks; p = w + u holds -5e-10 at x = 1, within -1e-9,
    # which is clamped to 0 and dropped with the other empty atoms
    x = np.array([0.25, 0.25, 0.0, 0.5, 0.0, -5e-10, 0.0, 0.5, 0.0])
    p, q = oracle._extract_pair(x, grid)
    assert (p.support, p.probs) == ((-1.0, 0.0), (0.75, 0.25))
    assert (q.support, q.probs) == ((-1.0, 0.0), (0.25, 0.75))
    # mass below -1e-9 on either side, or a total off 1 by more than 1e-9
    x[5] = -2e-9
    assert oracle._extract_pair(x, grid) is None
    x[5] = 0.0
    x[7] = 0.5 + 2e-9
    assert oracle._extract_pair(x, grid) is None


@pytest.mark.parametrize("include_witness_points", [True, False])
def test_oracle_result_equals_reference_on_benchmark_lattice(include_witness_points):
    # compared with ==: the same statuses, TVs, iteration counts and atoms
    statuses = set()
    for p in _lattice_pairs(seed=3):
        got = minimize_tv_on_grid(p, include_witness_points=include_witness_points)
        assert got == _ref_minimize(p, include_witness_points)
        statuses.add(got.status)
    assert OracleStatus.OPTIMAL in statuses


def test_simplex_small_equality_program():
    # min x + y  s.t.  x + 2y = 4, x >= 0, y >= 0
    res = solve_dense([1.0, 1.0], [[1.0, 2.0]], [4.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(res.x, [0.0, 2.0], atol=1e-12)


def test_simplex_handles_negative_rhs():
    # same program written with a negated row
    res = solve_dense([1.0, 1.0], [[-1.0, -2.0]], [-4.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0, abs=1e-12)


def test_simplex_beale_cycling_example():
    # a classic degenerate program on which naive most-negative pivoting
    # cycles forever; the anti-cycling fallback must terminate at -1/20
    c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    A = [
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
    b = [0.0, 0.0, 1.0]
    res = solve_dense(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-12)


def test_simplex_unbounded():
    res = solve_dense([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert res.status == "unbounded"


def test_simplex_infeasible():
    # x1 + x2 = -1 has no non-negative solution
    res = solve_dense([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert res.status == "infeasible"


# ------------------------------------------------------- d-dimensional check


def test_nd_check_small_runs_clean():
    assert check_nd_bound_random(2, 6, 300, 7) == 0
    assert check_nd_bound_random(1, 3, 300, 8) == 0


def test_nd_check_deterministic():
    assert check_nd_bound_random(2, 6, 50, 9) == check_nd_bound_random(2, 6, 50, 9)


@pytest.mark.parametrize(
    "d,atoms,trials",
    [(0, 6, 10), (5, 10, 10), (2, 3, 10), (2, 6, 0)],
)
def test_nd_check_parameter_validation(d, atoms, trials):
    with pytest.raises(BadParameterError):
        check_nd_bound_random(d, atoms, trials, 0)


def test_nd_check_refuses_a_batch_past_the_limit_before_drawing(monkeypatch):
    monkeypatch.setattr(oracle, "ND_CHECK_MAX_DRAWS", 2 * 5 * 10)
    assert check_nd_bound_random(2, 5, 10, 0) == 0
    # no generator is made, so nothing is drawn or allocated
    monkeypatch.setattr(oracle.np.random, "default_rng", None)
    with pytest.raises(BadParameterError, match="ND_CHECK_MAX_DRAWS = 100"):
        check_nd_bound_random(2, 5, 11, 0)


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
    atoms, tol = d + extra_atoms, oracle.ND_CHECK_TOL
    for trials in (120, 1):
        margins = _loop_margins(d, atoms, trials, seed)
        monkeypatch.setattr(oracle, "ND_CHECK_TOL", tol)
        violations = sum(m < -tol for m in margins)
        assert check_nd_bound_random(d, atoms, trials, seed) == violations
        # the lowest margin agrees to 1e-12: no trial sits further below it,
        # and one sits within 1e-12 of it
        lowest = min(margins)
        monkeypatch.setattr(oracle, "ND_CHECK_TOL", -(lowest - 1e-12))
        assert check_nd_bound_random(d, atoms, trials, seed) == 0
        monkeypatch.setattr(oracle, "ND_CHECK_TOL", -(lowest + 1e-12))
        assert check_nd_bound_random(d, atoms, trials, seed) >= 1
        # a tolerance of -1 makes every trial a violation, so the counter
        # is live
        monkeypatch.setattr(oracle, "ND_CHECK_TOL", -1.0)
        assert check_nd_bound_random(d, atoms, trials, seed) == trials
