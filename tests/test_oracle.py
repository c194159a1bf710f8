"""Grid LP verifier: formulation, simplex behavior, bound certification."""

import math

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
import tvbounds.oracle as oracle
from tvbounds.simplex import solve_dense


def pair(mp, sp, mq, sq):
    return MomentPair1D.from_scalars(mp, sp, mq, sq)


# -------------------------------------------------------------------- grids


def test_build_grid_examples():
    np.testing.assert_allclose(build_grid(GridSpec(0, 1, 3)), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(
        build_grid(GridSpec(-1, 1, 2, (0.0,))), [-1.0, 0.0, 1.0]
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
    )
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
@pytest.mark.parametrize("extra_atoms", [2, 4])
@pytest.mark.parametrize("seed", [5, 77, 2026])
def test_nd_check_agrees_with_per_trial_loop(d, extra_atoms, seed, monkeypatch):
    atoms, trials = d + extra_atoms, 120
    margins = _loop_margins(d, atoms, trials, seed)
    violations = sum(m < -oracle.ND_CHECK_TOL for m in margins)
    assert check_nd_bound_random(d, atoms, trials, seed) == violations
    # the lowest margin agrees to 1e-12: no trial sits further below it,
    # and one sits within 1e-12 of it
    lowest = min(margins)
    monkeypatch.setattr(oracle, "ND_CHECK_TOL", -(lowest - 1e-12))
    assert check_nd_bound_random(d, atoms, trials, seed) == 0
    monkeypatch.setattr(oracle, "ND_CHECK_TOL", -(lowest + 1e-12))
    assert check_nd_bound_random(d, atoms, trials, seed) >= 1
    # a tolerance of -1 makes every trial a violation, so the counter is live
    monkeypatch.setattr(oracle, "ND_CHECK_TOL", -1.0)
    assert check_nd_bound_random(d, atoms, trials, seed) == trials
