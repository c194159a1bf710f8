"""The revised simplex kernel: its optimum against HiGHS, its determinism,
its termination and its budget; its refusals are rows of
``tests/test_refusals.py``.

HiGHS (``scipy.optimize.linprog``, a test dependency only) solves each grid
program as a dense matrix on the raw-power rows ``1, x, x^2``, built here
from the grid alone, so it shares neither the kernel nor the centred rows
of ``formulate``; both must reach the same optimum within 1e-9.
"""

import random

import numpy as np
import pytest

import tvbounds.oracle as oracle
import tvbounds.simplex as simplex
from tvbounds import GridSpec, OracleStatus
from tvbounds.oracle import build_grid, formulate, solve
from tvbounds.simplex import solve_dense

from dense_columns import DenseColumns
from domain import GRID, pair, sample


def lattice_pairs(seed, pool=149, lattice=(1, 12, 44)):
    """The pairs of the benchmark's ``verify_grid`` workload: a rank-1
    lattice over (mean_p, sd_p, sd_q), shifted at random by ``seed``."""
    rng = random.Random(seed)
    shift = [rng.random() for _ in lattice]
    for i in range(pool):
        u, v, w = (((i * g % pool) / pool + s) % 1.0 for g, s in zip(lattice, shift))
        yield pair(-2.0 + 4.0 * u, 0.2 + 1.8 * v, 0.0, 0.2 + 1.8 * w)


def grid_of(p, seeded, spec=None):
    extras = oracle.construct_tight_witness(p).p_dist.support if seeded else ()
    return build_grid(spec or GridSpec.default_for(p), extras)


def highs(p, grid):
    """HiGHS on the common-part program over ``grid``, raw-power rows."""
    from scipy.optimize import linprog

    x = np.asarray(grid)
    n, zero = x.size, np.zeros((3, x.size))
    powers = np.vstack([np.ones(n), x, x * x])
    rows = np.block([[powers, powers, zero], [powers, zero, powers]])
    mp, sp, mq, sq = p.p_side.mean, p.p_side.stddev, p.q_side.mean, p.q_side.stddev
    rhs = [1.0, mp, mp * mp + sp * sp, 1.0, mq, mq * mq + sq * sq]
    cost = np.concatenate([np.zeros(n), np.ones(n), np.zeros(n)])
    return linprog(cost, A_eq=rows, b_eq=rhs, bounds=(0, None), method="highs")


def assert_agrees_with_highs(p, grid):
    got, want = solve(formulate(p, grid)), highs(p, grid)
    if want.status == 2:
        assert got.status is OracleStatus.INFEASIBLE, (p, grid)
        return got
    assert want.status == 0, want.message
    assert got.status is OracleStatus.OPTIMAL, (p, got.status)
    assert abs(got.tv_min - want.fun) <= 1e-9, (p, got.tv_min, want.fun)
    return got


# ------------------------------------------------------------- the optimum


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "plain"])
@pytest.mark.parametrize("seed", [5, 977, 1809])
def test_optimum_equals_highs_on_the_benchmark_lattice(seed, seeded):
    pytest.importorskip("scipy.optimize")
    for p in lattice_pairs(seed):
        assert_agrees_with_highs(p, grid_of(p, seeded))


def test_optimum_equals_highs_on_random_grids():
    pytest.importorskip("scipy.optimize")
    # unevenly spaced points, some too narrow for the variances, and pairs
    # with a point-mass side, whose mean is then a grid point
    rng = random.Random(31)
    statuses = set()
    for _ in range(60):
        # HiGHS reads raw powers on a grid reaching 8 past the means, so the
        # pair keeps a spread and offset of a few units
        mp, sp, mq, sq = sample(rng, GRID, scale=(-1.2, 0.6), offset=(0, 1.2))
        lo, hi = min(mp, mq) - rng.uniform(0.0, 8), max(mp, mq) + rng.uniform(0.0, 8)
        points = [rng.uniform(lo, hi) for _ in range(rng.randrange(3, 150))]
        points += [m for m, s in ((mp, sp), (mq, sq)) if s == 0.0]
        p = pair(mp, sp, mq, sq)
        if rng.random() < 0.5:
            points += oracle.construct_tight_witness(p).p_dist.support
        statuses.add(assert_agrees_with_highs(p, sorted(set(points))).status)
    assert statuses == {OracleStatus.OPTIMAL, OracleStatus.INFEASIBLE}


def test_repeated_runs_are_bit_identical():
    for k, p in enumerate(lattice_pairs(21, pool=31)):
        first = oracle.minimize_tv_on_grid(p, include_witness_points=k % 2 == 0)
        again = oracle.minimize_tv_on_grid(p, include_witness_points=k % 2 == 0)
        # == on the floats and the atoms; repr tells -0.0 from 0.0 as well
        assert first == again and repr(first) == repr(again)


# ----------------------------------------------------- termination, budget


def test_beale_cycling_program_terminates_optimal():
    # a classic degenerate program on which most-negative pivoting with the
    # first tied row cycles forever; the lexicographic rule must end it
    c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    A = [
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
    res = solve_dense(DenseColumns(A, c), [0.0, 0.0, 1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-12)


def test_hitting_the_iteration_budget_reports_iteration_limit(monkeypatch):
    p = pair(1, 1, 0, 0.5)
    lp = formulate(p, grid_of(p, True))
    assert solve_dense(lp.constraint_matrix, lp.rhs).status == "optimal"
    # with no pivot allowed, the first one exhausts the budget
    monkeypatch.setattr(simplex, "BUDGET_PER_DIMENSION", 0)
    res = solve_dense(lp.constraint_matrix, lp.rhs)
    assert (res.status, res.iterations, res.x) == ("iteration_limit", 1, None)
    assert solve(lp).status is OracleStatus.NUMERIC_FAILURE


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "plain"])
def test_a_100001_point_solve_takes_few_pivots(seeded):
    # a count of pivots, not a time: pricing never scans the grid, and the
    # walk does not grow with it
    p = pair(1, 1, 0, 0.5)
    result = oracle.minimize_tv_on_grid(p, GridSpec.default_for(p, 100_001), seeded)
    assert result.status is OracleStatus.OPTIMAL
    assert result.iterations < 300


# ------------------------------------------------------- small programs


SMALL_PROGRAMS = [
    ([1.0, 1.0], [[1.0, 2.0]], [4.0], "optimal", 2.0, {1: 2.0}),
    ([1.0, 1.0], [[-1.0, -2.0]], [-4.0], "optimal", 2.0, {1: 2.0}),  # negative rhs
    ([-1.0, 0.0], [[1.0, -1.0]], [0.0], "unbounded", None, None),
    ([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], "infeasible", None, None),
    # a redundant row: its artificial stays basic at zero in phase 2
    ([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], [1.0, 2.0], "optimal", 0.0, {2: 1.0}),
]


@pytest.mark.parametrize("c,A,b,status,objective,x", SMALL_PROGRAMS)
def test_small_programs(c, A, b, status, objective, x):
    res = solve_dense(DenseColumns(A, c), b)
    assert res.status == status
    if objective is None:
        assert res.x is None and res.objective is None
    else:
        assert res.objective == pytest.approx(objective, abs=1e-12)
        assert res.x == pytest.approx(x, abs=1e-12)


class ShiftedColumns:
    """A column set's columns under indices raised by its column count, so
    that they run from ``shape[1]`` upward."""

    def __init__(self, columns) -> None:
        self.columns, self.shape, self.offset = columns, columns.shape, columns.shape[1]

    def column(self, j: int) -> list[float]:
        return self.columns.column(j - self.offset)

    def cost(self, j: int) -> float:
        return self.columns.cost(j - self.offset)

    def price(self, y: list[float], phase2: bool) -> tuple[int, float]:
        j, reduced = self.columns.price(y, phase2)
        return j + self.offset, reduced


@pytest.mark.parametrize("c,A,b,status,objective,x", SMALL_PROGRAMS)
def test_a_column_set_names_its_columns_from_any_index(c, A, b, status, objective, x):
    # the kernel names its artificials apart from every index a column set
    # may use, so one past shape[1] is a column like any other
    plain = solve_dense(DenseColumns(A, c), b)
    shifted = solve_dense(ShiftedColumns(DenseColumns(A, c)), b)
    offset = len(c)
    assert (shifted.status, shifted.objective) == (plain.status, plain.objective)
    assert shifted.iterations == plain.iterations
    want = None if plain.x is None else {j + offset: v for j, v in plain.x.items()}
    assert shifted.x == want


def test_basic_artificial_leaves_when_a_column_reaches_its_row():
    # both rhs are 0: phase 1 ends with an artificial basic at zero, and
    # phase 2 swaps it for a real column at a step of zero
    res = solve_dense(DenseColumns([[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0]), [0.0, 0.0])
    assert res.status == "optimal"
    assert res.objective == 0.0 and all(v == 0.0 for v in res.x.values())


def test_a_basic_value_rounded_below_zero_bounds_the_step_at_zero():
    # rounding in the rank-1 updates leaves such values, about 1e-16 below
    # zero, on seeded witness grids; set one by hand and take one pivot.
    # x0 enters (phase-1 reduced cost -2) and row 1 has the smallest ratio:
    # the step must be 0, not -1e-17 / 1, which would bring x0 in below zero
    A = DenseColumns([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
    b = [1.0, 0.0] + [0.0] * (simplex.ROWS - 2)
    basis = simplex._Basis(A, b)
    basis.rows[1][simplex.ROWS] = -1e-17
    assert basis.run(False, 0, 1) == ("iteration_limit", 1)
    assert basis.basis[:2] == [~0, 0]
    assert basis.values()[:2] == [1.0, 0.0]


def test_optimal_x_holds_the_basic_columns_only():
    A = DenseColumns([[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [2.0, 1.0, 0.0]], [1.0, 1.0, -1.0])
    res = solve_dense(A, [2.0] * 3)
    assert res.status == "optimal"
    assert {j: round(v, 12) for j, v in res.x.items() if v} == {0: 1.0, 2: 2.0}
    assert res.objective == pytest.approx(-1.0, abs=1e-12)
