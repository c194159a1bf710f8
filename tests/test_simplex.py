"""The dense simplex's pivot kernel against a reference copy of the NumPy
kernel it replaced.

The kernel does its ratio test in plain Python, forms each rank-1 update as
a BLAS product into a buffer, and runs phase 2 on the phase-1 tableau; the
reference uses ``np.outer``, array ratio tests and a phase-2 tableau with
the artificial columns stripped.  Every entry still goes through the same
floating-point operations, so the two must agree by value: same status,
same iteration count, same objective and the same ``x``, compared with
``==`` and ``array_equal``, not with a tolerance.  Only the sign of a zero
may differ, because a BLAS product can return +0.0 where ``np.outer``
returns -0.0, and ``==`` treats the two as equal.
"""

import numpy as np
import pytest

from tvbounds import (
    GridSpec,
    MomentPair1D,
    build_grid,
    construct_tight_witness,
    formulate,
)
from tvbounds.simplex import (
    DEGENERATE_STREAK,
    OPT_TOL,
    PHASE1_TOL,
    PIVOT_TOL,
    SimplexResult,
    solve_dense,
)

# ------------------------------------------------------ reference kernel
# The NumPy kernel as it stood before the Python ratio test: np.outer for
# the update, np.flatnonzero and np.argmin for the choices, the ratio test
# as array arithmetic over the eligible rows.


def _ref_apply_pivot(T, basis, row, col):
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _ref_pivot_loop(T, basis, m, ncols, iterations, max_iterations):
    bland = False
    stalled = 0
    while True:
        reduced = T[m, :ncols]
        if bland:
            eligible = np.flatnonzero(reduced < -OPT_TOL)
            if eligible.size == 0:
                return "optimal", iterations
            col = int(eligible[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -OPT_TOL:
                return "optimal", iterations
        direction = T[:m, col]
        rows = np.flatnonzero(direction > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", iterations
        ratios = T[rows, -1] / direction[rows]
        best = float(ratios.min())
        tied = rows[ratios == best]
        row = int(tied[np.argmin(basis[tied])]) if tied.size > 1 else int(tied[0])
        _ref_apply_pivot(T, basis, row, col)
        iterations += 1
        if iterations >= max_iterations:
            return "iteration_limit", iterations
        if best <= PIVOT_TOL:
            stalled += 1
            if stalled >= DEGENERATE_STREAK:
                bland = True
        else:
            stalled = 0
            bland = False


def _ref_solve_dense(c, A, b):
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    c = np.array(c, dtype=float).reshape(-1)
    m, n = A.shape
    negative = b < 0.0
    A[negative] *= -1.0
    b[negative] *= -1.0
    ncols = n + m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A
    T[:m, n:ncols] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, ncols)
    max_iterations = 50 * (m + ncols)
    status, iterations = _ref_pivot_loop(T, basis, m, ncols, 0, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations)
    if -T[m, -1] > PHASE1_TOL:
        return SimplexResult("infeasible", None, None, iterations)
    drop = []
    for i in range(m):
        if basis[i] >= n:
            candidates = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)
            if candidates.size:
                _ref_apply_pivot(T, basis, i, int(candidates[0]))
                iterations += 1
            else:
                drop.append(i)
    if drop:
        keep = [i for i in range(m) if i not in drop]
        T = T[keep + [m], :]
        basis = basis[keep]
        m = len(keep)
    T = np.hstack([T[:, :n], T[:, -1:]])
    T[m, :n] = c
    T[m, -1] = 0.0
    for i in range(m):
        if c[basis[i]] != 0.0:
            T[m, :] -= c[basis[i]] * T[i, :]
    status, iterations = _ref_pivot_loop(T, basis, m, n, iterations, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations)
    x = np.zeros(n)
    x[basis] = T[:m, -1]
    return SimplexResult("optimal", x, float(c @ x), iterations)


# -------------------------------------------------------------- helpers


def assert_bit_identical(c, A, b):
    got = solve_dense(c, A, b)
    want = _ref_solve_dense(c, A, b)
    assert got.status == want.status
    assert got.iterations == want.iterations
    if want.x is None:
        assert got.x is None and got.objective is None
    else:
        assert got.objective == want.objective
        assert np.array_equal(got.x, want.x)
    return got


def _oracle_lps(seed, count, grid_n):
    """``count`` grid LPs as ``verify`` builds them, half on the plain grid
    and half with the tight witness's support folded in."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        mp = float(rng.uniform(-2, 2))
        sp, sq = (float(s) for s in rng.uniform(0.2, 2, size=2))
        pair = MomentPair1D.from_scalars(mp, sp, 0.0, sq)
        extras = ()
        if k % 2 == 0:
            w = construct_tight_witness(pair)
            extras = w.p_dist.support + w.q_dist.support
        lp = formulate(pair, build_grid(GridSpec.default_for(pair, grid_n), extras))
        yield lp.objective, lp.constraint_matrix, lp.rhs


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("grid_n,count", [(21, 120), (121, 120), (241, 80)])
def test_oracle_lps_bit_identical_to_reference(grid_n, count):
    statuses = set()
    for c, A, b in _oracle_lps(1000 + grid_n, count, grid_n):
        statuses.add(assert_bit_identical(c, A, b).status)
    assert "optimal" in statuses


def test_beale_cycling_program_bit_identical():
    c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    A = [
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
    assert assert_bit_identical(c, A, [0.0, 0.0, 1.0]).status == "optimal"


@pytest.mark.parametrize(
    "c,A,b,status",
    [
        ([1.0, 1.0], [[-1.0, -2.0]], [-4.0], "optimal"),  # negative rhs
        ([-1.0, 0.0], [[1.0, -1.0]], [0.0], "unbounded"),
        ([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], "infeasible"),
        # a redundant row: its artificial stays basic with a vacuous row,
        # which phase 2 drops
        ([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], [1.0, 2.0], "optimal"),
    ],
)
def test_small_programs_bit_identical(c, A, b, status):
    assert assert_bit_identical(c, A, b).status == status


def test_ratio_tie_goes_to_smallest_basis_index():
    # Phase 1 pivots x1 into row 1 and x0 into row 2, which leaves the
    # basis (artificial 3, x1, x0).  Column 2's ratio test then ties rows 0
    # and 1 at 2, and the smaller basis index sits in the later row: the
    # walk drives x1 out of row 1 and takes four pivots, where taking the
    # first tied row would drive the artificial out and take three.
    c = [1.0, 1.0, -1.0]
    A = [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [2.0, 1.0, 0.0]]
    b = [2.0, 2.0, 2.0]
    res = assert_bit_identical(c, A, b)
    assert res.status == "optimal"
    assert res.iterations == 4
    assert res.x.tolist() == [1.0, 0.0, 2.0]


def test_basic_artificial_pivots_out_onto_real_column():
    # both rhs are 0: phase 1 pivots x0 into row 0 (a tie at ratio 0) and
    # ends with the second artificial basic at zero; its row still holds
    # -2 on x1, so it is pivoted out onto x1 before phase 2
    res = assert_bit_identical([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
    assert res.status == "optimal"
    assert res.iterations == 2


@pytest.mark.parametrize(
    "c, A, b",
    [([1.0], [[1.0, 2.0]], [1.0]), ([1.0, 1.0], [[1.0, 2.0]], [1.0, 2.0])],
    ids=["short-c", "long-b"],
)
def test_inconsistent_dimensions_are_rejected(c, A, b):
    with pytest.raises(ValueError, match="^inconsistent LP dimensions$"):
        solve_dense(c, A, b)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        solve_dense([1.0, 1.0], [[1.0, 2.0]], [bad])
    with pytest.raises(ValueError, match="finite"):
        solve_dense([1.0, 1.0], [[1.0, bad]], [4.0])
    with pytest.raises(ValueError, match="finite"):
        solve_dense([bad, 1.0], [[1.0, 2.0]], [4.0])
