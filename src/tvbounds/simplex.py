"""Dense two-phase simplex for small equality-form linear programs.

Solves ``min c.x  s.t.  A x = b, x >= 0`` on a dense tableau.  Phase 1
starts from one artificial variable per row and drives the artificials to
zero; Phase 2 optimizes the real objective.  Pivoting uses Dantzig's rule
for speed with Bland's rule as the anti-cycling fallback: a run of
degenerate pivots switches column selection to smallest-index until the
objective moves again, which rules out cycling while staying fully
deterministic.  Each call owns a private tableau, so independent solves
can run concurrently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["SimplexResult", "solve_dense"]

#: Entries at or below this magnitude never serve as pivots.
PIVOT_TOL = 1e-11
#: Reduced costs above the negative of this are treated as optimal.
OPT_TOL = 1e-9
#: Phase-1 objective above this means the program is infeasible.
PHASE1_TOL = 1e-9
#: Consecutive degenerate pivots tolerated before Bland's rule kicks in.
DEGENERATE_STREAK = 12


class SimplexResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    objective: float | None
    iterations: int


def _apply_pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row, :])
    # keep the basic column an exact unit vector
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _pivot_loop(
    T: np.ndarray,
    basis: np.ndarray,
    m: int,
    ncols: int,
    iterations: int,
    max_iterations: int,
) -> tuple[str, int]:
    """Run pivots until the tableau's bottom row shows optimality."""
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
        # smallest basis index among ties keeps the walk deterministic
        row = int(tied[np.argmin(basis[tied])]) if tied.size > 1 else int(tied[0])
        _apply_pivot(T, basis, row, col)
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


def solve_dense(c, A, b) -> SimplexResult:
    """Solve ``min c.x  s.t.  A x = b, x >= 0``.

    Deterministic: the same inputs always produce bit-identical results.
    The iteration budget is ``50 * (rows + columns)`` counted across both
    phases, after which the solve reports ``iteration_limit``.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    c = np.array(c, dtype=float).reshape(-1)
    m, n = A.shape
    if b.size != m or c.size != n:
        raise ValueError("inconsistent LP dimensions")

    # orient every row so the right-hand side is non-negative
    negative = b < 0.0
    A[negative] *= -1.0
    b[negative] *= -1.0

    # phase 1 starts from one artificial per row
    ncols = n + m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A
    T[:m, n:ncols] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, ncols)

    max_iterations = 50 * (m + ncols)
    status, iterations = _pivot_loop(T, basis, m, ncols, 0, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations)
    if -T[m, -1] > PHASE1_TOL:
        return SimplexResult("infeasible", None, None, iterations)
    # basic artificials sit at zero; pivot them onto real columns,
    # or drop their row entirely when it has become vacuous
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            candidates = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)
            if candidates.size:
                _apply_pivot(T, basis, i, int(candidates[0]))
                iterations += 1
            else:
                drop.append(i)
    if drop:
        keep = [i for i in range(m) if i not in drop]
        T = T[keep + [m], :]
        basis = basis[keep]
        m = len(keep)

    # phase 2 on the real objective, artificial columns stripped
    T = np.hstack([T[:, :n], T[:, -1:]])
    T[m, :n] = c
    T[m, -1] = 0.0
    for i in range(m):
        if c[basis[i]] != 0.0:
            T[m, :] -= c[basis[i]] * T[i, :]
    status, iterations = _pivot_loop(T, basis, m, n, iterations, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations)

    x = np.zeros(n)
    x[basis] = T[:m, -1]
    return SimplexResult("optimal", x, float(c @ x), iterations)
