"""Dense two-phase simplex for small equality-form linear programs.

Solves ``min c.x  s.t.  A x = b, x >= 0`` on a dense tableau.  Phase 1
starts from one artificial variable per row and drives the artificials to
zero; Phase 2 optimizes the real objective.  Pivoting uses Dantzig's rule
for speed with Bland's rule as the anti-cycling fallback: a run of
degenerate pivots switches column selection to smallest-index until the
objective moves again, which rules out cycling while staying fully
deterministic.  Each call owns a private tableau, so independent solves
can run concurrently.

The programs the grid oracle hands over have six rows and hundreds of
columns, so a pivot costs little arithmetic and the kernel keeps its NumPy
calls few: the entering column comes from one ``argmin`` over the reduced
costs, the ratio test runs in plain Python over the m rows, and the update
is one row scale plus one rank-1 update of the whole tableau.  The rank-1
term is a BLAS product of the pivot column and the pivot row (inner
dimension 1, so every entry is one rounded multiply, as ``np.outer``
gives) written into a buffer allocated once per solve, then subtracted in
place.  Phase 2 runs on the phase-1 tableau: the artificial columns stay
and keep being updated, but only the first ``n`` columns are priced, and
since every entry updates on its own the real columns and the right-hand
side carry the same values as on a tableau with the artificials stripped.
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


def _apply_pivot(
    T: np.ndarray, buf: np.ndarray, basis: list[int], row: int, col: int
) -> None:
    """Pivot on ``T[row, col]``: scale the pivot row, then one rank-1 update
    formed in ``buf``, a C-contiguous array of ``T``'s shape."""
    prow = T[row]
    prow /= prow[col]
    # the pivot column, zeroed in the pivot row, holds the multiples of the
    # pivot row to subtract; the column itself is rewritten below
    T[row, col] = 0.0
    np.dot(T[:, col : col + 1], prow[None, :], out=buf)
    T -= buf
    # keep the basic column an exact unit vector
    T[:, col] = 0.0
    prow[col] = 1.0
    basis[row] = col


def _pivot_loop(
    T: np.ndarray,
    buf: np.ndarray,
    basis: list[int],
    m: int,
    ncols: int,
    iterations: int,
    max_iterations: int,
) -> tuple[str, int]:
    """Run pivots until the tableau's bottom row shows optimality."""
    bland = False
    stalled = 0
    # views into T, which every pivot updates in place
    reduced = T[m, :ncols]
    rhs = T[:m, -1]
    while True:
        if bland:
            eligible = (reduced < -OPT_TOL).nonzero()[0]
            if eligible.size == 0:
                return "optimal", iterations
            col = int(eligible[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -OPT_TOL:
                return "optimal", iterations
        # ratio test over the m rows: smallest rhs / entry among entries
        # above PIVOT_TOL; the smallest basis index among ties keeps the
        # walk deterministic
        row = -1
        best = 0.0
        entries = T[:m, col].tolist()
        for i, (entry, value) in enumerate(zip(entries, rhs.tolist())):
            if entry > PIVOT_TOL:
                ratio = value / entry
                if (
                    row < 0
                    or ratio < best
                    or (ratio == best and basis[i] < basis[row])
                ):
                    row, best = i, ratio
        if row < 0:
            return "unbounded", iterations
        _apply_pivot(T, buf, basis, row, col)
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
    phases, after which the solve reports ``iteration_limit``.  Raises
    ``ValueError`` on inconsistent dimensions or a non-finite coefficient.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = A.shape
    if b.size != m or c.size != n:
        raise ValueError("inconsistent LP dimensions")

    # the tableau holds copies, so the caller's arrays are never written to
    ncols = n + m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    if not (np.isfinite(T).all() and np.isfinite(c).all()):
        # a NaN fails every ratio test and pivot comparison, so the walk
        # would run to the iteration budget on garbage
        raise ValueError("LP coefficients must be finite")
    # orient every row so the right-hand side is non-negative
    for i, value in enumerate(b.tolist()):
        if value < 0.0:
            T[i] *= -1.0
    # phase 1 starts from one artificial per row
    T[:m, n:ncols] = np.eye(m)
    T[m, :n] = -T[:m, :n].sum(axis=0)
    T[m, -1] = -T[:m, -1].sum()
    basis = list(range(n, ncols))
    buf = np.empty_like(T)

    max_iterations = 50 * (m + ncols)
    status, iterations = _pivot_loop(T, buf, basis, m, ncols, 0, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations)
    if -T[m, -1] > PHASE1_TOL:
        return SimplexResult("infeasible", None, None, iterations)
    # basic artificials sit at zero; pivot them onto real columns,
    # or drop their row entirely when it has become vacuous
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            candidates = (np.abs(T[i, :n]) > PIVOT_TOL).nonzero()[0]
            if candidates.size:
                _apply_pivot(T, buf, basis, i, int(candidates[0]))
                iterations += 1
            else:
                drop.append(i)
    if drop:
        keep = [i for i in range(m) if i not in drop]
        T = T[keep + [m], :]
        buf = buf[: len(keep) + 1]
        basis = [basis[i] for i in keep]
        m = len(keep)

    # phase 2 on the real objective and the same tableau: the artificial
    # columns stay, but only the first n columns are priced, and the bottom
    # row past them is never read again
    T[m, :n] = c
    for i, cost in enumerate(c[basis].tolist()):
        if cost != 0.0:
            T[m, :] -= cost * T[i, :]
    status, iterations = _pivot_loop(T, buf, basis, m, n, iterations, max_iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations)

    x = np.zeros(n)
    x[basis] = T[:m, -1]
    return SimplexResult("optimal", x, float(c @ x), iterations)
