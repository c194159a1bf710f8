"""Two-phase revised simplex for small equality-form linear programs.

Solves ``min c.x  s.t.  A x = b, x >= 0`` for at most ``ROWS`` = 6 rows,
keeping only what the basis needs, as plain Python floats: the 6 x 6 basis
inverse, the basic values and the duals.  Neither the matrix nor the costs
are stored whole.  Both come as a *column set*: an object with a ``shape``
of ``(m, n)``, a ``column(j)`` that returns column ``j`` as ``ROWS``
floats, zero below row m, a ``cost(j)`` that returns its cost ``c_j``,
and a ``price(y, phase2)`` that returns ``(j, d)``, the column of most
negative reduced cost ``d = c_j - y.A_j`` against the ``ROWS`` duals ``y``
(the lowest index among ties), with a cost of 0 on every column unless
``phase2``.  The grid oracle's programs are such a set, whose column
families each price as one quadratic over a sorted grid, so that a pivot
costs no scan of the columns.  A column set may name its columns by any
indices ``j >= 0``: the kernel names row i's artificial ``~i``, and reads
``n`` only for the iteration budget.

Phase 1 starts from one artificial variable per row, signed so that it
starts at ``|b_i|``, and drives their sum to zero; phase 2 prices the real
objective from the phase-1 basis.  An artificial left basic at zero stays
in the basis and leaves, at a step of zero, as soon as an entering column
has a nonzero entry in its row, so that a vacuous row never needs to be
dropped.  The entering column follows Dantzig's rule, the most negative
reduced cost.  The leaving row follows the lexicographic ratio rule of
Dantzig, Orden and Wolfe (1955): among the rows tied at the smallest ratio,
the one whose row of the basis inverse, divided by its entry of the
entering column, is lexicographically smallest.  Starting from the signed
identity, that rule keeps every row of the basic values and the inverse
lexicographically positive, so the walk cannot revisit a basis.  The one
pivot outside the rule is an artificial's exit in phase 2, on the entry of
largest magnitude whatever its sign: each artificial leaves at most once,
as none is priced again, but a negative entry can leave its row
lexicographically negative, and from then on it is the iteration budget,
not the rule, that ends the walk.  A basic value rounded a hair below zero
bounds the step at zero, so that no step is negative.

The basis has the grid oracle's 6 rows; a program with fewer is padded
with empty rows, each of which keeps its artificial basic at zero.  Every
product with a row of the inverse is written out over the 6 entries in a
fixed order, which keeps a pivot cheap in plain Python and its result the
same on every Python.  The duals and the basic values move with each pivot, and the
optimum's basic values then take one step of iterative refinement on the
basis's own columns, which takes out the drift the updates left in them.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

__all__ = ["SimplexResult", "solve_dense"]

#: Rows of the basis: a program with fewer rows is padded with empty ones,
#: each of which keeps its artificial basic at zero, since no pivot touches
#: a row every column is zero on.  The products with the inverse are
#: written out for this many entries.
ROWS = 6
#: Entries at or below this magnitude never serve as pivots.
PIVOT_TOL = 1e-11
#: Reduced costs above the negative of this are treated as optimal.
OPT_TOL = 1e-9
#: Phase-1 objective above this means the program is infeasible.
PHASE1_TOL = 1e-9
#: Pivots allowed, over both phases, per row and per column, artificials
#: included, of the program.
BUDGET_PER_DIMENSION = 50


class SimplexResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    #: The value of each basic column, by column index; every other is 0.
    x: dict[int, float] | None
    objective: float | None
    iterations: int


class _Basis:
    """The basis of a program, padded to ``ROWS`` rows.

    ``basis[i]`` is the column basic in row i (``~i`` is row i's
    artificial).  ``rows[i]``, for i below ``ROWS``, is row i of the basis
    inverse followed by the basic value of row i; ``rows[ROWS]`` holds the
    duals, followed by a value never read.  A pivot updates all of them by
    one rank-1 step, written out entry by entry in a fixed order, as is
    every product with a row of the inverse.
    """

    __slots__ = ("columns", "basis", "rows")

    def __init__(self, columns, b: list[float]) -> None:
        self.columns = columns
        self.basis = [~i for i in range(ROWS)]
        # artificial i is the column sign(b_i) e_i, so it starts at |b_i|
        self.rows = [
            [(-1.0 if b[i] < 0.0 else 1.0) if k == i else 0.0 for k in range(ROWS)]
            + [abs(b[i])]
            for i in range(ROWS)
        ]
        self.rows.append([0.0] * (ROWS + 1))

    def basic_column(self, j: int, b: list[float]) -> list[float]:
        """Column ``j``, or for an artificial its signed unit column."""
        if j >= 0:
            return self.columns.column(j)
        column = [0.0] * ROWS
        column[~j] = -1.0 if b[~j] < 0.0 else 1.0
        return column

    def values(self) -> list[float]:
        return [row[ROWS] for row in self.rows[:ROWS]]

    def refined_values(self, b: list[float]) -> list[float]:
        """The basic values after one step of iterative refinement: the
        residual ``b - B x``, summed exactly on the basis's own columns, is
        mapped through the updated inverse and added, which takes out the
        drift the updates left in the values."""
        values = self.values()
        negated = [-v for v in values]
        columns = [self.basic_column(j, b) for j in self.basis]
        r0, r1, r2, r3, r4, r5 = [
            math.fsum([b_i, *map(mul, row, negated)]) for b_i, row in zip(b, zip(*columns))
        ]
        return [
            v + (u0 * r0 + u1 * r1 + u2 * r2 + u3 * r3 + u4 * r4 + u5 * r5)
            for v, (u0, u1, u2, u3, u4, u5, _) in zip(values, self.rows)
        ]

    def artificial_rows(self) -> list[int]:
        return [i for i, j in enumerate(self.basis) if j < 0]

    def reset_duals(self, phase2: bool) -> None:
        """Set the duals to ``c_B`` times the basis inverse, for phase 1
        (cost 1 on every artificial, 0 on every real column), or for phase 2
        on the column set's costs (cost 0 on every artificial)."""
        cost = self.columns.cost
        if phase2:
            costs = [cost(j) if j >= 0 else 0.0 for j in self.basis]
        else:
            costs = [1.0 if j < 0 else 0.0 for j in self.basis]
        c0, c1, c2, c3, c4, c5 = costs
        u = self.rows
        self.rows[ROWS] = [
            c0 * u[0][k] + c1 * u[1][k] + c2 * u[2][k] + c3 * u[3][k] + c4 * u[4][k] + c5 * u[5][k]
            for k in range(ROWS)
        ] + [0.0]

    def lexicographic_row(self, alpha: list[float], ratios: list[float], step: float) -> int:
        """Of the rows tied at the smallest ratio ``step``, the one whose row
        of the inverse, divided by its entry of ``alpha``, is smallest."""
        tied = [i for i, ratio in enumerate(ratios) if ratio == step]
        return min(tied, key=lambda i: [v / alpha[i] for v in self.rows[i][:ROWS]])

    def run(self, phase2: bool, iterations: int, budget: int) -> tuple[str, int]:
        """Pivot, in phase 1 or 2 (see ``reset_duals``), until no
        column prices below ``-OPT_TOL``.  The duals are computed afresh once,
        and then move with each pivot by the entering reduced cost times the
        new pivot row of the inverse, which prices the entering column at 0.
        In phase 2 an artificial still basic sits at zero, and leaves at a
        step of zero as soon as an entering column reaches its row."""
        column, price = self.columns.column, self.columns.price
        basis, rows, inf = self.basis, self.rows, math.inf
        optimal, tiny = -OPT_TOL, PIVOT_TOL
        artificials = self.artificial_rows() if phase2 else []
        self.reset_duals(phase2)
        while True:
            col, reduced = price(rows[ROWS][:ROWS], phase2)
            if reduced >= optimal:
                return "optimal", iterations
            a0, a1, a2, a3, a4, a5 = column(col)
            alpha = [
                r0 * a0 + r1 * a1 + r2 * a2 + r3 * a3 + r4 * a4 + r5 * a5
                for r0, r1, r2, r3, r4, r5, _ in rows[:ROWS]
            ]
            reached = artificials and [i for i in artificials if abs(alpha[i]) > tiny]
            if reached:
                row = max(reached, key=lambda i: abs(alpha[i]))
                artificials.remove(row)
                step = 0.0
            else:
                # a value rounded a hair below zero bounds the step at zero
                ratios = [
                    (r[ROWS] / entry if r[ROWS] > 0.0 else 0.0) if entry > tiny else inf
                    for entry, r in zip(alpha, rows)
                ]
                step = min(ratios)
                if step == inf:
                    return "unbounded", iterations
                row = ratios.index(step)
                if ratios.count(step) > 1:
                    row = self.lexicographic_row(alpha, ratios, step)
            scale = alpha[row]
            p0, p1, p2, p3, p4, p5, _ = rows[row]
            p0, p1, p2 = p0 / scale, p1 / scale, p2 / scale
            p3, p4, p5 = p3 / scale, p4 / scale, p5 / scale
            # the duals' row takes -reduced times the pivot row, which moves
            # the duals by reduced times the new pivot row of the inverse
            alpha.append(-reduced)
            rows[:] = [
                [
                    r0 - f * p0, r1 - f * p1, r2 - f * p2,
                    r3 - f * p3, r4 - f * p4, r5 - f * p5, r6 - f * step,
                ]
                for (r0, r1, r2, r3, r4, r5, r6), f in zip(rows, alpha)
            ]
            rows[row] = [p0, p1, p2, p3, p4, p5, step]
            basis[row] = col
            iterations += 1
            if iterations >= budget:
                return "iteration_limit", iterations


def solve_dense(A, b) -> SimplexResult:
    """Solve ``min c.x  s.t.  A x = b, x >= 0``, the costs ``c`` those of
    the column set ``A``.

    ``A`` has at most ``ROWS`` rows (see the module docstring).
    Deterministic: the same inputs always produce bit-identical results.
    The iteration budget is ``BUDGET_PER_DIMENSION * (2 * rows + columns)``,
    the rows counted once more for their artificials, across both phases,
    after which the solve reports ``iteration_limit``.  Raises
    ``ValueError`` on a right-hand side of the wrong length or not finite,
    or more than ``ROWS`` rows.
    """
    b = [float(v) for v in b]
    m, n = A.shape
    if len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    if m > ROWS:
        raise ValueError(f"the kernel takes at most {ROWS} rows, got {m}")
    if not all(map(math.isfinite, b)):
        raise ValueError("LP coefficients must be finite")

    b += [0.0] * (ROWS - m)
    basis = _Basis(A, b)
    budget = BUDGET_PER_DIMENSION * (2 * m + n)
    status, iterations = basis.run(False, 0, budget)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations)
    values = basis.values()
    residual = math.fsum(values[i] for i in basis.artificial_rows())
    if residual > PHASE1_TOL:
        return SimplexResult("infeasible", None, None, iterations)
    status, iterations = basis.run(True, iterations, budget)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations)
    x = {j: v for j, v in zip(basis.basis, basis.refined_values(b)) if j >= 0}
    objective = math.fsum(A.cost(j) * v for j, v in x.items())
    return SimplexResult("optimal", x, objective, iterations)
