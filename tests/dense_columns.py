"""A column set over an explicit matrix, for handing the simplex kernel
small programs.

The module imports no numpy, so the kernel's digest in
``tests/test_digest_oracle.py`` also runs where numpy is not installed.
"""

from __future__ import annotations

import math
from operator import mul

from tvbounds.simplex import ROWS


class DenseColumns:
    """A column set for ``solve_dense`` over an explicit matrix, given as a
    sequence of rows, and its costs ``c``, so that tests can hand the
    kernel small programs.  Its columns come padded to ``ROWS`` entries
    with zeros, as the kernel's empty rows, and it prices by scanning every
    column, at a cost of 0 on each unless ``phase2``.

    Raises ``ValueError`` on rows of unequal length, a cost vector of
    another length, or a non-finite entry or cost.
    """

    def __init__(self, rows, c) -> None:
        rows = [[float(a) for a in row] for row in rows]
        self._costs = [float(a) for a in c]
        m, n = len(rows), len(rows[0]) if rows else 0
        if any(len(row) != n for row in rows) or len(self._costs) != n:
            raise ValueError("inconsistent LP dimensions")
        if not all(math.isfinite(a) for row in [*rows, self._costs] for a in row):
            raise ValueError("LP coefficients must be finite")
        self.shape = (m, n)
        padding = [0.0] * (ROWS - m)
        self._columns = [list(column) + padding for column in zip(*rows)]

    def column(self, j: int) -> list[float]:
        return self._columns[j]

    def cost(self, j: int) -> float:
        return self._costs[j]

    def price(self, y: list[float], phase2: bool) -> tuple[int, float]:
        best_j, best = -1, math.inf
        for j, column in enumerate(self._columns):
            reduced = (self._costs[j] if phase2 else 0.0) - math.fsum(map(mul, y, column))
            if reduced < best:
                best_j, best = j, reduced
        return best_j, best
