"""Grid LP verification of the one-dimensional bound.

``minimize_tv_on_grid`` minimizes the TV distance over all pairs of
distributions supported on a finite grid subject to exact mean and
variance equality on both sides.  The program is written through the
common part of the two distributions: ``p = w + u`` and ``q = w + v`` with
``w, u, v >= 0``, minimizing ``sum u``.  Only the six moment rows constrain
it, so the simplex works on a 6 x 6 basis whatever the grid size.  Its
optimum is an upper bound on the true infimum over all distributions; when
the support of the tight witness is folded into the grid the optimum
collapses onto the closed-form bound, which is what the ``verify`` path
certifies.  The moment constraints are genuine equalities, not bands, so
"optimum equals bound" is a sharp test.

The rows are written in centred, scale-free units, ``t = (x - c) / s`` with
``c`` the midpoint of the means and ``s`` the sum of the standard
deviations, so that no row or right-hand side is a difference of large
terms at any offset or scale.  The column set, ``GridColumns``, holds the
grid and that centring, and reads back and certifies a solve's optimizers.
The module needs no numpy.  The randomized check of the d-dimensional trace
bound lives in :mod:`tvbounds.nd`; its names still resolve here, loading
that module on first access, and numpy when the check runs.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from operator import sub
from typing import NamedTuple

from . import _lazy_getattr
from .discrete import DiscreteDist, _merge_tol, check_moments
from .errors import BadParameterError, _whole
from .moments import FrozenRecord, MomentPair1D, Moments1D, gap
from .simplex import SimplexResult, solve_dense
from .witness import construct_tight_witness

__all__ = ["GridSpec", "OracleStatus", "OracleResult", "minimize_tv_on_grid"]

#: Moment tolerance the extracted optimizers must certify, in centred units.
ORACLE_MOMENT_TOL = 1e-7
#: Most uniform points a grid may ask for; a larger count is refused before
#: anything is allocated.  ``verify`` peaks at 16 MB resident at 10^4 points,
#: 25 MB at 10^5 and 65 MB at the limit, about 0.10 KB a point (Python 3.11).
GRID_MAX_COUNT = 500_000

# nothing here calls the n-d layer's names; they resolve here, loading
# tvbounds.nd on first access, because benchmarks/spans.py wraps that layer
# under them
__getattr__ = _lazy_getattr(globals())


class GridSpec(FrozenRecord):
    """A uniform grid of ``count`` points on [lo, hi].  Every refusal
    raises ``BadParameterError``."""

    __slots__ = ("lo", "hi", "count")

    def __init__(self, lo: float, hi: float, count: int) -> None:
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise BadParameterError(f"need finite lo < hi, got lo={lo!r}, hi={hi!r}")
        if not math.isfinite(hi - lo):
            raise BadParameterError(
                f"the span hi - lo overflows, got lo={lo!r}, hi={hi!r}"
            )
        n = _whole("count", count)
        if n < 2:
            raise BadParameterError(f"count must be >= 2, got {count}")
        if n > GRID_MAX_COUNT:
            raise BadParameterError(
                f"count must be at most GRID_MAX_COUNT = {GRID_MAX_COUNT}, got {count}"
            )
        set_lo, set_hi, set_count = self._setters
        set_lo(self, lo)
        set_hi(self, hi)
        set_count(self, n)

    @classmethod
    def default_for(cls, pair: MomentPair1D, count: int = 121) -> "GridSpec":
        """Grid wide enough to cover every constructed witness support:
        six standard deviations beyond the span of the two means.  A span
        past the float range raises ``BadParameterError``."""
        stddev = max(pair.p_side.stddev, pair.q_side.stddev)
        pad = 6.0 * stddev or 1.0
        means = (pair.p_side.mean, pair.q_side.mean)
        lo, hi = min(means) - pad, max(means) + pad
        if not math.isfinite(hi - lo):
            raise BadParameterError(
                f"the default grid, six stddevs of {stddev!r} beyond the means "
                f"{means[0]!r} and {means[1]!r}, overflows the float range"
            )
        return cls(lo, hi, count)


def build_grid(spec: GridSpec, extra_points=()) -> list[float]:
    """Sorted union of the uniform grid and the extra points, deduplicated
    by ``DiscreteDist``'s merge rule at the grid's largest magnitude.
    The extra points are floats of a ``DiscreteDist``'s support, so finite.
    A grid that merges into fewer than 2 points raises ``BadParameterError``.

    The uniform points are ``lo + i * step``, then ``hi``.  The kept grid is
    ``numpy.linspace(lo, hi, count)``'s, bit for bit: where the step
    underflows to 0, numpy's points span a few subnormal ulps and merge alike.
    The merge walks the values only if their smallest gap, taken in one
    pass in C, is at or below the tolerance; otherwise it would keep them
    all.
    """
    lo, hi, div = spec.lo, spec.hi, spec.count - 1
    step = (hi - lo) / div
    values = [i * step + lo for i in range(div)]
    values.append(hi)
    if extra_points:
        values = sorted([*values, *extra_points])
    # the largest magnitude sits at one end of the sorted values
    tol = _merge_tol((values[0], values[-1]))
    if min(map(sub, values[1:], values)) > tol:
        return values
    kept = values[:1]
    for x in values[1:]:
        if x - kept[-1] > tol:
            kept.append(x)
    if len(kept) < 2:
        raise BadParameterError(
            f"the {spec.count}-point grid from {lo!r} to {hi!r} merges into "
            f"one point at the merge tolerance {tol!r}"
        )
    return kept


def _centring(pair: MomentPair1D) -> tuple[float, float]:
    """The centre ``c`` and scale ``s`` of the units ``t = (x - c) / s``:
    the midpoint of the means and the sum of the standard deviations, or
    the distance of the means when both are 0, or 1 when that is 0 too.
    Raises ``ValueError`` if that sum or distance passes the float range:
    every row coefficient would divide down to 0."""
    mp, mq = pair.p_side.mean, pair.q_side.mean
    scale = pair.p_side.stddev + pair.q_side.stddev or abs(mp - mq) or 1.0
    if not math.isfinite(scale):
        raise ValueError("LP coefficients must be finite: the centring scale overflows")
    return 0.5 * mp + 0.5 * mq, scale


class GridColumns:
    """The constraint matrix of the grid LP, held as the grid it lives on:
    the one holder of the sorted ``grid``, the column layout and the
    ``centre`` and ``scale`` the rows are written in.

    Column ``j = k * n + i`` is family ``k`` (0 for ``w``, 1 for ``u``, 2
    for ``v``) at grid point ``i``, whose centred value is
    ``t_i = (x_i - centre) / scale``.  The p side's rows 0-2 read
    ``1, t, (t - t_p)^2`` on ``w`` and ``u``, the q side's rows 3-5
    ``1, t, (t - t_q)^2`` on ``w`` and ``v``.  A column set for
    ``solve_dense``: each family prices as one quadratic in ``t``, so its
    cheapest column over the sorted grid lies beside the quadratic's vertex
    when it is convex, and at an end of the grid otherwise.  The cost is
    the objective ``sum u``: 1 on each ``u`` column, 0 on the others.
    ``optimizers`` reads a solution back as distributions on the grid, and
    ``certified`` checks one against its target in the units of the rows.
    Raises ``ValueError`` if a row coefficient is not finite.
    """

    __slots__ = ("grid", "centre", "scale", "t", "t_p", "t_q", "shape")

    def __init__(
        self, grid: list[float], centre: float, scale: float, t_p: float, t_q: float
    ) -> None:
        self.grid, self.centre, self.scale = grid, centre, scale
        self.t = [(x - centre) / scale for x in grid]
        self.t_p, self.t_q = t_p, t_q
        self.shape = (6, 3 * len(grid))
        # the largest |t| and squared deviations sit at the ends of the grid
        ends = [self.t[0], self.t[-1]]
        ends += [(t - mean) * (t - mean) for t in ends[:2] for mean in (t_p, t_q)]
        if not all(map(math.isfinite, ends)):
            raise ValueError("LP coefficients must be finite")

    def column(self, j: int) -> list[float]:
        family, i = divmod(j, len(self.t))
        t = self.t[i]
        dp, dq = t - self.t_p, t - self.t_q
        if family == 0:
            return [1.0, t, dp * dp, 1.0, t, dq * dq]
        if family == 1:
            return [1.0, t, dp * dp, 0.0, 0.0, 0.0]
        return [0.0, 0.0, 0.0, 1.0, t, dq * dq]

    def cost(self, j: int) -> float:
        return 1.0 if j // len(self.t) == 1 else 0.0

    def price(self, y: list[float], phase2: bool) -> tuple[int, float]:
        # the reduced cost of a column at t is its family's cost less
        # p(t) = y0 + y1 t + y2 (t - t_p)^2 on w and u, and less
        # q(t) = y3 + y4 t + y5 (t - t_q)^2 on w and v; the cost is 0 on w
        # and v, and on u too in phase 1
        y0, y1, y2, y3, y4, y5 = y
        t, t_p, t_q = self.t, self.t_p, self.t_q
        n = len(t)
        c_u = 1.0 if phase2 else 0.0
        # the slope of -p(t) is k_p - 2 y2 t, and of -q(t) is k_q - 2 y5 t
        k_p, k_q = 2.0 * y2 * t_p - y1, 2.0 * y5 * t_q - y4
        i = _cheapest(t, y2 + y5, k_p + k_q)
        ti = t[i]
        dp, dq = ti - t_p, ti - t_q
        best_j = i
        best = -(y0 + y3 + (y1 + y4) * ti + y2 * (dp * dp) + y5 * (dq * dq))
        i = _cheapest(t, y2, k_p)
        ti = t[i]
        dp = ti - t_p
        reduced = c_u - (y0 + y1 * ti + y2 * (dp * dp))
        if reduced < best:
            best_j, best = n + i, reduced
        i = _cheapest(t, y5, k_q)
        ti = t[i]
        dq = ti - t_q
        reduced = -(y3 + y4 * ti + y5 * (dq * dq))
        if reduced < best:
            best_j, best = 2 * n + i, reduced
        return best_j, best

    def optimizers(self, x: dict[int, float]) -> tuple[DiscreteDist, DiscreteDist] | None:
        """The optimizers ``p = w + u`` and ``q = w + v`` of a solution, read
        from its basic columns ``x``, or None if they are too corrupted to
        certify.

        Both sides go through the same steps: no mass may lie below -1e-9, and
        each side, with its negative entries clamped to 0, must total within
        1e-9 of 1 and is divided by its total.
        """
        n, grid = len(self.t), self.grid
        sides: tuple[dict, dict] = ({}, {})
        for j, value in x.items():
            family, i = divmod(j, n)
            # w joins both sides, u the p side and v the q side
            for side in ((0, 1), (0,), (1,))[family]:
                masses = sides[side]
                masses[i] = masses.get(i, 0.0) + value
        optimizers = []
        for masses in sides:
            if masses and min(masses.values()) < -1e-9:
                return None
            kept = sorted((i, m) for i, m in masses.items() if m > 0.0)
            total = math.fsum(m for _, m in kept)
            if abs(total - 1.0) > 1e-9:
                return None
            optimizers.append(
                DiscreteDist(tuple(grid[i] for i, _ in kept), tuple(m / total for _, m in kept))
            )
        return tuple(optimizers)

    def certified(self, dist: DiscreteDist, target: Moments1D) -> bool:
        """Whether ``dist`` has the moments of ``target`` in the units
        ``t = (x - centre) / scale`` of the rows, at ``ORACLE_MOMENT_TOL``."""
        centre, scale = self.centre, self.scale
        centred = DiscreteDist(tuple((x - centre) / scale for x in dist.support), dist.probs)
        wanted = Moments1D((target.mean - centre) / scale, target.stddev / scale)
        return check_moments(centred, wanted, ORACLE_MOMENT_TOL)


def _cheapest(t: list[float], g: float, k: float) -> int:
    """The index of the smallest value over the sorted ``t`` of a quadratic
    ``d`` whose slope is ``k - 2 g t``.  Convex (``g < 0``): of the two
    points beside its vertex, the nearer, as ``d`` is symmetric about it.
    Otherwise: the lower end, as the sign of
    ``d(t_last) - d(t_0) = (t_last - t_0) (k - g (t_0 + t_last))`` tells."""
    if g < 0.0:
        vertex = k / (2.0 * g)
        i = bisect_left(t, vertex)
        if i == len(t) or (i and vertex - t[i - 1] <= t[i] - vertex):
            i -= 1
        return i
    return 0 if k > g * (t[0] + t[-1]) else len(t) - 1


class LPStandardForm(NamedTuple):
    """``min c.x  s.t.  constraint_matrix x = rhs, x >= 0``.

    ``constraint_matrix`` is a column set for ``solve_dense``, which also
    prices the costs ``c``; a ``GridColumns`` also holds the grid the
    probability variables live on, and reads a solution back as
    distributions on it.  ``pair`` holds the moments the optimizers are
    certified against; it plays no role in the algebra.
    """

    constraint_matrix: GridColumns
    rhs: tuple[float, ...]
    pair: MomentPair1D


def formulate(pair: MomentPair1D, grid: list[float]) -> LPStandardForm:
    """Encode grid-supported TV minimization under exact moment equality.

    The variables are three blocks over the sorted grid, which the column
    set holds: the common part ``w`` and the two excesses ``u`` and ``v``,
    so that ``p = w + u`` and ``q = w + v``.  Six equality rows (see
    ``GridColumns``) pin the total mass, the mean ``t_p`` and the variance
    ``(sd_p / s)^2`` about it of ``p`` in centred units, and the same of
    ``q``; the objective, which the columns price, is ``sum u``.  Any grid
    pair is feasible with ``w = min(p, q)``, where
    ``sum u = 1 - sum min(p, q) = TV(p, q)``, and every feasible point has
    ``w <= min(p, q)`` and so ``sum u >= TV(p, q)``.  The optimum is
    therefore the minimal TV over grid pairs.  Upper bounds such as
    ``p_i <= 1`` are implied by non-negativity and the mass rows.  The grid
    is ``build_grid``'s: a sorted list of at least 2 finite floats.  A row
    coefficient past the float range, or a centring scale past it (see
    ``_centring``), raises ``ValueError``.
    """
    centre, scale = _centring(pair)
    t_p = (pair.p_side.mean - centre) / scale
    t_q = (pair.q_side.mean - centre) / scale
    r_p, r_q = pair.p_side.stddev / scale, pair.q_side.stddev / scale
    rhs = (1.0, t_p, r_p * r_p, 1.0, t_q, r_q * r_q)
    return LPStandardForm(GridColumns(grid, centre, scale, t_p, t_q), rhs, pair)


class OracleStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERIC_FAILURE = "numeric_failure"


class OracleResult(NamedTuple):
    """Outcome of one grid minimization."""

    status: OracleStatus
    tv_min: float | None
    p_opt: DiscreteDist | None
    q_opt: DiscreteDist | None
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "tv_min": self.tv_min,
            "iterations": self.iterations,
            "p_opt": None if self.p_opt is None else self.p_opt.to_json_dict(),
            "q_opt": None if self.q_opt is None else self.q_opt.to_json_dict(),
        }


def solve(lp: LPStandardForm) -> OracleResult:
    """Run the simplex on ``lp`` and package the outcome.

    An optimal solve yields the minimal TV (clamped to [0, 1] against
    terminal rounding) and the two optimizing distributions ``p = w + u``
    and ``q = w + v``, which the column set reads back from the at most six
    basic columns onto its grid, keeping only the atoms that carry mass.
    Each optimizer must match its side of ``lp.pair`` at
    ``ORACLE_MOMENT_TOL`` in the centred units of the rows, as the column
    set certifies it; if either does not, the result is demoted to
    ``NUMERIC_FAILURE`` rather than trusted.  The atoms are reported in x.
    """
    res: SimplexResult = solve_dense(lp.constraint_matrix, lp.rhs)
    if res.status == "infeasible":
        return OracleResult(OracleStatus.INFEASIBLE, None, None, None, res.iterations)
    failed = OracleResult(OracleStatus.NUMERIC_FAILURE, None, None, None, res.iterations)
    if res.status != "optimal":
        return failed
    columns = lp.constraint_matrix
    optimizers = columns.optimizers(res.x)
    if optimizers is None or not all(map(columns.certified, optimizers, lp.pair)):
        return failed
    tv = min(1.0, max(0.0, res.objective))
    return OracleResult(OracleStatus.OPTIMAL, tv, *optimizers, res.iterations)


def minimize_tv_on_grid(
    pair: MomentPair1D,
    spec: GridSpec | None = None,
    include_witness_points: bool = True,
) -> OracleResult:
    """Minimize TV over the grid, optionally seeding the witness support.

    With ``include_witness_points`` and distinct means, the support of the
    tight witness joins the grid, which makes the closed-form bound value
    feasible and pins the optimum exactly onto it.  On a plain grid the
    optimum can only sit at or above the bound (a coarser feasible set).
    """
    if spec is None:
        spec = GridSpec.default_for(pair)
    extras = ()
    if include_witness_points and gap(pair) != 0.0:
        # the tight witness puts both sides on one support
        extras = construct_tight_witness(pair).p_dist.support
    return solve(formulate(pair, build_grid(spec, extras)))
