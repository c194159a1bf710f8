"""Grid LP verification of the one-dimensional bound, plus a randomized
check of the d-dimensional trace bound.

``minimize_tv_on_grid`` minimizes the TV distance over all pairs of
distributions supported on a finite grid subject to exact mean and raw
second-moment equality on both sides.  The program is written through the
common part of the two distributions: ``p = w + u`` and ``q = w + v`` with
``w, u, v >= 0``, minimizing ``sum u``.  Only the six moment rows constrain
it, so the simplex works on a 6-row tableau whatever the grid size.  Its
optimum is an upper bound on the true infimum over all distributions; when
the support of the tight witness is folded into the grid the optimum
collapses onto the closed-form bound, which is what the ``verify`` path
certifies.  The moment constraints are genuine equalities, not bands, so
"optimum equals bound" is a sharp test.

The d-dimensional routine never solves an LP: it draws random discrete
pairs, computes their exact moments and exact TV, and counts violations of
the trace bound evaluated at those computed moments.  It works on all
trials at once, as numpy stacks over a leading trial axis.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .discrete import DiscreteDist, _merge_tol, check_moments
from .errors import BadParameterError
from .moments import FrozenRecord, MomentPair1D, gap
from .nd import trace_bound
# nothing here calls these; they stay bound because benchmarks/spans.py
# wraps the n-d layer under these names and resolves each one at install
from .nd import MomentsND, tv_lower_bound_nd  # noqa: F401
from .simplex import SimplexResult, solve_dense
from .witness import construct_tight_witness

__all__ = [
    "GridSpec",
    "LPStandardForm",
    "OracleStatus",
    "OracleResult",
    "build_grid",
    "formulate",
    "solve",
    "minimize_tv_on_grid",
    "check_nd_bound_random",
]

#: Moment tolerance the extracted optimizers must certify.
ORACLE_MOMENT_TOL = 1e-7
#: Violation slack for the randomized d-dimensional check.
ND_CHECK_TOL = 1e-10
#: Most normal coordinates (trials * atoms * d) one randomized d-dimensional
#: check draws; a larger batch is refused before anything is drawn.  A batch
#: at the limit peaks at 0.55 to 0.65 GB resident, the most at d = 1.
ND_CHECK_MAX_DRAWS = 10_000_000
#: Most uniform points a grid may ask for; a larger count is refused before
#: anything is allocated.  ``verify`` peaks at 34 MB resident at 10^4 points
#: and 84 MB at 10^5, about 0.55 KB a point, so about 0.3 GB at the limit.
GRID_MAX_COUNT = 500_000


class GridSpec(FrozenRecord):
    """A uniform grid on [lo, hi] with optional extra points merged in."""

    __slots__ = ("lo", "hi", "count", "extra_points")

    def __init__(
        self, lo: float, hi: float, count: int, extra_points: tuple[float, ...] = ()
    ) -> None:
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise ValueError(f"need finite lo < hi, got lo={lo!r}, hi={hi!r}")
        if not math.isfinite(hi - lo):
            raise ValueError(f"the span hi - lo overflows, got lo={lo!r}, hi={hi!r}")
        n = int(count)
        if n < 2:
            raise ValueError(f"count must be >= 2, got {count}")
        if n > GRID_MAX_COUNT:
            raise ValueError(
                f"count must be at most GRID_MAX_COUNT = {GRID_MAX_COUNT}, got {count}"
            )
        extras = tuple(float(x) for x in extra_points)
        if not all(map(math.isfinite, extras)):
            raise ValueError("extra points must be finite")
        set_lo, set_hi, set_count, set_extras = self._setters
        set_lo(self, lo)
        set_hi(self, hi)
        set_count(self, n)
        set_extras(self, extras)

    @classmethod
    def default_for(cls, pair: MomentPair1D, count: int = 121) -> "GridSpec":
        """Grid wide enough to cover every constructed witness support:
        six standard deviations beyond the span of the two means."""
        pad = 6.0 * max(pair.p_side.stddev, pair.q_side.stddev)
        if pad == 0.0:
            pad = 1.0
        lo = min(pair.p_side.mean, pair.q_side.mean) - pad
        hi = max(pair.p_side.mean, pair.q_side.mean) + pad
        return cls(lo, hi, count)

    def with_extra(self, points) -> "GridSpec":
        return GridSpec(self.lo, self.hi, self.count, self.extra_points + tuple(points))


def build_grid(spec: GridSpec) -> np.ndarray:
    """Sorted union of the uniform grid and the extra points, deduplicated
    by ``DiscreteDist``'s merge rule at the grid's largest magnitude."""
    values = np.linspace(spec.lo, spec.hi, spec.count).tolist()
    if spec.extra_points:
        values = sorted(values + list(spec.extra_points))
    # the largest magnitude sits at one end of the sorted values
    tol = _merge_tol((values[0], values[-1]))
    kept = values[:1]
    for x in values[1:]:
        if x - kept[-1] > tol:
            kept.append(x)
    return np.fromiter(kept, dtype=float, count=len(kept))


class LPStandardForm(FrozenRecord):
    """``min objective . x  s.t.  constraint_matrix x = rhs, x >= 0``.

    ``pair`` holds the moments the rows encode and ``grid`` the support the
    probability variables live on, so that a solve can hand back the
    optimizers as distributions and certify them against the pair itself;
    neither plays a role in the algebra.  Compares by identity: its fields
    are arrays.
    """

    __slots__ = ("objective", "constraint_matrix", "rhs", "pair", "grid")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        objective: np.ndarray,
        constraint_matrix: np.ndarray,
        rhs: np.ndarray,
        pair: MomentPair1D,
        grid: tuple[float, ...],
    ) -> None:
        if constraint_matrix.shape != (rhs.size, objective.size):
            raise ValueError("inconsistent LP dimensions")
        set_objective, set_matrix, set_rhs, set_pair, set_grid = self._setters
        set_objective(self, objective)
        set_matrix(self, constraint_matrix)
        set_rhs(self, rhs)
        set_pair(self, pair)
        set_grid(self, grid)


def formulate(pair: MomentPair1D, grid) -> LPStandardForm:
    """Encode grid-supported TV minimization under exact moment equality.

    The variables are three blocks over the grid: the common part ``w``
    and the two excesses ``u`` and ``v``, so that ``p = w + u`` and
    ``q = w + v``.  Six equality rows pin total mass, mean and raw second
    moment of ``p`` (on ``w + u``) and of ``q`` (on ``w + v``); the
    objective is ``sum u``.  Any grid pair is feasible with
    ``w = min(p, q)``, where ``sum u = 1 - sum min(p, q) = TV(p, q)``, and
    every feasible point has ``w <= min(p, q)`` and so ``sum u >= TV(p, q)``.
    The optimum is therefore the minimal TV over grid pairs.  Upper bounds
    such as ``p_i <= 1`` are implied by non-negativity and the mass rows.
    """
    x = np.asarray(grid, dtype=float).reshape(-1)
    n = x.size
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    # rows 0-2 carry the powers 1, x, x^2 of the grid on the w and u
    # blocks, rows 3-5 on the w and v blocks
    A = np.zeros((6, 3 * n))
    A[0, :n] = 1.0
    A[1, :n] = x
    # a square that overflows leaves inf in the row, which solve_dense
    # rejects with a specific error; numpy need not warn about it as well
    with np.errstate(over="ignore"):
        A[2, :n] = x * x
    A[0:3, n : 2 * n] = A[3:6, :n] = A[3:6, 2 * n :] = A[0:3, :n]
    mp, vp = pair.p_side.mean, pair.p_side.variance
    mq, vq = pair.q_side.mean, pair.q_side.variance
    b = np.array([1.0, mp, mp * mp + vp, 1.0, mq, mq * mq + vq])
    c = np.zeros(3 * n)
    c[n : 2 * n] = 1.0
    return LPStandardForm(c, A, b, pair, tuple(x.tolist()))


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


def _extract_pair(
    x: np.ndarray, grid: tuple[float, ...]
) -> tuple[DiscreteDist, DiscreteDist] | None:
    """The optimizers ``p = w + u`` and ``q = w + v`` of an LP solution laid
    out as ``formulate`` does, or None if they are too corrupted to certify.

    Both sides go through the same steps at once, as the rows of one (2, n)
    array: no mass may lie below -1e-9, and each side, with its negative
    entries clamped to 0, must total within 1e-9 of 1 and is divided by
    its total.
    """
    blocks = x.reshape(3, -1)
    # rows u + w and v + w: float addition commutes exactly
    raw = blocks[1:] + blocks[0]
    if float(raw.min()) < -1e-9:
        return None
    np.maximum(raw, 0.0, out=raw)
    totals = raw.sum(axis=1)
    if any(abs(total - 1.0) > 1e-9 for total in totals.tolist()):
        return None
    raw /= totals[:, None]
    # only the atoms that carry mass: the grid has n points, an optimizer a few
    side, kept = raw.nonzero()
    atoms: tuple[list, list] = ([], [])
    for s, i, prob in zip(side.tolist(), kept.tolist(), raw[side, kept].tolist()):
        atoms[s].append((grid[i], prob))
    return tuple(DiscreteDist(*zip(*side_atoms)) for side_atoms in atoms)


def solve(lp: LPStandardForm) -> OracleResult:
    """Run the simplex on ``lp`` and package the outcome.

    An optimal solve yields the minimal TV (clamped to [0, 1] against
    terminal rounding) and the two optimizing distributions ``p = w + u``
    and ``q = w + v`` on ``lp.grid``, read from the blocks ``formulate``
    lays out, keeping only the atoms that carry mass.  Each optimizer must
    match its side of ``lp.pair`` at ``ORACLE_MOMENT_TOL``; if either does
    not, the result is demoted to ``NUMERIC_FAILURE`` rather than trusted.
    """
    res: SimplexResult = solve_dense(lp.objective, lp.constraint_matrix, lp.rhs)
    if res.status == "infeasible":
        return OracleResult(OracleStatus.INFEASIBLE, None, None, None, res.iterations)
    failed = OracleResult(OracleStatus.NUMERIC_FAILURE, None, None, None, res.iterations)
    if res.status != "optimal":
        return failed
    optimizers = _extract_pair(res.x, lp.grid)
    if optimizers is None:
        return failed
    for dist, target in zip(optimizers, lp.pair):
        if not check_moments(dist, target, ORACLE_MOMENT_TOL):
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
    if include_witness_points and gap(pair) != 0.0:
        witness = construct_tight_witness(pair)
        # the tight witness puts both sides on one support
        spec = spec.with_extra(witness.p_dist.support)
    grid = build_grid(spec)
    return solve(formulate(pair, grid))


def check_nd_bound_random(d: int, atoms: int, trials: int, seed: int) -> int:
    """Count violations of the d-dimensional trace bound on random pairs.

    Each trial draws ``atoms`` shared points from a standard normal in
    d-space and two Dirichlet(1, ..., 1) probability vectors, computes the
    exact means, covariances and TV of the resulting pair, and evaluates
    the trace bound at those computed moments.  A correct implementation
    returns 0 for any seed; every violation beyond ``ND_CHECK_TOL`` counts.
    Fully reproducible for a fixed seed.

    The draws come in one batch, and so does the rest: first the points of
    every trial, then one Dirichlet draw of ``2 * trials`` weight vectors,
    the p side's ``trials`` first, then the q side's.  The moments of both
    sides of every trial are stacks of shape ``(2, trials, d)`` and
    ``(2, trials, d, d)``, and the bound is ``trace_bound``, which
    ``tv_lower_bound_nd`` also uses.  The covariances are weighted Gram
    matrices of finite draws, symmetric and PSD up to a round-off far inside
    the tolerances of ``MomentsND``, so they are not re-checked; the bound
    reads only their traces, which symmetrizing would leave unchanged.
    A batch of more than ``ND_CHECK_MAX_DRAWS`` normal coordinates
    (``trials * atoms * d``) raises ``BadParameterError`` before any draw.
    """
    if not 1 <= int(d) <= 4:
        raise BadParameterError(f"d must be in [1, 4], got {d}")
    if int(atoms) < int(d) + 2:
        raise BadParameterError(f"atoms must be >= d + 2, got {atoms}")
    if int(trials) < 1:
        raise BadParameterError(f"trials must be >= 1, got {trials}")
    d, atoms, trials = int(d), int(atoms), int(trials)
    if trials * atoms * d > ND_CHECK_MAX_DRAWS:
        raise BadParameterError(
            f"trials * atoms * d = {trials} * {atoms} * {d} is more than "
            f"ND_CHECK_MAX_DRAWS = {ND_CHECK_MAX_DRAWS}; run fewer trials per seed"
        )
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(trials, atoms, d))
    # both sides at once: axis 0 is the side (p, q), axis 1 the trial
    weights = rng.dirichlet(np.ones(atoms), size=(2, trials))
    tv = 0.5 * np.abs(weights[0] - weights[1]).sum(axis=1)
    means = (weights[:, :, None, :] @ points)[:, :, 0, :]
    centred = points - means[:, :, None, :]
    covs = centred.swapaxes(-1, -2) @ (centred * weights[..., None])
    traces = np.einsum("stii->st", covs)
    a = means[0] - means[1]
    bound = trace_bound(np.einsum("ti,ti->t", a, a), traces[0], traces[1])
    return int(np.count_nonzero(tv < bound - ND_CHECK_TOL))
