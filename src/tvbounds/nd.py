"""Moment records and the trace lower bound for distributions on d-space.

The bound ``|a|^2 / (2 (tr Sp + tr Sq) + |a|^2)`` holds in every dimension
and is not claimed tight for d > 1.  This is the only part of the moment
layer that needs numpy; the one-dimensional closed forms live in
:mod:`tvbounds.moments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "MomentsND",
    "MomentPairND",
    "tv_lower_bound_nd",
    "trace_bound",
    "validate_moments",
]

#: Absolute entrywise tolerance for accepting a covariance matrix as symmetric.
COV_SYMMETRY_TOL = 1e-10
#: Relative tolerance for the smallest eigenvalue of a covariance matrix.
COV_PSD_TOL = 1e-10


def validate_moments(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Check mean vectors and covariance matrices stacked on leading axes.

    ``mean`` has shape ``(..., d)`` and ``cov`` must have shape
    ``(..., d, d)`` with the same leading axes; a single vector and matrix
    is a stack with no leading axes.  The checks run in this order, each
    over the whole stack: finite means, the covariance shape, finite
    covariances, symmetry within ``COV_SYMMETRY_TOL`` (entrywise, absolute),
    and a smallest eigenvalue no lower than
    ``-COV_PSD_TOL * (1 + max diagonal entry)``.  The first that fails
    raises ``ValueError``; a failed PSD check names the eigenvalue of the
    first offending matrix, so a stack raises what that matrix alone would.

    Returns the covariances, averaged with their transposes when d > 1.
    """
    if not np.isfinite(mean).all():
        raise ValueError("mean must be finite")
    d = mean.shape[-1]
    if cov.shape != mean.shape + (d,):
        raise ValueError(f"covariance must have shape ({d}, {d}), got {cov.shape}")
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
    if d == 1:
        # a 1x1 matrix is symmetric and its own eigenvalue
        min_eig = max_diag = cov[..., 0, 0]
    else:
        cov_t = np.swapaxes(cov, -1, -2)
        if float(np.max(np.abs(cov - cov_t))) > COV_SYMMETRY_TOL:
            raise ValueError(f"covariance is not symmetric within {COV_SYMMETRY_TOL:g}")
        cov = 0.5 * (cov + cov_t)
        min_eig = np.linalg.eigvalsh(cov)[..., 0]
        max_diag = np.max(np.diagonal(cov, axis1=-2, axis2=-1), axis=-1)
    bad = min_eig < -COV_PSD_TOL * (1.0 + max_diag)
    if bad.any():
        first = float(min_eig[bad].flat[0])
        raise ValueError(
            f"covariance is not positive semidefinite (min eigenvalue {first:g})"
        )
    return cov


def trace_bound(gap_norm_sq, trace_p, trace_q):
    """``|a|^2 / (2 (tr Sp + tr Sq) + |a|^2)`` from its three ingredients,
    and 0 where ``|a|^2`` is 0; elementwise over arrays."""
    # traces can only dip below zero by the PSD round-off allowance
    spread = np.maximum(0.0, 2.0 * (trace_p + trace_q))
    return gap_norm_sq / np.where(gap_norm_sq == 0.0, 1.0, spread + gap_norm_sq)


@dataclass(frozen=True, eq=False)
class MomentsND:
    """Mean vector and covariance matrix of a distribution on d-space.

    The covariance must be symmetric within ``COV_SYMMETRY_TOL`` (entrywise,
    absolute) and positive semidefinite up to a scaled eigenvalue tolerance,
    as ``validate_moments`` checks.  User-supplied matrices routinely carry
    round-off, so the symmetrized average with the transpose is what gets
    stored and tested.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        if mean.ndim != 1 or mean.size < 1:
            raise ValueError("mean must be a non-empty 1-D vector")
        cov = validate_moments(mean, np.array(self.covariance, dtype=float))
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def trace(self) -> float:
        return float(np.trace(self.covariance))


@dataclass(frozen=True, eq=False)
class MomentPairND:
    """Moment constraints for a pair of distributions on d-space."""

    p_side: MomentsND
    q_side: MomentsND

    def __post_init__(self) -> None:
        if self.p_side.dim != self.q_side.dim:
            raise DimensionMismatchError(
                f"sides have dimensions {self.p_side.dim} and {self.q_side.dim}"
            )

    @property
    def dim(self) -> int:
        return self.p_side.dim


def tv_lower_bound_nd(pair: MomentPairND) -> float:
    """Trace lower bound on TV(P, Q) for distributions on d-space.

    Returns ``|a|^2 / (2 (tr Sp + tr Sq) + |a|^2)`` where ``a`` is the
    difference of the mean vectors, and 0 when the means coincide.  For
    d = 1 this never exceeds ``tv_lower_bound_1d`` and matches it exactly
    when the standard deviations agree.
    """
    a = pair.p_side.mean - pair.q_side.mean
    return float(trace_bound(np.dot(a, a), pair.p_side.trace, pair.q_side.trace))
