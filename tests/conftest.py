"""Shared reference oracles for the test suite.

These helpers deliberately avoid the code paths they are used to check:
TV and moments are recomputed with plain dictionary/numpy arithmetic, and
the Gaussian TV comes from adaptive quadrature between analytically located
density crossings.
"""

from __future__ import annotations

import math

import numpy as np


def ref_tv(atoms_p, atoms_q) -> float:
    """TV between two atom lists [(x, prob), ...] via signed-mass folding.

    Matches support points by exact float equality, so callers must build
    shared atoms from identical expressions.
    """
    signed: dict[float, float] = {}
    for x, w in atoms_p:
        signed[x] = signed.get(x, 0.0) + w
    for x, w in atoms_q:
        signed[x] = signed.get(x, 0.0) - w
    return 0.5 * sum(abs(v) for v in signed.values())


def ref_moments(support, probs) -> tuple[float, float]:
    """(mean, variance) from numpy dot products, no compensated summation."""
    x = np.asarray(support, dtype=float)
    w = np.asarray(probs, dtype=float)
    mean = float(w @ x)
    var = float(w @ (x - mean) ** 2)
    return mean, var


def gaussian_pdf(x: float, m: float, s: float) -> float:
    z = (x - m) / s
    return math.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))


def gaussian_crossings(mp: float, sp: float, mq: float, sq: float) -> list[float]:
    """Points where the two normal densities are equal."""
    if sp == sq:
        return [] if mp == mq else [0.5 * (mp + mq)]
    a = 0.5 / (sq * sq) - 0.5 / (sp * sp)
    b = mp / (sp * sp) - mq / (sq * sq)
    c = (
        mq * mq / (2.0 * sq * sq)
        - mp * mp / (2.0 * sp * sp)
        + math.log(sq / sp)
    )
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    root = math.sqrt(disc)
    return sorted(((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)))


def gaussian_tv(mp: float, sp: float, mq: float, sq: float) -> float:
    """TV between two normal laws by adaptive quadrature at ~1e-10 accuracy.

    The integrand |pdf_p - pdf_q| is smooth between density crossings, so
    the integral is split there; mass beyond twelve standard deviations is
    far below the accuracy target.
    """
    from scipy.integrate import quad

    if mp == mq and sp == sq:
        return 0.0

    def integrand(x: float) -> float:
        return abs(gaussian_pdf(x, mp, sp) - gaussian_pdf(x, mq, sq))

    lo = min(mp - 12.0 * sp, mq - 12.0 * sq)
    hi = max(mp + 12.0 * sp, mq + 12.0 * sq)
    cuts = [lo] + [c for c in gaussian_crossings(mp, sp, mq, sq) if lo < c < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        piece, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += piece
    return 0.5 * total
