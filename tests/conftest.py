"""Shared reference oracles for the test suite, the command lines and
moments files that the CLI refusals are given, and a fixture that gives
each test back the trace function it began with.

These helpers deliberately avoid the code paths they are used to check:
TV and moments are recomputed with plain dictionary/numpy arithmetic, and
the Gaussian TV comes from adaptive quadrature between analytically located
density crossings.
"""

from __future__ import annotations

import json
import math
import sys

import pytest


@pytest.fixture(autouse=True)
def _keep_the_trace_function():
    # a RecursionError that reaches a line tracer unsets it, as the
    # deep-nesting tests raise; each test ends with the one it began with
    tracer = sys.gettrace()
    yield
    sys.settrace(tracer)


#: Two 2-D unit normals a unit mean gap apart, the moments file that the
#: nd-bound refusals vary a field at a time.
UNIT_ND = {
    "mean_p": [1.0, 0.0], "cov_p": [[1.0, 0.0], [0.0, 1.0]],
    "mean_q": [0.0, 0.0], "cov_q": [[1.0, 0.0], [0.0, 1.0]],
}


def moments_text(**fields):
    """The text of a moments file of ``UNIT_ND`` with ``fields`` replaced."""
    return json.dumps({**UNIT_ND, **fields})


def pair_flags(mp, sp, mq, sq):
    """The four moment flags of a 1-D command, each value as given."""
    return ["--mp", mp, "--sp", sp, "--mq", mq, "--sq", sq]


def cli_argv(tmp_path, given):
    """``given`` as a command line: an argv as it is, or the text (``str``
    or ``bytes``) of a moments file as ``nd-bound`` on a file in ``tmp_path``
    that holds it."""
    if not isinstance(given, (str, bytes)):
        return given
    path = tmp_path / "moments.json"
    path.write_bytes(given if isinstance(given, bytes) else given.encode())
    return ("nd-bound", str(path))


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
    import numpy as np  # here, so the tests that need no numpy run without it

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
