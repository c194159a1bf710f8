"""A bit-for-bit digest of the grid LP oracle.

The sha256 of the ``repr`` of ``minimize_tv_on_grid``'s outcome over 700
seeded pairs, each on its default grid with and without the witness
support: the status, the minimal TV, the pivot count and both optimizers'
supports and masses, or the refusal's type and message.  A change that
moves any output bit of ``verify``'s oracle changes the digest.  ROADMAP
items 9 (an exchange oracle that adds grid points) and 11 will move it on
purpose; CHANGES.md must then list each outcome they move.

The module imports neither numpy nor ``conftest.py``, so it also runs where
numpy is not installed.  The path sums with ``math.fsum`` only, never the
builtin ``sum`` (whose float result changed in Python 3.12)::

    python -m pytest --noconftest tests/test_digest_oracle.py
"""

import hashlib
import random

import pytest

from tvbounds import MomentPair1D, TVBoundError
from tvbounds.oracle import GridSpec, OracleStatus, minimize_tv_on_grid

#: sha256 of the 1,400 outcomes' lines, as the oracle printed them when the
#: digest was taken; it changes only with an output bit.
DIGEST = "31aed6d7d4f85cc5e0fd80482ddca33d82cdd382e1a867d559d8d595b6526120"


def _pairs(count: int, seed: int):
    """``count`` (mp, sp, mq, sq, grid count): offsets 0 one time in four,
    else +-10^U(0, 9) spreads, at a scale of 10^U(-6, 6); a point mass on
    one side one time in four; a tenth at a mean gap of 10^U(-9, -6) times
    the summed stddevs; 3 to 200 grid points."""
    rng = random.Random(seed)
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        offset = 0.0
        if rng.random() >= 0.25:
            offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 9.0)
        sp, sq = (scale * rng.uniform(0.1, 2.0) for _ in "pq")
        if rng.random() < 0.25:
            sp, sq = (0.0, sq) if rng.random() < 0.5 else (sp, 0.0)
        if rng.random() < 0.1:
            a = rng.choice((-1.0, 1.0)) * (sp + sq) * 10.0 ** rng.uniform(-9.0, -6.0)
        else:
            a = scale * rng.uniform(-3.0, 3.0)
        mp = scale * (offset + rng.uniform(-3.0, 3.0))
        yield mp, sp, mp - a, sq, rng.randrange(3, 201)


def _outcome(pair, count, with_witness) -> str:
    try:
        res = minimize_tv_on_grid(pair, GridSpec.default_for(pair, count), with_witness)
    except (TVBoundError, ValueError) as exc:
        return repr((type(exc).__name__, str(exc)))
    p, q = res.p_opt, res.q_opt
    p_opt = None if p is None else (p.support, p.probs)
    q_opt = None if q is None else (q.support, q.probs)
    return repr((res.status.value, res.tv_min, res.iterations, p_opt, q_opt))


def _lines(count: int, seed: int):
    for mp, sp, mq, sq, k in _pairs(count, seed):
        pair = MomentPair1D.from_scalars(mp, sp, mq, sq)
        yield repr((mp, sp, mq, sq, k))
        yield _outcome(pair, k, True)
        yield _outcome(pair, k, False)


@pytest.fixture(scope="module")
def lines():
    return list(_lines(700, 28))


def test_grid_oracle_keeps_every_output_bit(lines):
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


def test_the_pairs_reach_every_outcome(lines):
    # a digest of one outcome alone would pin little: the seeded pairs
    # reach each status and meet a refusal
    kinds = {line[1:].split(",", 1)[0] for line in lines[1::3] + lines[2::3]}
    statuses = {repr(status.value) for status in OracleStatus}
    assert statuses < kinds
    assert "'WitnessConstructionError'" in kinds
