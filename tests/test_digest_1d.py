"""A bit-for-bit digest of the whole one-dimensional path.

The sha256 of the ``repr`` of ``bound_report`` and of all four witness
constructors over 4,000 seeded pairs: each witness's supports, masses,
claimed TV and kind, or each refusal's type and message.  A change that
moves any output bit of the closed forms or the witnesses changes the
digest.  The path sums with ``math.fsum`` only, never the builtin ``sum``
(whose float result changed in Python 3.12), so the digest is the same on
every supported Python.

The module imports neither numpy nor ``conftest.py``, so it also runs where
numpy is not installed::

    python -m pytest --noconftest tests/test_digest_1d.py
"""

import hashlib
import random

import pytest

from tvbounds import (
    DegenerateVarianceError,
    GapZeroError,
    MomentPair1D,
    TVBoundError,
    WitnessConstructionError,
    WitnessKind,
    bound_report,
    construct_anchored_witness,
    construct_tight_witness,
    construct_two_point,
    construct_vanishing_sequence,
)

#: sha256 of the 4,000 pairs' lines, as the 1-D path printed them when the
#: digest was taken; it changes only with an output bit.
DIGEST = "79ceb1bc33b3ac77548b7a4fb4723777440addecd22d6a34c87332617fa90589"


def _pairs(count: int, seed: int):
    """``count`` (mp, sp, mq, sq): offsets up to 1e12 spreads, 30% at a
    scale from 1e-300 to 1e150, zero stddevs and 5% equal means."""
    rng = random.Random(seed)
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-300.0, 150.0) if rng.random() < 0.3 else 1.0
        offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 12.0)
        if rng.random() < 0.5:
            offset = 0.0
        mp = scale * (offset + rng.uniform(-3.0, 3.0))
        mq = mp if rng.random() < 0.05 else scale * (offset + rng.uniform(-3.0, 3.0))
        sp, sq = (0.0 if rng.random() < 0.15 else scale * rng.uniform(0.0, 2.0) for _ in "pq")
        yield mp, sp, mq, sq, rng.randrange(2, 1000)


def _outcome(build, *args) -> str:
    try:
        result = build(*args)
    except (TVBoundError, ValueError) as exc:
        return repr((type(exc).__name__, str(exc)))
    if not hasattr(result, "kind"):
        return repr(result)
    p, q = result.p_dist, result.q_dist
    return repr((p.support, p.probs, q.support, q.probs, result.claimed_tv, result.kind.value))


def _lines(count: int, seed: int):
    for mp, sp, mq, sq, k in _pairs(count, seed):
        pair = MomentPair1D.from_scalars(mp, sp, mq, sq)
        yield repr((mp, sp, mq, sq, k))
        yield _outcome(bound_report, pair)
        yield _outcome(construct_tight_witness, pair)
        yield _outcome(construct_two_point, pair)
        yield _outcome(construct_anchored_witness, pair)
        yield _outcome(construct_vanishing_sequence, mp, sp, sq, k)


@pytest.fixture(scope="module")
def lines():
    return list(_lines(4000, 18))


def test_one_dimensional_path_keeps_every_output_bit(lines):
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


def test_the_pairs_reach_every_outcome(lines):
    # a digest of refusals alone would pin little: the seeded pairs build
    # every witness kind and meet each refusal type
    text = "\n".join(lines)
    for kind in WitnessKind:
        assert f"{kind.value!r})" in text
    for error in (GapZeroError, DegenerateVarianceError, WitnessConstructionError):
        assert f"({error.__name__!r}, " in text
