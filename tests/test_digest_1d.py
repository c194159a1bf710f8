"""Bit-for-bit digests of the whole one-dimensional path.

``DIGEST`` is the sha256 of the ``repr`` of ``bound_report`` and of all
four witness constructors over 4,000 seeded pairs: each witness's supports,
masses, claimed TV and kind, or each refusal's type and message.  A change
that moves any output bit of the closed forms or the witnesses changes it.

``DISCRETE_DIGEST`` is the sha256 of the discrete layer that every witness
passes through, over 3,008 seeded atom pairs: each side's construction by
``DiscreteDist`` (its support and masses, or the refusal's type and
message) and, where both sides build, each side's ``moments()`` and
``check_moments`` at four targets and five tolerances, and ``tv_distance``
both ways.

Both paths sum with ``math.fsum`` only, never the builtin ``sum`` (whose
float result changed in Python 3.12), so the digests are the same on every
supported Python.

The module imports no numpy, nor does ``conftest.py``, so it also runs
where numpy is not installed::

    python -m pytest tests/test_digest_1d.py
"""

import hashlib
import math
import random

import pytest

from tvbounds import (
    DegenerateVarianceError,
    DiscreteDist,
    GapZeroError,
    MomentPair1D,
    Moments1D,
    TVBoundError,
    WitnessConstructionError,
    WitnessKind,
    bound_report,
    check_moments,
    construct_anchored_witness,
    construct_tight_witness,
    construct_two_point,
    construct_vanishing_sequence,
    tv_distance,
)

#: sha256 of the 4,000 pairs' lines, as the 1-D path printed them when the
#: digest was taken; it changes only with an output bit.
DIGEST = "79ceb1bc33b3ac77548b7a4fb4723777440addecd22d6a34c87332617fa90589"
#: sha256 of the 3,008 atom pairs' lines, as the discrete layer printed them
#: when the digest was taken; it changes only with an output bit.
DISCRETE_DIGEST = "ce56e007f2ce62cd556c8177bbfd3bdd4db0ea2388aa85f66a2c4ff713d5f46e"


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


def _atoms(rng, n):
    """``n`` raw atoms: unsorted points at one magnitude from 1e-300 to
    1e300, with exact duplicates, points inside the merge tolerance
    1e-12 (1 + max |x|) of another and zero masses, and masses normalized
    to sum to about 1."""
    scale, support = 10.0 ** rng.randint(-300, 300), []
    for _ in range(n):
        kind = rng.random()
        if support and kind < 0.2:
            support.append(rng.choice(support))
        elif support and kind < 0.45:
            near = rng.choice(support)
            support.append(near + rng.uniform(-2e-12, 2e-12) * (1.0 + abs(near)))
        else:
            support.append(scale * rng.uniform(-10.0, 10.0))
    weights = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(n)]
    probs = [w / (math.fsum(weights) or 1.0) for w in weights]
    if not any(probs):
        probs[rng.randrange(n)] = 1.0
    return support, probs


def _spoil(rng, support, probs):
    """An entry non-finite or negative, two offenders (the first is named),
    a length or a total out of range, or no atoms at all."""
    kind, bad = rng.randrange(7), rng.choice((math.nan, math.inf, -math.inf, -1e-300, -0.5))
    if kind < 2:
        entries = (support, probs)[kind]
        entries[rng.randrange(len(entries))] = bad
    elif kind == 2:
        probs.append(0.0)
    elif kind == 3:
        probs[rng.randrange(len(probs))] += 1e-9
    elif kind == 4:
        probs[0], probs[-1] = -1.0, math.nan
    elif kind == 5:
        support[0], support[-1] = math.nan, -math.inf
    else:
        support[:], probs[:] = [], []


def _at_the_tolerance(rng):
    """(base, x) exactly the merge tolerance 1e-12 (1 + max(|base|, |x|))
    apart, from a seeded search; such points merge."""
    while True:
        base = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
        x = base + 1e-12 * (1.0 + abs(base))
        for _ in range(200):
            tol = 1e-12 * (1.0 + max(abs(base), abs(x)))
            if x - base == tol:
                return base, x
            x = math.nextafter(x, math.inf if x - base < tol else -math.inf)


def _atom_pairs():
    """3,000 seeded pairs, a fifth with one side spoiled, then 8 whose
    points lie the merge tolerance apart."""
    rng = random.Random(1818)
    for case in range(3000):
        n = rng.randint(1, 8)
        p_atoms = _atoms(rng, n)
        if case % 3 == 0:  # a shared support, the witnesses' case
            q_atoms = (list(p_atoms[0]), _atoms(rng, n)[1])
        elif case % 3 == 1:  # supports that share some points
            other = _atoms(rng, n)
            q_atoms = (p_atoms[0][: n // 2] + other[0][n // 2 :], other[1])
        else:
            q_atoms = _atoms(rng, rng.randint(1, 8))
        if case % 5 == 0:
            _spoil(rng, *(p_atoms if case % 2 else q_atoms))
        yield p_atoms, q_atoms
    for _ in range(8):
        base, x = _at_the_tolerance(rng)
        yield ([x, base], [0.25, 0.75]), ([base, x + 1.0], [0.5, 0.5])


def _built(dist):
    return isinstance(dist, DiscreteDist)


def _built_pairs():
    """Each pair's atoms with both sides' ``DiscreteDist``, or its refusal."""
    for atoms in _atom_pairs():
        dists = []
        for side in atoms:
            try:
                dists.append(DiscreteDist(*side))
            except ValueError as exc:
                dists.append(exc)
        yield atoms, dists


def _discrete_lines():
    for atoms, dists in _built_pairs():
        yield repr(atoms)
        for d in dists:
            yield repr((d.support, d.probs) if _built(d) else (type(d).__name__, str(d)))
        if not all(map(_built, dists)):
            continue
        for dist in dists:
            mean, variance = dist.moments()
            yield repr((mean, variance))
            # a unit target, and the side's own moments, exact and nudged
            targets = [(0.0, 1.0)]
            if math.isfinite(variance):
                sd = math.sqrt(variance)
                targets += [(mean, sd), (mean * (1.0 + 1e-9), sd), (mean + 1e-9, sd * (1.0 - 1e-9))]
            for target in targets:
                for tol in (1e-12, 1e-9, 1e-6, 0.0, math.nan):
                    yield _outcome(check_moments, dist, Moments1D(*target), tol)
        yield repr(tv_distance(*dists))
        yield repr(tv_distance(*reversed(dists)))


@pytest.fixture(scope="module")
def discrete_lines():
    return list(_discrete_lines())


def test_discrete_layer_keeps_every_output_bit(discrete_lines):
    assert hashlib.sha256("\n".join(discrete_lines).encode()).hexdigest() == DISCRETE_DIGEST


def test_the_atom_pairs_reach_every_outcome(discrete_lines):
    # a digest of refusals alone would pin little: the seeded atoms meet
    # each refusal, merge a cluster, keep a zero mass, overflow a variance
    # and take both paths of tv_distance
    text = "\n".join(discrete_lines)
    for message in (
        "support has ", "a distribution needs at least one atom", "support point ",
        "probability ", "probabilities sum to ", "tol must be positive and finite",
    ):
        assert f"('ValueError', '{message}" in text
    built = [(atoms, dists) for atoms, dists in _built_pairs() if all(map(_built, dists))]
    sides = [(side[0], dist) for atoms, dists in built for side, dist in zip(atoms, dists)]
    assert any(len(dist) < len(set(points)) for points, dist in sides)
    assert any(0.0 in dist.probs for _, dist in sides)
    assert any(dist.moments().variance == math.inf for _, dist in sides)
    assert {p.support == q.support for _, (p, q) in built} == {True, False}
