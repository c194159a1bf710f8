"""The d-dimensional layer, ``tvbounds.nd``: the trace bound, the
``MomentsND`` reader and its PSD rule, and the randomized check.  Its other
refusals are rows of ``tests/test_refusals.py``; acceptance criteria 6 and
7, the goldens and ``tests/test_metamorphic.py`` hold the rest."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tvbounds import (
    MomentPairND,
    MomentsND,
    check_nd_bound_random,
    tv_lower_bound_1d,
    tv_lower_bound_nd,
)
import tvbounds.nd as nd
from tvbounds.nd import (
    COV_PSD_TOL,
    _floats,
    _twice_trace_bound_batch,
    finite_traces,
    gap_norm_sq,
    trace_bound,
)

from domain import pair

EYE = np.eye(2)
UNIT = pair(1, 1, 0, 1)


# ---------------------------------------------------------------- the bound


@pytest.mark.parametrize(
    "p_side, q_side, bound",
    [
        (MomentsND([1, 0], EYE), MomentsND([0, 0], EYE), 1.0 / 9.0),
        (MomentsND([1, 2], [[2.0, 0.3], [0.3, 1.0]]), MomentsND([1, 2], EYE), 0.0),
        # equal stddevs is exactly the equality case of the dominance
        # relation: the 1-D bound, 0.2
        (MomentsND([1.0], [[1.0]]), MomentsND([0.0], [[1.0]]), tv_lower_bound_1d(UNIT)),
    ],
    ids=["identity-covariance", "zero-gap", "dimension-one"],
)
def test_nd_bound_examples(p_side, q_side, bound):
    assert tv_lower_bound_nd(MomentPairND(p_side, q_side)) == bound


def test_nd_bound_respected_by_moment_matched_cross_pairs():
    # exact construction: atoms mean +- sqrt(d) * (rotated basis vector),
    # each with mass 1/(2d), has the identity covariance exactly
    rng = np.random.default_rng(5)
    d = 2
    target = 1.0 / 9.0
    for _ in range(50):
        rot_p = np.linalg.qr(rng.normal(size=(d, d)))[0]
        rot_q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        atoms_p = [
            (sign * math.sqrt(d)) * rot_p[:, i] + np.array([1.0, 0.0])
            for i in range(d)
            for sign in (1.0, -1.0)
        ]
        atoms_q = [
            (sign * math.sqrt(d)) * rot_q[:, i]
            for i in range(d)
            for sign in (1.0, -1.0)
        ]
        for atoms, mean in ((atoms_p, [1.0, 0.0]), (atoms_q, [0.0, 0.0])):
            stacked = np.array(atoms)
            np.testing.assert_allclose(stacked.mean(axis=0), mean, atol=1e-12)
            centered = stacked - mean
            cov = centered.T @ centered / len(atoms)
            np.testing.assert_allclose(cov, np.eye(d), atol=1e-12)
        # shared-point mass cancels in the TV; distinct atoms carry 1/(2d)
        keys_p = {tuple(a) for a in atoms_p}
        keys_q = {tuple(a) for a in atoms_q}
        tv = len(keys_p ^ keys_q) / (4.0 * d)
        assert tv >= target - 1e-12


#: |a|^2 for the means 1.3e154 apart, exactly.
_BIG_GAP = Fraction(1.3e154) ** 2
_WIDE = [[5e307, 0.0], [0.0, 0.0]]
_HALF = [[0.5, 0.0], [0.0, 0.5]]

#: Pairs at the edges of the float range: each side's (mean, covariance),
#: the bound's ingredients |a|^2, tr Sp and tr Sq, and the bound, a float
#: to the bit or a ``Fraction`` to 1e-15 relative.
_EDGES = {
    "squared-gap-just-inside-the-float-range":
        (([1e154, 0.0], EYE), ([0.0, 0.0], EYE), (1e308, 2.0, 2.0), 1.0),
    # |a|^2 / 2 + tr Sp + tr Sq = 8.45e307 + 1e308 overflows, though each
    # term is finite; the bound used to read 0 there after a RuntimeWarning
    "denominator-past-the-float-range": (
        ([1.3e154, 0.0], _WIDE), ([0.0, 0.0], _WIDE), (1.6899999999999998e308, 5e307, 5e307),
        _BIG_GAP / (4 * Fraction(5e307) + _BIG_GAP),
    ),
    # untouched: (2 / 2) / (1 + 1 + 2 / 2)
    "inside-the-float-range":
        (([1.0, 1.0], _HALF), ([0.0, 0.0], _HALF), (2.0, 1.0, 1.0), 1.0 / 3.0),
    # equal means, whatever the traces
    "equal-means": (([0.0], [[1e308]]), ([0.0], [[1e308]]), (0.0, 1e308, 1e308), 0.0),
    # here tr Sp + tr Sq alone passes the float range
    "trace-sum-past-the-float-range": (
        ([1.3e154], [[1e308]]), ([0.0], [[1e308]]), (1.6899999999999998e308, 1e308, 1e308),
        _BIG_GAP / (4 * Fraction(1e308) + _BIG_GAP),
    ),
    # here 2 * (tr Sp + tr Sq) = 2e308 passes the float range
    "doubled-trace-sum-past-the-float-range":
        (([1.0], [[5e307]]), ([0.0], [[5e307]]), (1.0, 5e307, 5e307), 0.5 / 1e308),
    # |a|^2 = 5e-324 halves to 0: with zero traces the bound is |a|^2 / |a|^2
    "halved-gap-rounds-to-zero":
        (([2.2e-162], [[0.0]]), ([0.0], [[0.0]]), (5e-324, 0.0, 0.0), 1.0),
}


@pytest.mark.parametrize("p_side, q_side, ingredients, bound", _EDGES.values(), ids=_EDGES)
def test_trace_bound_rescales_only_the_overflowing_entries(p_side, q_side, ingredients, bound):
    nd_pair = MomentPairND(MomentsND(*p_side), MomentsND(*q_side))
    assert (gap_norm_sq(nd_pair), *finite_traces(nd_pair)) == ingredients
    if isinstance(bound, Fraction):
        assert tv_lower_bound_nd(nd_pair) == pytest.approx(float(bound), rel=1e-15)
    else:
        assert tv_lower_bound_nd(nd_pair) == bound


def _correctly_rounded(value: float, exact: Fraction) -> bool:
    """Whether no float next to ``value`` lies nearer ``exact``."""
    error = abs(Fraction(value) - exact)
    return all(
        error <= abs(Fraction(math.nextafter(value, toward)) - exact)
        for toward in (-math.inf, math.inf)
    )


def test_gap_and_traces_are_correctly_rounded():
    # the exact sums, by Fraction, rounded once; a sum of rounded squares
    # is not correctly rounded on about a fifth of such vectors
    rng = np.random.default_rng(2600)
    for _ in range(2000):
        d = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-150, 150)
        means = rng.normal(size=(2, d)) * scale
        roots = rng.normal(size=(2, d, d)) * math.sqrt(scale)
        sides = [MomentsND(m, r @ r.T) for m, r in zip(means, roots)]
        nd_pair = MomentPairND(*sides)
        exact_gap = sum(
            (Fraction(p) - Fraction(q)) ** 2
            for p, q in zip(sides[0].mean, sides[1].mean)
        )
        assert _correctly_rounded(gap_norm_sq(nd_pair), exact_gap), means
        for side, trace in zip(sides, finite_traces(nd_pair)):
            exact_trace = sum(Fraction(row[i]) for i, row in enumerate(side.covariance))
            assert _correctly_rounded(trace, exact_trace), side


def test_batch_bound_equals_trace_bound_elementwise():
    # the randomized check's array arithmetic, halved, against the scalar
    # bound on the same trace sum, on ingredients of the check's scale and
    # shape, equal means included
    rng = np.random.default_rng(2601)
    for d in (1, 2, 3, 4):
        points = rng.normal(size=(500, d + 4, d))
        a = points[:, 0] - points[:, 1]
        a[::7] = 0.0
        gaps = np.einsum("ti,ti->t", a, a)
        trace_sums = np.einsum("tai,tai->t", points, points) * rng.uniform(0.0, 2.0, size=500)
        batch = _twice_trace_bound_batch(gaps, trace_sums)
        for got, gap_sq, trace_sum in zip(batch, gaps, trace_sums):
            want = trace_bound(float(gap_sq), float(trace_sum), 0.0)
            assert (0.5 * float(got)).hex() == want.hex()


# -------------------------------------------------------------- the records


def test_momentsnd_symmetrizes_roundoff():
    wobble = 1e-13
    m = MomentsND([0, 0], [[1.0, 0.5 + wobble], [0.5 - wobble, 1.0]])
    assert m.covariance[0][1].hex() == m.covariance[1][0].hex()
    assert m.trace == pytest.approx(2.0)


# the refusals that numpy decides; the others are rows of tests/test_refusals.py
@pytest.mark.parametrize(
    "bad, message",
    [
        # the Cholesky proof fails, and LAPACK's smallest eigenvalue is named
        ([[1.0, 2.0], [2.0, 1.0]], "covariance is not positive semidefinite (min eigenvalue -1)"),
        # an empty array keeps its trailing dimension, as numpy reads it
        (np.zeros((0, 2)), "covariance must have shape (2, 2), got (0, 2)"),
    ],
    ids=["indefinite", "empty-array"],
)
def test_momentsnd_refuses_with_the_exact_message(bad, message):
    with pytest.raises(ValueError) as raised:
        MomentsND([0.0, 0.0], bad)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_momentsnd_names_a_mean_nested_too_deeply_to_read():
    # built iteratively, deeper than the walk that reads it can recurse
    mean = [0.0]
    for _ in range(5000):
        mean = [mean]
    with pytest.raises(ValueError) as raised:
        MomentsND(mean, [[1.0]])
    assert type(raised.value) is ValueError
    assert str(raised.value) == "mean nests too deeply to read"


def _hex_rows(rows):
    """A matrix's entries as ``float.hex`` strings, row by row: equal only
    bit for bit, where ``==`` takes -0.0 for 0.0."""
    return tuple(tuple(float(x).hex() for x in row) for row in rows)


def test_asymmetry_is_refused_only_past_its_tolerance():
    at_tol = MomentsND([0.0, 0.0], [[1.0, 1e-10], [0.0, 1.0]])
    assert _hex_rows(at_tol.covariance) == _hex_rows([[1.0, 0.5e-10], [0.5e-10, 1.0]])
    past = float(np.nextafter(1e-10, 1.0))
    with pytest.raises(ValueError) as raised:
        MomentsND([0.0, 0.0], [[1.0, past], [0.0, 1.0]])
    assert str(raised.value) == "covariance is not symmetric within 1e-10"


def _reference_psd_rule(cov):
    """The PSD rule by eigenvalues alone, for one symmetric matrix: the
    symmetrized matrix, or the message naming its smallest eigenvalue.
    A sum past the float range is halved term by term."""
    with np.errstate(over="ignore"):
        sym = 0.5 * (cov + cov.T)
    sym = np.where(np.isinf(sym), 0.5 * cov + 0.5 * cov.T, sym)
    min_eig = np.linalg.eigvalsh(sym)[0]
    if min_eig < -COV_PSD_TOL * (1.0 + np.max(np.diagonal(sym))):
        return f"covariance is not positive semidefinite (min eigenvalue {min_eig:g})"
    return sym


def _assert_matches_reference_rule(cov):
    expected = _reference_psd_rule(cov)
    mean = np.zeros(cov.shape[0])
    if isinstance(expected, str):
        with pytest.raises(ValueError) as raised:
            MomentsND(mean, cov)
        assert str(raised.value) == expected
    else:
        assert _hex_rows(MomentsND(mean, cov).covariance) == _hex_rows(expected)


def _with_min_eigenvalue(rng, d, scale, k):
    """A d x d symmetric matrix of the given scale whose smallest
    eigenvalue is k times its PSD tolerance, up to round-off."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eig = rng.uniform(0.1, 1.0, size=d) * scale
    eig[0] = 0.0
    a = (q * eig) @ q.T
    a = 0.5 * (a + a.T)
    tol = COV_PSD_TOL * (1.0 + np.max(np.diag(a)))
    return a + (k * tol) * np.eye(d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
def test_psd_decisions_match_the_eigenvalue_rule(d):
    # smallest eigenvalues near -tol and -tol / 2, at every scale
    rng = np.random.default_rng(1100 + d)
    for k in (-3.0, -1.01, -1.0, -0.9999, -0.51, -0.5, -0.49, 0.0):
        for scale in (1e-150, 1e-50, 1e-5, 1.0, 1e5, 1e50, 1e150):
            for _ in range(3):
                good = [_with_min_eigenvalue(rng, d, scale, 1.0) for _ in range(4)]
                offender = _with_min_eigenvalue(rng, d, scale, k)
                for cov in good + [offender]:
                    _assert_matches_reference_rule(cov)
    # singular Gram matrices: fewer atoms than dimensions
    for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150):
        roots = rng.normal(size=(6, d - 1, d)) * math.sqrt(scale)
        for cov in np.swapaxes(roots, -1, -2) @ roots:
            _assert_matches_reference_rule(cov)


_MAX = np.finfo(float).max


@pytest.mark.parametrize(
    "top",
    [
        [[_MAX, 0.0], [0.0, 1.0]],
        [[_MAX, 1e300], [1e300, _MAX]],
        [[_MAX, _MAX], [_MAX, _MAX]],
        [[_MAX, -_MAX], [-_MAX, _MAX]],
        [[_MAX, _MAX], [_MAX, 0.0]],
        [[_MAX, 1e-300], [1e-300, 1e308]],
    ],
    ids=["diagonal", "near-diagonal", "singular", "singular-negative", "indefinite", "tiny-off"],
)
@pytest.mark.parametrize("d", [2, 4])
def test_float_maximum_diagonal_matches_the_eigenvalue_rule(top, d):
    # the symmetrizing sum of each such entry passes the float range, and
    # must not warn
    cov = np.zeros((d, d))
    cov[:2, :2] = top
    for matrix in (np.eye(d), cov):
        _assert_matches_reference_rule(matrix)


# the PSD tolerance at d = 1 is -1e-10 * (1 + c): the first entry below it
# and the last one above
_PAST_TOL_1X1 = -9.999999999000001e-11
_INSIDE_TOL_1X1 = -9.999999999e-11


@pytest.mark.parametrize(
    "entry",
    [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.0, 1e300, _MAX, _INSIDE_TOL_1X1, _PAST_TOL_1X1],
)
def test_one_by_one_matches_the_eigenvalue_rule(entry):
    cov = np.array([[entry]])
    _assert_matches_reference_rule(cov)
    # the 1x1 matrix is its own symmetrized average and eigenvalue, to the bit
    refused = entry < -COV_PSD_TOL * (1.0 + entry)
    assert refused == (entry == _PAST_TOL_1X1)
    if refused:
        with pytest.raises(ValueError) as raised:
            MomentsND([0.0], cov)
        assert str(raised.value) == (
            f"covariance is not positive semidefinite (min eigenvalue {entry:g})"
        )
    else:
        assert _hex_rows(MomentsND([0.0], cov).covariance) == ((entry.hex(),),)


@pytest.mark.parametrize("off", [5e-324, 0.0])
def test_an_overflowing_symmetric_sum_is_halved_term_by_term(off):
    # the diagonal's 1e308 + 1e308 passes the float range
    cov = [[1e308, off], [off, 1.0]]
    m = MomentsND([0.0, 1.0], cov)
    assert m.trace == 1e308
    # where the sum stays finite, subnormal entries are averaged as before
    # (halving 5e-324 first would round it to 0)
    assert _hex_rows(m.covariance) == _hex_rows(cov)
    bound = tv_lower_bound_nd(MomentPairND(m, MomentsND([0.0, 0.0], np.eye(2))))
    assert 0.0 <= bound < 1e-300


_STRINGS = ("1.5", " -2e3 ", "inf", "1e400", "abc", "")


def _scalar(rng):
    """One entry: mostly a float, int or numpy scalar, sometimes a 0-d
    array, a bool, a string or an int past the float range."""
    kind = rng.random()
    if kind < 0.45:
        return rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-300, 300)
    if kind < 0.6:
        return rng.randint(-(2**70), 2**70)
    if kind < 0.8:
        dtype = rng.choice((np.float64, np.float32, np.int64, np.float16))
        return dtype(rng.gauss(0.0, 100.0))
    if kind < 0.88:
        return np.array(rng.gauss(0.0, 1.0))
    if kind < 0.94:
        return rng.random() < 0.5
    if kind < 0.98:
        return rng.choice(_STRINGS)
    return rng.choice((1, -1)) * 10**400


def _nesting(rng, shape, ragged):
    """Nested lists, tuples, arrays and scalars of ``shape``.  With
    ``ragged``, one child of some level takes another length or depth."""
    if not shape:
        return _scalar(rng)
    if not ragged and rng.random() < 0.15:
        dtype = rng.choice((np.float64, np.float32, np.int64))
        return np.random.default_rng(rng.randrange(2**32)).normal(size=shape).astype(dtype)
    sub = shape[1:]
    odd = rng.randrange(shape[0]) if ragged and shape[0] else None
    deeper = odd is not None and rng.random() < 0.5
    items = [_nesting(rng, sub, deeper and i == odd) for i in range(shape[0])]
    if odd is not None and not deeper:
        other = rng.choice((sub + (rng.randint(0, 2),), sub[:-1], sub[:-1] + (rng.randint(0, 3),)))
        items[odd] = _nesting(rng, other, False)
    return items if rng.random() < 0.5 else tuple(items)


def test_the_reader_matches_numpy_array_of_dtype_float():
    # MomentsND reads a field as numpy.array(field, dtype=float) would: the
    # same entries, bit for bit, and shape, the named ragged refusal where
    # numpy reports an inhomogeneous shape, and the same exception type
    # where an entry does not convert
    rng = random.Random(2700)
    outcomes = set()
    for _ in range(4000):
        depth = rng.choice((0, 1, 2, 2, 3, 5))
        shape = tuple(rng.choice((0, 1, 1, 2, 2, 3, 3)) for _ in range(depth))
        value = _nesting(rng, shape, rng.random() < 0.35)
        try:
            want = np.array(value, dtype=float)
        except (ValueError, OverflowError) as exc:
            want = exc
        if isinstance(want, np.ndarray):
            entries, got_shape = _floats(value, "field")
            assert got_shape == want.shape
            assert [x.hex() for x in entries] == [float(x).hex() for x in want.ravel()]
            outcomes.add("read")
            continue
        ragged = "inhomogeneous" in str(want)
        with pytest.raises(type(want)) as raised:
            _floats(value, "field")
        assert type(raised.value) is type(want)
        if ragged:
            assert str(raised.value) == (
                "field is ragged: its nested lists differ in length or depth"
            )
        outcomes.add("ragged" if ragged else type(want).__name__)
    assert outcomes == {"read", "ragged", "ValueError", "OverflowError"}
    # the README's one documented difference: numpy reads None as nan
    assert math.isnan(np.array([[1.0, None]], dtype=float)[0, 1])
    with pytest.raises(TypeError):
        _floats([[1.0, None]], "field")


# ----------------------------------------------------- the randomized check


def test_nd_check_takes_whole_counts_of_any_numeric_type(monkeypatch):
    want = check_nd_bound_random(2, 6, 40, 3)
    # in a batch at the limit; one draw more is the refusal row
    # nd-check-batch-past-the-limit
    monkeypatch.setattr(nd, "ND_CHECK_MAX_DRAWS", 2 * 6 * 40)
    assert check_nd_bound_random(2.0, np.int64(6), np.float64(40.0), 3.0) == want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nd_check_computes_no_eigenvalues_on_certified_stacks(monkeypatch, d):
    # the check reads traces of its own draws and forms no covariance
    # matrix: nothing factors one or computes its eigenvalues, and 1,000
    # trials at the default tolerance find no violation
    def refuse(*args, **kwargs):
        raise AssertionError("the n-d check validated a covariance matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    assert check_nd_bound_random(d, d + 4, 1000, 70 + d) == 0


#: ``ND_CHECK_TOL`` -> the check's counts on the sweep below: each (d, atoms)
#: row's total over the seeds, in sweep order, and the sha256 of every count.
_ND_SWEEP_COUNTS = {
    1e-10: (
        [0] * 28,
        "663e95f263c1faa8e2139394d7a0e08b9ad8a4e6d35f6509d3fbf15dfcd62e23",
    ),
    -0.05: (
        [92, 19, 2, 1, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0]
        + [1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        "f9ebb708915bd6cb33756b394ef2d4f25e8203aedc54d3227bd4d77a012fd3bd",
    ),
    -0.3: (
        [4012, 3015, 2262, 1757, 1354, 1043, 825, 2850, 2104, 1677, 1197, 977, 755, 589]
        + [2040, 1522, 1219, 939, 755, 552, 471, 1526, 1100, 882, 726, 565, 496, 355],
        "037be393bc9b27ea7000caf8e00097e9404645d1a55a34bac4fbce1126335f36",
    ),
}


@pytest.mark.parametrize("tol", sorted(_ND_SWEEP_COUNTS))
def test_nd_check_counts_on_a_seeded_sweep(tol, monkeypatch):
    """The check's decisions on a seeded sweep: ``check_nd_bound_random(d,
    atoms, 200, seed)`` for d = 1..4, atoms d + 2 to d + 8 and seeds 0..29.

    The counts were taken from the check as it stood when it still formed
    each trial's covariance matrices and halved the TV, so they pin every
    decision across the rewrite to one weighted pass and one comparison.
    At -0.05 a few trials in a thousand sit near the slack, so a change to
    the arithmetic that moves a decision moves a count."""
    monkeypatch.setattr(nd, "ND_CHECK_TOL", tol)
    counts = [
        [check_nd_bound_random(d, atoms, 200, seed) for seed in range(30)]
        for d in range(1, 5)
        for atoms in range(d + 2, d + 9)
    ]
    totals, digest = _ND_SWEEP_COUNTS[tol]
    assert [sum(row) for row in counts] == totals
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest


def _loop_margins(d, atoms, trials, seed):
    """tv - bound for every trial, the way one trial at a time works it out:
    a validated ``MomentsND`` per side and ``tv_lower_bound_nd``, on the
    draws ``check_nd_bound_random`` makes for the same arguments."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(trials, atoms, d))
    pw = rng.dirichlet(np.ones(atoms), size=trials)
    qw = rng.dirichlet(np.ones(atoms), size=trials)
    margins = []
    for X, p, q in zip(points, pw, qw):
        tv = 0.5 * float(np.abs(p - q).sum())
        mean_p, mean_q = p @ X, q @ X
        cp = (X - mean_p).T @ ((X - mean_p) * p[:, None])
        cq = (X - mean_q).T @ ((X - mean_q) * q[:, None])
        pair_nd = MomentPairND(MomentsND(mean_p, cp), MomentsND(mean_q, cq))
        margins.append(tv - tv_lower_bound_nd(pair_nd))
    return margins


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("extra_atoms", [2, 4, 8])
@pytest.mark.parametrize("seed", [5, 77, 2026, 4242])
def test_nd_check_agrees_with_per_trial_loop(d, extra_atoms, seed, monkeypatch):
    # the loop draws each side's weights with a call of its own, so equal
    # counts pin the batch's one draw to the p side first, at any shape
    atoms, tol = d + extra_atoms, nd.ND_CHECK_TOL
    for trials in (120, 1):
        loop = _loop_margins(d, atoms, trials, seed)
        monkeypatch.setattr(nd, "ND_CHECK_TOL", tol)
        violations = sum(m < -tol for m in loop)
        assert check_nd_bound_random(d, atoms, trials, seed) == violations
        # the lowest margin agrees to 1e-12: no trial sits further below it,
        # and one sits within 1e-12 of it
        lowest = min(loop)
        monkeypatch.setattr(nd, "ND_CHECK_TOL", -(lowest - 1e-12))
        assert check_nd_bound_random(d, atoms, trials, seed) == 0
        monkeypatch.setattr(nd, "ND_CHECK_TOL", -(lowest + 1e-12))
        assert check_nd_bound_random(d, atoms, trials, seed) >= 1
        # a tolerance of -1 makes every trial a violation, so the counter
        # is live
        monkeypatch.setattr(nd, "ND_CHECK_TOL", -1.0)
        assert check_nd_bound_random(d, atoms, trials, seed) == trials
