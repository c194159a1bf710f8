"""Discrete distribution carrier: construction, moments, TV, serialization."""

import json
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbounds import DiscreteDist, Moments1D, check_moments, tv_distance
from tvbounds.discrete import PROB_SUM_TOL, SUPPORT_MERGE_REL

from conftest import ref_moments


# ------------------------------------------------------------- construction


def test_atoms_are_sorted():
    d = DiscreteDist((3.0, -1.0, 0.5), (0.2, 0.5, 0.3))
    assert d.support == (-1.0, 0.5, 3.0)
    assert d.probs == (0.5, 0.3, 0.2)


def test_duplicate_points_merge_by_summing():
    d = DiscreteDist((1.0, 1.0, 2.0), (0.25, 0.35, 0.4))
    assert d.support == (1.0, 2.0)
    assert d.probs == (0.6, 0.4)


def test_nearby_points_merge_within_tolerance():
    x = 1.0
    d = DiscreteDist((x, x + 1e-15, 2.0), (0.3, 0.3, 0.4))
    assert len(d) == 2


def test_zero_probabilities_are_retained():
    d = DiscreteDist((0.0, 1.0, 2.0), (0.5, 0.0, 0.5))
    assert d.probs == (0.5, 0.0, 0.5)
    assert d.compact().support == (0.0, 2.0)
    assert d.compact().probs == (0.5, 0.5)


@pytest.mark.parametrize(
    "support,probs",
    [
        ((0.0, 1.0), (0.5, 0.6)),  # sums to 1.1
        ((0.0, 1.0), (-0.1, 1.1)),  # negative mass
        ((0.0,), (0.5,)),  # sums to 0.5
        ((0.0, 1.0), (1.0,)),  # length mismatch
        ((), ()),  # empty
        ((math.nan, 1.0), (0.5, 0.5)),  # non-finite point
        ((0.0, 1.0), (math.inf, 1.0)),  # non-finite mass
    ],
)
def test_invalid_inputs_rejected(support, probs):
    with pytest.raises(ValueError):
        DiscreteDist(support, probs)


def test_delta():
    d = DiscreteDist.delta(3.0)
    assert d.support == (3.0,)
    assert d.probs == (1.0,)


# ------------------------------------------------------------------ moments


def test_moments_point_mass():
    m = DiscreteDist.delta(3.0).moments()
    assert (m.mean, m.variance) == (3.0, 0.0)


def test_moments_tight_witness_marginal():
    # hand-checkable: 0.8 * 0.5 + 0.2 * 3 = 1, 0.8 * 0.25 + 0.2 * 4 = 1
    m = DiscreteDist((0.5, 3.0), (0.8, 0.2)).moments()
    assert m.mean == pytest.approx(1.0, abs=1e-15)
    assert m.variance == pytest.approx(1.0, abs=1e-15)


def test_moments_symmetric_two_point():
    m = DiscreteDist((-1.0, 1.0), (0.5, 0.5)).moments()
    assert (m.mean, m.variance) == (0.0, 1.0)


def test_moments_wide_support_accuracy():
    # mass 5e-13 parked at +-1e6 contributes exactly unit variance; the
    # compensated sums must keep the error far below the 1e-9 gate
    w = 5e-13
    d = DiscreteDist((-1e6, 0.0, 1e6), (w, 1.0 - 2.0 * w, w))
    m = d.moments()
    assert m.mean == pytest.approx(0.0, abs=1e-12)
    assert m.variance == pytest.approx(1.0, rel=1e-12)
    assert check_moments(d, Moments1D(0.0, 1.0), 1e-9)


@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(0.01, 1.0)),
        min_size=1,
        max_size=8,
    ),
    st.floats(-50, 50),
)
@settings(deadline=None)
def test_moments_translation_equivariance(atoms, shift):
    total = sum(w for _, w in atoms)
    support = tuple(x for x, _ in atoms)
    probs = tuple(w / total for _, w in atoms)
    base = DiscreteDist(support, probs)
    moved = DiscreteDist(tuple(x + shift for x in base.support), base.probs)
    if len(moved) != len(base):
        return  # the shift merged nearby atoms; moments no longer comparable
    got_base = base.moments()
    got_moved = moved.moments()
    assert got_moved.mean == pytest.approx(got_base.mean + shift, abs=1e-10)
    assert got_moved.variance == pytest.approx(
        got_base.variance, rel=1e-10, abs=1e-10
    )


def test_moments_agree_with_reference():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = rng.integers(1, 9)
        support = np.sort(rng.uniform(-50, 50, size=n))
        support = support[np.concatenate(([True], np.diff(support) > 1e-6))]
        w = rng.dirichlet(np.ones(support.size))
        d = DiscreteDist(tuple(support), tuple(w))
        mean_ref, var_ref = ref_moments(d.support, d.probs)
        m = d.moments()
        assert m.mean == pytest.approx(mean_ref, abs=1e-11)
        assert m.variance == pytest.approx(var_ref, rel=1e-9, abs=1e-11)


# ----------------------------------------------------------------------- tv


def test_tv_identical_is_exactly_zero():
    d = DiscreteDist((0.0, 1.0, 2.5), (0.2, 0.3, 0.5))
    assert tv_distance(d, d) == 0.0


def test_tv_disjoint_supports():
    p = DiscreteDist((0.0, 1.0), (0.5, 0.5))
    q = DiscreteDist((5.0, 6.0), (0.5, 0.5))
    assert tv_distance(p, q) == 1.0


def test_tv_tight_witness_value():
    p = DiscreteDist((0.5, 3.0), (0.8, 0.2))
    q = DiscreteDist((0.5, -2.0), (0.8, 0.2))
    assert tv_distance(p, q) == pytest.approx(0.2, abs=1e-15)


def test_tv_symmetry_and_triangle():
    rng = np.random.default_rng(17)
    grid = tuple(np.linspace(-2, 2, 9))
    for _ in range(200):
        dists = [
            DiscreteDist(grid, tuple(rng.dirichlet(np.ones(len(grid)))))
            for _ in range(3)
        ]
        d01 = tv_distance(dists[0], dists[1])
        d10 = tv_distance(dists[1], dists[0])
        assert d01 == d10
        assert 0.0 <= d01 <= 1.0
        d02 = tv_distance(dists[0], dists[2])
        d12 = tv_distance(dists[1], dists[2])
        assert d01 <= d02 + d12 + 1e-15


def test_tv_identifies_nearby_support_points():
    p = DiscreteDist((0.0, 1.0), (0.5, 0.5))
    q = DiscreteDist((0.0, 1.0 + 1e-15), (0.5, 0.5))
    assert tv_distance(p, q) == 0.0


# ------------------------------------------------------------ check_moments


def test_check_moments_examples():
    witness_p = DiscreteDist((0.5, 3.0), (0.8, 0.2))
    assert check_moments(witness_p, Moments1D(1.0, 1.0), 1e-9)
    assert not check_moments(DiscreteDist.delta(0.0), Moments1D(0.0, 1.0), 1e-9)
    assert check_moments(DiscreteDist.delta(0.0), Moments1D(0.0, 0.0), 1e-9)


def test_overflowing_variance_is_inf_and_fails_the_check():
    dist = DiscreteDist((-1e200, 1e200), (0.5, 0.5))
    assert dist.moments().variance == math.inf
    assert not check_moments(dist, Moments1D(0.0, 1.0), 1e-9)
    wide = DiscreteDist((-1.3e154, 1.5e154), (0.5, 0.5))
    assert wide.moments().variance == math.inf
    assert not check_moments(wide, Moments1D(1e153, 1.3e154), 1e-9)
    # every p * d * d is finite but their sum is not, where math.fsum
    # raises OverflowError: the probabilities sum to 1 + 8e-13
    edge = DiscreteDist((-1.34078079299425e154, 1.34078079299425e154), (0.5 + 4e-13,) * 2)
    assert edge.moments().variance == math.inf
    assert not check_moments(edge, Moments1D(0.0, 1.3e154), 1e-9)


def test_zero_mass_atom_adds_nothing_to_the_variance():
    # its squared deviation overflows, and 0 * inf would be nan
    assert DiscreteDist((0.0, 1e200), (1.0, 0.0)).moments() == (0.0, 0.0)
    assert DiscreteDist((-1e308, 1e308), (1.0, 0.0)).moments() == (-1e308, 0.0)


def test_check_moments_requires_positive_tol():
    # nan would read as a moment mismatch and inf would accept any atoms
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            check_moments(DiscreteDist.delta(0.0), Moments1D(0.0, 0.0), tol)


# ------------------------------------------------------------ serialization


def test_json_round_trip():
    d = DiscreteDist((-2.0, 0.5, 3.0), (0.2, 0.8, 0.0))
    again = DiscreteDist.from_json(d.to_json())
    assert again == d


def test_json_round_trip_preserves_every_bit():
    d = DiscreteDist(
        (-1 / 3, 2 / 7, math.sqrt(2)), (0.1 + 0.2, 1 / 7, 1.0 - 0.1 - 0.2 - 1 / 7)
    )
    again = DiscreteDist.from_json(d.to_json())
    assert all(a == b for a, b in zip(again.support, d.support))
    assert all(a == b for a, b in zip(again.probs, d.probs))


def test_json_shape_and_determinism():
    d = DiscreteDist((0.0, 2.0), (0.5, 0.5))
    payload = json.loads(d.to_json())
    assert list(payload.keys()) == ["support", "probs"]
    assert d.to_json() == d.to_json()


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"support": ["1", "2"], "probs": [0.5, 0.5]}', "support holds '1', not a number"),
        ('{"support": [1, 2], "probs": [true, 0]}', "probs holds True, not a number"),
        ('{"support": [0, null], "probs": [0.5, 0.5]}', "support holds None, not a number"),
        ('{"support": [0, 1], "probs": ["0.5", 0.5]}', "probs holds '0.5', not a number"),
        (
            '{"support": [1' + "0" * 400 + '], "probs": [1]}',
            "support holds an integer of 1329 bits, past the float range",
        ),
        (
            '{"support": [0, 1], "probs": [-1' + "0" * 400 + ', 0.5]}',
            "probs holds an integer of 1329 bits, past the float range",
        ),
        # a malformed shape is refused by its field too
        ("{}", "a distribution needs the field 'support'"),
        ('{"support": [0.0]}', "a distribution needs the field 'probs'"),
        ("[1, 2]", "a distribution must be a JSON object, got list"),
        ('{"support": 5, "probs": 1}', "support must be a list, got int"),
        ('{"support": [0.0], "probs": {"0": 1}}', "probs must be a list, got dict"),
        # past the recursion limit, where the parser gives up
        (
            '{"support": ' + "[" * 100_000 + "]" * 100_000 + ', "probs": [1]}',
            "a distribution's JSON nests too deeply to read",
        ),
    ],
    ids=[
        "string", "boolean", "null", "string-mass", "huge-integer", "huge-integer-mass",
        "empty-object", "no-probs", "array", "number-fields", "object-probs", "deep-nesting",
    ],
)
def test_json_refuses_what_is_not_a_json_number(text, message):
    with pytest.raises(ValueError) as info:
        DiscreteDist.from_json(text)
    assert str(info.value) == message


def test_json_refuses_a_parsed_nesting_too_deep_to_read(monkeypatch):
    # a parser that returns a nesting deeper than the recursion limit, as
    # Python 3.12+'s can: the refusal's repr of the field meets the limit
    deep = [1.0]
    for _ in range(5000):
        deep = [deep]
    monkeypatch.setattr(json, "loads", lambda text: {"support": deep, "probs": [1.0]})
    with pytest.raises(ValueError, match="^a distribution's JSON nests too deeply to read$"):
        DiscreteDist.from_json("{}")


# --------------------------------------------- reference: the parent's layer
#
# The constructor's merge, the moments, the TV and the moment check as they
# stood before the layer was tuned for speed.  The tuned code must agree
# with them bit for bit, and raise the same exception with the same message.


def _ref_dist(support, probs):
    support = [float(x) for x in support]
    probs = [float(p) for p in probs]
    if len(support) != len(probs):
        raise ValueError(f"support has {len(support)} points but probs has {len(probs)}")
    if not support:
        raise ValueError("a distribution needs at least one atom")
    for x in support:
        if not math.isfinite(x):
            raise ValueError(f"support point {x!r} is not finite")
    for p in probs:
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"probability {p!r} is not finite and non-negative")
    order = sorted(range(len(support)), key=support.__getitem__)
    tol = SUPPORT_MERGE_REL * (1.0 + max(map(abs, support)))
    merged_x: list[float] = []
    merged_p: list[float] = []
    for idx in order:
        x = support[idx]
        if merged_x and x - merged_x[-1] <= tol:
            merged_p[-1] += probs[idx]
        else:
            merged_x.append(x)
            merged_p.append(probs[idx])
    total = math.fsum(merged_p)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return tuple(merged_x), tuple(merged_p)


def _ref_moments(support, probs):
    mean = math.fsum(map(operator.mul, probs, support))
    deviations = [x - mean if p else 0.0 for x, p in zip(support, probs)]
    try:
        variance = math.fsum(map(operator.mul, probs, map(operator.mul, deviations, deviations)))
    except OverflowError:
        variance = math.inf
    return mean, variance


def _ref_tv(p, q):
    (p_x, p_w), (q_x, q_w) = p, q
    tol = SUPPORT_MERGE_REL * (1.0 + max(map(abs, (p_x[0], p_x[-1], q_x[0], q_x[-1]))))
    terms: list[float] = []
    i = j = 0
    while i < len(p_x) or j < len(q_x):
        if j >= len(q_x) or (i < len(p_x) and p_x[i] < q_x[j] - tol):
            terms.append(p_w[i])
            i += 1
        elif i >= len(p_x) or q_x[j] < p_x[i] - tol:
            terms.append(q_w[j])
            j += 1
        else:
            terms.append(abs(p_w[i] - q_w[j]))
            i += 1
            j += 1
    return min(1.0, 0.5 * math.fsum(terms))


def _ref_check(dist, target, tol):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    mean, variance = _ref_moments(*dist)
    return (
        abs(mean - target.mean) <= tol * (1.0 + abs(target.mean))
        and abs(variance - target.variance) <= tol * (1.0 + target.variance)
    )


def _outcome(fn, *args):
    # repr tells -0.0 from 0.0 and compares nan with itself
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return repr((type(exc), str(exc)))


def _atoms(rng, n):
    """``n`` raw atoms: unsorted points at one magnitude from 1e-300 to
    1e300, with exact duplicates, clusters inside the merge tolerance and
    zero masses, and masses normalized to sum to about 1."""
    scale = 10.0 ** rng.randint(-300, 300)
    support: list[float] = []
    for _ in range(n):
        kind = rng.random()
        if support and kind < 0.2:
            support.append(rng.choice(support))
        elif support and kind < 0.45:
            # the merge tolerance is 1e-12 (1 + max |x|)
            near = rng.choice(support)
            support.append(near + rng.uniform(-2e-12, 2e-12) * (1.0 + abs(near)))
        else:
            support.append(scale * rng.uniform(-10.0, 10.0))
    weights = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(n)]
    total = math.fsum(weights) or 1.0
    probs = [w / total for w in weights]
    if not any(probs):
        probs[rng.randrange(n)] = 1.0
    return support, probs


def _spoil(rng, support, probs):
    # entries non-finite or negative, or a length or a total out of range
    kind = rng.randrange(7)
    bad = rng.choice((math.nan, math.inf, -math.inf, -1e-300, -0.5))
    if kind == 0:
        support[rng.randrange(len(support))] = bad
    elif kind == 1:
        probs[rng.randrange(len(probs))] = bad
    elif kind == 2:
        probs.append(0.0)
    elif kind == 3:
        probs[rng.randrange(len(probs))] += 1e-9
    elif kind == 4:
        # two offenders: the first one is named
        probs[0], probs[-1] = -1.0, math.nan
    elif kind == 5:
        support[0], support[-1] = math.nan, -math.inf
    else:
        support[:], probs[:] = [], []


def _at_the_tolerance(rng):
    """(base, x) whose distance is exactly the merge tolerance of the two,
    from a seeded search; such points merge."""
    while True:
        base = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
        x = base + SUPPORT_MERGE_REL * (1.0 + abs(base))
        for _ in range(200):
            tol = SUPPORT_MERGE_REL * (1.0 + max(abs(base), abs(x)))
            if x - base == tol:
                return base, x
            x = math.nextafter(x, math.inf if x - base < tol else -math.inf)


def _merged(support, probs):
    dist = DiscreteDist(support, probs)
    return dist.support, dist.probs


def assert_layer_bit_identical(p_atoms, q_atoms):
    """Construction, moments, TV and moment checks agree with the reference,
    outcomes and error messages included."""
    built = []
    for atoms in (p_atoms, q_atoms):
        got = _outcome(_merged, *atoms)
        assert got == _outcome(_ref_dist, *atoms)
        if got.startswith("(<class"):
            return
        built.append((DiscreteDist(*atoms), _ref_dist(*atoms)))
    for dist, ref in built:
        assert repr(tuple(dist.moments())) == repr(_ref_moments(*ref))
        mean, variance = _ref_moments(*ref)
        targets = [Moments1D(0.0, 1.0)]
        if math.isfinite(variance):
            sd = math.sqrt(variance)
            targets += [
                Moments1D(mean, sd),
                Moments1D(mean * (1.0 + 1e-9), sd),
                Moments1D(mean + 1e-9, sd * (1.0 - 1e-9)),
            ]
        for target in targets:
            for tol in (1e-12, 1e-9, 1e-6, 0.0, math.nan):
                got = _outcome(check_moments, dist, target, tol)
                assert got == _outcome(_ref_check, ref, target, tol)
    (p, p_ref), (q, q_ref) = built
    assert repr(tv_distance(p, q)) == repr(_ref_tv(p_ref, q_ref))
    assert repr(tv_distance(q, p)) == repr(_ref_tv(q_ref, p_ref))


def test_discrete_layer_matches_the_reference_on_seeded_atoms():
    rng = random.Random(1818)
    for case in range(3000):
        n = rng.randint(1, 8)
        p_atoms = _atoms(rng, n)
        if case % 3 == 0:
            # a shared support, the witnesses' case, with other masses
            q_atoms = (list(p_atoms[0]), _atoms(rng, n)[1])
        elif case % 3 == 1:
            # supports that share some points
            other = _atoms(rng, n)
            q_atoms = (p_atoms[0][: n // 2] + other[0][n // 2 :], other[1])
        else:
            q_atoms = _atoms(rng, rng.randint(1, 8))
        if case % 5 == 0:
            _spoil(rng, *(p_atoms if case % 2 else q_atoms))
        assert_layer_bit_identical(p_atoms, q_atoms)
    for _ in range(8):
        base, x = _at_the_tolerance(rng)
        assert_layer_bit_identical(([x, base], [0.25, 0.75]), ([base, x + 1.0], [0.5, 0.5]))


_magnitudes = st.floats(-1e300, 1e300) | st.floats(-1e-290, 1e-290) | st.sampled_from(
    [0.0, -0.0, 1e-300, -1e300, math.nan, math.inf]
)


@st.composite
def _hypothesis_atoms(draw):
    """1 to 8 atoms at magnitudes from 1e-300 to 1e300, unsorted."""
    support = draw(st.lists(_magnitudes, min_size=1, max_size=5))
    # exact duplicates and points inside the merge tolerance of another
    for _ in range(draw(st.integers(0, 3))):
        near = draw(st.sampled_from(support))
        if math.isfinite(near):
            step = draw(st.sampled_from([0.0, 1e-13, -5e-13, 9e-13]))
            support.append(near + step * (1.0 + abs(near)))
    weights = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0),
            min_size=len(support),
            max_size=len(support),
        )
    )
    total = math.fsum(weights) or 1.0
    probs = [w / total for w in weights]
    if draw(st.booleans()) and draw(st.booleans()):
        probs[draw(st.integers(0, len(probs) - 1))] = draw(
            st.sampled_from([-1e-300, -0.25, math.nan, math.inf])
        )
    return support, probs


@given(_hypothesis_atoms(), _hypothesis_atoms(), st.booleans())
@settings(deadline=None, max_examples=300)
def test_discrete_layer_matches_the_reference_on_hypothesis_atoms(p_atoms, q_atoms, share):
    if share:
        q_atoms = (list(p_atoms[0]), list(reversed(p_atoms[1])))
    assert_layer_bit_identical(p_atoms, q_atoms)
