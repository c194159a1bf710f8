"""Discrete distribution carrier: construction, moments, TV, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbounds import DiscreteDist, Moments1D, check_moments, tv_distance

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
