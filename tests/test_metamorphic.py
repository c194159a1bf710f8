"""Metamorphic relations: the symmetries of TV as tests across the pipeline.

TV is invariant under swapping the two sides, under x -> -x and under a
common scale.  Swap, negation and scaling by a power of two are exact in
floats, so the closed forms must keep them exactly, a constructor must
build on both sides of a map or refuse on both with the same error type,
and ``verify`` must give both sides the same verdict.  In d dimensions the
trace bound keeps swap, coordinate sign flips, power-of-two scaling and
coordinate permutations bit for bit.  The relations that fail today are
strict xfails that name the defect; the change that mends one removes its
marker.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tvbounds import (
    MomentPair1D,
    bound_report,
    construct_anchored_witness,
    construct_tight_witness,
    construct_two_point,
    construct_vanishing_sequence,
)
from tvbounds.cli import RunConfig, run
from tvbounds.errors import TVBoundError
from tvbounds.nd import MomentPairND, MomentsND, tv_lower_bound_nd

from domain import GRID, draws, pairs, sample

SCALES = {"scale_2^20": 2.0**20, "scale_2^-20": 2.0**-20}
#: Each map takes and returns (mean_p, sd_p, mean_q, sd_q).
MAPS = {
    "swap": lambda mp, sp, mq, sq: (mq, sq, mp, sp),
    "negate": lambda mp, sp, mq, sq: (-mp, sp, -mq, sq),
    **{name: lambda *x, c=c: tuple(v * c for v in x) for name, c in SCALES.items()},
}


#: Spreads 10^-6.5 to 10^6.5, offsets to 1e9.5 spreads, gap ratios 1e-4 to 100
#: and stddev ratios 1/40 to 40, any zero side and equal means 5%.
SWEEP = draws(11, 3000, scale=(-6.5, 6.5), offset=(0, 9.5), gap=(-4, 2), ratio=(-1.6, 1.6))
# the constructors cost about 20 times a bound report, so they see a prefix
CONSTRUCTOR_SWEEP = SWEEP[:400]


def report_of(x) -> dict:
    return bound_report(MomentPair1D.from_scalars(*x))._asdict()


def mapped_report(report: dict, name: str, x) -> dict:
    """``report`` of the pair ``x`` as the report of ``MAPS[name](x)``
    must read, field by field."""
    out = dict(report)
    if name in SCALES:
        out["gap_a"] = report["gap_a"] * SCALES[name]
        out["radical_v"] = report["radical_v"] * SCALES[name] ** 2
        return out
    out["gap_a"] = -report["gap_a"]
    if name == "swap":
        out["anchored_p_tv"] = report["anchored_q_tv"]
        out["anchored_q_tv"] = report["anchored_p_tv"]
    elif report["sibling_branch_valid"] is not None:
        # the branch needs the gap and the stddev gap of opposite signs,
        # and negation flips the sign of the gap alone
        out["sibling_branch_valid"] = x[1] != x[3] and not report["sibling_branch_valid"]
    return out


def outcome(construct, *args) -> str:
    """``"built"``, or the name of the error type the constructor raised."""
    try:
        construct(*args)
    except Exception as exc:
        return type(exc).__name__
    return "built"


def constructor_outcomes(x, k: int) -> dict:
    mp, sp, mq, sq = x
    pair = MomentPair1D.from_scalars(*x)
    return {
        "tight": outcome(construct_tight_witness, pair),
        "two-point": outcome(construct_two_point, pair),
        "anchored": outcome(construct_anchored_witness, pair),
        # the midpoint of the means maps exactly under all four maps
        "sequence": outcome(construct_vanishing_sequence, 0.5 * (mp + mq), sp, sq, k),
    }


#: The constructors each map must leave alone.  The anchored witness keeps
#: its exclusive atom on the p side, so it has no swapped twin.
EXACT_CONSTRUCTORS = {
    "swap": ("tight", "two-point", "sequence"),
    "negate": ("tight", "two-point", "anchored", "sequence"),
}


def outcome_breaks(name: str, constructors, pairs) -> list:
    breaks = []
    for i, x in enumerate(pairs):
        k = 2 + i % 1000
        before = constructor_outcomes(x, k)
        after = constructor_outcomes(MAPS[name](*x), k)
        breaks += [(c, x, before[c], after[c]) for c in constructors if before[c] != after[c]]
    return breaks


# ------------------------------------------------------------ closed forms


@pytest.mark.parametrize("name", MAPS)
def test_bound_report_is_bit_exact_under_the_map(name):
    for x in SWEEP:
        report = report_of(x)
        assert report_of(MAPS[name](*x)) == mapped_report(report, name, x), x


@pytest.mark.parametrize("name", MAPS)
@given(pairs(scale=(-324, 100.3), offset=(0, 308), gap=(-324, 200.3), ratio=(-200, 200)))
@example(x=(0.0, 0.0, 0.0, 0.0))
@settings(deadline=None, max_examples=30)
def test_bound_report_is_bit_exact_under_the_map_property(name, x):
    # 0 or a magnitude in [1e-100, 1e100]: every report field, of degree at
    # most 2 in the inputs, stays normal at 2^+-20; swap and negation are
    # exact at any magnitude, so they keep subnormal inputs too
    least = 1e-100 if name in SCALES else 0.0
    assume(all(v == 0.0 or least <= abs(v) <= 1e100 for v in x))
    assert report_of(MAPS[name](*x)) == mapped_report(report_of(x), name, x)


# ------------------------------------------------------------ constructors


@pytest.mark.parametrize("name", EXACT_CONSTRUCTORS)
def test_constructors_build_or_refuse_alike_under_the_map(name):
    assert outcome_breaks(name, EXACT_CONSTRUCTORS[name], CONSTRUCTOR_SWEEP) == []


def anchored_atoms_may_merge(x) -> bool:
    # with equal stddevs the exclusive atom sits about |gap| / 2 from a
    # shared one; below the merge tolerance the pair breaks negation
    # (test_known_break, anchored-equal-stddevs)
    mp, sp, mq, sq = x
    return sp == sq and abs(mp - mq) < 1e-10 * (1.0 + abs(mp) + abs(mq) + sp)


@pytest.mark.parametrize("name", EXACT_CONSTRUCTORS)
@given(
    # spreads from 5e-8, and any gap between two point masses
    st.one_of(
        pairs(scale=(-7.4, 6.61), offset=(0, 10.4), gap=(-324, 1.9), ratio=(-1.6, 1.6), zero=("none", "p", "q")),
        pairs(scale=(-324, 6.61), zero=("both",)),
    ),
    st.integers(2, 10**6),
)
@settings(deadline=None, max_examples=30)
def test_constructors_build_or_refuse_alike_under_the_map_property(name, x, k):
    before = constructor_outcomes(x, k)
    after = constructor_outcomes(MAPS[name](*x), k)
    for c in EXACT_CONSTRUCTORS[name]:
        if c == "anchored" and anchored_atoms_may_merge(x):
            continue
        assert before[c] == after[c], (c, x)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="FOUND: witnesses refuse after 2^+-20 scaling at large "
    "offset-to-spread ratios, on the 1 + |x| floors (ROADMAP item 3)",
)
@pytest.mark.parametrize("name", SCALES)
def test_constructors_build_or_refuse_alike_under_scaling(name):
    constructors = ("tight", "two-point", "anchored", "sequence")
    assert outcome_breaks(name, constructors, CONSTRUCTOR_SWEEP) == []


def known_break(id, name, constructor, x, reason):
    marks = pytest.mark.xfail(raises=AssertionError, reason=reason)
    return pytest.param(name, constructor, x, id=id, marks=marks)


#: Single pairs on which a constructor broke a map that is exact in
#: floats; each one still broken is a strict xfail that names its defect.
KNOWN_BREAKS = [
    # mended: a subnormal p stddev leaves the p side's small mass at 0, and
    # the q side places the atoms, as in the swapped pair
    pytest.param("swap", "two-point", (1.0, 5e-324, 0.0, 1.0), id="two-point-subnormal-stddev"),
    known_break(
        "anchored-equal-stddevs", "negate", "anchored", (0.0, 29804.0, 2.0**-24, 29804.0),
        "FOUND: the exclusive atom lies within the merge tolerance of a "
        "shared atom, and the merge keeps the lower of the two",
    ),
    known_break(
        "tight-stddev-ratio-1e12", "swap", "tight", (1e6, 1e6, 0.0, 1e-6),
        "FOUND: two atoms lie within the merge tolerance, and the merge "
        "keeps the lower of the two",
    ),
]


@pytest.mark.parametrize("name, constructor, x", KNOWN_BREAKS)
def test_known_break(name, constructor, x):
    before = constructor_outcomes(x, 2)[constructor]
    assert constructor_outcomes(MAPS[name](*x), 2)[constructor] == before


# ------------------------------------------------------------------ verify


#: Ordinary pairs near unit scale, many with a point-mass side, each in a
#: grid mode drawn at random.
_rng = random.Random(2026)
VERIFY_CASES = [(sample(_rng, GRID), _rng.random() < 0.5) for _ in range(400)]


def verdict(x, include_witness: bool) -> str:
    """The ``verify`` verdict, or the error message of a refusal."""
    params = dict(zip(("mp", "sp", "mq", "sq"), x), grid_lo=None, grid_hi=None)
    params.update(grid_n=121, include_witness=include_witness)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            run(RunConfig("verify", params))
    except (TVBoundError, ValueError) as exc:
        return f"error: {exc}"
    return json.loads(stdout.getvalue())["verdict"]


@pytest.fixture(scope="module")
def base_verdicts():
    return [verdict(x, include) for x, include in VERIFY_CASES]


def close_point_masses(x) -> bool:
    """Two point masses under 1e-7 apart, which ``GridSpec.default_for``
    pads by an absolute 1 (a known limit, ROADMAP item 3)."""
    mp, sp, mq, sq = x
    return sp == sq == 0.0 and abs(mp - mq) < 1e-7


#: Seeded cases that a map moves from tight to numeric_failure, each with a
#: point-mass side at a gap ratio near 2e-3.
SMALL_GAP_BREAKS = [
    ("swap", (-1.1859142668293667, 0.11541667062803675, -1.1856924800446118, 0.0)),
    ("negate", (0.006051338186925609, 0.0, 0.006028351666125313, 0.009428860718983271)),
]


def verdict_changes(name, base_verdicts, close) -> list:
    """The cases whose verdict the map changes, among those whose mapped
    pair is two close point masses when ``close``, else among the others,
    outside ``SMALL_GAP_BREAKS``."""
    changed = []
    for (x, include), before in zip(VERIFY_CASES, base_verdicts):
        mapped = MAPS[name](*x)
        if close_point_masses(mapped) is close and (name, x) not in SMALL_GAP_BREAKS:
            after = verdict(mapped, include)
            changed += [(x, include, before, after)] if after != before else []
    return changed


@pytest.mark.parametrize("name", MAPS)
def test_verify_verdict_is_invariant_under_the_map(name, base_verdicts):
    assert verdict_changes(name, base_verdicts, close=False) == []


@pytest.mark.xfail(
    raises=AssertionError,
    reason="FOUND: 2^-20 brings two point masses within 1e-7 of each other, "
    "where GridSpec.default_for's absolute pad of 1 can turn a tight "
    "verdict into numeric_failure (ROADMAP item 3)",
)
def test_verify_verdict_is_invariant_under_downscaling_to_close_point_masses(base_verdicts):
    assert verdict_changes("scale_2^-20", base_verdicts, close=True) == []


@pytest.mark.xfail(
    raises=AssertionError,
    reason="FOUND: with a point-mass side at a gap ratio near 2e-3 the seeded grid LP "
    "can end in numeric_failure on one side of the map (ROADMAP item 11)",
)
@pytest.mark.parametrize("name, x", SMALL_GAP_BREAKS)
def test_verify_verdict_is_invariant_under_the_map_at_a_small_gap(name, x):
    assert verdict(MAPS[name](*x), True) == verdict(x, True)


# ------------------------------------------------------------- trace bound


def draw_nd_pair(rng: np.random.Generator):
    """d in 1..4, scale 10^U(-5, 5): two means and two Gram covariances."""
    d = int(rng.integers(1, 5))
    scale = 10.0 ** rng.uniform(-5, 5)
    means = rng.normal(size=(2, d)) * scale
    roots = rng.normal(size=(2, d, d)) * scale
    return means, roots @ roots.swapaxes(-1, -2)


def trace_bound_of(means, covs) -> float:
    return tv_lower_bound_nd(MomentPairND(*map(MomentsND, means, covs)))


def swap_sides(rng, means, covs):
    return means[::-1], covs[::-1]


def flip_signs(rng, means, covs):
    signs = rng.choice([-1.0, 1.0], size=means.shape[-1])
    return means * signs, covs * np.outer(signs, signs)


def scale_by_power_of_two(rng, means, covs):
    k = int(rng.integers(-20, 21))
    return means * 2.0**k, covs * 4.0**k


#: Each takes and returns (means, covs) of both sides, stacked on axis 0;
#: the rng draws the map's own choices.
ND_MAPS = {"swap": swap_sides, "sign-flips": flip_signs, "scale-2^k": scale_by_power_of_two}


@pytest.mark.parametrize("name", ND_MAPS)
def test_trace_bound_is_bit_exact_under_the_map(name):
    rng = np.random.default_rng(1700)
    for _ in range(1000):
        means, covs = draw_nd_pair(rng)
        mapped = ND_MAPS[name](rng, means, covs)
        assert trace_bound_of(*mapped) == trace_bound_of(means, covs), (means, covs)


def test_trace_bound_agrees_under_coordinate_permutations():
    # the trace and |a|^2 are sums whose order a permutation changes; each
    # is correctly rounded, so the order leaves no trace in the bits
    rng = np.random.default_rng(1701)
    for _ in range(1000):
        means, covs = draw_nd_pair(rng)
        perm = rng.permutation(means.shape[-1])
        bound = trace_bound_of(means, covs)
        permuted = trace_bound_of(means[:, perm], covs[:, perm][:, :, perm])
        assert permuted == bound, (means, covs, perm)
