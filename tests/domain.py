"""The one input domain of the 1-D tests: pairs ``(mp, sp, mq, sq)``.

A pair is drawn in its unit, the spread sp + sq (the mean gap where both
stddevs are 0), with each axis of ``AXES`` log10 uniform in its range; the
midpoint also moves by a jitter U(-1, 1) of the unit, and sits at offset 0
in a quarter of the draws where that range starts at 10^0.  A test narrows
an axis, ``gap=(-12, 0)`` or ``zero=("none",)``, only inside the table, or
meets a ``ValueError``; ``equal=False`` keeps the means apart, but for a
gap that rounds away beside a large offset.  A preset below names a
narrowing that several tests share.  README, "Input domain", holds the
table and the known limits at its edges; ``tests/test_domain.py`` checks
both agree.

``sample`` draws from a ``random.Random``, ``draws`` makes a seeded list and
``pairs`` is the Hypothesis strategy; each takes a preset, then narrowings
of its own.  Four samplers stay outside: the digests' ``_pairs``, whose
``DIGEST`` pins the draws, ``tests/test_simplex.py``'s ``lattice_pairs``,
the benchmark's lattice, and ``tests/test_moments.py``'s ``dyadic`` means,
which must stay multiples of 2^-10 under a shift.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from hypothesis import assume
from hypothesis import strategies as st

from tvbounds import MomentPair1D


class Axis(NamedTuple):
    lo: float  # log10 of the least value
    hi: float
    doc: str


AXES = {
    "scale": Axis(-324, 308, "the unit: the spread sp + sq, or |mp - mq| where both are 0"),
    "offset": Axis(0, 308, "|mp + mq| / 2 over the unit"),
    "gap": Axis(-324, 308, "r = |mp - mq| / (sp + sq)"),
    "ratio": Axis(-324, 308, "sp / sq"),
}
#: The zero-stddev sides, each drawn with even odds.
ZERO = ("none", "p", "q", "both")
#: The odds of equal means, unless a narrowing passes ``equal=False``.
EQUAL = 0.05
#: Spreads 1e-3 to 20, offsets to 100 spreads, gap ratios 1e-4 to 100 (the
#: anchored witness refuses from a few hundred), stddev ratios 1e-4 to 1e4.
NEAR_UNIT = dict(scale=(-3, 1.31), offset=(0, 2), gap=(-4, 2), ratio=(-4, 4), equal=False)
POSITIVE = dict(NEAR_UNIT, zero=("none",))
#: The box of means in [-10, 10] and stddevs 0 or in [1e-3, 5]: offsets to
#: 1e4 spreads and gap ratios to 2e4.
BOX = dict(NEAR_UNIT, offset=(0, 4.1), gap=(-4, 4.3))
#: Where a grid LP is well posed: spreads 0.008 to 5, gap ratios to 12 and
#: stddev ratios to 16.
GRID = dict(NEAR_UNIT, scale=(-2.1, 0.7), gap=(-2.8, 1.1), ratio=(-1.2, 1.2))
#: Where a plain default grid holds both stddevs and HiGHS reads its raw
#: powers to 1e-9: spreads 0.1 to 4, gap ratios to 3, stddev ratios to 8.
PLAIN = dict(POSITIVE, scale=(-1, 0.6), gap=(-2.8, 0.5), ratio=(-0.9, 0.9))


def pair(mp, sp, mq, sq) -> MomentPair1D:
    return MomentPair1D.from_scalars(mp, sp, mq, sq)


def _narrowed(preset, narrow: dict) -> tuple[dict, tuple, bool]:
    narrow = dict(preset, **narrow)
    axes = {name: narrow.pop(name, axis[:2]) for name, axis in AXES.items()}
    for name, (lo, hi) in axes.items():
        if not AXES[name].lo <= lo <= hi <= AXES[name].hi:
            raise ValueError(f"{name} {(lo, hi)} lies outside the domain's {AXES[name][:2]}")
    zero, equal = tuple(narrow.pop("zero", ZERO)), narrow.pop("equal", True)
    if not zero or not set(zero) <= set(ZERO):
        raise ValueError(f"zero {zero} names a side outside {ZERO}")
    if narrow:
        raise ValueError(f"no axis named {sorted(narrow)}")
    return axes, zero, equal


def _drawn(uniform, choice, axes, zero, equal):
    """The pair that ``uniform(lo, hi)`` and ``choice(options)`` draw, or
    None where it leaves the floats or a positive stddev underflows to 0."""
    log = {name: 10.0 ** uniform(lo, hi) for name, (lo, hi) in axes.items()}
    side, equal = choice(zero), uniform(0.0, 1.0) < EQUAL and equal
    if axes["offset"][0] == 0 and uniform(0.0, 1.0) < 0.25:
        log["offset"] = 0.0
    ratio = log["ratio"]
    sp, sq = {"none": (ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)), "p": (0.0, 1.0),
              "q": (1.0, 0.0), "both": (0.0, 0.0)}[side]
    half = 0.0 if equal else 0.5 * choice((-1.0, 1.0)) * (1.0 if side == "both" else log["gap"])
    centre = choice((-1.0, 1.0)) * log["offset"] + uniform(-1.0, 1.0)
    unit = log["scale"]
    mp = unit * (centre + half)
    x = (mp, unit * sp, mp if equal else unit * (centre - half), unit * sq)
    if not all(map(math.isfinite, x)) or (x[1] == 0.0) != (sp == 0.0) or (x[3] == 0.0) != (sq == 0.0):
        return None
    return x


def sample(rng: random.Random, preset=(), **narrow) -> tuple[float, float, float, float]:
    """One pair drawn from ``rng`` over the domain narrowed by ``preset``,
    then by ``narrow``."""
    narrowed = _narrowed(preset, narrow)
    while (x := _drawn(rng.uniform, rng.choice, *narrowed)) is None:
        pass
    return x


def draws(seed, count: int, preset=(), **narrow) -> list[tuple[float, float, float, float]]:
    rng = random.Random(seed)
    return [sample(rng, preset, **narrow) for _ in range(count)]


def pairs(preset=(), **narrow) -> st.SearchStrategy:
    """The Hypothesis strategy of ``sample``."""
    return _pairs(*_narrowed(preset, narrow))


@st.composite
def _pairs(draw, *narrowed):
    x = _drawn(lambda lo, hi: draw(st.floats(lo, hi)), lambda seq: draw(st.sampled_from(seq)), *narrowed)
    assume(x is not None)
    return x
