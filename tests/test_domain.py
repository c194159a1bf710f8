"""The input domain of ``tests/domain.py``: its draws stay inside what the
caller narrowed, a range outside the table is refused, and README's "Input
domain" table is the module's.  It imports neither numpy nor
``conftest.py``, so it runs where numpy is not installed::

    python -m pytest --noconftest tests/test_domain.py
"""

import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from domain import AXES, EQUAL, POSITIVE, ZERO, draws, pairs, sample

#: Narrowings that reach each end of every axis, with each zero side.
NARROWINGS = [
    {},
    POSITIVE,
    dict(scale=(-7, 7), offset=(0, 13), gap=(-3.5, 2), ratio=(-1.5, 1.5), equal=False),
    dict(scale=(-0.3, 0.7), offset=(0, 0), gap=(-12, -3), ratio=(-8e-4, 8e-4), zero=("none",)),
    dict(scale=(4, 4.01), offset=(3.2, 4.7), gap=(-2.8, 1.2), zero=("p", "q")),
    dict(scale=(-324, 1), zero=("both",)),
]


def assert_inside(x, narrow):
    """Each axis of ``x`` inside ``narrow``, to relative 1e-9 and the
    rounding of a subnormal value or of the means beside a large offset."""
    mp, sp, mq, sq = x
    assert all(map(math.isfinite, x)) and ZERO[(sp == 0) + 2 * (sq == 0)] in narrow.get("zero", ZERO), x
    unit = sp + sq or abs(mp - mq)
    offset = abs(0.5 * mp + 0.5 * mq) / unit if unit else 0.0
    # equal=False keeps the means apart, unless the gap rounds away beside the offset
    assert mp != mq or narrow.get("equal", True) or 10.0 ** narrow.get("gap", AXES["gap"])[0] <= 2.3e-16 * offset, x
    values = dict(scale=unit, offset=offset, gap=sp + sq and abs(mp - mq) / (sp + sq), ratio=sp and sq and sp / sq)
    tol = 1e-9 + 1e-300 / min([v for v in (abs(mp - mq), sp, sq) if v] or [1.0])
    for name, value in values.items():
        lo, hi = (10.0**e for e in narrow.get(name, AXES[name][:2]))
        if name == "offset":
            # the jitter moves the midpoint by up to one unit
            lo, hi = (lo - 1.0 if lo > 1.0 else 0.0), hi + 1.0
        slack = tol + (4e-16 * offset / value if name == "gap" and value else 0.0)
        assert not value or lo * (1 - slack) <= value <= hi * (1 + slack), (name, x)


@pytest.mark.parametrize("narrow", NARROWINGS)
def test_draws_stay_inside_the_narrowed_axes(narrow):
    for x in draws(7, 500, narrow):
        assert_inside(x, narrow)

    @given(pairs(narrow))
    @settings(deadline=None, max_examples=50)
    def strategy_stays_inside(x):
        assert_inside(x, narrow)

    strategy_stays_inside()


@pytest.mark.parametrize(
    "narrow, message",
    [
        (dict(gap=(-325, 0)), r"gap \(-325, 0\) lies outside the domain's \(-324, 308\)"),
        (dict(ratio=(2, 1)), r"ratio \(2, 1\) lies outside"),
        (dict(zero=("neither",)), r"zero \('neither',\) names a side outside"),
        (dict(spread=(0, 1)), r"no axis named \['spread'\]"),
    ],
)
def test_a_range_outside_the_domain_is_refused(narrow, message):
    with pytest.raises(ValueError, match=message):
        sample(random.Random(0), **narrow)
    with pytest.raises(ValueError, match=message):
        pairs(**narrow)


def test_the_readme_table_is_the_modules():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Input domain"):]
    rows = {}
    for line in section[: section.index("\n## ", 1)].splitlines():
        cells = [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        if cells and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[1:3]
    assert rows == {
        **{name: [axis.doc, f"10^{axis.lo} to 10^{axis.hi}"] for name, axis in AXES.items()},
        "zero": ["which stddevs are 0", ", ".join(ZERO) + ", even odds"],
        "equal": ["whether mp == mq", f"odds {EQUAL}, or never"],
    }
