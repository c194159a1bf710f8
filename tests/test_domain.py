"""The input domain of ``tests/domain.py``: its draws stay inside what the
caller narrowed, a range outside the table is refused, and README's "Input
domain" table is the module's; and README's "Public names" table is the
package's.  It imports no numpy, nor does ``conftest.py``, so it runs where
numpy is not installed::

    python -m pytest tests/test_domain.py
"""

import importlib
import math
import pkgutil
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
#: Pairs pinned inside a narrowing, by its index: means 3.2e308 apart,
#: past the float range; point masses a unit 1e-7 apart at offset 1e8,
#: whose |mp - mq| reads 6.1e-9 low after the means round, and 1e4 apart at
#: offset 1e13, whose offset reads 1.6e-3 high.
PINNED = {
    0: [(-1.5811388300841895e308, 15.811388300841896, 1.5811388300841895e308, 15.811388300841896)],
    2: [(-9.99999995, 0.0, -10.000000049999999, 0.0), (-1.00000000000005e17, 0.0, -9.9999999999995e16, 0.0)],
}


def assert_inside(x, narrow):
    """Each axis of ``x`` inside ``narrow``, to relative 1e-9 and the
    rounding of a subnormal value or of the means beside a large offset."""
    mp, sp, mq, sq = x
    assert all(map(math.isfinite, x)) and ZERO[(sp == 0) + 2 * (sq == 0)] in narrow.get("zero", ZERO), x
    unit = sp + sq or abs(mp - mq)
    offset = abs(0.5 * mp + 0.5 * mq) / unit if unit else 0.0
    # equal=False keeps the means apart, unless the gap rounds away beside the offset
    assert mp != mq or narrow.get("equal", True) or 10.0 ** narrow.get("gap", AXES["gap"])[0] <= 2.3e-16 * offset, x
    # halved, as |mp - mq| can pass the float range where |mp| and |mq| do not
    gap = sp + sq and abs(0.5 * mp - 0.5 * mq) / (sp + sq) * 2.0
    values = dict(scale=unit, offset=offset, gap=gap, ratio=sp and sq and sp / sq)
    tol = 1e-9 + 1e-300 / min([v for v in (abs(mp - mq), sp, sq) if v] or [1.0])
    for name, value in values.items():
        lo, hi = (10.0**e for e in narrow.get(name, AXES[name][:2]))
        if name == "offset":
            # the jitter moves the midpoint by up to one unit
            lo, hi = (lo - 1.0 if lo > 1.0 else 0.0), hi + 1.0
        # the means round beside the offset, which moves |mp - mq| by up to
        # 4e-16 offset units: the gap, and where both stddevs are 0 the unit
        # and with it the offset
        drift = 4e-16 * offset if name == "gap" or (name != "ratio" and not sp + sq) else 0.0
        slack = tol + (drift / value if name == "gap" and value else drift)
        assert not value or lo * (1 - slack) <= value <= hi * (1 + slack), (name, x)


@pytest.mark.parametrize("i", range(len(NARROWINGS)), ids="narrow{}".format)
def test_draws_stay_inside_the_narrowed_axes(i):
    narrow = NARROWINGS[i]
    for x in draws(7, 500, narrow) + PINNED.get(i, []):
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


def readme_rows(heading):
    """The rows of the table under README's ``heading``, as lists of cells,
    for each row whose first cell is a name in backquotes."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index(f"## {heading}"):]
    rows = []
    for line in section[: section.index("\n## ", 1)].splitlines():
        cells = [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        if cells and cells[0].startswith("`"):
            rows.append([cells[0].strip("`"), *cells[1:]])
    return rows


def test_the_readme_table_is_the_modules():
    rows = {name: cells[:2] for name, *cells in readme_rows("Input domain")}
    assert rows == {
        **{name: [axis.doc, f"10^{axis.lo} to 10^{axis.hi}"] for name, axis in AXES.items()},
        "zero": ["which stddevs are 0", ", ".join(ZERO) + ", even odds"],
        "equal": ["whether mp == mq", f"odds {EQUAL}, or never"],
    }


def test_the_public_names_table_is_each_modules_all():
    import tvbounds

    rows = sorted((name, module.strip("`")) for name, module, _ in readme_rows("Public names"))
    modules = [info.name for info in pkgutil.iter_modules(tvbounds.__path__)]
    assert rows == sorted(
        (name, module)
        for module in modules
        for name in importlib.import_module(f"tvbounds.{module}").__all__
    )
    # the package's are every module's but the command line's
    assert sorted(tvbounds.__all__) == [name for name, module in rows if module != "cli"]


def library_changes():
    """README's library-changes note, as ``(name, modules)`` for each name
    that left ``__all__``: the module that defines it first, then each
    module that also binds it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    note = text[text.index("Library changes:"): text.index("With them went")]
    moved = []
    for bullet in note.split("\n- ")[1:]:
        names, places = bullet.split(":", 1)
        modules = re.findall(r"`tvbounds\.(\w+)[.`]", places)
        moved += [(name, modules) for name in re.findall(r"`(\w+)`", names)]
    return moved


MOVED = library_changes()


@pytest.mark.parametrize("name, modules", MOVED, ids=[name for name, _ in MOVED])
def test_a_name_that_left_all_still_resolves_in_its_modules(name, modules):
    import tvbounds

    assert name not in tvbounds.__all__
    home = importlib.import_module(f"tvbounds.{modules[0]}")
    assert name not in home.__all__
    assert getattr(home, name).__module__ == home.__name__
    for module in modules[1:]:
        assert getattr(importlib.import_module(f"tvbounds.{module}"), name) is getattr(home, name)
