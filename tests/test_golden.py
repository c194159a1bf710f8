"""Golden bytes: the full output of every command, pinned.

Each case of ``golden_cases.CASES`` runs ``main`` in-process and compares
its exit code, stdout and stderr with the files under ``tests/golden/``;
so does each of ``golden_cases.WITHOUT_NUMPY``, with numpy blocked.
The CI workflow runs the installed ``tvbounds`` script on the same cases.
What the pinned bytes claim is checked against the library as well.
"""

import json
import sys

import pytest

from tvbounds import (
    DiscreteDist,
    MomentPair1D,
    MomentPairND,
    Moments1D,
    MomentsND,
    bound_report,
    check_moments,
    tv_distance,
    tv_lower_bound_1d,
    tv_lower_bound_nd,
)
from tvbounds.cli import _verdict, main, parse_args
from tvbounds.oracle import OracleResult, OracleStatus
from tvbounds.witness import MOMENT_MATCH_TOL, TV_MATCH_TOL

from golden_cases import CASES, WITHOUT_NUMPY, expected


@pytest.mark.parametrize(
    "name, code, argv", CASES + WITHOUT_NUMPY, ids=[case[0] for case in CASES + WITHOUT_NUMPY]
)
def test_command_output_is_golden(capsys, monkeypatch, name, code, argv):
    if (name, code, argv) in WITHOUT_NUMPY:
        monkeypatch.setitem(sys.modules, "numpy", None)
    returned = main(argv)
    captured = capsys.readouterr()
    assert (returned, captured.out, captured.err) == expected(name, code)


def _sides(flags):
    """The target moments of each side that a golden argv's flags give."""
    m = flags.get("--m")
    return (
        Moments1D(float(flags.get("--mp", m)), float(flags["--sp"])),
        Moments1D(float(flags.get("--mq", m)), float(flags["--sq"])),
    )


def _nd_pair(path):
    """The moments file at ``path``, and the pair it gives the library."""
    with open(path, encoding="utf-8") as handle:
        m = json.load(handle)
    return m, MomentPairND(*(MomentsND(m[f"mean_{s}"], m[f"cov_{s}"]) for s in "pq"))


@pytest.mark.parametrize("name, code, argv", CASES, ids=[case[0] for case in CASES])
def test_golden_reports_hold_against_the_library(name, code, argv):
    # a refusal is the library's message, a bound report the closed forms',
    # an n-d report the file's bound or a sweep with no violation, a
    # witness's atoms give its tv and the input's moments, a verdict and its
    # exit code follow from tv_min and the bound, and each swept row's bound
    # is the closed form's
    _, out, err = expected(name, code)
    command, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if code == 1:
        with pytest.raises(ValueError) as refused:
            _nd_pair(argv[1]) if command == "nd-bound" else _sides(flags)
        assert err == f"error: {refused.value}\n"
        return
    if command == "sweep":
        if flags.get("--format") == "json":
            rows = [(row["swept_value"], row["tight_bound"]) for row in json.loads(out)["rows"]]
        else:
            cells = [line.split(",") for line in out.splitlines()[1:]]
            rows = [(float(row[0]), float(row[3])) for row in cells]
        for value, bound in rows:
            # the swept flag is the one the argv leaves out
            mp, sp, mq, sq = (float(flags.get(f"--{flag}", value)) for flag in ("mp", "sp", "mq", "sq"))
            assert bound == tv_lower_bound_1d(MomentPair1D.from_scalars(mp, sp, mq, sq))
        return
    report = json.loads(out)
    if command == "nd-bound":
        m, pair = _nd_pair(argv[1])
        gap = sum((p - q) ** 2 for p, q in zip(m["mean_p"], m["mean_q"]))
        traces = [sum(row[i] for i, row in enumerate(m[f"cov_{s}"])) for s in "pq"]
        assert list(report.values()) == [len(m["mean_p"]), gap, *traces, tv_lower_bound_nd(pair)]
        return
    if command == "nd-check":
        params = parse_args(argv).params
        echoed = ("dims", "trials", "seed")
        assert [report[key] for key in echoed] == [params[key] for key in echoed]
        assert report["violations"] == code == 0
        return
    if command == "bound":
        (mp, sp), (mq, sq) = ((side.mean, side.stddev) for side in _sides(flags))
        given = {"mean_p": mp, "stddev_p": sp, "mean_q": mq, "stddev_q": sq}
        assert report == {"input": given, **bound_report(MomentPair1D.from_scalars(mp, sp, mq, sq))._asdict()}
        return
    if command == "verify":
        oracle = report["oracle"]
        result = OracleResult(OracleStatus(oracle["status"]), oracle["tv_min"], None, None, 0)
        assert _verdict(result, report["tight_bound"]) == (report["verdict"], code)
        if oracle["status"] == "optimal":
            for side, target in zip(("p_opt", "q_opt"), _sides(flags)):
                assert check_moments(DiscreteDist(**oracle[side]), target, 1e-7)
        return
    p, q = DiscreteDist(**report["p"]), DiscreteDist(**report["q"])
    assert abs(tv_distance(p, q) - report["tv"]) <= TV_MATCH_TOL
    for dist, target in zip((p, q), _sides(flags)):
        assert check_moments(dist, target, MOMENT_MATCH_TOL)
