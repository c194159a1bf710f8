"""Command-line interface: outputs, schemas, exit codes, determinism."""

import ast
import importlib
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tvbounds import (
    BadParameterError,
    DiscreteDist,
    Moments1D,
    check_moments,
    tv_distance,
)
from tvbounds.cli import SWEEP_MAX_ROWS, RunConfig, _verdict, main, parse_args, run

import golden_cases


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused(capsys, *argv):
    """The stderr of a command refused with exit 1, nothing on stdout and
    one error line."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
    return err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


PAIR_FLAGS = ("--mp", "1", "--sp", "1", "--mq", "0", "--sq", "1")


def pair_flags(mp, sp, mq, sq):
    return ["--mp", mp, "--sp", sp, "--mq", mq, "--sq", sq]


# -------------------------------------------------------------------- bound


def test_bound_point_masses(capsys):
    code, payload = run_json(
        capsys, "bound", "--mp", "1", "--sp", "0", "--mq", "0", "--sq", "0"
    )
    assert code == 0
    assert payload["tight_bound"] == 1.0


def test_bound_subnormal_gap_that_scaling_rounds_to_zero(capsys):
    # the scaling of the formulas halves the gap 5e-324 to 0.0; the means
    # still differ, so every diagnostic is defined
    code, payload = run_json(
        capsys, "bound", "--mp", "0", "--sp", "0", "--mq", "5e-324", "--sq", "1"
    )
    assert code == 0
    assert payload["gap_a"] == -5e-324
    assert payload["tight_bound"] == payload["two_point_tv"] == 0.0
    assert payload["sibling_branch_tv"] == 0.0
    assert payload["sibling_branch_valid"] is False


def test_bound_equal_means_reports_unattained(capsys):
    code, payload = run_json(
        capsys, "bound", "--mp", "2", "--sp", "1", "--mq", "2", "--sq", "3"
    )
    assert code == 0
    assert payload["tight_bound"] == 0.0
    assert payload["attained"] is False
    assert payload["two_point_tv"] is None
    assert payload["anchored_p_tv"] is None


def test_numbers_round_trip_through_output(capsys):
    _, payload = run_json(
        capsys, "bound", "--mp", "0.1", "--sp", "0.3", "--mq", "-0.7", "--sq", "1.9"
    )
    # parsing back and recomputing must reproduce the emitted values exactly
    from tvbounds import MomentPair1D, bound_report, tv_lower_bound_1d

    again = MomentPair1D.from_scalars(0.1, 0.3, -0.7, 1.9)
    assert payload["gap_a"] == 0.1 - (-0.7)
    assert payload["radical_v"] == bound_report(again).radical_v
    assert payload["tight_bound"] == tv_lower_bound_1d(again)


# ----------------------------------------------------------------- witnesses


# the mean gap is 10,000 times the summed stddevs, where 1 - p on the shared
# atom used to leave the p side's variance at 1.690000006629074
FAR_PAIR_FLAGS = ("--mp", "20000", "--sp", "1.3", "--mq", "0", "--sq", "0.7")


def test_witness_builds_at_a_large_gap_to_spread_ratio(capsys):
    code, payload = run_json(capsys, "witness", *FAR_PAIR_FLAGS)
    assert code == 0
    assert payload["kind"] == "three_point"
    assert payload["tv"] == 20000.0**2 / (2.0**2 + 20000.0**2)
    assert check_moments(DiscreteDist(**payload["p"]), Moments1D(20000.0, 1.3), 1e-9)
    assert check_moments(DiscreteDist(**payload["q"]), Moments1D(0.0, 0.7), 1e-9)


def test_two_point_output(capsys):
    code, payload = run_json(capsys, "two-point", *PAIR_FLAGS)
    assert code == 0
    assert payload["kind"] == "two_point_shared"
    assert payload["tv"] == pytest.approx(1 / math.sqrt(5), rel=1e-12)


def test_two_point_close_stddevs_small_gap(capsys):
    # masses taken from the rounded squares sp*sp - sq*sq cancelled here and
    # summed to 1 - 1.9e-12, outside the distribution's tolerance
    args = ("--mp", "1.7659622276859974", "--sp", "0.4778810938725085",
            "--mq", "1.765962237876515", "--sq", "0.4778832817022429")
    code, payload = run_json(capsys, "two-point", *args)
    assert code == 0
    p = DiscreteDist(**payload["p"])
    q = DiscreteDist(**payload["q"])
    assert tv_distance(p, q) == pytest.approx(payload["tv"], abs=1e-12)
    assert check_moments(p, Moments1D(float(args[1]), float(args[3])), 1e-9)
    assert check_moments(q, Moments1D(float(args[5]), float(args[7])), 1e-9)


def test_case_c_output(capsys):
    code, payload = run_json(capsys, "case-c", *PAIR_FLAGS, "--q-param", "0.5")
    assert code == 0
    assert payload["kind"] == "anchored_three_point"
    assert payload["tv"] == pytest.approx(2 / (1 + math.sqrt(5)), rel=1e-12)


def test_two_point_underflowed_radical_prints_the_half_half_pair(capsys):
    # equal stddevs, and the squared gap underflows: the radical is 0
    code, payload = run_json(
        capsys, "two-point", "--mp", "0", "--sp", "1", "--mq", "1e-320", "--sq", "1"
    )
    assert code == 0
    assert payload["p"] == payload["q"] == {"support": [-1.0, 1.0], "probs": [0.5, 0.5]}


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("witness", "--mp", "1e200", "--sp", "0", "--mq", "-1e200", "--sq", "0"),
         "both_point_masses"),
        (("two-point", "--mp", "1e200", "--sp", "0", "--mq", "-1e200", "--sq", "0"),
         "two_point_shared"),
        (("witness", "--mp", "2e154", "--sp", "1", "--mq", "0", "--sq", "1"),
         "three_point"),
    ],
    ids=["witness-point-masses", "two-point-point-masses", "witness-unit-stddevs"],
)
def test_zero_mass_atom_far_out_keeps_a_witness(capsys, argv, kind):
    # each side puts no mass on an atom whose squared deviation overflows,
    # so its variance must not become 0 * inf = nan
    code, report = run_json(capsys, *argv)
    assert (code, report["kind"], report["tv"]) == (0, kind, 1.0)
    for side, target in (("p", float(argv[2])), ("q", float(argv[6]))):
        dist = DiscreteDist(**report[side])
        assert dist.moments().mean == target
        assert math.isfinite(dist.moments().variance)


def test_flag_defaults_are_the_library_defaults():
    # verify --grid-n and case-c --q-param copy the defaults of the functions
    # they feed; neither copy may drift alone
    import inspect

    from tvbounds import GridSpec, construct_anchored_witness

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert parse_args(["verify", *PAIR_FLAGS]).params["grid_n"] == default(
        GridSpec.default_for, "count"
    )
    assert parse_args(["case-c", *PAIR_FLAGS]).params["q_param"] == default(
        construct_anchored_witness, "q_param"
    )


# -------------------------------------------------------------------- verify


def test_verify_tight_verdict(capsys):
    code, payload = run_json(
        capsys, "verify", *PAIR_FLAGS,
        "--grid-lo", "-6", "--grid-hi", "6", "--grid-n", "121", "--include-witness", "true",
    )
    assert code == 0
    assert payload["verdict"] == "tight"
    assert payload["oracle"]["status"] == "optimal"
    assert abs(payload["oracle"]["tv_min"] - payload["tight_bound"]) <= 1e-6
    p_opt = DiscreteDist(**payload["oracle"]["p_opt"])
    assert check_moments(p_opt, Moments1D(1.0, 1.0), 1e-7)


def test_verify_default_grid(capsys):
    code, payload = run_json(capsys, "verify", *PAIR_FLAGS)
    assert code == 0
    assert payload["verdict"] == "tight"


@pytest.mark.parametrize("word, value", [("yes", True), ("no", False), (" TRUE ", True)])
def test_include_witness_reads_yes_no_and_padded_words(word, value):
    params = parse_args(["verify", *PAIR_FLAGS, "--include-witness", word]).params
    assert params["include_witness"] is value


@pytest.mark.parametrize(
    "argv, message",
    [
        # the grid reaches 1e160, whose square overflows in the
        # second-moment row
        (("--mp", "1e160", "--sp", "1", "--mq", "0", "--sq", "1", "--include-witness", "false"),
         "error: LP coefficients must be finite\n"),
        # hi - lo overflows, which np.linspace met with a grid of NaN and inf
        (("--mp", "0", "--sp", "1", "--mq", "1", "--sq", "1", "--grid-lo=-1e308", "--grid-hi=1e308"),
         "error: the span hi - lo overflows, got lo=-1e+308, hi=1e+308\n"),
    ],
    ids=["grid-square", "grid-span"],
)
def test_verify_refuses_an_overflowing_grid_without_a_warning(capsys, argv, message):
    # the overflow must reach stderr as the one error line, not also as a
    # numpy RuntimeWarning with its source line, so warnings are errors here
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert run_refused(capsys, "verify", *argv) == message


@pytest.mark.parametrize(
    "grid", [(), ("--grid-lo", "-6", "--grid-hi", "6")], ids=["default", "explicit"]
)
def test_verify_refuses_a_grid_past_its_limit(capsys, monkeypatch, grid):
    # 10^12 points once went on to np.linspace and a MemoryError traceback
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr("tvbounds.oracle.build_grid", refuse)
    err = run_refused(
        capsys, "verify", *PAIR_FLAGS, *grid, "--grid-n", "1000000000000"
    )
    assert err == (
        "error: count must be at most GRID_MAX_COUNT = 500000, got 1000000000000\n"
    )


def test_verify_is_tight_at_a_large_gap_to_spread_ratio(capsys):
    code, payload = run_json(capsys, "verify", *FAR_PAIR_FLAGS)
    assert code == 0
    assert payload["verdict"] == "tight"
    assert payload["oracle"]["status"] == "optimal"


VERIFY_KEYS = ["input", "grid", "tight_bound", "oracle", "gap_to_bound", "verdict"]
ORACLE_KEYS = ["status", "tv_min", "iterations", "p_opt", "q_opt"]


def test_verify_reports_a_numeric_failure(capsys, monkeypatch):
    from tvbounds.oracle import OracleResult, OracleStatus

    failed = OracleResult(OracleStatus.NUMERIC_FAILURE, None, None, None, 17)
    monkeypatch.setattr("tvbounds.oracle.minimize_tv_on_grid", lambda *a, **k: failed)
    code, payload = run_json(capsys, "verify", *PAIR_FLAGS)
    assert code == 3
    assert list(payload) == VERIFY_KEYS
    assert list(payload["oracle"]) == ORACLE_KEYS
    assert payload["verdict"] == "numeric_failure"
    assert payload["gap_to_bound"] is None
    assert payload["oracle"] == {
        "status": "numeric_failure",
        "tv_min": None,
        "iterations": 17,
        "p_opt": None,
        "q_opt": None,
    }


def test_verify_reports_an_optimum_below_the_bound_as_violated(capsys, monkeypatch):
    from tvbounds.oracle import OracleResult, OracleStatus

    p_opt = DiscreteDist((0.0, 2.0), (0.5, 0.5))
    q_opt = DiscreteDist((-1.0, 1.0), (0.5, 0.5))
    below = OracleResult(OracleStatus.OPTIMAL, 0.1, p_opt, q_opt, 5)
    monkeypatch.setattr("tvbounds.oracle.minimize_tv_on_grid", lambda *a, **k: below)
    code, payload = run_json(capsys, "verify", *PAIR_FLAGS)
    assert code == 2
    assert list(payload) == VERIFY_KEYS
    assert list(payload["oracle"]) == ORACLE_KEYS
    assert payload["verdict"] == "violated"
    assert payload["tight_bound"] == 0.2
    assert payload["gap_to_bound"] == 0.1 - 0.2
    assert payload["oracle"]["tv_min"] == 0.1
    assert payload["oracle"]["p_opt"] == p_opt.to_json_dict()
    assert payload["oracle"]["q_opt"] == q_opt.to_json_dict()


#: ``_verdict``'s edges: an optimum the sound tolerance below the bound,
#: or the tight tolerance above it, is still tight.
VERDICTS = {
    "at-the-bound": ("optimal", 0.5, 0.5, ("tight", 0)),
    "sound-edge": ("optimal", 0.5 - 1e-8, 0.5, ("tight", 0)),
    "past-the-sound-edge": ("optimal", 0.5 - 2e-8, 0.5, ("violated", 2)),
    "tight-edge": ("optimal", 1e-6, 0.0, ("tight", 0)),
    "past-the-tight-edge": ("optimal", 2e-6, 0.0, ("sound", 0)),
    "above-the-bound": ("optimal", 0.6, 0.5, ("sound", 0)),
    "infeasible": ("infeasible", None, 0.5, ("infeasible", 2)),
    "numeric-failure": ("numeric_failure", None, 0.5, ("numeric_failure", 3)),
}


@pytest.mark.parametrize("status, tv_min, bound, verdict", VERDICTS.values(), ids=list(VERDICTS))
def test_verdict_edges(status, tv_min, bound, verdict):
    from tvbounds.oracle import OracleResult, OracleStatus

    result = OracleResult(OracleStatus(status), tv_min, None, None, 0)
    assert _verdict(result, bound) == verdict


# ----------------------------------------------------------------- nd bound

#: Two 2-D unit normals a unit mean gap apart, the moments file that the
#: nd-bound tests vary a field at a time.
UNIT_ND = {
    "mean_p": [1.0, 0.0], "cov_p": [[1.0, 0.0], [0.0, 1.0]],
    "mean_q": [0.0, 0.0], "cov_q": [[1.0, 0.0], [0.0, 1.0]],
}


def moments_text(**fields):
    """The text of a moments file of ``UNIT_ND`` with ``fields`` replaced."""
    return json.dumps({**UNIT_ND, **fields})


def moments_file(tmp_path, text):
    """The path of a moments file that holds ``text``."""
    path = tmp_path / "moments.json"
    path.write_text(text)
    return str(path)


def test_nd_bound_from_file(capsys, tmp_path):
    code, report = run_json(capsys, "nd-bound", moments_file(tmp_path, moments_text()))
    assert code == 0
    assert report["dimension"] == 2
    assert report["bound"] == pytest.approx(1 / 9, rel=1e-12)
    assert report["trace_p"] == 2.0


def test_nd_bound_keeps_a_trace_near_the_float_maximum(capsys, tmp_path):
    # 1e308 + 1e308 passes the float range; the symmetrized covariance
    # used to read inf there, after a numpy RuntimeWarning
    text = moments_text(mean_p=[0.0, 1.0], cov_p=[[1e308, 0.0], [0.0, 1.0]])
    code, report = run_json(capsys, "nd-bound", moments_file(tmp_path, text))
    assert code == 0
    assert report["trace_p"] == 1e308
    assert 0.0 <= report["bound"] < 1e-300


def test_nd_bound_stays_positive_past_a_doubled_trace_sum(capsys, tmp_path):
    # 2 * (tr Sp + tr Sq) = 2e308 passes the float range, and the bound
    # used to read 0 there
    half = [[5e307, 0.0], [0.0, 0.0]]
    text = moments_text(cov_p=half, cov_q=half)
    code, report = run_json(capsys, "nd-bound", moments_file(tmp_path, text))
    assert code == 0
    assert report["bound"] == 0.5 / 1e308 > 0.0


def test_nd_bound_stays_positive_past_an_overflowing_denominator(capsys, tmp_path):
    # |a|^2 / 2 + tr Sp + tr Sq = 8.45e307 + 1e308 passes the float range,
    # and the bound used to read 0 there after a numpy RuntimeWarning
    half = [[5e307, 0.0], [0.0, 0.0]]
    text = moments_text(mean_p=[1.3e154, 0.0], cov_p=half, cov_q=half)
    code, report = run_json(capsys, "nd-bound", moments_file(tmp_path, text))
    assert code == 0
    # gap / (2e308 + gap), with both parts quartered to stay in range
    quarter = report["gap_norm_sq"] / 4
    assert report["bound"] == pytest.approx(quarter / (5e307 + quarter), rel=1e-15)


@pytest.mark.parametrize(
    "depth", [100_000, sys.getrecursionlimit() + 50], ids=["100000", "recursion-limit+50"]
)
def test_nd_bound_refuses_a_deep_nesting_in_one_line(capsys, tmp_path, depth):
    # the JSON parser meets the recursion limit, or on Python 3.12+, whose
    # parser can go deeper, the walk that screens the fields does
    nested = "[" * depth + "1" + "]" * depth
    text = '{"mean_p": %s, "cov_p": [[1]], "mean_q": [0], "cov_q": [[1]]}' % nested
    run_refused(capsys, "nd-bound", moments_file(tmp_path, text))


def test_nd_bound_names_a_field_too_deep_for_the_walk(capsys, monkeypatch, tmp_path):
    # a parser that returns a nesting deeper than the recursion limit, as
    # Python 3.12+'s can: the screening walk refuses it by its field
    deep = [1.0]
    for _ in range(5000):
        deep = [deep]
    payload = {"mean_p": [0.0], "cov_p": deep, "mean_q": [0.0], "cov_q": [[1.0]]}
    monkeypatch.setattr(json, "load", lambda handle: payload)
    err = run_refused(capsys, "nd-bound", moments_file(tmp_path, "{}"))
    assert err == "error: moments file nests 'cov_p' too deeply to read\n"


def test_nd_check_clean_run(capsys):
    code, payload = run_json(
        capsys, "nd-check", "--dims", "2", "--trials", "200", "--seed", "11"
    )
    assert code == 0
    assert payload["violations"] == 0
    assert payload["atoms"] == 6  # dims + 4 default


# --------------------------------------------------------------------- sweep


def test_sweep_blank_cells_for_undefined_diagnostics(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "mp", "--start", "0", "--stop", "1", "--step", "1",
        "--sp", "1", "--mq", "0", "--sq", "1",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    gap_zero_row = rows[0].split(",")
    assert gap_zero_row[4] == ""  # two-point value undefined at equal means
    assert gap_zero_row[1] == gap_zero_row[3] == "0.0"  # gap and bound are defined
    assert rows[1].split(",")[4] != ""


def test_sweep_json_format(capsys):
    def swept(stop):
        code, payload = run_json(
            capsys, "sweep", "--param", "sq", "--start", "1", "--stop", stop, "--step", "0.5",
            "--mp", "1", "--sp", "1", "--mq", "0", "--format", "json",
        )
        assert code == 0 and payload["param"] == "sq"
        return [row["swept_value"] for row in payload["rows"]]

    assert swept("2") == [1.0, 1.5, 2.0]
    assert swept("1") == [1.0]  # a stop at the start is one row


# ------------------------------------------------------------ error handling


def each(name, argvs, message):
    """Rows ``name-<command>`` that refuse each of ``argvs`` with ``message``."""
    return {f"{name}-{argv[0]}": (argv, message) for argv in argvs}


def sweep_flags(param, start, stop, step):
    return ("--param", param, "--start", start, "--stop", stop, "--step", step)


def sweep_mp(start, stop, step):
    """A sweep of --mp with the other three moments at 1, 0 and 1."""
    return ("sweep", *sweep_flags("mp", start, stop, step), "--sp", "1", "--mq", "0", "--sq", "1")


#: Invalid input, one row a refusal: the argv, or the text of the moments
#: file that ``nd-bound`` reads, and the whole of stderr.  The wordings of
#: argparse and of the JSON parser differ across Python 3.10-3.13, so their
#: rows end without a newline and pin a prefix.
REFUSALS = {
    "witness-equal-means": (
        ("witness", *pair_flags("1", "1", "1", "2")),
        "error: the tight bound has no minimizer for equal means; use construct_vanishing_sequence\n",
    ),
    "case-c-q-param-past-1": (
        ("case-c", *PAIR_FLAGS, "--q-param", "1.5"), "error: q_param must be in (0, 1), got 1.5\n"
    ),
    # sqrt((1 - q) / q) overflows, and the atom used to reach the support check as -inf
    "case-c-q-param-overflows-an-atom": (
        ("case-c", *PAIR_FLAGS, "--q-param", "5e-309"),
        "error: q_param 5e-309 puts an atom of the two-point side past the float range\n",
    ),
    # the squared gap underflows, so the anchored value is 0
    "case-c-underflowed-anchored-value": (
        ("case-c", *pair_flags("1e-170", "1", "0", "1")),
        "error: anchored value underflows to 0 at mean gap 1e-170; "
        "the exclusive atom has no finite position\n",
    ),
    # one stddev is 0 and the squared gap underflows, so the bound is 0;
    # the constructors divided by it and raised ZeroDivisionError
    "underflowed-bound-q-point-mass": (
        ("witness", *pair_flags("0", "1", "1e-170", "0")),
        "error: tight bound underflows to 0 at mean gap -1e-170; "
        "the exclusive atom has no finite position\n",
    ),
    **each(
        "underflowed-bound",
        [(command, *pair_flags("1e-170", "0", "0", "1")) for command in ("witness", "two-point", "verify")],
        "error: tight bound underflows to 0 at mean gap 1e-170; "
        "the exclusive atom has no finite position\n",
    ),
    # all inputs near 1e-153, where the unscaled mass products underflow
    "two-point-tiny-scale": (
        ("two-point", *pair_flags("1.8964864346998233e-153", "5.189758418810336e-154",
                                  "1.0594429288851018e-153", "3.882824847705252e-154")),
        "error: claimed TV 0.669976458891322 but the atoms give 0.0\n",
    ),
    # radical_v passes the float range at a gap of about 1.34e154
    **each(
        "radical-overflows",
        [("bound", *pair_flags("1e200", "1", "0", "1")),
         ("two-point", *pair_flags("1e200", "1", "0", "1")),
         ("sweep", *sweep_flags("sp", "1", "2", "1"), "--mp", "1e200", "--mq", "0", "--sq", "1")],
        "error: radical_v overflows the float range: it grows as the square of the "
        "mean gap and stddevs, which must stay below about 1.34e154\n",
    ),
    # 1e200 squares past the float range; the moment check used to report
    # that as a mismatch of variance nan or inf against the target inf
    **each(
        "variance-overflows",
        [*((command, *pair_flags("1e200", "1e200", "0", "1e200"))
           for command in ("witness", "two-point", "case-c", "verify")),
         ("sequence", "--sp", "1e200", "--sq", "1", "--k", "3")],
        "error: the p side's variance overflows the float range: stddev 1e+200 "
        "squares past it, and stddevs must stay below about 1.34e154\n",
    ),
    # 1e308 - (-1e308) overflows; the closed forms would print NaN and the
    # witnesses place an atom at infinity
    **each(
        "mean-gap-overflows",
        [*((command, *pair_flags("1e308", "1", "-1e308", "1"))
           for command in ("bound", "witness", "two-point", "case-c")),
         ("sweep", *sweep_flags("sp", "1", "2", "1"), "--mp", "1e308", "--mq", "-1e308", "--sq", "1")],
        "error: the mean gap overflows the float range: mean_p 1e+308 - mean_q -1e+308 is inf\n",
    ),
    # the witness atoms' squared deviations overflow, so the moment check
    # rejects the pair; squaring with ** raised OverflowError instead
    **each(
        "witness-moments-overflow",
        [(command, *pair_flags("1e200", "1", "0", "1")) for command in ("witness", "verify")],
        "error: three_point witness: p side moments (mean 1e+200, variance 0.0) "
        "do not match the target (mean 1e+200, variance 1.0)\n",
    ),
    # every p * x * x of the witness's raw second moment is finite, but
    # their sum passes the float range, where math.fsum raised OverflowError
    **each(
        "sum-of-squares-overflows",
        [(command, *pair_flags("-8.391482909768884e+153", "1.0541747264031324e+154",
                               "-4.7657788459481485e+153", "0.0"))
         for command in ("witness", "two-point", "verify")],
        "error: two_point_q_degenerate witness: p side moments (mean -8.391482909768884e+153, "
        "variance inf) do not match the target "
        "(mean -8.391482909768884e+153, variance 1.1112843537871191e+308)\n",
    ),
    # equal stddevs far below the mean: the near points m - sd and m + sd
    # merge into one atom, whose variance is 0, not 1e14
    "sequence-misses-its-moments": (
        ("sequence", "--m", "1e20", "--sp", "1e7", "--sq", "1e7", "--k", "2"),
        "error: vanishing_sequence witness: p side moments (mean 9.999999999999e+19, "
        "variance 0.0) do not match the target (mean 1e+20, variance 100000000000000.0)\n",
    ),
    "sequence-k-1": (
        ("sequence", "--sp", "2", "--sq", "1", "--k", "1"), "error: k must be an integer >= 2, got 1\n"
    ),
    # 1/k needs k as a float, which a 401-digit integer overflows
    "sequence-k-past-the-float-range": (
        ("sequence", "--sp", "2", "--sq", "1", "--k", str(10**400)),
        "error: k must fit in a float, below about 1.8e308; got 1329 bits\n",
    ),
    # k fits in a float, but (sp^2 - sq^2) * k does not; the far atoms used
    # to reach the support check as -inf
    "sequence-far-atoms-overflow": (
        ("sequence", "--sp", "1e150", "--sq", "1", "--k", "100000000000000"),
        "error: k 100000000000000 puts the far atoms of the wider side past the float range\n",
    ),
    # sp + sq overflows while every moment and grid point is finite; divided
    # by that scale the rows collapsed to TV 0, which printed "violated"
    "verify-centring-scale-overflows": (
        ("verify", *pair_flags("0", "1e308", "1e307", "1e308"),
         "--grid-lo", "-1e307", "--grid-hi", "1e307", "--include-witness", "false"),
        "error: LP coefficients must be finite: the centring scale overflows\n",
    ),
    # six stddevs beyond the means overflow: the refusal names the default
    # grid, not lo and hi the caller never gave
    "verify-default-grid-pad": (
        ("verify", *pair_flags("0", "1e308", "1", "1")),
        "error: the default grid, six stddevs of 1e+308 beyond the means 0.0 and 1.0, "
        "overflows the float range\n",
    ),
    # the pad is finite, the span of the padded means is not
    "verify-default-grid-span": (
        ("verify", *pair_flags("1.5e308", "1e306", "-2e307", "1")),
        "error: the default grid, six stddevs of 1e+306 beyond the means 1.5e+308 and -2e+307, "
        "overflows the float range\n",
    ),
    # the merge tolerance, 1e-12 * (1 + max |x|), is wider than the span
    # here; the refusal used to count the points left, not the ones asked for
    "verify-grid-merges-into-one-point": (
        ("verify", *pair_flags("74190220.978068", "2.051601652900451e-06",
                               "74190220.97806883", "2.327773945572027e-06"),
         "--include-witness", "false"),
        "error: the 121-point grid from 74190220.97805403 to 74190220.97808279 "
        "merges into one point at the merge tolerance 7.419022197808279e-05\n",
    ),
    "verify-grid-lo-alone": (
        ("verify", *PAIR_FLAGS, "--grid-lo", "-4"),
        "error: --grid-lo and --grid-hi must be given together\n",
    ),
    "verify-grid-hi-alone": (
        ("verify", *PAIR_FLAGS, "--grid-hi", "4"),
        "error: --grid-lo and --grid-hi must be given together\n",
    ),
    # argparse names the parsing function unless it raises ArgumentTypeError
    "verify-bad-bool": (
        ("verify", *PAIR_FLAGS, "--include-witness", "maybe"),
        "error: argument --include-witness: expected true or false, got 'maybe'\n",
    ),
    # each diagonal entry is finite, their sum is not; the trace used to
    # print as Infinity, after a numpy RuntimeWarning
    "nd-trace-overflows-p": (
        moments_text(cov_p=[[1e308, 0.0], [0.0, 1e308]]),
        "error: the p side's covariance trace overflows the float range: "
        "its diagonal sums past about 1.8e308\n",
    ),
    "nd-trace-overflows-q": (
        moments_text(cov_q=[[1e308, 0.0], [0.0, 1e308]]),
        "error: the q side's covariance trace overflows the float range: "
        "its diagonal sums past about 1.8e308\n",
    ),
    # |a|^2 used to print as Infinity and the bound as NaN, neither of them
    # JSON, with exit 0 after three numpy RuntimeWarnings
    "nd-squared-gap-overflows": (
        moments_text(mean_p=[1e200, 0]),
        "error: the squared mean gap overflows the float range: "
        "the means lie about 1.34e154 or more apart\n",
    ),
    "nd-gap-overflows": (
        moments_text(mean_p=[1e308, 0], mean_q=[-1e308, 0]),
        "error: the squared mean gap overflows the float range: "
        "the means lie about 1.34e154 or more apart\n",
    ),
    "nd-indefinite-covariance": (
        moments_text(cov_p=[[1.0, 2.0], [2.0, 1.0]]),
        "error: covariance is not positive semidefinite (min eigenvalue -1)\n",
    ),
    "nd-missing-mean-p": (
        '{"cov_p": [[1.0]], "mean_q": [1.0], "cov_q": [[1.0]]}',
        "error: moments file is missing key 'mean_p'\n",
    ),
    "nd-missing-cov-q": (
        '{"mean_p": [0.0], "cov_p": [[1.0]], "mean_q": [1.0]}',
        "error: moments file is missing key 'cov_q'\n",
    ),
    "nd-not-json": ("{not json", "error: cannot read moments file "),
    "nd-top-level-list": ("[1, 2]", "error: moments file must hold a JSON object, got list\n"),
    "nd-top-level-string": ('"x"', "error: moments file must hold a JSON object, got str\n"),
    # float() would read "1" and true as numbers
    "nd-object-field": (
        moments_text(mean_p={"a": 1}),
        "error: moments file holds a non-numeric field: 'mean_p' holds {'a': 1}\n",
    ),
    "nd-string-field": (
        moments_text(mean_p=["1", "2"]),
        "error: moments file holds a non-numeric field: 'mean_p' holds '1'\n",
    ),
    "nd-boolean-field": (
        moments_text(mean_p=[True, 2]),
        "error: moments file holds a non-numeric field: 'mean_p' holds True\n",
    ),
    "nd-null-field": (
        moments_text(cov_q=[[1, None], [None, 1]]),
        "error: moments file holds a non-numeric field: 'cov_q' holds None\n",
    ),
    "nd-huge-integer": (
        moments_text(mean_p=[10**400, 0]),
        "error: moments file holds a number past the float range: int too large to convert to float\n",
    ),
    # numpy refused these with its own "inhomogeneous shape" message
    "nd-ragged-covariance": (
        moments_text(cov_p=[[1, 0], [0]]),
        "error: covariance is ragged: its nested lists differ in length or depth\n",
    ),
    "nd-ragged-covariance-depth": (
        moments_text(cov_p=[[1, 0], [0, [1]]]),
        "error: covariance is ragged: its nested lists differ in length or depth\n",
    ),
    "nd-ragged-mean": (
        moments_text(mean_p=[1, [2]]),
        "error: mean is ragged: its nested lists differ in length or depth\n",
    ),
    "nd-flat-covariance": (
        moments_text(cov_p=[1, 0]), "error: covariance must have shape (2, 2), got (2,)\n"
    ),
    "nd-wide-covariance": (
        moments_text(cov_p=[[1, 0, 0], [0, 1, 0]]),
        "error: covariance must have shape (2, 2), got (2, 3)\n",
    ),
    # 1e12 trials of 8 points in 4-space once ended in numpy's
    # "Unable to allocate 233. TiB" traceback
    "nd-check-oversized-batch": (
        ("nd-check", "--dims", "4", "--trials", "1000000000000", "--seed", "1"),
        "error: trials * atoms * d = 1000000000000 * 8 * 4 is more than "
        "ND_CHECK_MAX_DRAWS = 10000000; run fewer trials per seed\n",
    ),
    # numpy's "expected non-negative integer" used to be the message
    "nd-check-negative-seed": (
        ("nd-check", "--dims", "2", "--seed", "-1"), "error: seed must be >= 0, got -1\n"
    ),
    "sweep-missing-sq": (
        ("sweep", *sweep_flags("sp", "0", "1", "0.5"), "--mp", "1", "--mq", "0"),
        "error: --sq is required when sweeping --sp\n",
    ),
    "sweep-negative-step": (
        sweep_mp("0", "1", "-0.5"), "error: --step must be positive, got -0.5\n"
    ),
    "sweep-zero-step": (sweep_mp("0", "1", "0"), "error: --step must be positive, got 0.0\n"),
    "sweep-stop-below-start": (
        sweep_mp("2", "1", "1"), "error: --stop must not be less than --start\n"
    ),
    "sweep-inf-stop": (
        sweep_mp("1e308", "inf", "3e307"),
        "error: --start, --stop and --step must be finite, got 1e+308, inf, 3e+307\n",
    ),
    "sweep-nan-start": (
        sweep_mp("nan", "1", "1"),
        "error: --start, --stop and --step must be finite, got nan, 1.0, 1.0\n",
    ),
    "sweep-inf-step": (
        sweep_mp("0", "1", "inf"),
        "error: --start, --stop and --step must be finite, got 0.0, 1.0, inf\n",
    ),
    # finite flags whose row count overflows: stop - start is inf
    "sweep-overflowing-count": (
        sweep_mp("-1e308", "1e308", "1"),
        "error: the range from --start -1e+308 to --stop 1e+308 by --step 1.0 "
        "has more than SWEEP_MAX_ROWS = 100000 rows\n",
    ),
    # one row more than the cap: refused before any row is built
    "sweep-cap-plus-one": (
        sweep_mp("0", str(SWEEP_MAX_ROWS), "1"),
        "error: the range from --start 0.0 to --stop 100000.0 by --step 1.0 "
        "has more than SWEEP_MAX_ROWS = 100000 rows\n",
    ),
    # (stop - start) / step + 1e-9 rounds to exactly the cap: one row more
    "sweep-cap-plus-one-by-rounding": (
        sweep_mp("0", repr(SWEEP_MAX_ROWS - 1e-9), "1"),
        "error: the range from --start 0.0 to --stop 99999.999999999 by --step 1.0 "
        "has more than SWEEP_MAX_ROWS = 100000 rows\n",
    ),
    "sweep-huge-count": (
        sweep_mp("0", "1e300", "1e-300"),
        "error: the range from --start 0.0 to --stop 1e+300 by --step 1e-300 "
        "has more than SWEEP_MAX_ROWS = 100000 rows\n",
    ),
    "unknown-command": (("frobnicate",), "error: argument command: invalid choice: "),
    "missing-flag": (
        ("bound", "--mp", "1"), "error: the following arguments are required: --sp, --mq, --sq"
    ),
}


@pytest.mark.parametrize("given, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_names_its_cause(capsys, tmp_path, given, message):
    argv = ("nd-bound", moments_file(tmp_path, given)) if isinstance(given, str) else given
    err = run_refused(capsys, *argv)
    if message.endswith("\n"):
        assert err == message
    else:
        assert err.startswith(message), err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["bound", "--sp", "1", "--mq", "0", "--sq", "1"], "--mp", "-1e-05"),
        (["bound", "--sp", "1", "--mq", "0", "--sq", "1"], "--mp", "-1E+2"),
        (["verify", "--sp", "1", "--mq", "0", "--sq", "1", "--grid-n", "21"], "--mp", "-1e-05"),
        (
            ["sweep", "--param", "mp", "--stop", "0", "--step", "5e-4",
             "--sp", "1", "--mq", "0", "--sq", "1"],
            "--start",
            "-1e-3",
        ),
    ],
    ids=["bound", "bound-upper-case", "verify", "sweep-start"],
)
def test_negative_scientific_value_reads_as_a_number(capsys, argv, flag, value):
    # argparse's own negative-number pattern has no exponent form, so it
    # took "-1e-05" for a flag; the "--flag=value" spelling always worked
    expected = run_cli(capsys, *argv, f"{flag}={value}")
    assert expected[0] == 0 and expected[2] == ""
    assert run_cli(capsys, *argv, flag, value) == expected


# every numeric flag of every command, with the flags the command needs
_NUMERIC_FLAGS = [
    *((["bound", *PAIR_FLAGS], flag) for flag in ("--mp", "--sp", "--mq", "--sq")),
    (["case-c", *PAIR_FLAGS], "--q-param"),
    *(
        (["sequence", "--sp", "1", "--sq", "2", "--k", "3"], flag)
        for flag in ("--m", "--sp", "--k")
    ),
    *(
        (["verify", *PAIR_FLAGS, "--grid-lo", "-6", "--grid-hi", "6", "--grid-n", "21"], flag)
        for flag in ("--grid-lo", "--grid-hi", "--grid-n")
    ),
    *(
        (["nd-check", "--dims", "1", "--atoms", "3", "--trials", "2"], flag)
        for flag in ("--dims", "--atoms", "--trials", "--seed")
    ),
    *(
        (["sweep", "--param", "mp", "--start", "0", "--stop", "1", "--step", "0.5",
          "--sp", "1", "--mq", "0", "--sq", "1"], flag)
        for flag in ("--start", "--stop", "--step")
    ),
]


@pytest.mark.parametrize(
    "argv, flag", _NUMERIC_FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag in _NUMERIC_FLAGS]
)
def test_every_negative_spelling_float_reads_is_a_value(capsys, argv, flag):
    # argparse's own pattern took "-inf" for a flag ("--mp: expected one
    # argument"); the "--flag=value" spelling always reached the check
    for value in ("-inf", "-nan", "-Infinity", "-1_000"):
        expected = run_cli(capsys, *argv, f"{flag}={value}")
        assert "expected one argument" not in expected[2]
        assert run_cli(capsys, *argv, flag, value) == expected, value


# ----------------------------------------------------------- import boundary

# The console script's own code: the installed ``tvbounds`` runs this.
_ENTRY = (sys.executable, "-c", "from tvbounds.cli import main; main()")
# record-class machinery that costs the 1-D commands more than the package
HEAVY = ("dataclasses", "inspect")


@pytest.mark.parametrize("command", golden_cases.COMMAND_MODULES)
def test_each_command_loads_only_its_layers(command):
    import tvbounds

    cases = [case for case in golden_cases.CASES if case[2][0] == command]
    env = dict(os.environ, PYTHONPATH=str(Path(tvbounds.__file__).parents[1]))
    # every nd-bound case, since a singular covariance too loads no numpy
    for name, code, argv in cases if command == "nd-bound" else cases[:1]:
        result, imports = golden_cases.run_case(_ENTRY, argv, env)
        assert result == golden_cases.expected(name, code), name
        assert golden_cases.loaded_modules(imports) == golden_cases.expected_modules(command), name
        if command not in golden_cases.NUMPY_COMMANDS:
            assert set(HEAVY).isdisjoint(imports), name


def test_numpy_is_imported_only_by_its_gate():
    import tvbounds

    sites = []
    for path in sorted(Path(tvbounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # each node's innermost function, as the walk meets the outer first
        owner = {
            id(node): f"{path.stem}.{func.name}"
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any(name.split(".")[0] == "numpy" for name in names):
                    sites.append(owner.get(id(node), path.stem))
    assert sites == ["nd._numpy"]


def test_lazy_names_resolve_to_the_defining_modules_objects():
    import tvbounds
    from tvbounds import cli

    for name, module in tvbounds._LAZY.items():
        value = getattr(importlib.import_module(module, "tvbounds"), name)
        assert getattr(tvbounds, name) is value, name
        assert getattr(cli, name) is value, name


def test_package_republishes_its_modules_public_names():
    import tvbounds
    from tvbounds import errors

    assert len(set(tvbounds.__all__)) == len(tvbounds.__all__)
    star = {}
    exec("from tvbounds import *", star)
    assert set(star) - {"__builtins__"} == set(tvbounds.__all__)
    # every exception type the package defines is public
    assert set(errors.__all__) == {
        name for name, value in vars(errors).items() if isinstance(value, type)
    }
    # cli and oracle share the package's lazy hook, and each refusal names
    # the module it was asked of
    for name in ("tvbounds", "tvbounds.cli", "tvbounds.oracle"):
        message = f"^module '{name}' has no attribute 'no_such_name'$"
        with pytest.raises(AttributeError, match=message):
            importlib.import_module(name).no_such_name


def test_bad_flags_and_moments_files_raise_bad_parameter_error(tmp_path):
    with pytest.raises(BadParameterError, match="required: --mp, --sp, --mq, --sq"):
        parse_args(["bound"])
    path = tmp_path / "moments.json"
    path.write_text('{"mean_p": [0], "cov_p": [[1]], "mean_q": [1]}')
    with pytest.raises(BadParameterError, match="missing key 'cov_q'"):
        run(RunConfig("nd-bound", {"path": str(path)}))


# ------------------------------------------------------------- known limits

# Each reproducer asserts what its mend gives and fails today, so it is a
# strict xfail; the change that mends one removes its marker.  README,
# "Known limits", lists them with their output today.


ORACLE_REPRODUCERS = {
    "offset": pair_flags("10000.885953360776", "1.1456377804563067", "10000", "0.7584353760061202"),
    "small-scale": pair_flags(
        "1437.1418733428304", "5.264375986957169e-08", "1437.1418726773522", "6.342263096312475e-07"
    ),
    "suboptimal-optimal": pair_flags(
        "-0.1445325412898244", "0.22736583522869225", "-1.5146932245996316", "0"
    ),
    "point-masses": pair_flags("-1.1432955504938587", "0", "-1.574802531359674", "0"),
}


@pytest.mark.parametrize("flags", ORACLE_REPRODUCERS.values(), ids=ORACLE_REPRODUCERS)
def test_verify_is_tight_on_the_oracle_reproducers(capsys, flags):
    code, payload = run_json(capsys, "verify", *flags)
    assert (payload["verdict"], code) == ("tight", 0)


WITNESS_LIMITS = {
    "witness-1e-20": ["witness", *pair_flags("1e-20", "1e-20", "0", "1e-20")],
    "two-point-1e80": ["two-point", *pair_flags("1e80", "3e80", "0", "1e80")],
    "two-point-3e7": ["two-point", *pair_flags("3e7", "1", "0", "1")],
    "sequence-k-1e26": ["sequence", "--m", "0", "--sp", "2", "--sq", "1", "--k", str(10**26)],
    "witness-offset-1e8": [
        "witness",
        *pair_flags("99416348.774151", "0.1752693471298452", "99416349.5582739", "1.6388753563552731"),
    ],
}


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 3: the 1 + |x| floors of the merge and moment checks "
    "refuse witnesses at these scales and offsets",
)
@pytest.mark.parametrize("argv", WITNESS_LIMITS.values(), ids=WITNESS_LIMITS)
def test_witness_limit_builds(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.xfail(
    raises=AssertionError,
    reason="FOUND: the anchored witness's masses (1 - p)(1 - q_param) and "
    "(1 - p) q_param keep only the absolute rounding of p near 1 - 1e-12, so "
    "the p side's variance misses by 2.2e-5 relative, which no scale rule "
    "accepts (construct_anchored_witness)",
)
def test_case_c_builds_where_the_anchored_value_nears_1(capsys):
    code, _, err = run_cli(capsys, "case-c", *pair_flags("1e6", "1", "0", "1"))
    assert (code, err) == (0, "")


def known_failure(id, flags, reason):
    return pytest.param(flags, id=id, marks=pytest.mark.xfail(raises=AssertionError, reason=reason))


@pytest.mark.parametrize(
    "flags",
    [
        known_failure(
            "small-gap", pair_flags("1e-5", "1", "0", "1"),
            "FOUND: at a gap ratio of 5e-6 the seeded grid LP ends in numeric_failure, exit 3, "
            "at a bound of 2.5e-11 (ROADMAP item 11)",
        ),
        known_failure(
            "point-mass-side", pair_flags("0.07029284945946625", "0", "0.09761512320508654", "0.01716600984474464"),
            "FOUND: at a bound of 0.717 the kernel ends optimal on a basis with a basic value of "
            "-0.010, which extraction refuses, so verify exits 3; its swap is tight (ROADMAP item 14)",
        ),
    ],
)
def test_verify_settles_without_numeric_failure(capsys, flags):
    code, payload = run_json(capsys, "verify", *flags)
    assert code != 3 and payload["verdict"] != "numeric_failure"
