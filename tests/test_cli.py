"""Command-line interface: outputs, schemas, exit codes, determinism."""

import ast
import importlib
import json
import math
import os
import sys
from pathlib import Path

import pytest

from tvbounds import (
    BadParameterError,
    DiscreteDist,
    Moments1D,
    tv_distance,
)
from tvbounds.cli import SWEEP_MAX_ROWS, _verdict, main, parse_args, run
from tvbounds.discrete import check_moments

import golden_cases
from conftest import cli_argv, moments_text, pair_flags


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


@pytest.mark.parametrize("word, value", [("yes", True), ("no", False), (" TRUE ", True)])
def test_include_witness_reads_yes_no_and_padded_words(word, value):
    params = parse_args(["verify", *PAIR_FLAGS, "--include-witness", word]).params
    assert params["include_witness"] is value


def test_verify_is_tight_at_a_large_gap_to_spread_ratio(capsys):
    # the mean gap is 10,000 times the summed stddevs
    code, payload = run_json(capsys, "verify", *pair_flags("20000", "1.3", "0", "0.7"))
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

@pytest.mark.parametrize(
    "depth", [100_000, sys.getrecursionlimit() + 50], ids=["100000", "recursion-limit+50"]
)
def test_nd_bound_refuses_a_deep_nesting_in_one_line(capsys, tmp_path, depth):
    # the JSON parser meets the recursion limit, or on Python 3.12+, whose
    # parser can go deeper, the walk that screens the fields does
    nested = "[" * depth + "1" + "]" * depth
    text = '{"mean_p": %s, "cov_p": [[1]], "mean_q": [0], "cov_q": [[1]]}' % nested
    run_refused(capsys, *cli_argv(tmp_path, text))


def test_nd_bound_names_a_field_too_deep_for_the_walk(capsys, monkeypatch, tmp_path):
    # a parser that returns a nesting deeper than the recursion limit, as
    # Python 3.12+'s can: the screening walk refuses it by its field
    deep = [1.0]
    for _ in range(5000):
        deep = [deep]
    payload = {"mean_p": [0.0], "cov_p": deep, "mean_q": [0.0], "cov_q": [[1.0]]}
    monkeypatch.setattr(json, "load", lambda handle: payload)
    err = run_refused(capsys, *cli_argv(tmp_path, "{}"))
    assert err == "error: moments file nests 'cov_p' too deeply to read\n"


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


def sweep_flags(param, start, stop, step):
    return ("--param", param, "--start", start, "--stop", stop, "--step", step)


def sweep_mp(start, stop, step):
    """A sweep of --mp with the other three moments at 1, 0 and 1."""
    return ("sweep", *sweep_flags("mp", start, stop, step), "--sp", "1", "--mq", "0", "--sq", "1")


#: Invalid input that ``cli.py`` refuses itself, one row a refusal: the
#: argv, or the text of the moments file that ``nd-bound`` reads, and the
#: whole of stderr.  The wordings of argparse and of the JSON parser differ
#: across Python 3.10-3.13, so their rows end without a newline and pin a
#: prefix.  The library's refusals, with the command lines that print them,
#: are rows of ``tests/test_refusals.py``.
REFUSALS = {
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
    "nd-missing-mean-p": (
        '{"cov_p": [[1.0]], "mean_q": [1.0], "cov_q": [[1.0]]}',
        "error: moments file is missing key 'mean_p'\n",
    ),
    "nd-missing-cov-q": (
        '{"mean_p": [0.0], "cov_p": [[1.0]], "mean_q": [1.0]}',
        "error: moments file is missing key 'cov_q'\n",
    ),
    "nd-not-json": ("{not json", "error: cannot read moments file "),
    # the JSON parser's other ValueErrors: a byte that is not UTF-8, and an
    # integer past int()'s digit limit
    "nd-not-utf-8": (b"\xff\xfe{}", "error: cannot read moments file "),
    "nd-integer-past-the-digit-limit": (
        '{"mean_p": [%s], "cov_p": [[1]], "mean_q": [0], "cov_q": [[1]]}' % ("1" * 4301),
        "error: cannot read moments file ",
    ),
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
    argv = cli_argv(tmp_path, given)
    with pytest.raises(BadParameterError) as raised:
        run(parse_args(argv))
    assert Path(raised.traceback[-1].path).name == "cli.py"
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
    # argument"), and has no exponent form, so it took "-1e-05" for one too;
    # the "--flag=value" spelling always reached the check
    for value in ("-inf", "-nan", "-Infinity", "-1_000", "-1e-05", "-1E+2"):
        expected = run_cli(capsys, *argv, f"{flag}={value}")
        assert "expected one argument" not in expected[2]
        assert run_cli(capsys, *argv, flag, value) == expected, value


# ----------------------------------------------------------- import boundary

# The console script's own code: the installed ``tvbounds`` runs this.
_ENTRY = (sys.executable, "-c", "from tvbounds.cli import main; main()")


@pytest.mark.parametrize("case", golden_cases.CASES, ids=[case[0] for case in golden_cases.CASES])
def test_each_command_loads_only_its_layers(case):
    import tvbounds

    env = dict(os.environ, PYTHONPATH=str(Path(tvbounds.__file__).parents[1]))
    assert golden_cases.differences(_ENTRY, case, env) == []


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
