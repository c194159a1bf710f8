"""Golden bytes: the full output of every command, pinned.

Each case runs ``main`` in-process and compares its exit code, stdout and
stderr with the files under ``tests/golden/``: ``<name>.out`` holds the
expected stdout and ``<name>.err`` the expected stderr (empty when absent).
"""

from pathlib import Path

import pytest

from tvbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"
PAIR = ("--mp", "1", "--sp", "1", "--mq", "0", "--sq", "1")

CASES = [
    ("bound", 0, ["bound", *PAIR]),
    ("witness", 0, ["witness", *PAIR]),
    ("two_point", 0, ["two-point", "--mp", "1", "--sp", "0.5", "--mq", "0", "--sq", "2"]),
    # a point mass on either side: the two-point pair is the tight witness
    (
        "two_point_q_point_mass",
        0,
        ["two-point", "--mp", "1", "--sp", "1", "--mq", "0", "--sq", "0"],
    ),
    (
        "two_point_p_point_mass",
        0,
        ["two-point", "--mp", "1", "--sp", "0", "--mq", "0", "--sq", "2"],
    ),
    ("case_c", 0, ["case-c", *PAIR, "--q-param", "0.3"]),
    ("sequence", 0, ["sequence", "--m", "0", "--sp", "2", "--sq", "1", "--k", "10"]),
    (
        "sequence_equal_stddevs",
        0,
        ["sequence", "--m", "0", "--sp", "1", "--sq", "1", "--k", "3"],
    ),
    ("verify", 0, ["verify", *PAIR, "--grid-n", "21"]),
    (
        "verify_narrow_grid",
        2,
        ["verify", "--mp", "0", "--sp", "0.2", "--mq", "5.5", "--sq", "0.1",
         "--grid-lo", "5", "--grid-hi", "6", "--grid-n", "11",
         "--include-witness", "false"],
    ),
    ("nd_bound", 0, ["nd-bound", str(GOLDEN / "nd_moments.json")]),
    ("nd_check", 0, ["nd-check", "--dims", "2", "--trials", "20", "--seed", "3"]),
    (
        "sweep_csv",
        0,
        ["sweep", "--param", "sp", "--start", "0.5", "--stop", "2.5", "--step", "0.5",
         "--mp", "1", "--mq", "0", "--sq", "1"],
    ),
    (
        "sweep_json",
        0,
        ["sweep", "--param", "mp", "--start", "0", "--stop", "1", "--step", "0.5",
         "--sp", "1", "--mq", "0", "--sq", "1", "--format", "json"],
    ),
    ("error_negative_stddev", 1, ["bound", "--mp", "1", "--sp", "-1", "--mq", "0", "--sq", "1"]),
]


@pytest.mark.parametrize("name, code, argv", CASES, ids=[case[0] for case in CASES])
def test_command_output_is_golden(capsys, name, code, argv):
    assert main(argv) == code
    captured = capsys.readouterr()
    err_path = GOLDEN / f"{name}.err"
    assert captured.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert captured.err == (err_path.read_text(encoding="utf-8") if err_path.exists() else "")
