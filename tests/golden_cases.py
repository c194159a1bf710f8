"""The golden cases: each command's argv, exit code and pinned output.

``<name>.out`` under ``tests/golden/`` holds a case's expected stdout and
``<name>.err`` its expected stderr (empty when absent).  ``test_golden``
runs every case in-process.  Run as a script, this module runs them through
the installed ``tvbounds`` script and exits nonzero if any differs:

    python tests/golden_cases.py                  # every case
    python tests/golden_cases.py --without-numpy  # the commands that never
                                                  # import numpy, where it is
                                                  # not installed

It imports neither pytest nor the package, so it runs where only the
package itself is installed.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
PAIR = ("--mp", "1", "--sp", "1", "--mq", "0", "--sq", "1")

CASES = [
    ("bound", 0, ["bound", *PAIR]),
    ("witness", 0, ["witness", *PAIR]),
    # a point mass on either side anchors a two-point tight witness
    (
        "witness_p_point_mass",
        0,
        ["witness", "--mp", "0.3", "--sp", "0", "--mq", "-0.1", "--sq", "0.7"],
    ),
    (
        "witness_q_point_mass",
        0,
        ["witness", "--mp", "0.3", "--sp", "0.7", "--mq", "-0.1", "--sq", "0"],
    ),
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
    # without the witness support the grid optimum sits strictly above the bound
    (
        "verify_plain_grid_sound",
        0,
        ["verify", *PAIR, "--grid-n", "21", "--include-witness", "false"],
    ),
    (
        "verify_narrow_grid",
        2,
        ["verify", "--mp", "0", "--sp", "0.2", "--mq", "5.5", "--sq", "0.1",
         "--grid-lo", "5", "--grid-hi", "6", "--grid-n", "11",
         "--include-witness", "false"],
    ),
    ("nd_bound", 0, ["nd-bound", str(GOLDEN / "nd_moments.json")]),
    ("nd_check", 0, ["nd-check", "--dims", "2", "--trials", "20", "--seed", "3"]),
    # the default 1000 trials at the largest dimension
    ("nd_check_default_trials", 0, ["nd-check", "--dims", "4", "--seed", "11"]),
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


def expected(name, code):
    """The exit code, stdout and stderr pinned for the case ``name``."""
    err_path = GOLDEN / f"{name}.err"
    return (
        code,
        (GOLDEN / f"{name}.out").read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8") if err_path.exists() else "",
    )


#: The commands that import numpy; the others must run without it.
NUMPY_COMMANDS = ("verify", "nd-bound", "nd-check")


def main(argv) -> int:
    cases = CASES
    if "--without-numpy" in argv:
        if importlib.util.find_spec("numpy") is not None:
            print("numpy is importable")
            return 1
        cases = [case for case in CASES if case[2][0] not in NUMPY_COMMANDS]
    differ = []
    for name, code, args in cases:
        proc = subprocess.run(["tvbounds", *args], capture_output=True, text=True)
        if (proc.returncode, proc.stdout, proc.stderr) != expected(name, code):
            differ.append(name)
    print(f"{len(cases) - len(differ)} of {len(cases)} cases match the goldens")
    if differ:
        print(f"differ: {', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
