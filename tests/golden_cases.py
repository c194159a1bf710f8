"""The golden cases: each command's argv, exit code and pinned output.

``<name>.out`` under ``tests/golden/`` holds a case's expected stdout and
``<name>.err`` its expected stderr (empty when absent).  ``test_golden``
runs every case in-process.  ``differences`` runs one out of process, under
``PYTHONPROFILEIMPORTTIME`` to read which modules its command loads as well,
and names what differs from its pins; ``test_cli`` calls it on every case.
Run as a script, this module calls it on each case through the installed
``tvbounds`` script, and exits nonzero if any output or any set of modules
differs:

    python tests/golden_cases.py                  # every case
    python tests/golden_cases.py --without-numpy  # the cases that need no
                                                  # numpy and WITHOUT_NUMPY,
                                                  # where it is not installed

It imports neither pytest nor the package, so it runs where only the
package itself is installed.
"""

import importlib.util
import os
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
    # a 1x1 covariance goes through the same eigenvalue rule as any other
    ("nd_bound_1d", 0, ["nd-bound", str(GOLDEN / "nd_moments_1d.json")]),
    # the Cholesky proof settles a singular covariance, and a 1x1 entry is
    # its own eigenvalue, so these two give the same bytes without numpy
    ("nd_bound_singular", 0, ["nd-bound", str(GOLDEN / "nd_moments_singular.json")]),
    ("error_nd_negative_1x1", 1, ["nd-bound", str(GOLDEN / "nd_moments_negative_1x1.json")]),
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

#: The refusals of ``nd._numpy``, the one numpy gate, where numpy is not
#: installed: a covariance the Cholesky proof does not settle, and nd-check.
WITHOUT_NUMPY = [
    ("error_nd_unproved_without_numpy", 1, ["nd-bound", str(GOLDEN / "nd_moments_unproved.json")]),
    ("error_nd_check_without_numpy", 1, ["nd-check", "--dims", "2", "--trials", "20", "--seed", "3"]),
]


def expected(name, code):
    """The exit code, stdout and stderr pinned for the case ``name``."""
    err_path = GOLDEN / f"{name}.err"
    return (
        code,
        (GOLDEN / f"{name}.out").read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8") if err_path.exists() else "",
    )


#: The modules every command loads: the package, its errors and closed
#: forms, and the CLI.
BASE_MODULES = ("tvbounds", "tvbounds.cli", "tvbounds.errors", "tvbounds.moments")
_WITNESS = ("tvbounds.discrete", "tvbounds.witness")
#: The package's modules, and numpy, that each command loads beside
#: ``BASE_MODULES``: the closed-form commands none, and only ``nd-check``
#: numpy; ``nd-bound`` runs on the pure-Python n-d layer.
COMMAND_MODULES = {
    "bound": (),
    "sweep": (),
    "witness": _WITNESS,
    "two-point": _WITNESS,
    "case-c": _WITNESS,
    "sequence": _WITNESS,
    "verify": (*_WITNESS, "tvbounds.oracle", "tvbounds.simplex"),
    "nd-bound": ("tvbounds.nd",),
    "nd-check": ("tvbounds.nd", "numpy"),
}
#: The commands that import numpy; the others, ``verify`` and ``nd-bound``
#: among them, must give their goldens without it.
NUMPY_COMMANDS = tuple(c for c, modules in COMMAND_MODULES.items() if "numpy" in modules)
#: Record-class machinery that would cost a command without numpy more than
#: the package does.
HEAVY = ("dataclasses", "inspect")


def program_imports(stderr):
    """The modules a program imported, read from its ``-X importtime``
    lines in ``stderr``.  ``site`` runs first, and its own line closes the
    list of what it imported, so only the lines after it count."""
    names = []
    for line in stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3:
            names.append(fields[2].strip())
    return names[names.index("site") + 1:] if "site" in names else names


def differences(entry, case, env=None):
    """Run ``case`` through the command line ``entry`` once, under
    ``PYTHONPROFILEIMPORTTIME``, and name what differs from its pins: its
    output (exit code, stdout, and stderr without the profile's ``import
    time:`` lines), and the set of the package's modules and numpy that it
    loads, ``HEAVY`` among them for a command without numpy.  Empty where
    nothing differs."""
    name, code, args = case
    env = dict(os.environ if env is None else env, PYTHONPROFILEIMPORTTIME="1")
    proc = subprocess.run([*entry, *args], capture_output=True, text=True, env=env, timeout=120)
    lines = proc.stderr.splitlines(keepends=True)
    stderr = "".join(line for line in lines if not line.startswith("import time:"))
    found = [] if (proc.returncode, proc.stdout, stderr) == expected(name, code) else ["output"]
    watched = ("tvbounds", "numpy", *(() if args[0] in NUMPY_COMMANDS else HEAVY))
    loaded = sorted(
        module for module in program_imports(proc.stderr)
        if module in watched or module.startswith("tvbounds.")
    )
    # -X importtime prints the gate's failed import of numpy too
    gated = ("numpy",) if case in WITHOUT_NUMPY else ()
    if loaded != sorted({*BASE_MODULES, *COMMAND_MODULES[args[0]], *gated}):
        found.append(f"loads {', '.join(loaded)}")
    return found


def main(argv) -> int:
    cases = CASES
    if "--without-numpy" in argv:
        if importlib.util.find_spec("numpy") is not None:
            print("numpy is importable")
            return 1
        cases = [case for case in CASES if case[2][0] not in NUMPY_COMMANDS] + WITHOUT_NUMPY
    differ = []
    for case in cases:
        found = differences(["tvbounds"], case)
        if found:
            differ.append(f"{case[0]} ({' and '.join(found)})")
    print(
        f"{len(cases) - len(differ)} of {len(cases)} cases match the goldens "
        "and load their command's modules"
    )
    if differ:
        print(f"differ: {', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
