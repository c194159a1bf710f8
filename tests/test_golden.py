"""Golden bytes: the full output of every command, pinned.

Each case of ``golden_cases.CASES`` runs ``main`` in-process and compares
its exit code, stdout and stderr with the files under ``tests/golden/``.
The CI workflow runs the installed ``tvbounds`` script on the same cases.
"""

import pytest

from tvbounds.cli import main

from golden_cases import CASES, expected


@pytest.mark.parametrize("name, code, argv", CASES, ids=[case[0] for case in CASES])
def test_command_output_is_golden(capsys, name, code, argv):
    returned = main(argv)
    captured = capsys.readouterr()
    assert (returned, captured.out, captured.err) == expected(name, code)
