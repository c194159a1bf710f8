"""Bit-for-bit digests of the grid LP oracle and of its simplex kernel.

``DIGEST`` is the sha256 of the ``repr`` of ``minimize_tv_on_grid``'s
outcome over 700 seeded pairs, each on its default grid with and without
the witness support: the status, the minimal TV, the pivot count and both
optimizers' supports and masses, or the refusal's type and message.  A
change that moves any output bit of ``verify``'s oracle changes the
digest.  ROADMAP items 9 (an exchange oracle that adds grid points) and 11
will move it on purpose; CHANGES.md must then list each outcome they move.

``KERNEL_DIGEST`` is the sha256 of ``solve_dense``'s outcome over 3,000
seeded dense programs: the status, the basic values by column, the
objective and the pivot count, or the refusal's type and message.  The
programs have 1 to 6 rows, so most are padded; exact ``0.0`` and ``-0.0``
entries; columns zero in rows 0-2 or in rows 3-5, as the grid's ``v`` and
``u`` columns are; and entries from unit scale to magnitudes of 1e-150 to
1e150, where some solves overflow, end at the iteration limit or raise
from pricing.  A change to the kernel's arithmetic that moves any bit of
its outcomes changes it.

The module imports neither numpy nor ``conftest.py``, so it also runs where
numpy is not installed.  Both paths sum with ``math.fsum`` only, never the
builtin ``sum`` (whose float result changed in Python 3.12)::

    python -m pytest --noconftest tests/test_digest_oracle.py
"""

import hashlib
import math
import random
from operator import mul

import pytest

from tvbounds import MomentPair1D, TVBoundError
from tvbounds.oracle import GridSpec, OracleStatus, minimize_tv_on_grid
from tvbounds.simplex import solve_dense

from dense_columns import DenseColumns

#: sha256 of the 1,400 outcomes' lines, as the oracle printed them when the
#: digest was taken; it changes only with an output bit.
DIGEST = "31aed6d7d4f85cc5e0fd80482ddca33d82cdd382e1a867d559d8d595b6526120"
#: sha256 of the 3,000 programs' outcomes, as the kernel gave them when the
#: digest was taken; it changes only with an output bit.
KERNEL_DIGEST = "75fa738746383c633f550496104ce7ad0bfb5e851d232ad0f00fda705a4e60b4"


def _pairs(count: int, seed: int):
    """``count`` (mp, sp, mq, sq, grid count): offsets 0 one time in four,
    else +-10^U(0, 9) spreads, at a scale of 10^U(-6, 6); a point mass on
    one side one time in four; a tenth at a mean gap of 10^U(-9, -6) times
    the summed stddevs; 3 to 200 grid points."""
    rng = random.Random(seed)
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        offset = 0.0
        if rng.random() >= 0.25:
            offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 9.0)
        sp, sq = (scale * rng.uniform(0.1, 2.0) for _ in "pq")
        if rng.random() < 0.25:
            sp, sq = (0.0, sq) if rng.random() < 0.5 else (sp, 0.0)
        if rng.random() < 0.1:
            a = rng.choice((-1.0, 1.0)) * (sp + sq) * 10.0 ** rng.uniform(-9.0, -6.0)
        else:
            a = scale * rng.uniform(-3.0, 3.0)
        mp = scale * (offset + rng.uniform(-3.0, 3.0))
        yield mp, sp, mp - a, sq, rng.randrange(3, 201)


def _outcome(pair, count, with_witness) -> str:
    try:
        res = minimize_tv_on_grid(pair, GridSpec.default_for(pair, count), with_witness)
    except (TVBoundError, ValueError) as exc:
        return repr((type(exc).__name__, str(exc)))
    p, q = res.p_opt, res.q_opt
    p_opt = None if p is None else (p.support, p.probs)
    q_opt = None if q is None else (q.support, q.probs)
    return repr((res.status.value, res.tv_min, res.iterations, p_opt, q_opt))


def _lines(count: int, seed: int):
    for mp, sp, mq, sq, k in _pairs(count, seed):
        pair = MomentPair1D.from_scalars(mp, sp, mq, sq)
        yield repr((mp, sp, mq, sq, k))
        yield _outcome(pair, k, True)
        yield _outcome(pair, k, False)


@pytest.fixture(scope="module")
def lines():
    return list(_lines(700, 28))


def test_grid_oracle_keeps_every_output_bit(lines):
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


def test_the_pairs_reach_every_outcome(lines):
    # a digest of one outcome alone would pin little: the seeded pairs
    # reach each status and meet a refusal
    kinds = {line[1:].split(",", 1)[0] for line in lines[1::3] + lines[2::3]}
    statuses = {repr(status.value) for status in OracleStatus}
    assert statuses < kinds
    assert "'WitnessConstructionError'" in kinds


def _programs(count: int, seed: int):
    """``count`` (rows, costs, right-hand side): 1 to 6 rows and 1 to 9
    columns.  Each entry is an exact 0.0 or -0.0 a quarter of the time;
    else, in half the programs, +-10^U(-150, 150), and in the other half an
    integer in [-3, 3] or U(-3, 3).  A column is zero in rows 0-2 one time
    in three and in rows 3-5 one time in three.  Half the right-hand sides
    are drawn like the entries, and half are ``A x`` at a random ``x >= 0``,
    so that the program is feasible."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 9)
        wide = rng.random() < 0.5

        def entry():
            u = rng.random()
            if u < 0.25:
                return rng.choice((0.0, -0.0))
            if wide:
                return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0)
            return float(rng.randint(-3, 3)) if u < 0.6 else rng.uniform(-3.0, 3.0)

        columns = []
        for _ in range(n):
            column = [entry() for _ in range(m)]
            for i in rng.choice(((), range(0, 3), range(3, 6))):
                if i < m:
                    column[i] = rng.choice((0.0, -0.0))
            columns.append(column)
        rows = [list(row) for row in zip(*columns)]
        c = [entry() for _ in range(n)]
        if rng.random() < 0.5:
            b = [entry() for _ in range(m)]
        else:
            x = [rng.choice((0.0, rng.random())) for _ in range(n)]
            b = [math.fsum(map(mul, row, x)) for row in rows]
        yield rows, c, b


def _kernel_outcome(rows, c, b) -> str:
    try:
        res = solve_dense(DenseColumns(rows, c), b)
    except (ArithmeticError, ValueError) as exc:
        return repr((type(exc).__name__, str(exc)))
    x = None if res.x is None else sorted(res.x.items())
    return repr((res.status, x, res.objective, res.iterations))


@pytest.fixture(scope="module")
def kernel_lines():
    return [_kernel_outcome(*program) for program in _programs(3000, 34)]


def test_kernel_keeps_every_output_bit(kernel_lines):
    assert hashlib.sha256("\n".join(kernel_lines).encode()).hexdigest() == KERNEL_DIGEST


def test_the_programs_reach_every_status(kernel_lines):
    # a digest of a few outcomes would pin little: the programs reach every
    # status, the wide ones the iteration limit, and two of those raise from
    # pricing, where infinite duals meet entries of both signs
    kinds = {line[1:].split(",", 1)[0] for line in kernel_lines}
    statuses = {"'optimal'", "'infeasible'", "'unbounded'", "'iteration_limit'"}
    assert statuses < kinds
    assert "'ValueError'" in kinds
