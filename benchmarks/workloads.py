"""The four workloads: inputs drawn from a seed, one op, and the op's check.

A workload's ``prepare(seed)`` builds its inputs, any reference outputs and
runs a short warm-up; ``run_op(i)`` performs op ``i`` with program calls only,
so the caller can time exactly that; ``check(i, outcome)`` judges the outcome
outside the timed region and returns ``(verdict, reason)``:

* ``OK``: the output passed every check;
* ``REFUSED``: the program raised or reported a non-optimal status, which
  counts as a failed op but is not a wrong answer;
* ``WRONG``: the program returned an output the check rejects.

The program is reached through its module attributes at call time, so a
traced run can wrap exactly those names (see ``spans.WRAPS``).
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from spans import OP_SPAN

OK, REFUSED, WRONG = "ok", "refused", "wrong"

#: Agreement required of a recomputed TV value, and relative agreement
#: required of recomputed moments (the library's own witness tolerances).
TV_TOL = 1e-12
MOMENT_TOL = 1e-9


def tight_bound(mp: float, sp: float, mq: float, sq: float) -> float:
    """a^2 / ((sp + sq)^2 + a^2), recomputed here independently of the package."""
    a = mp - mq
    if a == 0.0:
        return 0.0
    s = sp + sq
    return (a * a) / (s * s + a * a)


def moments_match(dist, mean: float, stddev: float) -> bool:
    """Two-pass centered moments of ``dist`` against the target, with the
    relative tolerances of ``tvbounds.discrete.check_moments``."""
    got_mean = math.fsum(p * x for x, p in zip(dist.support, dist.probs))
    got_var = math.fsum(p * (x - got_mean) ** 2 for x, p in zip(dist.support, dist.probs))
    var = stddev * stddev
    return (
        abs(got_mean - mean) <= MOMENT_TOL * (1.0 + abs(mean))
        and abs(got_var - var) <= MOMENT_TOL * (1.0 + var)
    )


def _attempt(fn, *args):
    # one refusing constructor must not skip the others, so every op does
    # the same work whether or not the known defects fire
    try:
        return fn(*args)
    except Exception as exc:  # counted as a refusal by ``check``
        # the class only: the exception's traceback holds this frame, which
        # holds the exception, a cycle per refusal that only the cyclic
        # collector frees, at moments and peak memory that vary by run
        return type(exc)


class Workload:
    """What the runner may call beyond ``prepare``, ``run_op`` and ``check``."""

    #: Layer the op's root span is attributed to in a traced run.
    op_layer = "bench"
    #: CPU seconds after which an untraced run stops an op and counts it as failed.
    deadline_s: float | None = None
    #: Whether an op's CPU time includes that of the child processes it waits for.
    counts_children = False
    #: Calibration kernel whose work is most like the op's (see ``calibrate.py``).
    kernel = "python"

    @property
    def pool_size(self) -> int:
        """Distinct inputs; op ``i`` uses input ``i % pool_size``."""
        return self.POOL

    def traced_extras(self, tracer) -> None:
        """Calls to make under the tracer after the traced ops; none by default."""

    def layer_metrics(self, tracer) -> dict[str, float]:
        """Per-layer metrics only this workload can give; none by default."""
        return {}


class ClosedForm(Workload):
    """One moment pair through ``from_scalars`` and ``bound_report``, then
    every witness constructor that applies: tight, two-point and anchored,
    or the vanishing sequence when the means are equal."""

    name = "closed_form"
    modules = ("tvbounds.moments", "tvbounds.witness", "tvbounds.discrete")
    POOL = 16384
    EQUAL_MEANS_SHARE = 0.10
    POINT_MASS_SHARE = 0.05
    OFFSET_SHARE = 0.50
    OFFSET_MAX = 1e6
    WARMUP_OPS = 200

    def properties(self) -> str:
        return (
            f"pool {self.POOL} pairs; means U(-2,2) plus a common offset, which is 0 for "
            f"{1 - self.OFFSET_SHARE:.0%} of pairs and +-log-uniform on [1, {self.OFFSET_MAX:g}] "
            f"for {self.OFFSET_SHARE:.0%}; stddevs U(0.2,2); {self.EQUAL_MEANS_SHARE:.0%} equal means "
            f"(sequence, k U{{2..64}}); {self.POINT_MASS_SHARE:.0%} with sd_q = 0"
        )

    def prepare(self, seed: int) -> None:
        self.moments = importlib.import_module("tvbounds.moments")
        self.witness = importlib.import_module("tvbounds.witness")
        self.discrete = importlib.import_module("tvbounds.discrete")
        rng = random.Random(seed)
        inputs = []
        for _ in range(self.POOL):
            offset = 0.0
            if rng.random() < self.OFFSET_SHARE:
                offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, math.log10(self.OFFSET_MAX))
            sp, sq = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
            mp = offset + rng.uniform(-2.0, 2.0)
            mq = offset + rng.uniform(-2.0, 2.0)
            kind = rng.random()
            if kind < self.EQUAL_MEANS_SHARE:
                mq = mp
            elif kind < self.EQUAL_MEANS_SHARE + self.POINT_MASS_SHARE:
                sq = 0.0
            inputs.append((mp, sp, mq, sq, rng.randint(2, 64)))
        self.inputs = inputs
        for i in range(self.WARMUP_OPS):
            self.check(i, self.run_op(i))

    def run_op(self, i: int):
        mp, sp, mq, sq, k = self.inputs[i % self.POOL]
        moments, witness = self.moments, self.witness
        pair = moments.MomentPair1D.from_scalars(mp, sp, mq, sq)
        report = moments.bound_report(pair)
        if mp == mq:
            return report, {"sequence": _attempt(witness.construct_vanishing_sequence, mp, sp, sq, k)}
        built = {
            "tight": _attempt(witness.construct_tight_witness, pair),
            "two_point": _attempt(witness.construct_two_point, pair),
        }
        if sp > 0.0 and sq > 0.0:
            built["anchored"] = _attempt(witness.construct_anchored_witness, pair)
        return report, built

    def check(self, i: int, outcome):
        mp, sp, mq, sq, k = self.inputs[i % self.POOL]
        report, built = outcome
        bound = tight_bound(mp, sp, mq, sq)
        if abs(report.tight_bound - bound) > TV_TOL:
            return WRONG, "bound"
        claimed = {
            "tight": bound,
            "two_point": report.two_point_tv,
            "anchored": report.anchored_p_tv,
            "sequence": 0.0 if sp == sq else 1.0 / k,
        }
        refused = []
        for kind, pair in built.items():
            if isinstance(pair, type):
                refused.append(f"{kind}:{pair.__name__}")
                continue
            tv = self.discrete.tv_distance(pair.p_dist, pair.q_dist)
            if not (
                abs(pair.claimed_tv - claimed[kind]) <= TV_TOL
                and abs(tv - pair.claimed_tv) <= TV_TOL
                and moments_match(pair.p_dist, mp, sp)
                and moments_match(pair.q_dist, mq, sq)
            ):
                return WRONG, kind
        return (REFUSED, "+".join(refused)) if refused else (OK, "")


class VerifyGrid(Workload):
    """One ``minimize_tv_on_grid`` call at the default grid; even-numbered inputs fold
    the tight witness's support into the grid, odd-numbered ones use the plain grid."""

    name = "verify_grid"
    kernel = "tableau"
    modules = ("tvbounds.moments", "tvbounds.oracle", "tvbounds.cli")
    #: A prime, so that each coordinate of the lattice takes POOL distinct values.
    POOL = 149
    #: Generating vector of the lattice the inputs are drawn from: of all
    #: (1, a, b), the one whose closest two points lie farthest apart, in
    #: the cube and in each plane of two coordinates, against the spacing
    #: of a square grid of as many points.
    LATTICE = (1, 12, 44)
    #: Warm-up pair (mean_p, sd_p, sd_q), fixed so that set-up time does
    #: not depend on whether the seed's first input is a slow solve.
    WARMUP_PAIR = (1.0, 1.0, 0.5)
    # About five times the median op and twice the slowest passing op seen
    # at baseline: the rare solve that runs on to the iteration limit (~18 s)
    # costs a run this much, not a whole run's worth of time.
    deadline_s = 0.5

    def properties(self) -> str:
        return (
            f"pool {self.POOL} pairs, a randomly shifted lattice over mean_p U(-2,2) against mean_q 0 "
            "and stddevs U(0.2,2); "
            "default grid (121 points); 50% of ops with witness points folded in"
        )

    def prepare(self, seed: int) -> None:
        moments = importlib.import_module("tvbounds.moments")
        self.oracle = importlib.import_module("tvbounds.oracle")
        cli = importlib.import_module("tvbounds.cli")
        self.tight_tol, self.sound_tol = cli.VERIFY_TIGHT_TOL, cli.VERIFY_SOUND_TOL
        rng = random.Random(seed)
        # a rank-1 lattice shifted at random: the points fill the cube of
        # (mean_p, sd_p, sd_q) more evenly than independent draws, so that
        # the mix of easy and hard LPs, and with it the median solve time,
        # varies little from seed to seed
        shift = [rng.random() for _ in self.LATTICE]
        self.inputs = []
        for i in range(self.POOL):
            u, v, w = (((i * g % self.POOL) / self.POOL + s) % 1.0 for g, s in zip(self.LATTICE, shift))
            mp, sp, sq = -2.0 + 4.0 * u, 0.2 + 1.8 * v, 0.2 + 1.8 * w
            pair = moments.MomentPair1D.from_scalars(mp, sp, 0.0, sq)
            self.inputs.append((pair, i % 2 == 0, tight_bound(mp, sp, 0.0, sq)))
        mp, sp, sq = self.WARMUP_PAIR
        warm = moments.MomentPair1D.from_scalars(mp, sp, 0.0, sq)
        for with_witness in (True, False):
            self.oracle.minimize_tv_on_grid(warm, include_witness_points=with_witness)

    def run_op(self, i: int):
        pair, with_witness, _ = self.inputs[i % self.POOL]
        return self.oracle.minimize_tv_on_grid(pair, include_witness_points=with_witness)

    def check(self, i: int, result):
        # the verdict rules of ``tvbounds verify``
        bound = self.inputs[i % self.POOL][2]
        if result.status is not self.oracle.OracleStatus.OPTIMAL:
            return REFUSED, result.status.value
        if result.tv_min < bound - self.sound_tol:
            return WRONG, "violated"
        return OK, "tight" if abs(result.tv_min - bound) <= self.tight_tol else "sound"


class NdCheck(Workload):
    """One ``check_nd_bound_random(d, d + 4, TRIALS, seed)`` call for each d
    in 1..4.  One op covers all four dimensions because a call's time grows
    with d: with one call per op, the median op would sit in the gap between
    the d = 2 and d = 3 calls and jump across it from run to run."""

    name = "nd_check"
    kernel = "numpy"
    modules = ("tvbounds.oracle",)
    POOL = 100
    DIMS = (1, 2, 3, 4)
    TRIALS = 50
    WARMUP_OPS = 1

    def properties(self) -> str:
        return (
            f"d = {', '.join(map(str, self.DIMS))} in every op, atoms d+4, {self.TRIALS} trials per call, "
            f"op seeds from a pool of {self.POOL}"
        )

    def prepare(self, seed: int) -> None:
        self.oracle = importlib.import_module("tvbounds.oracle")
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**32) for _ in range(self.POOL)]
        for i in range(self.WARMUP_OPS):
            self.check(i, self.run_op(i))

    def run_op(self, i: int):
        seed = self.seeds[i % self.POOL]
        return [self.oracle.check_nd_bound_random(d, d + 4, self.TRIALS, seed) for d in self.DIMS]

    def check(self, i: int, violations):
        return (OK, "") if not any(violations) else (WRONG, "violations")


class Cli(Workload):
    """One ``python -m tvbounds.cli <command>`` process, cycling through all
    nine commands with arguments fixed per seed and chosen cheap, so that
    interpreter start and imports dominate every command alike."""

    name = "cli"
    op_layer = "cli"  # the op is the CLI process itself
    counts_children = True
    kernel = "process"
    modules = ("tvbounds.cli",)
    WARMUP_COMMANDS = (0, 5)  # bound and verify
    FLOOR_RUNS = 5
    IMPORTTIME_RUNS = 3
    RUN_PASSES = 3

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    @property
    def pool_size(self) -> int:
        return len(self.commands)

    def properties(self) -> str:
        return (
            "commands " + ", ".join(argv[0] for argv in self.commands)
            + "; verify --grid-n 21, nd-check --dims 3 --trials 50, sweep 9 rows; "
            "python -m tvbounds.cli with PYTHONPATH=src"
        )

    def prepare(self, seed: int) -> None:
        self.cli = importlib.import_module("tvbounds.cli")
        rng = random.Random(seed)

        def num(lo, hi):
            return repr(round(rng.uniform(lo, hi), 3))

        mp = repr(rng.choice((-1.0, 1.0)) * round(rng.uniform(0.5, 2.0), 3))
        sp, sq = num(0.2, 2.0), num(0.2, 2.0)
        pair = ["--mp", mp, "--sp", sp, "--mq", "0", "--sq", sq]
        nd_path = self.out_dir / f"nd_pair_{seed}.json"
        nd_path.parent.mkdir(parents=True, exist_ok=True)
        nd_path.write_text(json.dumps(self._nd_pair(rng)), encoding="utf-8")
        self.commands = [
            ["bound", *pair],
            ["witness", *pair],
            ["two-point", *pair],
            ["case-c", *pair, "--q-param", num(0.1, 0.9)],
            ["sequence", "--m", mp, "--sp", sp, "--sq", sq, "--k", str(rng.randint(2, 64))],
            ["verify", *pair, "--grid-n", "21"],
            ["nd-bound", str(nd_path)],
            ["nd-check", "--dims", "3", "--trials", "50", "--seed", str(rng.randrange(2**31))],
            ["sweep", "--param", "mp", "--start", "-1", "--stop", "1", "--step", "0.25",
             "--sp", sp, "--mq", "0", "--sq", sq],
        ]
        self.reference = [self._in_process(argv) for argv in self.commands]
        for i in self.WARMUP_COMMANDS:
            self.check(i, self.run_op(i))

    @staticmethod
    def _nd_pair(rng: random.Random) -> dict:
        d = 3

        def cov():
            # L L^T of a random lower-triangular L is symmetric and PSD
            low = [[rng.uniform(-1.0, 1.0) if c <= r else 0.0 for c in range(d)] for r in range(d)]
            return [[sum(low[r][k] * low[c][k] for k in range(d)) for c in range(d)] for r in range(d)]

        return {
            "mean_p": [rng.uniform(-2.0, 2.0) for _ in range(d)],
            "cov_p": cov(),
            "mean_q": [rng.uniform(-2.0, 2.0) for _ in range(d)],
            "cov_q": cov(),
        }

    def _in_process(self, argv) -> tuple[int, bytes]:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = self.cli.main(list(argv))
        return code, buffer.getvalue().encode("utf-8")

    def _spawn(self, args, **kwargs) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=self.root,
            capture_output=True, timeout=30, check=False, **kwargs,
        )

    def run_op(self, i: int):
        proc = self._spawn(["-m", "tvbounds.cli", *self.commands[i % len(self.commands)]])
        return proc.returncode, proc.stdout

    def check(self, i: int, outcome):
        ok = outcome == self.reference[i % len(self.commands)]
        return (OK, "") if ok else (WRONG, self.commands[i % len(self.commands)][0])

    def traced_extras(self, tracer) -> None:
        """In-process ``cli.run`` for every command, under the tracer."""
        for _ in range(self.RUN_PASSES):
            for argv, expected in zip(self.commands, self.reference):
                config = self.cli.parse_args(list(argv))
                buffer = io.StringIO()
                with redirect_stdout(buffer):
                    code = self.cli.run(config)
                if (code, buffer.getvalue().encode("utf-8")) != expected:
                    raise RuntimeError(f"in-process cli.run disagrees with main for {argv[0]}")

    def layer_metrics(self, tracer) -> dict[str, float]:
        """Per-command process times from the traced op spans, plus the
        interpreter floor and the import cost measured alongside."""
        by_command: dict[str, list[int]] = {}
        for idx in tracer.spans_named(OP_SPAN):
            command = self.commands[tracer.op_id[idx] % len(self.commands)][0]
            by_command.setdefault(command, []).append(tracer.duration(idx))
        out = {f"cli.{c}_ms": statistics.median(v) / 1e6 for c, v in by_command.items()}

        def wall(args):
            t0 = time.perf_counter_ns()
            self._spawn(args).check_returncode()
            return time.perf_counter_ns() - t0

        floor = statistics.median(wall(["-c", "pass"]) for _ in range(self.FLOOR_RUNS))
        imported = statistics.median(wall(["-c", "import tvbounds.cli"]) for _ in range(self.FLOOR_RUNS))
        out["cli.interpreter_floor_ms"] = floor / 1e6
        out["cli.import_ms"] = (imported - floor) / 1e6
        numpy_us = []
        for _ in range(self.IMPORTTIME_RUNS):
            proc = self._spawn(["-X", "importtime", "-c", "import tvbounds.cli"], text=True)
            proc.check_returncode()
            numpy_us.append(_importtime_cumulative_us(proc.stderr, "numpy"))
        out["cli.import_numpy_ms"] = statistics.median(numpy_us) / 1e3
        return out


def _importtime_cumulative_us(stderr: str, package: str) -> int:
    """Cumulative microseconds of ``package`` in ``-X importtime`` output;
    0 when importing the CLI no longer loads it."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == package:
            return int(fields[1].strip())
    return 0
