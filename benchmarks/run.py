"""tvbounds benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).  One
process per workload, no threads (numpy's BLAS and every child are held to
one thread, see ``THREAD_LIMITS``), and one caller that waits for each op
before starting the next.  Inputs come only from ``--seed``: each workload
draws a fixed list of inputs from it, and op ``i`` uses input ``i`` modulo
the list's length.  Every op's output is checked.

Workloads, and why each was chosen:

* ``closed_form``: one moment pair through ``bound_report`` and every witness
  constructor that applies.  Only the pure-Python moments, witness and
  discrete layers work; numpy, the oracle and the simplex are never called,
  so this is the bypass workload for every LP change.  Half the pairs sit at
  a common mean offset log-uniform up to 1e6, where the known witness
  cancellation defect makes constructors refuse; that shows in ``ok_share``.
  Rarely the same defect lets a witness through whose exact moments miss
  their tolerance; the check rejects it and the run reports ``correct`` false.
* ``verify_grid``: one ``minimize_tv_on_grid`` call at the default grid, half
  with witness points folded in.  The simplex takes almost all the time and
  the oracle's ``numeric_failure`` defect shows in ``ok_share``.
* ``nd_check``: one ``check_nd_bound_random`` call of fixed size for each
  d in 1..4.  Only here do the per-trial numpy loop and ``MomentsND``
  validation do the work.
* ``cli``: one ``python -m tvbounds.cli`` process per op, cycling through
  the nine commands.  Interpreter start and imports dominate, cold, once per
  process.

End-to-end metrics (``--trace 0``): ``setup_s`` (the median import time of
several fresh interpreters plus the median of several rounds of input
generation, reference outputs and warm-up), ``op_p50_ms`` (the median over
inputs of each input's mean time over its repeats), ``ops_per_s`` (inputs
that passed their check, per second of the mean times of every input,
failed ones included), ``op_p90_ms`` (the p90 of the same mean times; on
``cli``, whose nine inputs are too few, these three are taken over every
op, of which each run has at least ``MIN_OPS``; either way ten or more
samples lie above the p90), ``ok_share`` (inputs whose op passed its check
over inputs attempted; the failed share is ``failed / attempted`` in the
result line) and ``peak_rss_mb`` (of this process, or of the largest CLI
child on ``cli``).  The sample counts are printed before the result line.

Every time is CPU time: of this process, and on ``cli`` of the CLI child
each op waits for.  The program is single-threaded, so on an idle machine
CPU time is its wall time; on a shared host it leaves out the time the
process waits for a core or the host runs other guests (steal), which made
wall times of the same code spread by a quarter to a half from run to run.
The host also runs the same code up to 1.7 times slower for seconds at a
time, and slower or faster by a fifth or more from one minute to the next,
in CPU time too.  So a calibration kernel, fixed work independent of the
package (``calibrate.py``), runs before every short block of ops, and each
op's CPU time is scaled by the kernel's reference time over its time in
that run: the op's time at the reference host speed.  Set-up rounds are
scaled alike.  The median raw CPU, wall and scaled op times and the host's
speed against the reference are printed before the result line.

A run cycles through its inputs for ``--seconds`` of wall time, checks
included, and goes on until the first pass over the inputs is complete.
``attempted`` and ``failed`` count that first pass, so they depend on the
seed alone; later passes are checked too, a wrong output in any pass makes
the run incorrect, and a repeat whose verdict differs from its first is
printed.  A run stops early only after ``WALL_CAP`` times ``--seconds``,
however few ops are done, so a program whose every op fails still ends and
reports it.  On ``verify_grid`` a few ops in a thousand run the simplex for
seconds (most to its iteration limit, some 18 s) and then fail.  An
untraced run stops such an op after the workload's deadline
(``Workload.deadline_s``) of CPU time and counts it as failed, with the
deadline as its time.  A slower or more frequent failing solve so costs
``ops_per_s`` in proportion, yet one unlucky draw does not halve it.

Per-layer metrics (``--trace 1``): the run measures half its time untraced
and half traced, both without a deadline, so every status the program
returns is seen, and each half makes at least one full pass; layer metrics
come from the traced half (see ``spans.py``), the tracing overhead is
traced minus untraced, and ``attempted`` and ``failed`` come from the
untraced half.  The spans are written
to ``.bench_out/``.

The last line of output is one JSON object: ``correct`` (no op returned an
output its check rejects), ``attempted`` (inputs in the first pass),
``failed`` (of those, refused, overran or rejected) and ``metrics``.  ``--workload all`` runs each workload in a child
process of its own, so that set-up time and peak memory do not depend on
which workloads ran before, and prefixes every metric with its workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Every untraced run completes at least this many ops, so that ten or more
#: latencies lie above the p90, unless it reaches the wall-time cap first.
MIN_OPS = 110
#: A run ends after this many times ``--seconds`` of wall time, ops done or not.
WALL_CAP = 6
#: Each half of a traced run completes at least this many ops (three per CLI command).
MIN_TRACE_OPS = 27
#: Rounds of imports, and of input generation, reference outputs and
#: warm-up, whose medians add up to set-up time.
SETUP_ROUNDS = 7
#: Run in a fresh interpreter: prints the seconds its command-line modules take to import.
IMPORT_TIMER = (
    "import importlib, sys, time; t0 = time.process_time(); "
    "[importlib.import_module(m) for m in sys.argv[1:]]; print(time.process_time() - t0)"
)
#: A block of ops, each preceded by one kernel run, lasts until its ops have
#: used this many times the kernel's CPU time.
BLOCK_KERNELS = 4
#: Spans kept per traced run; the traced half stops early once it has this many.
MAX_SPANS = 300_000

#: Set in the environment of this process and of every child it starts.
THREAD_LIMITS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    """What one measured stretch of ops produced.  Op times are CPU times
    scaled to the reference host speed by the kernel timed before the op's
    block (see ``calibrate.py``); verdicts and reasons cover the first pass
    over the workload's inputs."""

    ops: int = 0
    #: Totals over every op, for the diagnostics line.
    scaled_total_ns: float = 0.0
    cpu_total_ns: int = 0
    wall_total_ns: int = 0
    #: Scaled time of every op, kept only when times are not taken per
    #: input: a per-op record of a run of 100k ops would itself add to
    #: the peak memory, by as much as the run's op count varies.
    scaled_ns: array = field(default_factory=lambda: array("d"))
    kernel_ns: array = field(default_factory=lambda: array("q"))
    #: Sum and count of each input's scaled times, by input index.
    input_ns: dict = field(default_factory=dict)
    input_ops: Counter = field(default_factory=Counter)
    verdicts: Counter = field(default_factory=Counter)
    reasons: Counter = field(default_factory=Counter)
    #: Ops that passed, and ops whose check rejected the output, over every pass.
    ok_ops: int = 0
    wrong_ops: int = 0
    #: Repeated ops whose verdict differs from their input's first verdict.
    changed: int = 0
    #: Slowest scaled time of an op that passed.
    slowest_ok_ns: float = 0.0
    #: Reference time of the kernel the op times were scaled by.
    reference_ns: int = 1
    #: Whether times are taken per input, as the mean of each input's ops,
    #: or over every op (for CLI ops, whose nine inputs are too few).
    per_input: bool = True

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.verdicts[workloads.OK]

    def samples(self) -> list[float]:
        if self.per_input:
            return [total / self.input_ops[k] for k, total in self.input_ns.items()]
        return list(self.scaled_ns)

    def p50_ms(self) -> float:
        return statistics.median(self.samples()) / 1e6

    def p90_ms(self) -> float:
        return statistics.quantiles(self.samples(), n=10)[-1] / 1e6

    def ops_per_s(self) -> float:
        """Inputs that passed per second of the inputs' mean times, failed
        ones included; or, over every op, ops that passed per second of op time."""
        if self.per_input:
            return self.verdicts[workloads.OK] / (sum(self.samples()) / 1e9)
        return self.ok_ops / (self.scaled_total_ns / 1e9)

    def speed(self) -> float:
        """Median kernel time over its reference time: above 1 on a host slower than the reference."""
        return statistics.median(self.kernel_ns) / self.reference_ns


class DeadlineExceeded(BaseException):
    """Raised into an op still running at its deadline.  Not an ``Exception``,
    so that no ``except Exception`` in the program or a workload swallows it."""


def _raise_deadline(signum, frame):
    raise DeadlineExceeded


def measure(workload, seconds: float, min_ops: int, tracer=None, deadline_s: float | None = None) -> Sample:
    """Closed loop: run op after op, cycling through the workload's inputs,
    until ``seconds`` of wall time have passed, at least ``min_ops`` are done
    and the first pass over the inputs is complete, or until ``WALL_CAP``
    times ``seconds`` have passed.  Before every block of ops the
    workload's calibration kernel runs once; the block lasts until its ops
    have used ``BLOCK_KERNELS`` times the kernel's CPU time, and each op's
    CPU time is scaled by that kernel time.  Only the op is timed, not its
    check.  With ``deadline_s``, an op still running after that much CPU
    time is stopped by a timer signal and counted as failed.

    Every op is checked.  Verdicts are counted on the first pass only, so
    that ``attempted`` and ``failed`` depend on the seed alone, not on how
    many ops the host's speed let the run complete."""
    sample = Sample(per_input=not workload.counts_children)
    children = workload.counts_children
    first: list[str] = []
    kernel = calibrate.Kernel(workload.kernel)
    sample.reference_ns = kernel.reference_ns
    previous = signal.signal(signal.SIGPROF, _raise_deadline) if deadline_s else None
    start = time.perf_counter_ns()
    block_left = 0
    i = 0
    try:
        while True:
            if block_left <= 0:
                kernel_ns = kernel.time_ns()
                sample.kernel_ns.append(kernel_ns)
                scale = kernel.reference_ns / kernel_ns
                block_left = BLOCK_KERNELS * kernel_ns
            t0 = time.perf_counter_ns()
            c0 = calibrate.cpu_ns(children)
            raised = None
            try:
                if deadline_s:
                    signal.setitimer(signal.ITIMER_PROF, deadline_s)
                try:
                    outcome = workload.run_op(i) if tracer is None else tracer.run_op(i, workload.run_op, workload.op_layer)
                finally:
                    if deadline_s:
                        signal.setitimer(signal.ITIMER_PROF, 0)
            except (Exception, DeadlineExceeded) as exc:  # an op that raises or overruns is a failed op
                # keep the name only: the traceback would hold the op's
                # arrays through the next op and raise the peak memory
                raised = type(exc).__name__
            c1 = calibrate.cpu_ns(children)
            t1 = time.perf_counter_ns()
            if raised is not None:
                verdict, reason = workloads.REFUSED, raised
            else:
                verdict, reason = workload.check(i, outcome)
            k = i % workload.pool_size
            block_left -= c1 - c0
            scaled = (c1 - c0) * scale
            sample.ops += 1
            sample.scaled_total_ns += scaled
            sample.cpu_total_ns += c1 - c0
            sample.wall_total_ns += t1 - t0
            if sample.per_input:
                sample.input_ns[k] = sample.input_ns.get(k, 0.0) + scaled
                sample.input_ops[k] += 1
            else:
                sample.scaled_ns.append(scaled)
            if verdict == workloads.OK:
                sample.ok_ops += 1
                sample.slowest_ok_ns = max(sample.slowest_ok_ns, scaled)
            sample.wrong_ops += verdict == workloads.WRONG
            if i < workload.pool_size:
                first.append(verdict)
                sample.verdicts[verdict] += 1
                if verdict != workloads.OK:
                    sample.reasons[f"{verdict}:{reason}"] += 1
            else:
                sample.changed += verdict != first[k]
            i += 1
            elapsed = time.perf_counter_ns() - start
            if elapsed >= WALL_CAP * seconds * 1e9 or (
                i >= max(min_ops, workload.pool_size)
                and (elapsed >= seconds * 1e9 or (tracer is not None and tracer.full()))
            ):
                return sample
    finally:
        if deadline_s:
            signal.signal(signal.SIGPROF, previous)


def set_up(workload, seed: int) -> tuple[float, float]:
    """Time the workload's imports in ``SETUP_ROUNDS`` fresh interpreters,
    as this one can import a module cold only once, then import them here
    and prepare the workload ``SETUP_ROUNDS`` times.  Each round's CPU time
    is scaled by the workload's kernel, timed right before it.  Returns the
    median import seconds and the median preparation seconds."""
    kernel = calibrate.Kernel(workload.kernel)
    imports = []
    for _ in range(SETUP_ROUNDS):
        scale = kernel.scale()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, *workload.modules],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        imports.append(float(proc.stdout) * scale)
    for module in workload.modules:
        importlib.import_module(module)
    rounds = []
    for _ in range(SETUP_ROUNDS):
        scale = kernel.scale()
        t0 = time.thread_time()
        workload.prepare(seed)
        rounds.append((time.thread_time() - t0) * scale)
    return statistics.median(imports), statistics.median(rounds)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def report_sample(name: str, label: str, sample: Sample) -> None:
    p90_ns = sample.p90_ms() * 1e6
    above = sum(t > p90_ns for t in sample.samples())
    print(
        f"{name} {label}: {sample.ops} ops, {above} samples above p90, "
        f"{len(sample.kernel_ns)} kernel runs, host {sample.speed():.4g}x the reference time; "
        f"mean op {sample.cpu_total_ns / sample.ops / 1e6:.6g} ms CPU, {sample.wall_total_ns / sample.ops / 1e6:.6g} ms wall, "
        f"{sample.scaled_total_ns / sample.ops / 1e6:.6g} ms scaled; slowest passing op {sample.slowest_ok_ns / 1e6:.6g} ms scaled; "
        f"first pass {sample.attempted} ops, {sample.failed} failed, verdicts {dict(sample.verdicts)}, "
        f"failures {dict(sample.reasons)}; repeats with another verdict {sample.changed}"
    )


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Sample, bool]:
    """Set up and measure one workload; returns (metrics, sample, correct)."""
    spans.assert_unwrapped()
    imported, prepared = set_up(workload, seed)
    print(f"{workload.name} inputs: {workload.properties()}")
    print(f"{workload.name} set-up: import {imported:.4f} s, preparation {prepared:.4f} s (median of {SETUP_ROUNDS})")
    if not trace:
        sample = measure(workload, seconds, MIN_OPS, deadline_s=workload.deadline_s)
        peak_mb = peak_rss_mb(workload)  # before the statistics below allocate
        spans.assert_unwrapped()
        report_sample(workload.name, "untraced", sample)
        values = {
            "setup_s": imported + prepared,
            "ops_per_s": sample.ops_per_s(),
            "op_p50_ms": sample.p50_ms(),
            "op_p90_ms": sample.p90_ms(),
            "ok_share": sample.verdicts[workloads.OK] / sample.attempted,
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        return metrics, sample, sample.wrong_ops == 0

    untraced = measure(workload, seconds / 2, MIN_TRACE_OPS)
    spans.assert_unwrapped()
    tracer = spans.Tracer(MAX_SPANS)
    tracer.install()
    try:
        traced = measure(workload, seconds / 2, MIN_TRACE_OPS, tracer)
        workload.traced_extras(tracer)
    finally:
        tracer.uninstall()
    report_sample(workload.name, "untraced half", untraced)
    report_sample(workload.name, "traced half", traced)
    for label, part in (("untraced", untraced), ("traced", traced)):
        print(
            f"{workload.name} {label} end-to-end: ops_per_s {part.ops_per_s():.6g} 1/s, "
            f"op_p50_ms {part.p50_ms():.6g} ms, op_p90_ms {part.p90_ms():.6g} ms"
        )
    values = tracer.layer_metrics()
    values.update(workload.layer_metrics(tracer))
    values["trace.op_p50_overhead_ms"] = traced.p50_ms() - untraced.p50_ms()
    values["trace.ops_per_s_overhead"] = traced.ops_per_s() - untraced.ops_per_s()
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz"
    tracer.write(path)
    print(f"{workload.name} spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
    # attempted and failed come from the untraced half's first pass, as in
    # an untraced run; a wrong output in either half makes the run incorrect
    metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER.items()}
    return metrics, untraced, untraced.wrong_ops + traced.wrong_ops == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one thread per process, for this one and every child: numpy's BLAS
    # would otherwise start a thread per core, and CPU time spent spinning
    # in them would be counted as op time
    os.environ.update(THREAD_LIMITS)

    if not (ROOT / "src" / "tvbounds" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'tvbounds'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", spans.PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[key]} != emitted:
            print(f"error: BENCHMARK.json {key} disagrees with the metrics this benchmark emits", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    catalogue = {
        "closed_form": workloads.ClosedForm,
        "verify_grid": workloads.VerifyGrid,
        "nd_check": workloads.NdCheck,
        "cli": lambda: workloads.Cli(ROOT, OUT_DIR),
    }
    if args.workload == "all":
        return run_all(list(catalogue), args)
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(catalogue)} or all")

    result, sample, correct = run_workload(catalogue[args.workload](), args.seed, args.seconds, bool(args.trace))
    metrics = {}
    for metric, (value, unit) in result.items():
        print(f"{args.workload} {metric} {value!r} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": sample.attempted, "failed": sample.failed, "metrics": metrics}))
    return 0


def run_all(names: list[str], args) -> int:
    """Run each workload in a child process of its own, one after another,
    and merge their results, prefixing each metric with its workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        *lines, last = proc.stdout.splitlines() or [""]
        print("\n".join(lines))
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(last)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{metric}": entry for metric, entry in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
