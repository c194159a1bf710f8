"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion checks its stated tolerance and runtime budget.  Each timed
block runs ``RUNS`` times and the fastest run is held to the budget, so that
one run slowed by a busy host does not fail a criterion; every run's results
are checked.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import contextlib
import math
import sys
import time

import pytest

from tvbounds import (
    DiscreteDist,
    GridSpec,
    Moments1D,
    MomentPairND,
    MomentsND,
    OracleStatus,
    WitnessKind,
    bound_report,
    check_nd_bound_random,
    construct_tight_witness,
    construct_vanishing_sequence,
    minimize_tv_on_grid,
    tv_distance,
    tv_lower_bound_1d,
    tv_lower_bound_nd,
)
from tvbounds.discrete import check_moments

from conftest import gaussian_tv
from domain import BOX, NEAR_UNIT, PLAIN, POSITIVE, draws, pair

#: Runs of each timed block; the fastest is compared with the budget.
RUNS = 3


def _report(name: str, elapsed: float, limit: float, failures: list) -> None:
    ok = not failures and elapsed < limit
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {elapsed * 1000:.2f} ms (limit {limit * 1000:.0f} ms)")
    assert not failures, f"{name}: {failures[:5]}"
    assert elapsed < limit, f"{name}: took {elapsed:.3f}s, budget {limit}s"


def _fastest(block):
    """Run ``block`` ``RUNS`` times: the least wall-clock time of a run, and
    each run's result.  A trace function (a coverage run's, a debugger's) is
    suspended for the runs, so the budget times the block, not the tracer."""
    elapsed, results = math.inf, []
    tracer = sys.gettrace()
    sys.settrace(None)
    try:
        for _ in range(RUNS):
            start = time.perf_counter()
            results.append(block())
            elapsed = min(elapsed, time.perf_counter() - start)
    finally:
        sys.settrace(tracer)
    return elapsed, results


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_fastest_suspends_the_tracer_and_restores_it(raises):
    tracer, previous, seen = (lambda frame, event, arg: None), sys.gettrace(), []

    def block():
        seen.append(sys.gettrace())
        if raises:
            raise ArithmeticError("block failed")
        return len(seen)

    sys.settrace(tracer)
    try:
        with pytest.raises(ArithmeticError) if raises else contextlib.nullcontext():
            assert _fastest(block)[1] == list(range(1, RUNS + 1))
        restored = sys.gettrace()
    finally:
        sys.settrace(previous)
    assert restored is tracer
    assert seen == [None] * (1 if raises else RUNS)


def test_criterion_1_tightness_equality():
    reference = pair(1, 1, 0, 1)
    construct_tight_witness(reference)  # warm caches before timing

    def block():
        bound = tv_lower_bound_1d(reference)
        witness = construct_tight_witness(reference)
        return bound, witness, tv_distance(witness.p_dist, witness.q_dist)

    elapsed, results = _fastest(block)

    failures = []
    for bound, witness, recomputed in results:
        if bound != 0.2:
            failures.append(("bound", bound))
        if witness.p_dist.compact() != DiscreteDist((0.5, 3.0), (0.8, 0.2)):
            failures.append(("p atoms", witness.p_dist))
        if witness.q_dist.compact() != DiscreteDist((-2.0, 0.5), (0.2, 0.8)):
            failures.append(("q atoms", witness.q_dist))
        if witness.p_dist.support != witness.q_dist.support:  # shared, zeros explicit
            failures.append(("shared support", witness.p_dist, witness.q_dist))
        if (witness.kind, witness.claimed_tv) != (WitnessKind.THREE_POINT, 0.2):
            failures.append(("claim", witness.kind, witness.claimed_tv))
        if abs(recomputed - 0.2) > 1e-15:
            failures.append(("tv", recomputed))
        if not check_moments(witness.p_dist, Moments1D(1.0, 1.0), 1e-9):
            failures.append(("p moments", witness.p_dist.moments()))
        if not check_moments(witness.q_dist, Moments1D(0.0, 1.0), 1e-9):
            failures.append(("q moments", witness.q_dist.moments()))
    _report("criterion 1 tightness equality", elapsed, 1e-3, failures)


def test_criterion_2_randomized_tightness_sweep():
    configs = [pair(*x) for x in draws(202402, 200, NEAR_UNIT)]

    def block():
        failures = []
        for pair in configs:
            witness = construct_tight_witness(pair)
            bound = tv_lower_bound_1d(pair)
            if abs(tv_distance(witness.p_dist, witness.q_dist) - bound) > 1e-12:
                failures.append(pair)
            elif not (
                check_moments(witness.p_dist, pair.p_side, 1e-9)
                and check_moments(witness.q_dist, pair.q_side, 1e-9)
            ):
                failures.append(pair)
        return failures

    elapsed, results = _fastest(block)
    failures = [failure for run in results for failure in run]
    _report("criterion 2 randomized tightness sweep", elapsed, 0.1, failures)


#: The LP criteria's pairs: 10 of their own and the 200 of a broad seeded
#: sweep, which reaches the inputs on which a badly conditioned grid LP
#: stalls or lands on a wrong vertex.
LP_CONFIGS = [pair(*x) for x in draws(202403, 10, PLAIN) + draws(42, 200, PLAIN)]


def test_criterion_3_lp_attainment():
    def block():
        failures = []
        for pair in LP_CONFIGS:
            result = minimize_tv_on_grid(pair, GridSpec.default_for(pair, count=121))
            bound = tv_lower_bound_1d(pair)
            if result.status is not OracleStatus.OPTIMAL:
                failures.append((pair, result.status))
            elif abs(result.tv_min - bound) > 1e-6:
                failures.append((pair, result.tv_min, bound))
        return failures

    elapsed, results = _fastest(block)
    failures = [failure for run in results for failure in run]
    _report("criterion 3 LP attainment", elapsed, 5.0, failures)


def test_criterion_4_lp_soundness_floor():
    def block():
        failures = []
        for pair in LP_CONFIGS:
            result = minimize_tv_on_grid(
                pair, GridSpec.default_for(pair, count=121), include_witness_points=False
            )
            bound = tv_lower_bound_1d(pair)
            if result.status is not OracleStatus.OPTIMAL:
                failures.append((pair, result.status))
            elif result.tv_min < bound - 1e-8:
                failures.append((pair, result.tv_min, bound))
        return failures

    elapsed, results = _fastest(block)
    failures = [failure for run in results for failure in run]
    _report("criterion 4 LP soundness floor", elapsed, 5.0, failures)


def test_criterion_5_ordering_suite():
    # beside them, the box of means in [-10, 10] with means more than 1e-3
    # apart: strictly positive stddevs stay above the scale where sub-ulp
    # ordering margins round away
    box = [x for x in draws(202415, 500, BOX, zero=("none",)) if abs(x[0] - x[2]) > 1e-3]
    configs = [pair(*x) for x in draws(202405, 1000, POSITIVE) + box]

    def block():
        failures = []
        for pair in configs:
            bound = tv_lower_bound_1d(pair)
            report = bound_report(pair)
            if not report.two_point_tv > bound:
                failures.append(("two-point", pair))
            if not report.anchored_p_tv > bound:
                failures.append(("anchored p", pair))
            if not report.anchored_q_tv > bound:
                failures.append(("anchored q", pair))
            if not report.sibling_branch_tv >= bound:
                failures.append(("sign branch", pair))
        return failures

    elapsed, results = _fastest(block)
    failures = [failure for run in results for failure in run]
    _report("criterion 5 ordering suite", elapsed, 0.1, failures)


def test_criterion_6_dimension_one_dominance():
    # the near-unit pairs hold point masses on either side and on both
    scalars = draws(202406, 1000, POSITIVE) + draws(3, 500, NEAR_UNIT)

    def block():
        failures = []
        for mp, sp, mq, sq in scalars:
            nd = tv_lower_bound_nd(
                MomentPairND(
                    MomentsND([mp], [[sp * sp]]), MomentsND([mq], [[sq * sq]])
                )
            )
            if nd > tv_lower_bound_1d(pair(mp, sp, mq, sq)) + 1e-12:
                failures.append((mp, sp, mq, sq, nd))
        return failures

    elapsed, results = _fastest(block)
    failures = [failure for run in results for failure in run]
    _report("criterion 6 dimension-1 dominance", elapsed, 0.1, failures)


def test_criterion_7_nd_property_check():
    def block():
        first = check_nd_bound_random(d=2, atoms=6, trials=10000, seed=42)
        second = check_nd_bound_random(d=3, atoms=8, trials=10000, seed=43)
        return first, second

    elapsed, results = _fastest(block)
    failures = []
    for first, second in results:
        if first != 0:
            failures.append(("d=2", first))
        if second != 0:
            failures.append(("d=3", second))
    _report("criterion 7 trace-bound property check", elapsed, 10.0, failures)


def test_criterion_8_vanishing_sequence():
    def block():
        failures = []
        for k in (2, 10, 100, 10**6):
            witness = construct_vanishing_sequence(0.0, 2.0, 1.0, k)
            if witness.claimed_tv != 1.0 / k:
                failures.append((k, "claim", witness.claimed_tv))
            if abs(tv_distance(witness.p_dist, witness.q_dist) - 1.0 / k) > 1e-15:
                failures.append((k, "tv"))
            if not check_moments(witness.p_dist, Moments1D(0.0, 2.0), 1e-9):
                failures.append((k, "p moments"))
            if not check_moments(witness.q_dist, Moments1D(0.0, 1.0), 1e-9):
                failures.append((k, "q moments"))
        return failures

    elapsed, results = _fastest(block)
    failures = [failure for run in results for failure in run]
    _report("criterion 8 vanishing sequence", elapsed, 0.01, failures)


def test_criterion_9_gaussian_sanity():
    configs = draws(202409, 99, POSITIVE)
    configs.append((1.0, 1.0, 0.0, 1.0))

    def block():
        failures = []
        for mp, sp, mq, sq in configs:
            tv = gaussian_tv(mp, sp, mq, sq)
            bound = tv_lower_bound_1d(pair(mp, sp, mq, sq))
            if tv < bound - 1e-8:
                failures.append((mp, sp, mq, sq, tv, bound))
        return failures

    elapsed, results = _fastest(block)
    failures = [failure for run in results for failure in run]
    reference = gaussian_tv(1.0, 1.0, 0.0, 1.0)
    if abs(reference - 0.3829249) > 1e-6:
        failures.append(("reference quadrature", reference))
    if not reference >= 0.2:
        failures.append(("reference bound", reference))
    _report("criterion 9 gaussian sanity", elapsed, 2.0, failures)
