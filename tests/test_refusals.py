"""Every refusal of the library, one row each: the call, its arguments, the
exact exception type and the exact message; and each command line that
prints one, as the one ``error:`` line of exit 1.  Each row and command
line runs with numpy blocked, as where it is not installed: the numpy gate,
``nd._numpy``, refuses its two rows, after the randomized check's own
parameter checks, and no other row needs numpy, so the CI job without
numpy runs these too.  The two refusals that numpy decides, and those whose
setup a row cannot hold (a patched module, a nesting too deep to read), are
tested beside the code they exercise; the refusals that ``cli.py`` raises
itself are ``REFUSALS`` of ``tests/test_cli.py``."""

import math
import sys

import pytest

from tvbounds.cli import main
from tvbounds.discrete import DiscreteDist, check_moments
from tvbounds.errors import (
    BadParameterError,
    DegenerateVarianceError,
    DimensionMismatchError,
    GapZeroError,
    WitnessConstructionError,
)
from tvbounds.moments import Moments1D, bound_report, tv_lower_bound_1d
from tvbounds.nd import MomentPairND, MomentsND, check_nd_bound_random, tv_lower_bound_nd
from tvbounds.oracle import GridSpec, build_grid, formulate
from tvbounds.simplex import solve_dense
from tvbounds.witness import (
    WitnessKind,
    WitnessPair,
    construct_anchored_witness,
    construct_tight_witness,
    construct_two_point,
    construct_vanishing_sequence,
)

from conftest import cli_argv, moments_text, pair_flags
from dense_columns import DenseColumns
from domain import pair

UNIT = pair(1, 1, 0, 1)
DELTA = DiscreteDist((0.0,), (1.0,))
KIND = WitnessKind.BOTH_POINT_MASSES
EYE2 = ((1.0, 0.0), (0.0, 1.0))
MEAN_0 = MomentsND([0.0, 0.0], EYE2)
WIDE = [[1e308, 0.0], [0.0, 1e308]]
ROW = DenseColumns([[1.0, 2.0]], [1.0, 1.0])

RADICAL = (
    "radical_v overflows the float range: it grows as the square of "
    "the mean gap and stddevs, which must stay below about 1.34e154"
)
SQUARED_GAP = (
    "the squared mean gap overflows the float range: the means lie about 1.34e154 or more apart"
)
CENTRING = "LP coefficients must be finite: the centring scale overflows"
TRACE = "side's covariance trace overflows the float range: its diagonal sums past about 1.8e308"
NO_NUMPY = "needs numpy, which is not installed"


def underflows(what, gap):
    return f"{what} underflows to 0 at mean gap {gap}; the exclusive atom has no finite position"


def variance_overflows(side):
    return (
        f"the {side} side's variance overflows the float range: stddev 1.4e+154 squares "
        "past it, and stddevs must stay below about 1.34e154"
    )


def each(call, exc_type, rows):
    """Rows of ``call`` refused by ``exc_type``, from ``{id: (args, message)}``."""
    return {name: (call, args, exc_type, message) for name, (args, message) in rows.items()}


#: Invalid input, one row a refusal: the call, its arguments, and the type
#: and message of what it raises.
REFUSALS = {
    # ------------------------------------------------- the 1-D moment records
    **each(Moments1D, ValueError, {
        "moments1d-nan-mean": ((math.nan, 2.0), "mean must be finite, got nan"),
        "moments1d-inf-stddev": ((1.0, math.inf), "stddev must be finite, got inf"),
        "moments1d-negative-stddev": ((1.0, -1.0), "stddev must be non-negative, got -1.0"),
    }),
    "moments1d-none-mean": (
        Moments1D, (None, 2.0), TypeError,
        "float() argument must be a string or a real number, not 'NoneType'",
    ),
    # --------------------------------------------------------- the closed forms
    # two finite means whose difference passes the float range
    "gap-overflows-bound": (
        tv_lower_bound_1d, (pair(1e308, 1.0, -1e308, 1.0),), BadParameterError,
        "the mean gap overflows the float range: mean_p 1e+308 - mean_q -1e+308 is inf",
    ),
    "gap-overflows-report": (
        bound_report, (pair(-1e308, 0.0, 1e308, 0.0),), BadParameterError,
        "the mean gap overflows the float range: mean_p -1e+308 - mean_q 1e+308 is -inf",
    ),
    # v grows as a^2, which passes the float range at a gap of about 1.34e154
    **each(bound_report, BadParameterError, {
        "radical-overflows-gap-1.35e154": ((pair(1.35e154, 1.0, 0.0, 1.0),), RADICAL),
        "radical-overflows-gap-1.35e154-point-masses": ((pair(1.35e154, 0, 0, 0),), RADICAL),
        "radical-overflows-gap-1e200": ((pair(0.0, 1.0, 1e200, 1.0),), RADICAL),
        "radical-overflows-gap-1e200-point-masses": ((pair(0.0, 0.0, 1e200, 0.0),), RADICAL),
    }),
    # ------------------------------------------------- discrete distributions
    **each(DiscreteDist, ValueError, {
        "dist-fewer-masses": (((0.0, 1.0), (1.0,)), "support has 2 points but probs has 1"),
        "dist-empty": (((), ()), "a distribution needs at least one atom"),
        "dist-inf-point": (((0.0, math.inf), (0.25, 0.75)), "support point inf is not finite"),
        "dist-nan-point": (((math.nan, 1.0), (0.5, 0.5)), "support point nan is not finite"),
        "dist-negative-mass":
            (((-1.0, 1.0), (-0.5, 1.5)), "probability -0.5 is not finite and non-negative"),
        "dist-inf-mass":
            (((0.0, 1.0), (math.inf, 1.0)), "probability inf is not finite and non-negative"),
        "dist-masses-over-1": (((-1.0, 1.0), (0.5, 0.75)), "probabilities sum to 1.25, not 1"),
        "dist-masses-under-1": (((0.0,), (0.5,)), "probabilities sum to 0.5, not 1"),
        # 2e-12 off 1 is past the tolerance; 0.9e-12 is kept
        "dist-masses-just-past-the-tolerance":
            (((0.0, 1.0), (0.5, 0.5 + 2e-12)), "probabilities sum to 1.000000000002, not 1"),
    }),
    # nan would read as a moment mismatch and inf would accept any atoms
    **each(check_moments, ValueError, {
        f"check-moments-tol-{text}":
            ((DELTA, Moments1D(0.0, 0.0), tol), f"tol must be positive and finite, got {text}")
        for tol, text in [(0.0, "0.0"), (-1e-9, "-1e-09"), (math.nan, "nan"), (math.inf, "inf")]
    }),
    # ------------------------------------------------------------ witnesses
    **each(WitnessPair, WitnessConstructionError, {
        "pair-claim-past-1": ((DELTA, DELTA, 1.5, KIND), "claimed TV 1.5 is outside [0, 1]"),
        "pair-claim-nan": ((DELTA, DELTA, math.nan, KIND), "claimed TV nan is outside [0, 1]"),
        "pair-claim-off-the-atoms":
            ((DELTA, DiscreteDist.delta(1.0), 0.5, KIND), "claimed TV 0.5 but the atoms give 1.0"),
    }),
    "tight-equal-means": (
        construct_tight_witness, (pair(3, 1, 3, 2),), GapZeroError,
        "the tight bound has no minimizer for equal means; use construct_vanishing_sequence",
    ),
    # the bound, or the gap-to-spread ratio, is 0, and the constructor
    # divided by it
    **each(construct_tight_witness, WitnessConstructionError, {
        "tight-underflowed-bound-q-point-mass":
            ((pair(0.0, 1.0, 1e-170, 0.0),), underflows("tight bound", "-1e-170")),
        "tight-underflowed-bound-p-point-mass":
            ((pair(1e-170, 0.0, 0.0, 1.0),), underflows("tight bound", "1e-170")),
        "tight-underflowed-ratio":
            ((pair(5e-324, 1e300, 0.0, 1e300),), underflows("gap-to-spread ratio", "5e-324")),
        # the atoms' squared deviations overflow, so the moment check refuses them
        "tight-moments-overflow": (
            (pair(1e200, 1.0, 0.0, 1.0),),
            "three_point witness: p side moments (mean 1e+200, variance 0.0) do not match "
            "the target (mean 1e+200, variance 1.0)",
        ),
        # every p * x * x of the raw second moment is finite, but their sum
        # passes the float range
        "tight-sum-of-squares-overflows": (
            (pair(-8.391482909768884e+153, 1.0541747264031324e+154,
                  -4.7657788459481485e+153, 0.0),),
            "two_point_q_degenerate witness: p side moments (mean -8.391482909768884e+153, "
            "variance inf) do not match the target "
            "(mean -8.391482909768884e+153, variance 1.1112843537871191e+308)",
        ),
    }),
    # a stddev that squares past the float range is named before the radical
    # or the far atoms of the sequence overflow
    **{
        f"{name}-variance-overflows": (call, args, BadParameterError, variance_overflows(side))
        for name, call, args, side in [
            ("tight", construct_tight_witness, (pair(1.0, 1.4e154, 0.0, 1.0),), "p"),
            ("two-point", construct_two_point, (pair(0.0, 1.0, 1.0, 1.4e154),), "q"),
            ("sequence", construct_vanishing_sequence, (0.0, 1.4e154, 1.0, 2), "p"),
        ]
    },
    "two-point-equal-means": (
        construct_two_point, (pair(0, 1, 0, 2),), GapZeroError,
        "no two-point pair exists for equal means",
    ),
    **each(construct_two_point, WitnessConstructionError, {
        # a point mass makes the pair the tight witness
        "two-point-underflowed-bound-p-point-mass":
            ((pair(1e-170, 0.0, 0.0, 1.0),), underflows("tight bound", "1e-170")),
        "two-point-underflowed-bound-q-point-mass":
            ((pair(1e-170, 1.0, 0.0, 0.0),), underflows("tight bound", "1e-170")),
        # both small masses are subnormal or 0, so the far atom has no
        # finite position on either side
        **{
            f"two-point-two-tiny-stddevs-{sd}-{order}":
                ((this,), f"two-point mass {mass} leaves no room for a second atom")
            for sd, mass in [(1e-160, "1e-320"), (1e-170, "0.0"), (1e-200, "0.0")]
            for order, this in [("above", pair(1, sd, 0, sd)), ("below", pair(0, sd, 1, sd))]
        },
        # all inputs near 1e-153: DiscreteDist merges atoms closer than its
        # 1e-12 absolute floor
        "two-point-tiny-scale": (
            (pair(1.8964864346998233e-153, 5.189758418810336e-154,
                  1.0594429288851018e-153, 3.882824847705252e-154),),
            "claimed TV 0.669976458891322 but the atoms give 0.0",
        ),
    }),
    "anchored-equal-means": (
        construct_anchored_witness, (pair(1, 1, 1, 1),), GapZeroError,
        "anchored witnesses are undefined for equal means",
    ),
    **each(construct_anchored_witness, DegenerateVarianceError, {
        f"anchored-{side}-point-mass":
            ((this,), "anchored witnesses need positive stddev on both sides")
        for side, this in [("p", pair(1, 0, 0, 1)), ("q", pair(1, 1, 0, 0))]
    }),
    **each(construct_anchored_witness, BadParameterError, {
        **{
            f"anchored-q-param-{q}": ((UNIT, q), f"q_param must be in (0, 1), got {q}")
            for q in (0.0, 1.0, -0.2, 1.7)
        },
        # sqrt((1 - q) / q) overflows
        "anchored-q-param-overflows-an-atom": (
            (UNIT, 5e-309),
            "q_param 5e-309 puts an atom of the two-point side past the float range",
        ),
    }),
    # the squared gap underflows, so the anchored value is 0
    **each(construct_anchored_witness, WitnessConstructionError, {
        f"anchored-underflowed-value-{sp}-{sq}":
            ((pair(1e-170, sp, 0.0, sq),), underflows("anchored value", "1e-170"))
        for sp, sq in [(1.0, 1.0), (1.5, 0.5)]
    }),
    **each(construct_vanishing_sequence, BadParameterError, {
        **{
            f"sequence-k-{k}": ((0.0, 2.0, 1.0, k), f"k must be an integer >= 2, got {k!r}")
            for k in (1, 0, -3, 2.5, True)
        },
        # 2**1024 - 2**970 is the least integer that float() rounds past the range
        **{
            f"sequence-k-{name}-past-the-float-range":
                ((0.0, 2.0, 1.0, k), f"k must fit in a float, below about 1.8e308; got {bits} bits")
            for name, k, bits in [("least", 2**1024 - 2**970, 1024), ("401-digit", 10**400, 1329)]
        },
        # (s_big^2 - s_small^2) * k overflows
        **{
            f"sequence-far-atoms-overflow-{k}":
                ((*moments, k), f"k {k} puts the far atoms of the wider side past the float range")
            for moments, k in [((0.0, 1e150, 1.0), 10**14), ((0.0, 1.0, 2.0), 10**308),
                               ((-3.0, 2.0, 1.0), 6 * 10**307)]
        },
    }),
    # at m = 1e20 the near points m - sigma and m + sigma merge into one
    # atom, so the pair has variance 0
    **each(construct_vanishing_sequence, WitnessConstructionError, {
        f"sequence-misses-its-moments-{name}": (
            (1e20, sigma_p, 1e7, 2),
            f"vanishing_sequence witness: p side moments (mean {mean}, variance 0.0) do not "
            f"match the target (mean 1e+20, variance {variance})",
        )
        for name, sigma_p, mean, variance in [
            ("1e7", 1e7, "9.999999999999e+19", "100000000000000.0"),
            ("2e7", 2e7, "9.999999999997354e+19", "400000000000000.0"),
        ]
    }),
    # --------------------------------------------------------------- grids
    **each(GridSpec, BadParameterError, {
        "grid-spec-equal-ends": ((1.0, 1.0, 5), "need finite lo < hi, got lo=1.0, hi=1.0"),
        "grid-spec-reversed-ends": ((2.0, 1.0, 5), "need finite lo < hi, got lo=2.0, hi=1.0"),
        "grid-spec-nan-lo": ((math.nan, 1.0, 5), "need finite lo < hi, got lo=nan, hi=1.0"),
        "grid-spec-inf-hi": ((0.0, math.inf, 5), "need finite lo < hi, got lo=0.0, hi=inf"),
        "grid-spec-span-overflows":
            ((-1e308, 1e308, 5), "the span hi - lo overflows, got lo=-1e+308, hi=1e+308"),
        "grid-spec-count-1": ((0.0, 1.0, 1), "count must be >= 2, got 1"),
        "grid-spec-count-negative": ((0.0, 1.0, -3), "count must be >= 2, got -3"),
        "grid-spec-count-past-the-limit":
            ((0.0, 1.0, 500_001), "count must be at most GRID_MAX_COUNT = 500000, got 500001"),
        **{
            f"grid-spec-count-{name}":
                ((0.0, 1.0, count), f"count must be a whole number, got {text}")
            for name, count, text in [("fraction", 2.5, "2.5"), ("inf", math.inf, "inf"),
                                      ("nan", math.nan, "nan"), ("string", "5", "'5'")]
        },
    }),
    **each(GridSpec.default_for, BadParameterError, {
        # six stddevs of 1e308 is inf
        "grid-spec-default-overflows": (
            (pair(0.0, 1e308, 0.0, 1.0),),
            "the default grid, six stddevs of 1e+308 beyond the means 0.0 and 0.0, "
            "overflows the float range",
        ),
        # the pad is finite, the span of the padded means is not
        "grid-spec-default-span-overflows": (
            (pair(1.5e308, 1e306, -2e307, 1.0),),
            "the default grid, six stddevs of 1e+306 beyond the means 1.5e+308 and -2e+307, "
            "overflows the float range",
        ),
    }),
    **each(build_grid, ValueError, {
        f"build-grid-{bad}-extra-point":
            ((GridSpec(0.0, 1.0, 5), (0.0, bad)), "extra points must be finite")
        for bad in (math.inf, math.nan)
    }),
    **each(build_grid, BadParameterError, {
        "build-grid-merges-into-one-point": (
            (GridSpec(0.0, 5e-324, 2),),
            "the 2-point grid from 0.0 to 5e-324 merges into one point "
            "at the merge tolerance 1e-12",
        ),
        # the tolerance, 1e-12 * (1 + max |x|), is wider than the span
        "build-grid-merges-at-an-offset": (
            (GridSpec(74190220.97805403, 74190220.97808279, 121),),
            "the 121-point grid from 74190220.97805403 to 74190220.97808279 "
            "merges into one point at the merge tolerance 7.419022197808279e-05",
        ),
    }),
    # ---------------------------------------------------------- the grid LP
    "formulate-one-point": (
        formulate, (UNIT, [0.5]), BadParameterError, "grid needs at least 2 points, got 1"
    ),
    **each(formulate, ValueError, {
        **{
            f"formulate-{bad}-point": ((UNIT, [-1.0, bad, 1.0]), "LP coefficients must be finite")
            for bad in (math.inf, -math.inf, math.nan)
        },
        # the grid reaches 1e160 from a centre near 5e159, whose square overflows
        "formulate-row-overflows":
            ((pair(1e160, 1, 0, 1), [-1.0, 0.0, 1e160]), "LP coefficients must be finite"),
        # an infinite scale would divide every row coefficient down to 0
        "formulate-summed-stddevs-overflow":
            ((pair(0, 1e308, 1e307, 1e308), [-1e307, 0.0, 1e307]), CENTRING),
        "formulate-distance-of-the-means-overflows":
            ((pair(1e308, 0, -1e308, 0), [-1e307, 0.0, 1e307]), CENTRING),
    }),
    **each(solve_dense, ValueError, {
        "simplex-long-b": ((ROW, [1.0, 2.0]), "inconsistent LP dimensions"),
        "simplex-7-rows": (
            (DenseColumns([[1.0]] * 7, [1.0]), [1.0] * 7), "the kernel takes at most 6 rows, got 7"
        ),
        "simplex-nan-rhs": ((ROW, [math.nan]), "LP coefficients must be finite"),
        "simplex-inf-rhs": ((ROW, [math.inf]), "LP coefficients must be finite"),
    }),
    # ------------------------------------------------------ the n-d records
    **each(MomentsND, ValueError, {
        "momentsnd-2-d-mean": (([[1.0, 0.0]], EYE2), "mean must be a non-empty 1-D vector"),
        "momentsnd-ragged-mean":
            (([1.0, [0.0]], EYE2), "mean is ragged: its nested lists differ in length or depth"),
        "momentsnd-ragged-covariance": (
            ((1.0, 0.0), [[1.0, 0.0], [0.0]]),
            "covariance is ragged: its nested lists differ in length or depth",
        ),
        "momentsnd-nan-mean": (([math.nan, 0.0], EYE2), "mean must be finite"),
        "momentsnd-covariance-shape":
            (((1.0, 0.0), [[1.0]]), "covariance must have shape (2, 2), got (1, 1)"),
        "momentsnd-flat-covariance":
            (((1.0, 0.0), [1.0, 0.0]), "covariance must have shape (2, 2), got (2,)"),
        "momentsnd-wide-covariance": (
            ((1.0, 0.0), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            "covariance must have shape (2, 2), got (2, 3)",
        ),
        "momentsnd-nan-covariance":
            (([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]]), "covariance must be finite"),
        "momentsnd-inf-covariance":
            (([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]]), "covariance must be finite"),
        "momentsnd-inf-1x1-covariance": (([0.0], [[math.inf]]), "covariance must be finite"),
        "momentsnd-asymmetric":
            (([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]]), "covariance is not symmetric within 1e-10"),
        # a 1x1 matrix is its own eigenvalue, so its refusal needs no numpy
        "momentsnd-negative-1x1":
            (([0.0], [[-1.0]]), "covariance is not positive semidefinite (min eigenvalue -1)"),
    }),
    **each(MomentPairND, DimensionMismatchError, {
        f"pair-nd-dimensions-2-and-{d}":
            ((MEAN_0, MomentsND([0.0] * d, [[0.0] * d] * d)), f"sides have dimensions 2 and {d}")
        for d in (1, 3)
    }),
    **each(tv_lower_bound_nd, BadParameterError, {
        # each diagonal entry is finite, their sum is not
        "nd-bound-p-trace-overflows":
            ((MomentPairND(MomentsND([10.0, 0.0], WIDE), MEAN_0),), f"the p {TRACE}"),
        "nd-bound-q-trace-overflows": (
            (MomentPairND(MomentsND([10.0, 0.0], EYE2), MomentsND([0.0, 0.0], WIDE)),),
            f"the q {TRACE}",
        ),
        "nd-bound-squared-gap-overflows-2-d":
            ((MomentPairND(MomentsND([1e200, 0.0], EYE2), MEAN_0),), SQUARED_GAP),
        "nd-bound-squared-gap-overflows-1-d": (
            (MomentPairND(MomentsND([1e308], [[1.0]]), MomentsND([-1e308], [[1.0]])),),
            SQUARED_GAP,
        ),
    }),
    # ------------------------------------------- the randomized n-d check
    **each(check_nd_bound_random, BadParameterError, {
        "nd-check-d-0": ((0, 6, 10, 0), "d must be in [1, 4], got 0"),
        "nd-check-d-5": ((5, 10, 10, 0), "d must be in [1, 4], got 5"),
        "nd-check-atoms-3": ((2, 3, 10, 0), "atoms must be >= d + 2, got 3"),
        "nd-check-trials-0": ((2, 6, 0, 0), "trials must be >= 1, got 0"),
        "nd-check-seed-negative": ((2, 6, 10, -1), "seed must be >= 0, got -1"),
        # refused before numpy is imported
        "nd-check-batch-past-the-limit": (
            (1, 3, 3_400_000, 0),
            "trials * atoms * d = 3400000 * 3 * 1 is more than ND_CHECK_MAX_DRAWS = 10000000; "
            "run fewer trials per seed",
        ),
    }),
    # ---------------------------------------- the numpy gate, nd._numpy
    "momentsnd-unproved-2x2-without-numpy": (
        MomentsND, ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]), ValueError,
        f"covariance is not proved positive semidefinite, and deciding it {NO_NUMPY}",
    ),
    "nd-check-without-numpy":
        (check_nd_bound_random, (2, 6, 10, 0), ValueError, f"the randomized check {NO_NUMPY}"),
}


@pytest.mark.parametrize("call, args, exc_type, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_names_its_cause(monkeypatch, call, args, exc_type, message):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(Exception) as raised:
        call(*args)
    assert type(raised.value) is exc_type
    assert str(raised.value) == message


def route(row, command, *flags):
    """``row`` and the command line that gives ``command`` its moments: those
    of the row's pair, or for ``sequence`` the row's m, sp, sq and k; then
    ``flags``."""
    args = REFUSALS[row][1]
    if command == "sequence":
        moments = zip(("--m", "--sp", "--sq", "--k"), args)
    else:
        p, q = args[0]
        moments = zip(("--mp", "--sp", "--mq", "--sq"), (p.mean, p.stddev, q.mean, q.stddev))
    tokens = (token for name, value in moments for token in (name, repr(value)))
    return row, (command, *tokens, *flags)


def each_command(name, row, commands):
    """``route`` for each of ``commands``, as ``name-<command>``."""
    return {f"{name}-{command}": route(row, command) for command in commands}


SWEEP_SP = ("--param", "sp", "--start", "1", "--stop", "2", "--step", "1")
NO_WITNESS = ("--include-witness", "false")

#: The command lines that print a library refusal, one a test: the row of
#: ``REFUSALS`` whose message the ``error:`` line holds, and the argv, or the
#: text of the moments file that ``nd-bound`` reads.
CLI_REFUSALS = {
    # ------------------------------------------------------------ witnesses
    "witness-equal-means": route("tight-equal-means", "witness"),
    "case-c-q-param-past-1": route("anchored-q-param-1.7", "case-c", "--q-param", "1.7"),
    "case-c-q-param-overflows-an-atom":
        route("anchored-q-param-overflows-an-atom", "case-c", "--q-param", "5e-309"),
    "case-c-underflowed-anchored-value": route("anchored-underflowed-value-1.0-1.0", "case-c"),
    "underflowed-bound-q-point-mass": route("tight-underflowed-bound-q-point-mass", "witness"),
    **each_command("underflowed-bound", "tight-underflowed-bound-p-point-mass",
                   ("witness", "verify")),
    "underflowed-bound-two-point": route("two-point-underflowed-bound-p-point-mass", "two-point"),
    "two-point-tiny-scale": route("two-point-tiny-scale", "two-point"),
    **each_command("variance-overflows", "tight-variance-overflows",
                   ("witness", "two-point", "case-c", "verify")),
    "variance-overflows-sequence": route("sequence-variance-overflows", "sequence"),
    **each_command("witness-moments-overflow", "tight-moments-overflow", ("witness", "verify")),
    **each_command("sum-of-squares-overflows", "tight-sum-of-squares-overflows",
                   ("witness", "two-point", "verify")),
    "sequence-misses-its-moments": route("sequence-misses-its-moments-1e7", "sequence"),
    "sequence-k-1": route("sequence-k-1", "sequence"),
    "sequence-k-past-the-float-range":
        route("sequence-k-401-digit-past-the-float-range", "sequence"),
    "sequence-far-atoms-overflow": route("sequence-far-atoms-overflow-100000000000000", "sequence"),
    # ------------------------------------------------------ the closed forms
    **each_command("radical-overflows", "radical-overflows-gap-1e200", ("bound", "two-point")),
    "radical-overflows-sweep": route("radical-overflows-gap-1e200", "sweep", *SWEEP_SP),
    **each_command("mean-gap-overflows", "gap-overflows-bound",
                   ("bound", "witness", "two-point", "case-c")),
    "mean-gap-overflows-sweep": route("gap-overflows-bound", "sweep", *SWEEP_SP),
    # -------------------------------------------------------------- verify
    "verify-default-grid-pad": route("grid-spec-default-overflows", "verify"),
    "verify-default-grid-span": route("grid-spec-default-span-overflows", "verify"),
    # the count is refused before any grid is built
    **{
        f"verify-grid-past-its-limit-{name}": (
            "grid-spec-count-past-the-limit",
            ("verify", *pair_flags("1", "1", "0", "1"), *grid, "--grid-n", "500001"),
        )
        for name, grid in [("default", ()), ("explicit", ("--grid-lo", "-6", "--grid-hi", "6"))]
    },
    "verify-grid-span": (
        "grid-spec-span-overflows",
        ("verify", *pair_flags("0", "1", "1", "1"), "--grid-lo=-1e308", "--grid-hi=1e308"),
    ),
    "verify-grid-merges-into-one-point": (
        "build-grid-merges-at-an-offset",
        ("verify", *pair_flags("74190220.978068", "2.051601652900451e-06",
                               "74190220.97806883", "2.327773945572027e-06"), *NO_WITNESS),
    ),
    # the grid reaches 1e160, whose square overflows in the second-moment row
    "verify-grid-square": route("formulate-row-overflows", "verify", *NO_WITNESS),
    # sp + sq overflows while every moment and grid point is finite
    "verify-centring-scale-overflows": route(
        "formulate-summed-stddevs-overflow", "verify",
        "--grid-lo", "-1e307", "--grid-hi", "1e307", *NO_WITNESS,
    ),
    # ------------------------------------------------------------ nd-bound
    "nd-trace-overflows-p": ("nd-bound-p-trace-overflows", moments_text(cov_p=WIDE)),
    "nd-trace-overflows-q": ("nd-bound-q-trace-overflows", moments_text(cov_q=WIDE)),
    "nd-squared-gap-overflows":
        ("nd-bound-squared-gap-overflows-2-d", moments_text(mean_p=[1e200, 0])),
    "nd-gap-overflows": (
        "nd-bound-squared-gap-overflows-1-d", moments_text(mean_p=[1e308, 0], mean_q=[-1e308, 0])
    ),
    "nd-ragged-covariance": ("momentsnd-ragged-covariance", moments_text(cov_p=[[1, 0], [0]])),
    "nd-ragged-covariance-depth":
        ("momentsnd-ragged-covariance", moments_text(cov_p=[[1, 0], [0, [1]]])),
    "nd-ragged-mean": ("momentsnd-ragged-mean", moments_text(mean_p=[1, [2]])),
    "nd-flat-covariance": ("momentsnd-flat-covariance", moments_text(cov_p=[1, 0])),
    "nd-wide-covariance":
        ("momentsnd-wide-covariance", moments_text(cov_p=[[1, 0, 0], [0, 1, 0]])),
    # ------------------------------------------------------------ nd-check
    "nd-check-oversized-batch": (
        "nd-check-batch-past-the-limit",
        ("nd-check", "--dims", "1", "--atoms", "3", "--trials", "3400000"),
    ),
    "nd-check-negative-seed":
        ("nd-check-seed-negative", ("nd-check", "--dims", "2", "--seed", "-1")),
}


@pytest.mark.parametrize("row, given", CLI_REFUSALS.values(), ids=CLI_REFUSALS)
def test_the_cli_prints_the_refusal(capsys, monkeypatch, tmp_path, row, given):
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert main(list(cli_argv(tmp_path, given))) == 1
    assert capsys.readouterr() == ("", f"error: {REFUSALS[row][3]}\n")
