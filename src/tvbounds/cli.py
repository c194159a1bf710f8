"""Command-line interface.

Every command prints a single machine-readable report on stdout: JSON for
all commands except ``sweep``, which emits CSV rows (one per swept value).
JSON key order is fixed, numbers round-trip exactly through their printed
representation, and identical invocations produce byte-identical output.

Exit codes: 0 success, 1 invalid input (message on stderr; an ``nd-check``
batch of more than ``ND_CHECK_MAX_DRAWS`` normal coordinates is one, so is
a ``verify`` grid of more than ``GRID_MAX_COUNT`` points, and, without
numpy, so are ``nd-check`` and an ``nd-bound`` covariance the Cholesky proof
does not settle, both refused by the one numpy gate, ``nd._numpy``), 2
verification failure (a failing ``verify`` verdict or a positive
``nd-check`` violation count), 3 numeric failure inside the LP.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Mapping
from typing import Any, NamedTuple

from . import _lazy_getattr
from .errors import BadParameterError, TVBoundError
from .moments import MomentPair1D, bound_report, tv_lower_bound_1d

__all__ = ["RunConfig", "parse_args", "run", "main"]


# Each handler imports the names it needs beyond the closed forms when it
# runs, so a command loads only the layers ``tvbounds._LAZY`` lists for it.
# The names still resolve here, bound on first access.
__getattr__ = _lazy_getattr(globals())


#: |tv_min - bound| at or below this certifies the grid optimum as tight.
VERIFY_TIGHT_TOL = 1e-6
#: tv_min below bound by more than this flags a genuine violation.
VERIFY_SOUND_TOL = 1e-8

#: Most rows one ``sweep`` prints; a longer range is refused before any
#: row is built.
SWEEP_MAX_ROWS = 100_000

_SWEEP_COLUMNS = (
    "swept_value",
    "gap_a",
    "radical_v",
    "tight_bound",
    "two_point_tv",
    "anchored_p_tv",
    "anchored_q_tv",
)


class RunConfig(NamedTuple):
    """A parsed invocation: the command name plus its flag values."""

    command: str
    params: Mapping[str, Any]


class _NegativeNumber:
    # argparse takes a "-" token for a flag unless this matches it, and
    # calls it only by .match; its own pattern misses "-1e-05" and "-inf"
    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber

    # argparse exits the process on bad flags; raise instead so the caller
    # controls the exit code
    def error(self, message: str):
        raise BadParameterError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in {"true", "1", "yes"}:
        return True
    if lowered in {"false", "0", "no"}:
        return False
    # argparse prints this message for an ArgumentTypeError; a ValueError
    # it reports by the function's name
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _add_pair_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--mp", type=float, required=required, help="mean of the first distribution")
    parser.add_argument("--sp", type=float, required=required, help="stddev of the first distribution")
    parser.add_argument("--mq", type=float, required=required, help="mean of the second distribution")
    parser.add_argument("--sq", type=float, required=required, help="stddev of the second distribution")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tvbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form bound report for one pair")
    _add_pair_flags(p)

    p = sub.add_parser("witness", help="pair attaining the tight bound")
    _add_pair_flags(p)

    p = sub.add_parser("two-point", help="the unique pair on a shared two-point support")
    _add_pair_flags(p)

    p = sub.add_parser("case-c", help="anchored three-point pair (exclusive atom on the first side)")
    _add_pair_flags(p)
    p.add_argument("--q-param", type=float, default=0.5, help="mass split of the two-point side, in (0,1)")

    p = sub.add_parser("sequence", help="equal-means pair with TV exactly 1/k")
    p.add_argument("--m", type=float, default=0.0, help="common mean")
    p.add_argument("--sp", type=float, required=True)
    p.add_argument("--sq", type=float, required=True)
    p.add_argument("--k", type=int, required=True, help="sequence index, >= 2")

    p = sub.add_parser("verify", help="LP cross-check of the tight bound on a grid")
    _add_pair_flags(p)
    p.add_argument("--grid-lo", type=float, default=None)
    p.add_argument("--grid-hi", type=float, default=None)
    p.add_argument("--grid-n", type=int, default=121)
    p.add_argument(
        "--include-witness",
        type=_parse_bool,
        default=True,
        metavar="BOOL",
        help="fold the witness support into the grid (default true)",
    )

    p = sub.add_parser("nd-bound", help="trace bound from a JSON moments file")
    p.add_argument("path", help='JSON file {"mean_p":[...],"cov_p":[[...]],"mean_q":[...],"cov_q":[[...]]}')

    p = sub.add_parser("nd-check", help="randomized validity check of the trace bound")
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--atoms", type=int, default=None, help="atoms per trial (default dims + 4)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="closed-form bounds over a swept moment flag, as CSV")
    p.add_argument("--param", choices=("mp", "sp", "mq", "sq"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _add_pair_flags(p, required=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def parse_args(argv) -> RunConfig:
    namespace = build_parser().parse_args(argv)
    params = vars(namespace)
    command = params.pop("command")
    return RunConfig(command, params)


def _pair_from(params: Mapping[str, Any]) -> MomentPair1D:
    return MomentPair1D.from_scalars(
        params["mp"], params["sp"], params["mq"], params["sq"]
    )


def _input(params: Mapping[str, Any]) -> dict:
    return {
        "mean_p": params["mp"],
        "stddev_p": params["sp"],
        "mean_q": params["mq"],
        "stddev_q": params["sq"],
    }


def _cmd_bound(params: Mapping[str, Any]) -> tuple[dict, int]:
    return {"input": _input(params), **bound_report(_pair_from(params))._asdict()}, 0


def _cmd_witness(params: Mapping[str, Any]) -> tuple[dict, int]:
    from .witness import construct_tight_witness

    return construct_tight_witness(_pair_from(params)).to_json_dict(), 0


def _cmd_two_point(params: Mapping[str, Any]) -> tuple[dict, int]:
    from .witness import construct_two_point

    return construct_two_point(_pair_from(params)).to_json_dict(), 0


def _cmd_case_c(params: Mapping[str, Any]) -> tuple[dict, int]:
    from .witness import construct_anchored_witness

    pair = _pair_from(params)
    return construct_anchored_witness(pair, params["q_param"]).to_json_dict(), 0


def _cmd_sequence(params: Mapping[str, Any]) -> tuple[dict, int]:
    from .witness import construct_vanishing_sequence

    args = (params["m"], params["sp"], params["sq"], params["k"])
    return construct_vanishing_sequence(*args).to_json_dict(), 0


def _verdict(result, bound: float) -> tuple[str, int]:
    """``verify``'s verdict on a grid ``result`` against the tight ``bound``, and its exit code."""
    status = result.status.value
    if status != "optimal":
        return status, 3 if status == "numeric_failure" else 2
    if result.tv_min < bound - VERIFY_SOUND_TOL:
        return "violated", 2
    return ("tight", 0) if abs(result.tv_min - bound) <= VERIFY_TIGHT_TOL else ("sound", 0)


def _cmd_verify(params: Mapping[str, Any]) -> tuple[dict, int]:
    from .oracle import GridSpec, minimize_tv_on_grid

    pair = _pair_from(params)
    lo, hi = params["grid_lo"], params["grid_hi"]
    if (lo is None) != (hi is None):
        raise BadParameterError("--grid-lo and --grid-hi must be given together")
    if lo is None:
        spec = GridSpec.default_for(pair, count=params["grid_n"])
    else:
        spec = GridSpec(lo, hi, params["grid_n"])
    include = params["include_witness"]
    result = minimize_tv_on_grid(pair, spec, include_witness_points=include)
    bound = tv_lower_bound_1d(pair)
    verdict, code = _verdict(result, bound)
    return {
        "input": _input(params),
        "grid": {
            "lo": spec.lo,
            "hi": spec.hi,
            "count": spec.count,
            "include_witness": include,
        },
        "tight_bound": bound,
        "oracle": result.to_json_dict(),
        "gap_to_bound": None if result.tv_min is None else result.tv_min - bound,
        "verdict": verdict,
    }, code


def _load_nd_pair(path: str):
    from .nd import MomentPairND, MomentsND, _leaves

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise BadParameterError(f"cannot read moments file {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadParameterError(
            f"moments file must hold a JSON object, got {type(payload).__name__}"
        )
    try:
        fields = {key: payload[key] for key in ("mean_p", "cov_p", "mean_q", "cov_q")}
    except KeyError as exc:
        raise BadParameterError(f"moments file is missing key {exc}") from exc
    for key, value in fields.items():
        # screened by MomentsND's own walk: float() reads "1" and true as numbers
        try:
            leaves = _leaves(value)[0]
        except RecursionError:
            raise BadParameterError(f"moments file nests {key!r} too deeply to read") from None
        for item in leaves:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise BadParameterError(
                    f"moments file holds a non-numeric field: {key!r} holds {item!r}"
                )
    try:
        p = MomentsND(fields["mean_p"], fields["cov_p"])
        q = MomentsND(fields["mean_q"], fields["cov_q"])
    except OverflowError as exc:
        raise BadParameterError(
            f"moments file holds a number past the float range: {exc}"
        ) from exc
    return MomentPairND(p, q)


def _cmd_nd_bound(params: Mapping[str, Any]) -> tuple[dict, int]:
    from .nd import finite_traces, gap_norm_sq, trace_bound

    pair = _load_nd_pair(params["path"])
    trace_p, trace_q = finite_traces(pair)
    gap = gap_norm_sq(pair)
    return {
        "dimension": pair.dim,
        "gap_norm_sq": gap,
        "trace_p": trace_p,
        "trace_q": trace_q,
        "bound": trace_bound(gap, trace_p, trace_q),
    }, 0


def _cmd_nd_check(params: Mapping[str, Any]) -> tuple[dict, int]:
    from .nd import check_nd_bound_random

    dims = params["dims"]
    atoms = params["atoms"] if params["atoms"] is not None else dims + 4
    violations = check_nd_bound_random(dims, atoms, params["trials"], params["seed"])
    return {
        "dims": dims,
        "atoms": atoms,
        "trials": params["trials"],
        "seed": params["seed"],
        "violations": violations,
    }, 2 if violations > 0 else 0


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise BadParameterError(
            f"--start, --stop and --step must be finite, got {start}, {stop}, {step}"
        )
    if step <= 0.0:
        raise BadParameterError(f"--step must be positive, got {step}")
    if stop < start:
        raise BadParameterError("--stop must not be less than --start")
    # rows - 1, as a float: inf when stop - start overflows
    span = (stop - start) / step + 1e-9
    if not span < SWEEP_MAX_ROWS:
        raise BadParameterError(
            f"the range from --start {start} to --stop {stop} by --step {step} "
            f"has more than SWEEP_MAX_ROWS = {SWEEP_MAX_ROWS} rows"
        )
    return [start + i * step for i in range(int(span) + 1)]


def _cmd_sweep(params: Mapping[str, Any]) -> tuple[dict | str, int]:
    swept = params["param"]
    for name in ("mp", "sp", "mq", "sq"):
        if name != swept and params[name] is None:
            raise BadParameterError(f"--{name} is required when sweeping --{swept}")

    rows = []
    for value in _sweep_values(params["start"], params["stop"], params["step"]):
        report = bound_report(_pair_from({**params, swept: value}))._asdict()
        row = {"swept_value": value, **report}
        rows.append({col: row[col] for col in _SWEEP_COLUMNS})

    if params["format"] == "json":
        return {"param": swept, "rows": rows}, 0
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join("" if cell is None else repr(cell) for cell in row.values()))
    return "\n".join(lines) + "\n", 0


# Each handler returns its report and the exit code; ``run`` prints the
# report: a dict as indented JSON, a string (sweep's CSV) as it is.
_HANDLERS = {
    "bound": _cmd_bound,
    "witness": _cmd_witness,
    "two-point": _cmd_two_point,
    "case-c": _cmd_case_c,
    "sequence": _cmd_sequence,
    "verify": _cmd_verify,
    "nd-bound": _cmd_nd_bound,
    "nd-check": _cmd_nd_check,
    "sweep": _cmd_sweep,
}


def run(config: RunConfig) -> int:
    """Execute one parsed command and print its report; returns the exit code."""
    report, code = _HANDLERS[config.command](config.params)
    if not isinstance(report, str):
        report = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(report)
    return code


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        code = run(config)
    except (TVBoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if argv is None:  # invoked as a console script
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
