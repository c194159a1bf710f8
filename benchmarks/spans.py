"""Span tracing from outside the package, by wrapping names where they are looked up.

A traced run replaces, for its duration only, the module attributes listed in
``WRAPS`` with wrappers that record one span per call: name, start, end,
parent span and op id.  The attribute replaced is always the one the calling
module resolves at call time (``tvbounds.oracle.solve_dense`` is the simplex
as the oracle sees it), so nothing under ``src/`` changes.  ``uninstall``
puts every original back and checks that it did.  Spans stay in memory and
are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children; summed over a layer and divided by the root spans' total it gives
the layer's share of the op time.
"""

from __future__ import annotations

import csv
import gzip
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name, layer).  A dotted attribute names a
# classmethod on a class of that module.  Modules not yet imported are left
# alone, so tracing never changes which modules a workload loads.
WRAPS = (
    ("tvbounds.moments", "MomentPair1D.from_scalars", "moments.from_scalars", "moments"),
    ("tvbounds.moments", "bound_report", "moments.bound_report", "moments"),
    ("tvbounds.witness", "construct_tight_witness", "witness.tight", "witness"),
    ("tvbounds.witness", "construct_two_point", "witness.two_point", "witness"),
    ("tvbounds.witness", "construct_anchored_witness", "witness.anchored", "witness"),
    ("tvbounds.witness", "construct_vanishing_sequence", "witness.sequence", "witness"),
    ("tvbounds.witness", "tv_distance", "discrete.tv_distance", "discrete"),
    ("tvbounds.witness", "check_moments", "discrete.check_moments", "discrete"),
    ("tvbounds.oracle", "minimize_tv_on_grid", "oracle.minimize_tv_on_grid", "oracle"),
    ("tvbounds.oracle", "construct_tight_witness", "oracle.witness_seed", "witness"),
    ("tvbounds.oracle", "build_grid", "oracle.build_grid", "oracle"),
    ("tvbounds.oracle", "formulate", "oracle.formulate", "oracle"),
    ("tvbounds.oracle", "solve", "oracle.solve", "oracle"),
    ("tvbounds.oracle", "solve_dense", "simplex.solve_dense", "simplex"),
    ("tvbounds.oracle", "check_moments", "discrete.check_moments", "discrete"),
    ("tvbounds.oracle", "check_nd_bound_random", "oracle.check_nd_bound_random", "oracle"),
    ("tvbounds.oracle", "MomentsND", "moments.MomentsND", "moments"),
    ("tvbounds.oracle", "tv_lower_bound_nd", "moments.tv_lower_bound_nd", "moments"),
    ("tvbounds.cli", "run", "cli.run", "cli"),
    ("tvbounds.cli", "bound_report", "moments.bound_report", "moments"),
    ("tvbounds.cli", "construct_tight_witness", "witness.tight", "witness"),
    ("tvbounds.cli", "construct_two_point", "witness.two_point", "witness"),
    ("tvbounds.cli", "construct_anchored_witness", "witness.anchored", "witness"),
    ("tvbounds.cli", "construct_vanishing_sequence", "witness.sequence", "witness"),
    ("tvbounds.cli", "minimize_tv_on_grid", "oracle.minimize_tv_on_grid", "oracle"),
    ("tvbounds.cli", "check_nd_bound_random", "oracle.check_nd_bound_random", "oracle"),
    ("tvbounds.cli", "MomentsND", "moments.MomentsND", "moments"),
    ("tvbounds.cli", "tv_lower_bound_nd", "moments.tv_lower_bound_nd", "moments"),
)

OP_SPAN = "op"
LAYERS = ("moments", "witness", "discrete", "oracle", "simplex", "cli", "bench")
WITNESS_SPANS = (
    "witness.tight",
    "witness.two_point",
    "witness.anchored",
    "witness.sequence",
    "oracle.witness_seed",
)
CLI_COMMANDS = (
    "bound",
    "witness",
    "two-point",
    "case-c",
    "sequence",
    "verify",
    "nd-bound",
    "nd-check",
    "sweep",
)

#: Every per-layer metric a traced run reports, with its unit.  A layer the
#: workload never calls reports 0, which is how a bypass shows.
PER_LAYER = {
    "moments.from_scalars_us": "us",
    "moments.bound_report_us": "us",
    "witness.tight_us": "us",
    "witness.two_point_us": "us",
    "witness.anchored_us": "us",
    "witness.sequence_us": "us",
    "witness.failed": "count",
    "discrete.tv_distance_us": "us",
    "discrete.check_moments_us": "us",
    "oracle.witness_seed_us": "us",
    "oracle.build_grid_ms": "ms",
    "oracle.formulate_ms": "ms",
    "oracle.extract_certify_ms": "ms",
    "oracle.lp_rows": "count",
    "oracle.lp_cols": "count",
    "oracle.certify_rejects": "count",
    "oracle.infeasible": "count",
    "simplex.solve_dense_ms": "ms",
    "simplex.ms_per_pivot": "ms",
    "simplex.pivots_per_solve": "count",
    "simplex.unbounded": "count",
    "simplex.iteration_limit": "count",
    "simplex.tableau_bytes_computed": "bytes",
    "moments.MomentsND_us": "us",
    "moments.tv_lower_bound_nd_us": "us",
    "oracle.nd_trial_us": "us",
    "oracle.nd_violations": "count",
    "cli.interpreter_floor_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    **{f"cli.{command}_ms": "ms" for command in CLI_COMMANDS},
    "cli.run_ms": "ms",
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "trace.op_p50_overhead_ms": "ms",
    "trace.ops_per_s_overhead": "1/s",
}

# Return values worth keeping, by span name: exact counts come from what the
# program hands back, never from its internals.
_OBSERVE = {
    "oracle.formulate": lambda lp, args: lp.constraint_matrix.shape,
    "oracle.solve": lambda result, args: result.status.value,
    "simplex.solve_dense": lambda res, args: (res.status, res.iterations),
    "oracle.check_nd_bound_random": lambda violations, args: (violations, args[2]),
}


def _resolve(module_name: str, attr: str):
    """(owner, name, current value) for a WRAPS entry; owner is None when
    the module is not imported."""
    module = sys.modules.get(module_name)
    if module is None:
        return None, attr, None
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # read the raw attribute so a classmethod comes back as its descriptor
    return owner, name, (vars(owner)[name] if path else getattr(owner, name))


def assert_unwrapped() -> None:
    """Raise if any traced name is currently a wrapper."""
    for module_name, attr, _, _ in WRAPS:
        _, _, value = _resolve(module_name, attr)
        inner = getattr(value, "__func__", value)
        if getattr(inner, "_bench_span", None) is not None:
            raise RuntimeError(f"{module_name}.{attr} is still wrapped")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self.child_ns: list[int] = []
        self.raised: list[bool] = []
        self.observed: dict[int, object] = {}
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._by_name: dict[str, list[int]] | None = None

    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.child_ns.append(0)
        self.end.append(0)
        self.raised.append(False)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        end = perf_counter_ns()
        self.end[idx] = end
        self._stack.pop()
        self.raised[idx] = raised
        parent = self.parent[idx]
        if parent >= 0:
            self.child_ns[parent] += end - self.start[idx]

    def _wrap(self, fn, name: str, layer: str):
        nid = self._intern(name, layer)
        observe = _OBSERVE.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if observe is not None:
                tracer.observed[idx] = observe(result, args)
            return result

        traced._bench_span = name
        return traced

    def run_op(self, op_id: int, fn, layer: str):
        """Run ``fn(op_id)`` inside the op's root span, attributed to ``layer``."""
        self._op = op_id
        idx = self._open(self._intern(OP_SPAN, layer))
        try:
            result = fn(op_id)
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)
        return result

    def install(self) -> None:
        for module_name, attr, name, layer in WRAPS:
            owner, attr_name, value = _resolve(module_name, attr)
            if owner is None:
                continue
            self._saved.append((owner, attr_name, value))
            if isinstance(value, classmethod):
                setattr(owner, attr_name, classmethod(self._wrap(value.__func__, name, layer)))
            else:
                setattr(owner, attr_name, self._wrap(value, name, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr_name, value = self._saved.pop()
            setattr(owner, attr_name, value)
        assert_unwrapped()

    # -- derived metrics -------------------------------------------------

    def spans_named(self, name: str) -> list[int]:
        if self._by_name is None:
            self._by_name = defaultdict(list)
            for i, nid in enumerate(self.name_id):
                self._by_name[self.names[nid]].append(i)
        return self._by_name.get(name, [])

    def duration(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def self_ns(self, idx: int) -> int:
        return self.duration(idx) - self.child_ns[idx]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics derivable from spans alone; the rest stay 0."""

        def median(values, scale):
            return statistics.median(values) / scale if values else 0.0

        def dur(name, scale):
            return median([self.duration(i) for i in self.spans_named(name)], scale)

        def own(name, scale):
            return median([self.self_ns(i) for i in self.spans_named(name)], scale)

        out = dict.fromkeys(PER_LAYER, 0.0)
        out["moments.from_scalars_us"] = dur("moments.from_scalars", 1e3)
        out["moments.bound_report_us"] = dur("moments.bound_report", 1e3)
        for key in ("tight", "two_point", "anchored", "sequence"):
            out[f"witness.{key}_us"] = own(f"witness.{key}", 1e3)
        out["witness.failed"] = sum(
            self.raised[i] for name in WITNESS_SPANS for i in self.spans_named(name)
        )
        out["discrete.tv_distance_us"] = dur("discrete.tv_distance", 1e3)
        out["discrete.check_moments_us"] = dur("discrete.check_moments", 1e3)
        out["oracle.witness_seed_us"] = dur("oracle.witness_seed", 1e3)
        out["oracle.build_grid_ms"] = dur("oracle.build_grid", 1e6)
        out["oracle.formulate_ms"] = dur("oracle.formulate", 1e6)

        shapes = [self.observed[i] for i in self.spans_named("oracle.formulate") if i in self.observed]
        if shapes:
            out["oracle.lp_rows"] = statistics.median(r for r, _ in shapes)
            out["oracle.lp_cols"] = statistics.median(c for _, c in shapes)
            # the phase-2 tableau: one float64 per constraint/objective row
            # and per column plus the right-hand side
            out["simplex.tableau_bytes_computed"] = statistics.median(
                (r + 1) * (c + 1) * 8 for r, c in shapes
            )

        dense = self.spans_named("simplex.solve_dense")
        dense_in = {self.parent[i]: i for i in dense}
        solves = self.spans_named("oracle.solve")
        out["oracle.extract_certify_ms"] = median(
            [self.duration(s) - (self.duration(dense_in[s]) if s in dense_in else 0) for s in solves],
            1e6,
        )
        out["oracle.certify_rejects"] = sum(
            self.observed.get(s) == "numeric_failure"
            and s in dense_in
            and self.observed.get(dense_in[s], ("",))[0] == "optimal"
            for s in solves
        )
        out["oracle.infeasible"] = sum(self.observed.get(s) == "infeasible" for s in solves)

        outcomes = [self.observed[i] for i in dense if i in self.observed]
        out["simplex.solve_dense_ms"] = dur("simplex.solve_dense", 1e6)
        out["simplex.ms_per_pivot"] = median(
            [self.duration(i) / self.observed[i][1] for i in dense if self.observed.get(i, ("", 0))[1] > 0],
            1e6,
        )
        # a median, so that a rare iteration-limit solve (tens of thousands of
        # pivots) does not swing it; simplex.iteration_limit counts those
        out["simplex.pivots_per_solve"] = median([it for _, it in outcomes], 1)
        out["simplex.unbounded"] = sum(status == "unbounded" for status, _ in outcomes)
        out["simplex.iteration_limit"] = sum(status == "iteration_limit" for status, _ in outcomes)

        out["moments.MomentsND_us"] = dur("moments.MomentsND", 1e3)
        out["moments.tv_lower_bound_nd_us"] = dur("moments.tv_lower_bound_nd", 1e3)
        checks = [i for i in self.spans_named("oracle.check_nd_bound_random") if i in self.observed]
        out["oracle.nd_trial_us"] = median([self.self_ns(i) / self.observed[i][1] for i in checks], 1e3)
        out["oracle.nd_violations"] = sum(self.observed[i][0] for i in checks)
        out["cli.run_ms"] = dur("cli.run", 1e6)

        roots = [i for i, p in enumerate(self.parent) if p < 0]
        total = sum(self.duration(i) for i in roots)
        per_layer = defaultdict(int)
        for i, nid in enumerate(self.name_id):
            per_layer[self.layers[nid]] += self.self_ns(i)
        for layer in LAYERS:
            out[f"{layer}.self_share"] = per_layer[layer] / total if total else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as one gzipped CSV row; ``parent`` and ``op`` are span and op indices."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=3) as handle:
            writer = csv.writer(handle)
            writer.writerow(("index", "name", "layer", "start_ns", "end_ns", "parent", "op", "raised"))
            for i, nid in enumerate(self.name_id):
                writer.writerow(
                    (i, self.names[nid], self.layers[nid], self.start[i], self.end[i],
                     self.parent[i], self.op_id[i], int(self.raised[i]))
                )
