"""Per-layer spans, recorded by wrapping relbound's functions from outside.

Each wrapped function records a span (name, op id, parent span, start,
end, error, info) while an op is running, and passes straight through
otherwise, so the correctness checks that run between ops leave no
spans. A function imported into another module is wrapped under the
name that module binds, once per binding, so each call is counted once
at the boundary it crosses. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from relbound import gsn, inference, operational, priors, simplex, solver

# span fields, kept as lists to make recording cheap
NAME, OP, PARENT, START, END, ERROR, INFO = range(7)

SIMPLEX = "simplex.solve_lp"
SOLVE = "solver.solve"
FEASIBLE_VERTICES = "solver.feasible_vertices"
CHECK_FEASIBLE = "priors.check_feasible"
BUILD_GRID = "priors.build_grid"
CONSTRAINT_ROWS = "priors.constraint_rows"
POSTERIOR_VALUE = "inference.posterior_value"
LOG_LIKELIHOOD = "inference.log_likelihood_vector"
SAMPLER = "operational.sample_feasible_prior"
EVALUATE_CASE = "gsn.evaluate_case"
VALIDATE = "gsn.validate"


def _lp_shape(args, kwargs, result) -> dict:
    """Standard-form size of one LP, computed from its argument shapes the
    way ``simplex.solve_lp`` builds it: slack columns for the <= rows, and
    a phase-1 tableau of rows x (columns + rows + 1) float64 entries."""
    n = len(args[0])
    n_ub = 0 if kwargs.get("b_ub") is None else len(kwargs["b_ub"])
    n_eq = 0 if kwargs.get("b_eq") is None else len(kwargs["b_eq"])
    rows, cols = n_eq + n_ub, n + n_ub
    return {
        "rows": rows,
        "cols": cols,
        "tableau_kb": rows * (cols + rows + 1) * 8 / 1024,
        "status": result.status,
    }


#: span name -> (module, attribute) bindings to wrap, and an optional
#: annotation taken from the call
TARGETS = {
    SIMPLEX: ([(simplex, "solve_lp"), (solver, "solve_lp")], _lp_shape),
    SOLVE: ([(solver, "solve"), (operational, "solve"), (gsn, "solve")], None),
    FEASIBLE_VERTICES: ([(solver, "feasible_vertices"), (operational, "feasible_vertices")], None),
    CHECK_FEASIBLE: ([(priors, "check_feasible"), (solver, "check_feasible")], None),
    BUILD_GRID: ([(priors, "build_grid"), (solver, "build_grid"), (gsn, "build_grid")], None),
    CONSTRAINT_ROWS: ([(priors, "constraint_rows"), (solver, "constraint_rows")], None),
    POSTERIOR_VALUE: (
        [(inference, "posterior_value"), (solver, "posterior_value"), (operational, "posterior_value")],
        None,
    ),
    LOG_LIKELIHOOD: ([(inference, "log_likelihood_vector"), (solver, "log_likelihood_vector")], None),
    SAMPLER: ([(operational, "sample_feasible_prior")], None),
    EVALUATE_CASE: ([(gsn, "evaluate_case")], None),
    VALIDATE: ([(gsn, "validate")], None),
}


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    suffixes = (
        ("_ms_per_op", "ms/op"),
        ("calls_per_op", "calls/op"),
        ("solves_per_op", "calls/op"),
        ("failures_per_op", "failures/op"),
        ("lp_per_solve", "calls/solve"),
        ("attempts_per_prior", "calls/prior"),
        ("share", "share"),
        ("_us_p50", "us"),
        ("_ms_p50", "ms"),
        ("rows_mean", "rows"),
        ("cols_mean", "cols"),
        ("_kb_computed", "KiB"),
    )
    for suffix, unit in suffixes:
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


class Tracer:
    """Records spans of wrapped calls made inside an op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            span = [name, self.op_id, stack[-1] if stack else None, 0, 0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if annotate is not None:
                span[INFO] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, (bindings, annotate) in TARGETS.items():
            for module, attr in bindings:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, annotate))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        keys = ("name", "op", "parent", "start_ns", "end_ns", "error", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list], ops: int, op_wall_ns: int) -> dict[str, float]:
    """Per-layer metrics from one traced phase, normalised per op.

    Self time is a span's duration minus that of its direct child spans;
    single-threaded spans nest without overlap, so the subtraction is exact.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)

    by_name: dict[str, list[int]] = {name: [] for name in TARGETS}
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def calls(name: str) -> int:
        return len(by_name[name])

    def busy_ms(name: str) -> float:
        return sum(dur[i] for i in by_name[name]) / 1e6

    def self_ms(name: str, subtract=None) -> float:
        """Duration minus direct children (only those named in ``subtract``, if given)."""
        total = 0
        for i in by_name[name]:
            kids = [c for c in children[i] if subtract is None or spans[c][NAME] in subtract]
            total += dur[i] - sum(dur[c] for c in kids)
        return total / 1e6

    def calls_within(name: str, ancestor: str) -> int:
        """Calls of ``name`` made anywhere below a call of ``ancestor``."""
        below = [False] * n
        for i, s in enumerate(spans):
            parent = s[PARENT]
            if parent is not None:
                below[i] = below[parent] or spans[parent][NAME] == ancestor
        return sum(1 for i in by_name[name] if below[i])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lp = by_name[SIMPLEX]
    lp_info = [spans[i][INFO] for i in lp if spans[i][INFO] is not None]

    def per_op(value: float) -> float:
        return value / ops

    return {
        "simplex.calls_per_op": per_op(calls(SIMPLEX)),
        "simplex.busy_ms_per_op": per_op(busy_ms(SIMPLEX)),
        "simplex.share": ratio(busy_ms(SIMPLEX), op_wall_ns / 1e6),
        "simplex.call_us_p50": statistics.median(dur[i] for i in lp) / 1e3 if lp else 0.0,
        "simplex.rows_mean": ratio(sum(x["rows"] for x in lp_info), len(lp_info)),
        "simplex.cols_mean": ratio(sum(x["cols"] for x in lp_info), len(lp_info)),
        "simplex.tableau_kb_computed": ratio(sum(x["tableau_kb"] for x in lp_info), len(lp_info)),
        "simplex.nonoptimal_share": ratio(sum(x["status"] != "optimal" for x in lp_info), len(lp_info)),
        "solver.solve.calls_per_op": per_op(calls(SOLVE)),
        "solver.solve.busy_ms_per_op": per_op(busy_ms(SOLVE)),
        "solver.solve.self_ms_per_op": per_op(self_ms(SOLVE)),
        "solver.lp_per_solve": ratio(calls_within(SIMPLEX, SOLVE), calls(SOLVE)),
        "solver.feasible_vertices.calls_per_op": per_op(calls(FEASIBLE_VERTICES)),
        "solver.feasible_vertices.busy_ms_per_op": per_op(busy_ms(FEASIBLE_VERTICES)),
        "priors.check_feasible.calls_per_op": per_op(calls(CHECK_FEASIBLE)),
        "priors.check_feasible.busy_ms_per_op": per_op(busy_ms(CHECK_FEASIBLE)),
        "priors.build_grid.busy_ms_per_op": per_op(busy_ms(BUILD_GRID)),
        "priors.constraint_rows.calls_per_op": per_op(calls(CONSTRAINT_ROWS)),
        "priors.constraint_rows.busy_ms_per_op": per_op(busy_ms(CONSTRAINT_ROWS)),
        "inference.posterior_value.calls_per_op": per_op(calls(POSTERIOR_VALUE)),
        "inference.posterior_value.busy_ms_per_op": per_op(busy_ms(POSTERIOR_VALUE)),
        "inference.log_likelihood_vector.calls_per_op": per_op(calls(LOG_LIKELIHOOD)),
        "inference.log_likelihood_vector.busy_ms_per_op": per_op(busy_ms(LOG_LIKELIHOOD)),
        "operational.sample_feasible_prior.calls_per_op": per_op(calls(SAMPLER)),
        "operational.sample_feasible_prior.busy_ms_per_op": per_op(busy_ms(SAMPLER)),
        "operational.sample_feasible_prior.self_ms_per_op": per_op(self_ms(SAMPLER)),
        "operational.attempts_per_prior": ratio(calls_within(FEASIBLE_VERTICES, SAMPLER), calls(SAMPLER)),
        "operational.sampling_failures_per_op": per_op(
            sum(1 for i in by_name[SAMPLER] if spans[i][ERROR] == "SamplingFailureError")
        ),
        "gsn.evaluate_case.busy_ms_per_op": per_op(busy_ms(EVALUATE_CASE)),
        "gsn.validate.busy_ms_per_op": per_op(busy_ms(VALIDATE)),
        "gsn.self_ms_per_op": per_op(self_ms(EVALUATE_CASE, subtract={BUILD_GRID, SOLVE})),
        "gsn.solves_per_op": per_op(calls_within(SOLVE, EVALUATE_CASE)),
    }
