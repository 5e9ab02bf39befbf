"""Command-line surface for the toolkit.

One binary with subcommands; all structured output is JSON or CSV so it
composes with external plotting. Exit codes are a stable contract:
0 success, 1 usage/parse/evidence errors, 2 infeasible constraints,
3 validation or claim failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import gsn, measures, operational, verification
from .errors import InfeasibleConstraintsError, ParseError, RelboundError, ZeroEvidenceError
from .inference import Observation, objective_from_dict
from .priors import DEFAULT_RESOLUTION, build_grid, check_feasible, constraints_from_list, count_field
from .solver import STATUS_INFEASIBLE, curve, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise _UsageError(message)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _load_constraints(path: str):
    doc = _read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("constraints", doc)
    if isinstance(doc, dict):
        doc = [doc]
    return constraints_from_list(doc)


def _load_objective(path: str):
    doc = _read_json(path)
    if isinstance(doc, dict) and "objective" in doc:
        doc = doc["objective"]
    return objective_from_dict(doc)


def _load_observation(path: str) -> Observation:
    """A JSON document {"n": ..., "k": ...} or a demand-log CSV."""
    with open(path) as fh:
        head = fh.readline()
    if head.strip().startswith("index"):
        return operational.ingest(operational.load_demand_log(path))
    doc = _read_json(path)
    if isinstance(doc, dict) and "observation" in doc:
        doc = doc["observation"]
    try:
        return Observation(n=count_field(doc, "n"), k=count_field(doc, "k"))
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"{path}: bad observation document: {exc}") from None


def _cmd_solve(args) -> int:
    constraints = _load_constraints(args.constraints)
    objective = _load_objective(args.objective)
    obs = _load_observation(args.observation)
    grid = build_grid(constraints, objective, args.grid)
    result = solve(constraints, obs, objective, grid)
    if result.solver_status == STATUS_INFEASIBLE:
        report = check_feasible(constraints, grid)
        names = ", ".join(type(c).__name__ + repr(tuple(vars(c).values())) for c in report.unsatisfiable)
        print(f"infeasible: no prior satisfies the subset {{{names}}}", file=sys.stderr)
        _write_output(_dump(result.to_dict()), args.out)
        return EXIT_INFEASIBLE
    _write_output(_dump(result.to_dict()), args.out)
    return EXIT_OK


def _cmd_curve(args) -> int:
    constraints = _load_constraints(args.constraints)
    objective = _load_objective(args.objective)
    try:
        n_values = [int(v) for v in args.n_values.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"bad --n-values list: {args.n_values!r}") from None
    grid = build_grid(constraints, objective, args.grid)
    points = curve(constraints, objective, n_values, args.k, grid=grid)
    lines = ["n,bound"] + [f"{n},{bound!r}" for n, bound in points]
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_prior_from_verification(args) -> int:
    coverage = verification.load_coverage(args.coverage, args.profile)
    epsilon = verification.coverage_bound(coverage)
    constraint = verification.prior_from_verification(epsilon, args.theta)
    from .priors import constraint_to_dict

    _write_output(_dump([constraint_to_dict(constraint)]), args.out)
    return EXIT_OK


def _cmd_measure(args) -> int:
    if args.dataset is not None:
        data = measures.load_dataset(args.dataset)
        if args.kind == "pfd":
            value = measures.empirical_pfd(data)
        else:
            value = measures.interpretability_measure(data)
        _write_output(_dump({"measure": args.kind, "value": value}), args.out)
        return EXIT_OK
    if args.decomposition is not None:
        decomp = measures.decomposition_from_dict(_read_json(args.decomposition))
        doc = {
            "bayes_error": decomp.bayes_error,
            "approximation_error": decomp.approximation_error,
            "estimation_error": decomp.estimation_error,
            "total_error": measures.total_error(decomp),
        }
        _write_output(_dump(doc), args.out)
        return EXIT_OK
    raise _UsageError("measure needs --dataset or --decomposition")


def _cmd_gsn(args) -> int:
    case = gsn.case_from_dict(_read_json(args.case))
    registry = tuple(_read_json(args.modules)) if args.modules else ()
    if args.action == "validate":
        violations = gsn.validate(case, registry)
        _write_output(
            _dump([{"code": v.code, "subject": v.subject, "message": v.message} for v in violations]),
            args.out,
        )
        return EXIT_OK if not violations else EXIT_VALIDATION
    if args.action == "render":
        violations = gsn.validate(case, registry)
        if violations:
            for violation in violations:
                print(str(violation), file=sys.stderr)
            return EXIT_VALIDATION
        _write_output(gsn.export_dot(case), args.out)
        return EXIT_OK
    # evaluate
    if args.observation is None:
        raise _UsageError("gsn evaluate needs --observation")
    obs = _load_observation(args.observation)
    statuses = gsn.evaluate_case(case, obs, registry, resolution=args.grid)
    _write_output(_dump(statuses), args.out)
    bound_goals = [n.id for n in case.nodes if n.claim_binding is not None]
    ok = all(statuses[g] == gsn.SATISFIED for g in bound_goals)
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_simulate(args) -> int:
    log = operational.simulate_demands(args.pfd, args.n, args.seed)
    lines = ["index,outcome"] + [f"{i},{outcome}" for i, outcome in log.records]
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_audit(args) -> int:
    constraints = _load_constraints(args.constraints)
    objective = _load_objective(args.objective)
    obs = _load_observation(args.observation)
    grid = build_grid(constraints, objective, args.grid)
    report = operational.check_conservatism(
        constraints, obs, objective, trials=args.trials, seed=args.seed, grid=grid
    )
    _write_output(_dump(report.to_dict()), args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="relbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, grid=True, seed=False, out=True):
        if grid:
            p.add_argument("--grid", type=int, default=DEFAULT_RESOLUTION,
                           help="grid resolution (point count)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("solve", help="conservative bound for one claim")
    p.add_argument("--constraints", required=True)
    p.add_argument("--observation", required=True)
    p.add_argument("--objective", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("curve", help="bound versus demand count, as CSV")
    p.add_argument("--constraints", required=True)
    p.add_argument("--objective", required=True)
    p.add_argument("--n-values", required=True, help="comma-separated ascending demand counts")
    p.add_argument("--k", type=int, default=0, help="failure count held fixed")
    add_common(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("prior-from-verification", help="coverage file to prior constraint")
    p.add_argument("--coverage", required=True)
    p.add_argument("--profile", default=None, help="profile/density JSON document")
    p.add_argument("--theta", type=float, required=True, help="trust in the verification result")
    add_common(p, grid=False)
    p.set_defaults(func=_cmd_prior_from_verification)

    p = sub.add_parser("measure", help="dataset measures and the error ledger")
    p.add_argument("--dataset", default=None)
    p.add_argument("--kind", choices=["pfd", "interpretability"], default="pfd")
    p.add_argument("--decomposition", default=None)
    add_common(p, grid=False)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("gsn", help="safety-case validation, rendering, evaluation")
    p.add_argument("action", choices=["validate", "render", "evaluate"])
    p.add_argument("--case", required=True)
    p.add_argument("--modules", default=None, help="JSON list of known module names")
    p.add_argument("--observation", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_gsn)

    p = sub.add_parser("simulate", help="draw an i.i.d. demand log")
    p.add_argument("--pfd", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, grid=False, seed=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("audit", help="conservatism audit over sampled priors")
    p.add_argument("--constraints", required=True)
    p.add_argument("--observation", required=True)
    p.add_argument("--objective", required=True)
    p.add_argument("--trials", type=int, default=100)
    add_common(p, seed=True)
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc.msg} at line {exc.lineno} column {exc.colno}", file=sys.stderr)
        return EXIT_ERROR
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ZeroEvidenceError as exc:
        print(f"zero-evidence error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InfeasibleConstraintsError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (RelboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())
