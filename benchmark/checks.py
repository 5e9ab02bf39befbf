"""Correctness checks for each op, run outside the timed calls.

A check returns a list of failure reasons; an empty list means the op
passed. Reasons that start with ``ANTI_CONSERVATIVE`` mark a bound more
optimistic than an admissible prior proves possible. That is the solver
defect ROADMAP Open item 1 tracks: it counts as a failed op, but it does
not mark the run's output as untrustworthy the way an inadmissible
witness or a disagreement between two of the program's own answers does.
"""

from __future__ import annotations

import math

import numpy as np

from relbound import gsn, priors, solver
from relbound.errors import ZeroEvidenceError
from relbound.inference import CONSERVATIVE_MAX, Observation, posterior_value

import workloads as wl

ANTI_CONSERVATIVE = "anti-conservative"

#: evenly spaced points in the oracle's sub-grid, by constraint count. The
#: oracle enumerates supports of up to (constraints + 2) points, so this
#: keeps each check to tens of milliseconds and tens of megabytes.
SUBGRID_POINTS = {0: 64, 1: 48, 2: 40, 3: 20, 4: 12}
#: slack for re-valuing a posterior: both sides are exact functionals of
#: priors that satisfy the equalities to within ~1e-12
VALUE_RTOL = 1e-7
VALUE_ATOL = 1e-13
#: smallest relative gap to the sub-grid oracle that counts as
#: anti-conservative. The oracle's vertices may exceed an inequality row by
#: the 1e-9 that ``satisfies_all`` allows, which on a threshold near 1e-5
#: buys a relative gain near 1e-4; smaller gaps prove nothing.
GAP_RTOL = 1e-3


def subgrid(grid: priors.PfdGrid, constraints, objective, witness=None) -> priors.PfdGrid:
    """Evenly spaced grid points plus the forced points and the witness support.

    Every point is a point of ``grid``, so any prior admissible on the
    sub-grid is admissible on ``grid``: a better sub-grid optimum proves the
    full-grid bound anti-conservative.
    """
    points = grid.as_array()
    count = SUBGRID_POINTS[min(len(constraints), 4)]
    idx = np.unique(np.linspace(0, points.size - 1, count).round().astype(int))
    chosen = set(points[idx].tolist())
    chosen.update(priors.forced_grid_points(constraints, objective))
    if witness is not None:
        chosen.update(witness.support)
    return priors.PfdGrid(tuple(chosen))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=VALUE_RTOL, abs_tol=VALUE_ATOL)


def check_solve(constraints, obs, objective, grid, result) -> list[str]:
    """Checks on one ``solve`` result over ``grid``."""
    if result.solver_status == solver.STATUS_INFEASIBLE:
        reasons = []
        if priors.check_feasible(constraints, grid).feasible:
            reasons.append("infeasible, but check_feasible finds a feasible prior")
        try:
            oracle = solver.oracle_solve(
                constraints, obs, objective, subgrid(grid, constraints, objective)
            )
            if oracle.solver_status != solver.STATUS_INFEASIBLE:
                reasons.append("infeasible, but the sub-grid oracle finds a feasible prior")
        except ZeroEvidenceError:
            reasons.append("infeasible, but the sub-grid oracle finds a feasible prior")
        return reasons

    if result.solver_status not in (solver.STATUS_OPTIMAL, solver.STATUS_GRID_LIMITED):
        return [f"unknown status {result.solver_status!r}"]
    witness = result.witness
    if witness is None or result.bound is None:
        return ["feasible result without a bound and witness"]
    reasons = []
    if not witness.satisfies_all(constraints):
        reasons.append("witness violates the constraints")
    if not set(witness.support) <= set(grid.points):
        reasons.append("witness support is off the grid")
    value = posterior_value(witness, obs, objective)
    if not _close(value, result.bound):
        reasons.append(f"witness scores {value!r}, not the bound {result.bound!r}")
    try:
        oracle = solver.oracle_solve(
            constraints, obs, objective, subgrid(grid, constraints, objective, witness)
        )
    except ZeroEvidenceError:
        return reasons + ["the sub-grid oracle finds no prior with positive evidence"]
    if oracle.bound is None:
        return reasons + ["the sub-grid oracle finds no feasible prior"]
    if not oracle.witness.satisfies_all(constraints):
        return reasons  # the oracle fell back to an inadmissible vertex: it proves nothing
    maximize = objective.direction == CONSERVATIVE_MAX
    gap = (oracle.bound - result.bound) if maximize else (result.bound - oracle.bound)
    if gap > GAP_RTOL * abs(oracle.bound) + VALUE_ATOL:
        reasons.append(
            f"{ANTI_CONSERVATIVE}: sub-grid oracle {oracle.bound!r} vs bound {result.bound!r}"
        )
    return reasons


def check_audit(report, trials: int) -> list[str]:
    reasons = []
    if report.trials != trials:
        reasons.append(f"audit ran {report.trials} trials, not {trials}")
    if report.violations > 0:
        reasons.append(f"{ANTI_CONSERVATIVE}: {report.violations} audit violations")
    return reasons


def expected_goal_status(claim, obs, resolution):
    """The status a bound goal should get, from a separately checked solve."""
    grid = priors.build_grid(claim.constraints, claim.objective, resolution)
    try:
        result = solver.solve(claim.constraints, obs, claim.objective, grid)
    except ZeroEvidenceError:
        return "unevaluable: zero-evidence", None, []
    reasons = check_solve(claim.constraints, obs, claim.objective, grid, result)
    if result.solver_status == solver.STATUS_INFEASIBLE:
        return "unevaluable: infeasible", result, reasons
    status = gsn.SATISFIED if claim.holds(result.bound) else gsn.UNSATISFIED
    return status, result, reasons


def check_case(case, obs, resolution, statuses) -> tuple[list[str], list]:
    reasons = []
    results = []
    for node in case.nodes:
        if node.claim_binding is None:
            continue
        expected, result, solve_reasons = expected_goal_status(node.claim_binding, obs, resolution)
        results.append(result)
        reasons += [f"{node.id}: {r}" for r in solve_reasons]
        if statuses.get(node.id) != expected:
            reasons.append(f"{node.id}: status {statuses.get(node.id)!r}, expected {expected!r}")
    return reasons, results


def is_tracked_defect(reason: str) -> bool:
    """True for a failure of the known anti-conservatism class."""
    return ANTI_CONSERVATIVE in reason


def check_op(workload: str, inst, output) -> tuple[list[str], list[tuple]]:
    """Checks one op's output; returns the failure reasons and the
    ``(bound, solver_status)`` of each solve the op stands for."""
    if workload == "solve-mix":
        constraints, objective, obs, resolution = inst.args
        grid, result = priors.build_grid(constraints, objective, resolution), output
        reasons = check_solve(constraints, obs, objective, grid, result)
        return reasons, [(result.bound, result.solver_status)]
    if workload == "audit":
        constraints, objective, obs, _ = inst.args
        grid = priors.build_grid(constraints, objective, wl.AUDIT_RESOLUTION)
        result = solver.solve(constraints, obs, objective, grid)
        return check_audit(output, wl.AUDIT_TRIALS), [(result.bound, result.solver_status)]
    case, obs = inst.args
    reasons, results = check_case(case, obs, wl.GSN_RESOLUTION, output)
    return reasons, [(None, "zero-evidence") if r is None else (r.bound, r.solver_status) for r in results]
