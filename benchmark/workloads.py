"""Seeded inputs and the op of each benchmark workload.

Inputs come from the standard library's ``random.Random(seed)``, so the
same seed gives the same inputs on every numpy version. Each workload's
pool is a balanced design: the structure of every input (which
constraint kinds, which objective and, for solve-mix, which grid
resolution) is enumerated exhaustively, demand and failure counts are
spread evenly over their ranges, and the seed draws the values within
those strata and the order. This keeps the cost mix of a pool the same
from seed to seed, so a run's latency percentiles do not depend on
which structures one seed happened to draw.

Ops look functions up through their module at call time
(``solver.solve``, not a bound name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from relbound import gsn, operational, priors, solver
from relbound.inference import (
    FutureReliability,
    Observation,
    PosteriorConfidence,
    PosteriorExpectedPfd,
)
from relbound.priors import ConfidenceBound, MeanBound, PerfectionConfidence, PriorReliability

KINDS = ("mean", "confidence", "perfection", "reliability")
#: every non-empty set of constraint kinds: 1 to 4 constraints of all four kinds
KIND_SETS = [s for r in range(1, len(KINDS) + 1) for s in itertools.combinations(KINDS, r)]
OBJECTIVES = ("expected_pfd", "confidence", "reliability")
STRUCTURES = list(itertools.product(KIND_SETS, OBJECTIVES))

#: each pool repeats the balanced set of structures this many times, with
#: fresh parameters: as many inputs as one pass in a 30 s run allows, so
#: that a run's percentiles rest on as many distinct inputs as it can
SOLVE_REPLICAS = 3
AUDIT_REPLICAS = 4
GSN_REPLICAS = 12

SOLVE_RESOLUTIONS = (500, 2000, 8000)
AUDIT_RESOLUTION = 2000
AUDIT_TRIALS = 100
#: the largest failure count k in solve-mix and audit; half their inputs have k = 0
MAX_FAILURES = 60
GSN_RESOLUTION = 1000
GSN_GOALS_PER_CASE = 3
GSN_MAX_K = 5
GSN_MODULES = ("platform",)

#: Open item 1 of the ROADMAP: ``solve`` is less conservative than the
#: oracle on this instance (8.3e-4 against at least 2.8e-3). Kept so that
#: the defect stays visible in ``pass_share`` until it is fixed.
PROBE_ANTI_CONSERVATIVE = (
    (MeanBound(5.4937e-4), PerfectionConfidence(0.85821)),
    PosteriorExpectedPfd(),
    Observation(n=100_000, k=44),
)
#: Open item 1, second case: reported as ``grid-limited`` on the default
#: grid; kept as a probe for that status.
PROBE_GRID_LIMITED = (
    (PerfectionConfidence(0.70439), ConfidenceBound(2.3558e-5, 0.98517)),
    FutureReliability(100),
    Observation(n=1_000_000, k=7),
)


@dataclass(frozen=True)
class Instance:
    """One input of a workload; ``args`` is what the op receives."""

    id: str
    args: tuple
    structure: str


@dataclass(frozen=True)
class Workload:
    name: str
    make_pool: Callable[[random.Random], list[Instance]]
    op: Callable[[Instance], Any]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _objective(rng: random.Random, name: str):
    if name == "expected_pfd":
        return PosteriorExpectedPfd()
    if name == "confidence":
        return PosteriorConfidence(p_req=_log_uniform(rng, 1e-6, 1e-2))
    return FutureReliability(t=round(_log_uniform(rng, 10, 1e5)))


def feasible_constraints(rng: random.Random, kinds) -> tuple:
    """Constraints that a reference prior satisfies on every grid.

    The reference prior puts mass ``a`` at 0, ``b`` at a low point and the
    rest at 1e-2. Every grid holds 0 and 1e-2 (the knee of the log part);
    the low point is the confidence threshold, which the grid is forced to
    hold, or else the log floor 1e-9, which every grid holds.
    """
    a = rng.uniform(0.05, 0.6)
    b = (1.0 - a) * rng.uniform(0.2, 0.9)
    rest = 1.0 - a - b
    epsilon = _log_uniform(rng, 1e-6, 1e-3)
    low = epsilon if "confidence" in kinds else priors.GRID_LOG_FLOOR
    high = priors.GRID_LOG_KNEE
    out = []
    for kind in kinds:
        if kind == "mean":
            mean = b * low + rest * high
            out.append(MeanBound(min(1.0, mean * rng.uniform(1.0, 4.0))))
        elif kind == "confidence":
            out.append(ConfidenceBound(epsilon, a + b))
        elif kind == "perfection":
            out.append(PerfectionConfidence(a))
        else:
            n0 = round(_log_uniform(rng, 10, 1e4))
            moment = a + b * (1.0 - low) ** n0 + rest * (1.0 - high) ** n0
            out.append(PriorReliability(n0, moment * rng.uniform(0.7, 1.0)))
    return tuple(out)


def infeasible_constraints(rng: random.Random) -> tuple:
    """More prior mass at pfd = 0 than at pfd <= epsilon: infeasible on any grid."""
    theta = rng.uniform(0.1, 0.8)
    return (
        PerfectionConfidence(theta + rng.uniform(0.05, 0.15)),
        ConfidenceBound(_log_uniform(rng, 1e-6, 1e-2), theta),
    )


def _strata(rng: random.Random, count: int) -> list[float]:
    """``count`` points in [0, 1), one in each of ``count`` equal strata, shuffled."""
    order = list(range(count))
    rng.shuffle(order)
    return [(i + rng.random()) / count for i in order]


def _replicated(rng: random.Random, cells: list, replicas: int, lo: float, hi: float) -> list[tuple]:
    """``replicas`` copies of every cell as ``(cell, n, k)``.

    The copies of one cell take their demand count n from each of
    ``replicas`` equal strata of log [lo, hi], and alternate between k = 0
    and k in 1..MAX_FAILURES, starting on the side the cell's position
    sets. Within a stratum, n is stratified again over the cells, and the
    nonzero k over their inputs. n and k are what an input's cost depends
    on most after its cell, so every seed's pool holds the same mix of
    cheap and costly inputs; the seed draws the values within the strata.
    """
    span = math.log10(hi) - math.log10(lo)
    sub = [_strata(rng, len(cells)) for _ in range(replicas)]
    fails = [(r + c) % 2 == 1 for c in range(len(cells)) for r in range(replicas)]
    k_values = iter(1 + k for k in _int_strata(rng, sum(fails), MAX_FAILURES - 1))
    out = []
    for c, cell in enumerate(cells):
        for r in range(replicas):
            n = round(lo * 10 ** (span * (r + sub[r][c]) / replicas))
            out.append((cell, n, next(k_values) if fails[c * replicas + r] else 0))
    return out


def _int_strata(rng: random.Random, count: int, top: int) -> list[int]:
    """``count`` integers spread evenly over 0..top, shuffled."""
    return [int(u * (top + 1)) for u in _strata(rng, count)]


def _log_strata(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """``count`` log-uniform integers in [lo, hi], stratified."""
    span = math.log10(hi) - math.log10(lo)
    return [round(lo * 10 ** (span * u)) for u in _strata(rng, count)]


def _label(kinds, objective: str, *extra) -> str:
    return "+".join(kinds) + "/" + "/".join((objective, *map(str, extra)))


# --- solve-mix: independent build_grid + solve ops ------------------------


def solve_mix_pool(rng: random.Random) -> list[Instance]:
    cells = [
        (kinds, objective, resolution, True)
        for kinds, objective in STRUCTURES
        for resolution in SOLVE_RESOLUTIONS
    ] + [
        (("perfection", "confidence"), objective, resolution, False)
        for objective in OBJECTIVES
        for resolution in SOLVE_RESOLUTIONS
    ]
    pool = [
        Instance("probe-anti-conservative", (*PROBE_ANTI_CONSERVATIVE, 2000), "probe"),
        Instance("probe-grid-limited", (*PROBE_GRID_LIMITED, 2000), "probe"),
    ]
    for (kinds, objective, resolution, feasible), n, k in _replicated(
        rng, cells, SOLVE_REPLICAS, 1e2, 1e7
    ):
        constraints = feasible_constraints(rng, kinds) if feasible else infeasible_constraints(rng)
        obs = Observation(n=n, k=k)
        args = (constraints, _objective(rng, objective), obs, resolution)
        label = _label(kinds, objective, resolution, "feasible" if feasible else "infeasible")
        pool.append(Instance(f"s{len(pool)}", args, label))
    rng.shuffle(pool)
    return pool


def solve_mix_op(inst: Instance):
    constraints, objective, obs, resolution = inst.args
    grid = priors.build_grid(constraints, objective, resolution)
    return solver.solve(constraints, obs, objective, grid)


# --- audit: the sampler does most of the work -----------------------------


def audit_pool(rng: random.Random) -> list[Instance]:
    pool = []
    for (kinds, objective), n, k in _replicated(rng, STRUCTURES, AUDIT_REPLICAS, 1e2, 1e7):
        obs = Observation(n=n, k=k)
        args = (feasible_constraints(rng, kinds), _objective(rng, objective), obs, rng.randrange(2**32))
        pool.append(Instance(f"a{len(pool)}", args, _label(kinds, objective)))
    rng.shuffle(pool)
    return pool


def audit_op(inst: Instance):
    constraints, objective, obs, audit_seed = inst.args
    grid = priors.build_grid(constraints, objective, AUDIT_RESOLUTION)
    return operational.check_conservatism(
        constraints, obs, objective, AUDIT_TRIALS, audit_seed, grid
    )


# --- gsn-case: a safety case whose bound goals share operational data -----


def _safety_case(claims) -> gsn.SafetyCase:
    goal_ids = [f"G{i + 1}" for i in range(len(claims))]
    nodes = [
        gsn.GsnNode("G0", "goal", "the component is acceptably reliable"),
        gsn.GsnNode("S0", "strategy", "argue over each reliability claim"),
        gsn.GsnNode("Gu", "goal", "remaining hazards are controlled", undeveloped=True),
        gsn.GsnNode("AG1", "away-goal", "platform is safe", module_ref=GSN_MODULES[0]),
        gsn.GsnNode("C0", "context", "operational profile is fixed"),
        gsn.GsnNode("A0", "assumption", "demands are independent"),
    ]
    supported_by = [("G0", "S0"), ("S0", "Gu"), ("S0", "AG1")]
    for goal_id, claim in zip(goal_ids, claims):
        nodes.append(gsn.GsnNode(goal_id, "goal", f"claim {goal_id}", claim_binding=claim))
        nodes.append(gsn.GsnNode(f"Sn{goal_id}", "solution", "conservative bound"))
        supported_by += [("S0", goal_id), (goal_id, f"Sn{goal_id}")]
    return gsn.SafetyCase(
        nodes=tuple(nodes),
        supported_by=tuple(supported_by),
        in_context_of=(("G0", "C0"), ("S0", "A0")),
        root="G0",
    )


def _claim(rng: random.Random, kinds, objective: str) -> gsn.QuantClaim:
    spec = _objective(rng, objective)
    if objective == "expected_pfd":
        threshold, comparison = _log_uniform(rng, 1e-6, 1e-2), "<="
    else:
        threshold, comparison = rng.uniform(0.5, 0.999), ">="
    return gsn.QuantClaim(feasible_constraints(rng, kinds), spec, threshold, comparison)


def gsn_pool(rng: random.Random) -> list[Instance]:
    # each replica holds every (kinds, objective) structure once, grouped in
    # a seeded order into cases of GSN_GOALS_PER_CASE bound goals
    groups = []
    for _ in range(GSN_REPLICAS):
        order = STRUCTURES[:]
        rng.shuffle(order)
        groups += [order[i : i + GSN_GOALS_PER_CASE] for i in range(0, len(order), GSN_GOALS_PER_CASE)]
    n_values = _log_strata(rng, len(groups), 1e3, 1e7)
    k_values = _int_strata(rng, len(groups), GSN_MAX_K)
    pool = []
    for group, n, k in zip(groups, n_values, k_values):
        claims = [_claim(rng, kinds, objective) for kinds, objective in group]
        obs = Observation(n=n, k=k)
        label = ",".join(_label(kinds, objective) for kinds, objective in group)
        pool.append(Instance(f"g{len(pool)}", (_safety_case(claims), obs), label))
    rng.shuffle(pool)
    return pool


def gsn_op(inst: Instance):
    case, obs = inst.args
    return gsn.evaluate_case(case, obs, GSN_MODULES, resolution=GSN_RESOLUTION)


#: why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-mix", solve_mix_pool, solve_mix_op),
        Workload("audit", audit_pool, audit_op),
        Workload("gsn-case", gsn_pool, gsn_op),
    )
}


def warmup_instance(workload: Workload) -> Instance:
    """A fixed input, the same for every seed, to warm the op's code path."""
    return workload.make_pool(random.Random(0))[0]
