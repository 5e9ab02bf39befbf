"""Operational evidence: demand logs, simulation, and conservatism audits.

Under the i.i.d. demand model only the pass/fail counts matter, so logs
reduce to an Observation. Random generation uses numpy's PCG64 with
explicit seeding (audit trials derive per-trial seeds from the pair
(seed, trial index)), so every report is bit-reproducible. An audit
samples its trials' priors in lock-step, sharing one vertex enumeration
per round and support size, while each trial draws from its own stream.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .csvio import csv_records
from .errors import (
    InfeasibleConstraintsError,
    ParseError,
    SamplingFailureError,
    ZeroEvidenceError,
    parsing,
)
from .inference import CONSERVATIVE_MAX, Observation, ObjectiveSpec, posterior_value
from .priors import PfdGrid, PriorDistribution, constraint_rows, prior_from_masses
from .solver import feasible_vertices, solve

PASS = "pass"
FAIL = "fail"

#: a margin below this counts as a conservatism violation
VIOLATION_TOL = -1e-9
#: attempts the sampler makes per prior before it gives up
MAX_ATTEMPTS = 200
#: trials sampled in lock-step at once: ``relbound audit``'s default of
#: 100, so a default audit is one block, while memory stays flat in the
#: trial count (a block's stacked vertex systems take up to ~16 KB a trial)
SAMPLER_BLOCK = 100


@dataclass(frozen=True)
class DemandLog:
    """Ordered pass/fail outcomes, indexed strictly increasingly."""

    records: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        for (i, a), (j, _b) in zip(self.records, self.records[1:]):
            if j <= i:
                raise ValueError(f"indices must be strictly increasing ({i} then {j})")
        for index, outcome in self.records:
            if outcome not in (PASS, FAIL):
                raise ValueError(f"record {index}: outcome must be pass or fail")


def ingest(log: DemandLog) -> Observation:
    """Reduce a demand log to its sufficient statistic (n, k)."""
    n = len(log.records)
    k = sum(1 for _, outcome in log.records if outcome == FAIL)
    return Observation(n=n, k=k)


def load_demand_log(path: str) -> DemandLog:
    """Read a demand log CSV with header ``index,outcome``."""
    records: list[tuple[int, str]] = []
    for lineno, row in csv_records(path, ("index", "outcome")):
        index_text, outcome = row[0].strip(), row[1].strip()
        with parsing("index", at=f"{path}:{lineno}"):
            index = int(index_text)
        if outcome not in (PASS, FAIL):
            raise ParseError(f"{path}:{lineno}: outcome must be 'pass' or 'fail', got {outcome!r}")
        records.append((index, outcome))
    with parsing("demand log", at=path):
        return DemandLog(tuple(records))


def save_demand_log(log: DemandLog, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "outcome"])
        writer.writerows(log.records)


def simulate_demands(true_pfd: float, n: int, seed: int) -> DemandLog:
    """n i.i.d. Bernoulli(true_pfd) demands; reproducible per seed (PCG64)."""
    if not 0.0 <= true_pfd <= 1.0:
        raise ValueError(f"true_pfd must lie in [0, 1], got {true_pfd!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    fails = rng.random(n) < true_pfd
    records = tuple((i + 1, FAIL if fails[i] else PASS) for i in range(n))
    return DemandLog(records)


def _seed_support(rows, n_pts: int, rng: np.random.Generator, size: int):
    """Random support indices into an ``n_pts``-point grid, always including
    a representative for every region an equality row pins mass into.

    Every ``"eq"`` row is the 0/1 indicator of a prefix of the sorted grid,
    its first ``cut`` points; a grid starts at 0, so the prefix is never
    empty. A representative is drawn inside the prefix when the row asks
    for mass there, and past it when it leaves mass outside.
    """
    required: set[int] = set()
    for row in rows:
        if row.sense != "eq":
            continue
        cut = int(np.count_nonzero(row.coeffs))
        if row.rhs > 0.0:
            required.add(int(rng.integers(0, cut)))
        if row.rhs < 1.0 and cut < n_pts:
            required.add(int(rng.integers(cut, n_pts)))
    chosen = set(required)
    while len(chosen) < min(size, n_pts):
        chosen.add(int(rng.integers(0, n_pts)))
    return np.array(sorted(chosen), dtype=np.intp)


def sample_feasible_priors(
    constraints, grid: PfdGrid, seeds, max_attempts: int = MAX_ATTEMPTS
) -> Iterator[PriorDistribution | None]:
    """Yield, per seed in order, a random grid-supported prior satisfying
    every constraint, or None when all ``max_attempts`` attempts failed.

    Each attempt picks a random small support, enumerates the feasible
    vertices of the constraint polytope restricted to it, and takes a
    random convex blend of up to two vertices (vertices alone would
    under-represent the interior). It fails when the support admits no
    feasible masses or the blend misses a constraint.

    The seeds run in lock-step, in blocks of ``SAMPLER_BLOCK``: each round,
    every seed of the block still without a prior draws its support from
    its own PCG64 stream, the round's supports go through one vertex
    enumeration per support size, and each seed then blends with its own
    stream. A seed's prior is therefore the one it would get sampled
    alone, and memory holds one block's priors at a time.
    """
    points = grid.as_array()
    rows = constraint_rows(constraints, points)
    seeds = list(seeds)
    for start in range(0, len(seeds), SAMPLER_BLOCK):
        yield from _sample_block(
            constraints, rows, points, seeds[start : start + SAMPLER_BLOCK], max_attempts
        )


def _sample_block(constraints, rows, points, seeds, max_attempts):
    """``sample_feasible_priors`` for one block of seeds, as a list."""
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s))) for s in seeds]
    found: list[PriorDistribution | None] = [None] * len(seeds)
    size_base = len(constraints) + 1
    pending = range(len(seeds))
    for _ in range(max_attempts):
        if not pending:
            break
        supports = {}
        groups: dict[int, list[int]] = {}  # pending trials by support size
        for t in pending:
            size = size_base + int(rngs[t].integers(0, 2))
            supports[t] = _seed_support(rows, points.size, rngs[t], size)
            groups.setdefault(supports[t].size, []).append(t)
        vertices = {}
        for group in groups.values():
            masses, owners = feasible_vertices(rows, np.stack([supports[t] for t in group]))
            ends = np.cumsum(np.bincount(owners, minlength=len(group)))
            vertices.update(zip(group, np.split(masses, ends[:-1])))
        failed = []
        for t in pending:
            candidate = _blend(points[supports[t]], vertices[t], rngs[t])
            if candidate is not None and candidate.satisfies_all(constraints):
                found[t] = candidate
            else:
                failed.append(t)
        pending = failed
    return found


def _blend(points, vertices, rng: np.random.Generator) -> PriorDistribution | None:
    """A random vertex (a row of ``vertices``), or with probability 1/2 a
    random blend of two, as a prior on ``points``; None when there are no
    vertices."""
    if len(vertices) == 0:
        return None
    first = vertices[int(rng.integers(0, len(vertices)))]
    masses = first
    if len(vertices) > 1 and rng.random() < 0.5:
        second = vertices[int(rng.integers(0, len(vertices)))]
        lam = float(rng.random())
        masses = lam * first + (1.0 - lam) * second
    return prior_from_masses(points, masses)


def _sampling_failure(max_attempts: int) -> SamplingFailureError:
    return SamplingFailureError(
        f"no feasible prior found in {max_attempts} attempts; "
        "the constraint set may be infeasible or extremely tight"
    )


def sample_feasible_prior(
    constraints, grid: PfdGrid, seed: int, max_attempts: int = MAX_ATTEMPTS
) -> PriorDistribution:
    """``sample_feasible_priors`` for one seed; raises
    ``SamplingFailureError`` when every attempt failed."""
    (prior,) = sample_feasible_priors(constraints, grid, [seed], max_attempts)
    if prior is None:
        raise _sampling_failure(max_attempts)
    return prior


@dataclass(frozen=True)
class TrialRecord:
    index: int
    margin: float | None
    error: str | None = None

    def to_dict(self) -> dict:
        return {"index": self.index, "margin": self.margin, "error": self.error}


@dataclass(frozen=True)
class ConservatismReport:
    """Empirical audit of the claim that the solver bound is worst case."""

    trials: int
    violations: int
    #: None when no trial gave a margin (JSON has no NaN)
    worst_margin: float | None
    records: tuple[TrialRecord, ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "records": [r.to_dict() for r in self.records],
        }


def check_conservatism(
    constraints,
    obs: Observation,
    objective: ObjectiveSpec,
    trials: int,
    seed: int,
    grid: PfdGrid,
    bound: float | None = None,
) -> ConservatismReport:
    """Sample admissible priors and compare their exact posterior value with
    the solver bound in the conservative direction.

    A positive margin means the bound was conservative for that trial;
    ``bound`` can be overridden to demonstrate that the audit catches a
    corrupted (anti-conservative) bound. Per-trial errors are recorded,
    not raised.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if bound is None:
        result = solve(constraints, obs, objective, grid)
        if result.solver_status == "infeasible":
            raise InfeasibleConstraintsError("cannot audit an infeasible constraint set")
        bound = result.bound
    maximize = objective.direction == CONSERVATIVE_MAX
    records: list[TrialRecord] = []
    margins: list[float] = []
    seeds = [int(np.random.SeedSequence([seed, i]).generate_state(1)[0]) for i in range(trials)]
    for index, prior in enumerate(sample_feasible_priors(constraints, grid, seeds)):
        try:
            if prior is None:
                raise _sampling_failure(MAX_ATTEMPTS)
            value = posterior_value(prior, obs, objective)
        except (SamplingFailureError, ZeroEvidenceError) as exc:
            records.append(TrialRecord(index=index, margin=None, error=str(exc)))
            continue
        margin = (bound - value) if maximize else (value - bound)
        margins.append(margin)
        records.append(TrialRecord(index=index, margin=margin))
    violations = sum(1 for m in margins if m < VIOLATION_TOL)
    worst = min(margins) if margins else None
    return ConservatismReport(
        trials=trials,
        violations=violations,
        worst_margin=worst,
        records=tuple(records),
    )
