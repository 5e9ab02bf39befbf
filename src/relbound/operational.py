"""Operational evidence: demand logs, simulation, and conservatism audits.

Under the i.i.d. demand model only the pass/fail counts matter, so logs
reduce to an Observation. Random generation uses numpy's PCG64 with
explicit seeding (audit trials derive per-trial seeds from the pair
(seed, trial index)), so every report is bit-reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleConstraintsError, ParseError, SamplingFailureError, ZeroEvidenceError
from .inference import CONSERVATIVE_MAX, Observation, ObjectiveSpec, posterior_value
from .priors import ConfidenceBound, PerfectionConfidence, PfdGrid, PriorDistribution
from .solver import feasible_vertices, solve

PASS = "pass"
FAIL = "fail"

#: a margin below this counts as a conservatism violation
VIOLATION_TOL = -1e-9


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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["index", "outcome"]:
            raise ParseError(f"{path}:1: expected header 'index,outcome'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            index_text, outcome = row[0].strip(), row[1].strip()
            try:
                index = int(index_text)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad index {index_text!r}") from None
            if outcome not in (PASS, FAIL):
                raise ParseError(
                    f"{path}:{lineno}: outcome must be 'pass' or 'fail', got {outcome!r}"
                )
            records.append((index, outcome))
    try:
        return DemandLog(tuple(records))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


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


def _seed_support(constraints, points: np.ndarray, rng: np.random.Generator, size: int):
    """Random support indices, always including a representative for every
    region an equality constraint pins mass into."""
    n_pts = points.size
    required: set[int] = set()
    for constraint in constraints:
        if isinstance(constraint, PerfectionConfidence):
            if constraint.theta > 0.0:
                required.add(0)  # grids always start at 0
            if constraint.theta < 1.0:
                required.add(int(rng.integers(1, n_pts)))
        elif isinstance(constraint, ConfidenceBound):
            below = np.nonzero(points <= constraint.epsilon)[0]
            above = np.nonzero(points > constraint.epsilon)[0]
            if constraint.theta > 0.0 and below.size:
                required.add(int(rng.choice(below)))
            if constraint.theta < 1.0 and above.size:
                required.add(int(rng.choice(above)))
    chosen = set(required)
    while len(chosen) < min(size, n_pts):
        chosen.add(int(rng.integers(0, n_pts)))
    return np.array(sorted(chosen), dtype=np.intp)


def sample_feasible_prior(
    constraints, grid: PfdGrid, seed: int, max_attempts: int = 200
) -> PriorDistribution:
    """A random grid-supported prior satisfying every constraint.

    Picks a random small support, enumerates the feasible vertices of the
    constraint polytope restricted to it, and returns a random convex
    blend of up to two vertices (vertices alone would under-represent the
    interior). Rejects and retries when the support admits no feasible
    masses.
    """
    points = grid.as_array()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    size_base = len(constraints) + 1
    for _ in range(max_attempts):
        size = size_base + int(rng.integers(0, 2))
        support = _seed_support(constraints, points, rng, size)
        vertices = feasible_vertices(constraints, points, support)
        if not vertices:
            continue
        first = vertices[int(rng.integers(0, len(vertices)))]
        masses = first
        if len(vertices) > 1 and rng.random() < 0.5:
            second = vertices[int(rng.integers(0, len(vertices)))]
            lam = float(rng.random())
            masses = lam * first + (1.0 - lam) * second
        keep = masses > 1e-13
        if not np.any(keep):
            continue
        total = masses[keep].sum()
        candidate = PriorDistribution(
            tuple(points[support][keep]), tuple(masses[keep] / total)
        )
        if candidate.satisfies_all(constraints):
            return candidate
    raise SamplingFailureError(
        f"no feasible prior found in {max_attempts} attempts; "
        "the constraint set may be infeasible or extremely tight"
    )


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
    for index in range(trials):
        child_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        try:
            prior = sample_feasible_prior(constraints, grid, child_seed)
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
