"""Operational evidence: demand logs, simulation, and conservatism audits.

Under the i.i.d. demand model only the pass/fail counts matter, so logs
reduce to an Observation. Random generation uses numpy's PCG64, seeded
through numpy's ``SeedSequence`` hash, so every report is bit-reproducible.
An audit's trial seeds are ``SeedSequence([seed, trial index])``'s first
state word, and each trial's stream is ``PCG64(SeedSequence(trial
seed))``. Both hashes run as uint32 array arithmetic over all of a
block's rows at once (``seeding``), word for word what ``SeedSequence``
computes one row at a time.

An audit is an array program over its trials. The sampler runs a block
of trials in lock-step: each round, every trial still without a prior
draws its support, its vertices and its blend weight from its own
stream, while the round's supports of one size share one vertex
enumeration, and their blends, mass drops, renormalisation and
admissibility test run as arrays over ``(trials, m)``. The accepted
``(grid indices, masses)`` rows are scored against the grid's
log-likelihoods and gains, computed once per audit, by the batched
posterior scorer; no ``PriorDistribution`` is built.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .csvio import csv_records
from .errors import (
    InfeasibleConstraintsError,
    ParseError,
    SamplingFailureError,
    parsing,
)
from .inference import (
    CONSERVATIVE_MAX,
    Observation,
    ObjectiveSpec,
    _posterior_ratio,
    log_likelihood_vector,
    objective_gain,
    posterior_value,  # noqa: F401  (bound by name in benchmark/spans.py)
)
from .priors import (
    PfdGrid,
    PriorDistribution,
    as_count,
    carried_prior,
    constraint_rows,
    drop_roundoff,
    equality_cuts,
    rows_admit,
)
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
    n = as_count(n, "n", least=0)
    from .seeding import streams  # loads numpy.random (see ``seeding``)

    (rng,) = streams([as_count(seed, "seed", least=0)])
    fails = rng.random(n) < true_pfd
    records = tuple((i + 1, FAIL if fails[i] else PASS) for i in range(n))
    return DemandLog(records)


def _seed_support(cuts, n_pts: int, rng: np.random.Generator, size: int):
    """Random support indices into an ``n_pts``-point grid, always including
    a representative for every region an equality row pins mass into.

    ``cuts`` are the equality rows' ``(cut, rhs)``, as ``equality_cuts``
    reads them; a grid starts at 0, so a row's prefix is never empty. A
    representative is drawn inside the prefix when the row asks for mass
    there, and past it when it leaves mass outside.
    """
    required: set[int] = set()
    for cut, rhs in cuts:
        if rhs > 0.0:
            required.add(int(rng.integers(0, cut)))
        if rhs < 1.0 and cut < n_pts:
            required.add(int(rng.integers(cut, n_pts)))
    chosen = set(required)
    while len(chosen) < min(size, n_pts):
        chosen.add(int(rng.integers(0, n_pts)))
    return np.array(sorted(chosen), dtype=np.intp)


def sample_feasible_masses(
    constraints, grid: PfdGrid, seeds, max_attempts: int = MAX_ATTEMPTS
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield, per block of ``SAMPLER_BLOCK`` seeds, a random grid-supported
    prior satisfying every constraint for each seed, as two arrays of one
    row per seed: grid indices, and the normalised masses on them. A seed
    whose ``max_attempts`` attempts all failed gets a row of zero masses;
    rows are padded with index 0 at mass 0.

    Each attempt picks a random small support, enumerates the feasible
    vertices of the constraint polytope restricted to it, and takes a
    random convex blend of up to two vertices (vertices alone would
    under-represent the interior). It fails when the support admits no
    feasible masses or the blend misses a constraint.

    The seeds of a block run in lock-step: each round, every seed still
    without a prior draws its support from its own PCG64 stream, the
    round's supports go through one vertex enumeration per support size,
    and each seed draws its vertices and blend weight from its stream. The
    blend, the drop of masses at or below ``MASS_DROP_TOL``, the
    renormalisation and the admissibility test then run as arrays over the
    size's trials. A seed's prior is therefore the one it would get
    sampled alone, and memory holds one block at a time.

    Each seed and ``max_attempts`` are counts by ``priors.as_count``'s rule
    (``max_attempts`` at least 1), checked at the call, before any block
    runs.
    """
    seeds = [as_count(seed, "seed", least=0) for seed in seeds]
    max_attempts = as_count(max_attempts, "max_attempts", least=1)
    points = grid.as_array()
    rows = constraint_rows(constraints, points)
    cuts = equality_cuts(rows)
    return (
        _sample_block(rows, cuts, points.size, seeds[start : start + SAMPLER_BLOCK], max_attempts)
        for start in range(0, len(seeds), SAMPLER_BLOCK)
    )


def _sample_block(rows, cuts, n_pts, seeds, max_attempts):
    """``sample_feasible_masses`` for one block of seeds."""
    from .seeding import streams  # loads numpy.random (see ``seeding``)

    rngs = streams(seeds)
    size_base = len(rows) + 1
    # a support holds the larger of its size and its required points
    width = min(n_pts, max(size_base + 1, 2 * len(cuts)))
    indices = np.zeros((len(seeds), width), dtype=np.intp)
    masses = np.zeros((len(seeds), width))
    pending = range(len(seeds))
    for _ in range(max_attempts):
        if not pending:
            break
        supports = {}
        groups: dict[int, list[int]] = {}  # pending trials by support size
        for t in pending:
            size = size_base + int(rngs[t].integers(0, 2))
            supports[t] = _seed_support(cuts, n_pts, rngs[t], size)
            groups.setdefault(supports[t].size, []).append(t)
        failed = []
        for m, group in groups.items():
            group_supports = np.stack([supports[t] for t in group])
            candidates, ok = _attempt(rows, group_supports, [rngs[t] for t in group])
            group = np.array(group)
            indices[group[ok], :m] = group_supports[ok]
            masses[group[ok], :m] = candidates[ok]
            failed.extend(group[~ok].tolist())
        pending = sorted(failed)
    return indices, masses


def _attempt(rows, supports, rngs):
    """One attempt's candidate per support: ``(masses, ok)``.

    Each support's stream picks a random vertex, or with probability 1/2 a
    random blend of two; a support with no vertex draws nothing. Masses at
    or below ``MASS_DROP_TOL`` are dropped and the rest renormalised. A
    row is ok when it had a vertex, kept some mass and meets every
    constraint row.
    """
    vertices, owners = feasible_vertices(rows, supports)
    counts = np.bincount(owners, minlength=len(supports))
    starts = np.cumsum(counts) - counts
    first = np.zeros(len(supports), dtype=np.intp)
    second = np.zeros(len(supports), dtype=np.intp)
    lam = np.ones(len(supports))  # an unblended row is 1.0 * first + 0.0 * first
    for i, (rng, count) in enumerate(zip(rngs, counts.tolist())):
        if count == 0:
            continue
        first[i] = second[i] = starts[i] + int(rng.integers(0, count))
        if count > 1 and rng.random() < 0.5:
            second[i] = starts[i] + int(rng.integers(0, count))
            lam[i] = rng.random()
    if not counts.any():
        return np.zeros(supports.shape), counts > 0
    lam = lam[:, None]
    kept, ok = drop_roundoff(lam * vertices[first] + (1.0 - lam) * vertices[second])
    ok &= counts > 0
    ok[ok] = rows_admit(rows, supports[ok], kept[ok])
    return kept, ok


def sample_feasible_priors(
    constraints, grid: PfdGrid, seeds, max_attempts: int = MAX_ATTEMPTS
) -> Iterator[PriorDistribution | None]:
    """Yield, per seed in order, the prior ``sample_feasible_masses`` draws
    for it, or None when all ``max_attempts`` attempts failed. The seeds and
    ``max_attempts`` are checked at the call, as there."""
    points = grid.as_array()
    return (
        carried_prior(points, row_indices, row_masses) if row_masses.any() else None
        for indices, masses in sample_feasible_masses(constraints, grid, seeds, max_attempts)
        for row_indices, row_masses in zip(indices, masses)
    )


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
        # a count by now, though perhaps an integral float
        raise _sampling_failure(int(max_attempts))
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
    not raised. The grid's log-likelihoods and gains are computed once,
    and each block of sampled masses is scored in batches, each trial's
    value bit for bit ``posterior_value`` of its prior.
    """
    trials = as_count(trials, "trials", least=1)
    seed = as_count(seed, "seed", least=0)
    if bound is not None and not math.isfinite(bound):
        raise ValueError(f"bound must be a finite number, got {bound!r}")
    if bound is None:
        result = solve(constraints, obs, objective, grid)
        if result.solver_status == "infeasible":
            raise InfeasibleConstraintsError("cannot audit an infeasible constraint set")
        bound = result.bound
    maximize = objective.direction == CONSERVATIVE_MAX
    points = grid.as_array()
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    records: list[TrialRecord] = []
    margins: list[float] = []
    from .seeding import entropy_words, seed_states  # loads numpy.random (see ``seeding``)

    words = entropy_words(seed)
    entropy = [words + entropy_words(i) for i in range(trials)]
    seeds = seed_states(entropy, 1)[:, 0].tolist()
    for indices, masses in sample_feasible_masses(constraints, grid, seeds):
        values, errors = _score(log_lik, gains, indices, masses, obs)
        for value, error in zip(values.tolist(), errors):
            index = len(records)
            if error is not None:
                records.append(TrialRecord(index=index, margin=None, error=str(error)))
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


def _score(log_lik, gains, indices, masses, obs: Observation):
    """Posterior value and error per row of sampled ``(indices, masses)``,
    as ``_posterior_ratio`` returns them; a row of zero masses gets the
    sampling failure. Rows are scored in one batch per count of carried
    points, on those points alone, so each row's value is bit for bit
    ``posterior_value`` of its prior.
    """
    values = np.full(len(masses), np.nan)
    errors: list[Exception | None] = [_sampling_failure(MAX_ATTEMPTS)] * len(masses)
    carried = masses > 0.0
    sizes = carried.sum(axis=1)
    for size in np.unique(sizes[sizes > 0]).tolist():
        batch = np.nonzero(sizes == size)[0]
        keep = carried[batch]
        batch_indices = indices[batch][keep].reshape(-1, size)
        values[batch], batch_errors = _posterior_ratio(
            log_lik[batch_indices],
            gains[batch_indices],
            masses[batch][keep].reshape(-1, size),
            obs,
        )
        for row, error in zip(batch.tolist(), batch_errors):
            errors[row] = error
    return values, errors
