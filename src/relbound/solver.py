"""Worst-case posterior bounds over partially known priors.

The posterior functional is linear-fractional in the prior masses placed
on a pfd grid, and the partial knowledge is linear in those masses. A
ratio transformation (y = x / evidence) turns the worst case into a
linear program over non-negative transformed masses, solved with the
bespoke dense simplex; the normalisation constant is absorbed into the
transformed variables. Basic feasible solutions of that program carry at
most (constraints + 2) support points, matching the moment-problem
structure of the continuum problem.

``oracle_solve`` is an independent check: it exhaustively enumerates the
vertices of the constraint polytope restricted to every small support,
without going through the ratio transformation or the simplex.

Likelihood scaling: the posterior ratio is invariant under a common
rescaling of the likelihood vector, but a single scaling cannot make a
whole grid representable: failure-free runs of 1e6 demands separate grid
points by thousands of orders of magnitude, and no float64 tableau can
rank coefficients across such spans. The solver therefore works in
likelihood windows anchored wherever a worst-case prior can concentrate
its evidence: the grid maximum, every constraint threshold, the deepest
feasible single-atom placement, the support of the feasibility witness,
and the deepest satisfiable dominance level (found by bisection over
feasibility programs, each reduced to one point per run of equal
equality-row coefficients). Within a window, points below the live band
keep evidence-free columns so constrained mass can park there, and points
above it are excluded (priors with mass there belong to a higher
window). The window's ratio LP proposes a bound; sign-test programs —
whose coefficients multiply the likelihood and therefore stay order one
— certify it, falling back to bisection on the bound when the proposal
does not verify, and their solution is the witness. The sign tests'
phase 1 runs before the ratio LP, once per set of kept columns: the
program depends on nothing else, and windows that keep the same columns
come in a row, so each reuses the latest window's. Both programs range
over the same cone of masses, so the ratio LP starts from that feasible
basis and runs no phase 1 of its own, unless roundoff makes the basis
singular or infeasible there. Every candidate witness is re-valued
exactly on its own support, and the most conservative certified
candidate wins.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConstraintsError, ZeroEvidenceError
from .inference import (
    CONSERVATIVE_MAX,
    Observation,
    ObjectiveSpec,
    log_likelihood_vector,
    objective_gain,
    objective_to_dict,
    posterior_value,
)
from .numerics import EXP_UNDERFLOW
from .priors import (
    DEFAULT_RESOLUTION,
    ConstraintRow,
    PfdGrid,
    PriorDistribution,
    build_grid,
    check_feasible,  # noqa: F401  importable from here, though solve does not call it
    constraint_rows,
    forced_grid_points,
    homogeneous_ub,
    max_mean_prior,
    rows_as_ub,
    threshold_points,
)
from .simplex import LpResult, solve_lp

#: likelihood band per window, in log-e units. Atoms deeper than _BELOW_SPAN
#: relative to the anchor carry negligible posterior weight and become
#: evidence-free parked mass; atoms higher than _ABOVE_SPAN would dominate
#: the evidence and belong to a higher window, so their columns are removed.
#: The spans also bound the coefficient range a single tableau must mix,
#: which is what keeps the simplex trustworthy.
_BELOW_SPAN = 30.0
_ABOVE_SPAN = 5.0

STATUS_OPTIMAL = "optimal"
STATUS_GRID_LIMITED = "grid-limited"
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class CbiResult:
    """A conservative bound together with the worst-case prior attaining it."""

    bound: float | None
    witness: PriorDistribution | None
    objective: ObjectiveSpec
    observation: Observation
    grid_resolution: int
    solver_status: str

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "objective": objective_to_dict(self.objective),
            "observation": self.observation.to_dict(),
            "grid_resolution": self.grid_resolution,
            "solver_status": self.solver_status,
        }


def _scalar_log_likelihood(p: float, obs: Observation) -> float:
    return float(log_likelihood_vector(np.array([p]), obs)[0])


def _singleton_feasible(rows, n_points: int) -> np.ndarray:
    """Which grid points can carry a feasible point-mass prior.

    An ``"eq"`` row is a 0/1 indicator, so a point mass meets it only
    when its right-hand side is (within 1e-9) that point's coefficient.
    """
    ok = np.ones(n_points, dtype=bool)
    for row in rows:
        if row.sense == "le":
            ok &= row.coeffs <= row.rhs + 1e-12
        elif row.sense == "ge":
            ok &= row.coeffs >= row.rhs - 1e-12
        elif row.rhs >= 1.0 - 1e-9:
            ok &= row.coeffs == 1.0
        elif row.rhs <= 1e-9:
            ok &= row.coeffs == 0.0
        else:
            ok &= False
    return ok


def _deepest_dominant_level(rows, log_lik: np.ndarray) -> float | None:
    """The lowest likelihood level L such that the constraints are satisfiable
    with every atom at likelihood <= L. The evidence-dominant atom of a
    worst-case prior can sink exactly this deep, so it is a window anchor.
    Monotone in L, hence found by bisection over the grid's levels.

    Each probe keeps one point per indicator run: a maximal stretch of
    consecutive grid points on which every ``"eq"`` row has the same
    coefficient. The grid is sorted ascending, and this relies on every
    ``"le"`` row being non-decreasing along it and every ``"ge"`` row
    non-increasing. Moving a run's mass onto its first masked point then
    keeps the ``"eq"`` rows, lowers the ``"le"`` rows and raises the
    ``"ge"`` rows, so a mask is feasible exactly when its run
    representatives are, and each probe has one column per run. The rows
    are stacked once; a probe takes its columns from that stack.
    """
    levels = np.unique(log_lik[np.isfinite(log_lik)])
    if levels.size == 0:
        return None
    eq_coeffs = [r.coeffs for r in rows if r.sense == "eq"]
    run_id = np.zeros(log_lik.size, dtype=np.intp)
    if eq_coeffs:
        steps = np.any(np.diff(np.stack(eq_coeffs), axis=1) != 0.0, axis=0)
        run_id[1:] = np.cumsum(steps)
    a_ub, b_ub = rows_as_ub(rows)

    def feasible_at(level: float) -> bool:
        """Is the constraint set satisfiable with all mass at or below ``level``?"""
        idx = np.nonzero(log_lik <= level)[0]
        idx = idx[np.diff(run_id[idx], prepend=-1) != 0]
        result = solve_lp(
            np.zeros(idx.size),
            a_ub=a_ub[:, idx] if a_ub.size else None,
            b_ub=b_ub if a_ub.size else None,
            a_eq=np.ones((1, idx.size)),
            b_eq=np.ones(1),
        )
        return result.status == "optimal"

    # zero-likelihood points are admissible at every level, so the mask
    # log_lik <= level keeps them throughout. At the top level it keeps
    # every point, and ``solve`` has already found the whole grid feasible
    lo, hi = 0, levels.size - 1  # invariant: feasible at hi
    if feasible_at(levels[lo]):
        return float(levels[lo])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible_at(levels[mid]):
            hi = mid
        else:
            lo = mid
    return float(levels[hi])


def _anchor_shifts(
    constraints, rows, objective, obs, points, log_lik, feas_witness
) -> list[float]:
    """Window anchors: one per likelihood shell where a worst-case prior can
    concentrate its evidence."""
    finite_mask = np.isfinite(log_lik)
    if not finite_mask.any():
        return []
    anchors = [float(log_lik[finite_mask].max())]
    anchors.extend(_scalar_log_likelihood(p, obs) for p in threshold_points(constraints, objective))
    singles = _singleton_feasible(rows, points.size) & finite_mask
    if singles.any():
        anchors.append(float(log_lik[singles].min()))
    if feas_witness is not None:
        anchors.extend(_scalar_log_likelihood(p, obs) for p in feas_witness.support)
    deepest = _deepest_dominant_level(rows, log_lik)
    if deepest is not None:
        anchors.append(deepest)
    anchors = [a for a in anchors if math.isfinite(a)]
    selected: list[float] = []
    for a in sorted(set(anchors), reverse=True):
        if not selected or selected[-1] - a > 1e-9:
            selected.append(a)
    return selected


@dataclass
class _Window:
    """One likelihood window: kept columns, scaled likelihood, trimmed rows."""

    keep: np.ndarray  # grid indices retained (live + parked)
    live: np.ndarray  # boolean over kept columns
    lik: np.ndarray  # scaled likelihood over kept columns (0 on parked)
    gains: np.ndarray  # objective gain over kept columns
    rows: list  # constraint rows restricted to kept columns
    n_grid: int


def _make_window(rows, points, log_lik, anchor, gains) -> _Window | None:
    rel = log_lik - anchor
    live = np.isfinite(log_lik) & (rel >= -_BELOW_SPAN) & (rel <= _ABOVE_SPAN)
    dead = ~np.isfinite(log_lik) | (rel < -_BELOW_SPAN)
    keep = np.nonzero(live | dead)[0]
    live_kept = live[keep]
    if not live_kept.any():
        return None
    lik_kept = np.where(live_kept, np.exp(np.minimum(rel[keep], _ABOVE_SPAN)), 0.0)
    sub_rows = [ConstraintRow(r.coeffs[keep], r.sense, r.rhs) for r in rows]
    return _Window(
        keep=keep,
        live=live_kept,
        lik=lik_kept,
        gains=gains[keep],
        rows=sub_rows,
        n_grid=points.size,
    )


def _window_ratio_value(window: _Window, maximize: bool, b_ub, basis) -> float | None:
    """The ratio-transformed LP on the window, in posterior-mass variables.

    Under the ratio transform the program ranges over the same cone
    {A x <= 0, x >= 0} as the sign tests: column j is scaled by 1/lik_j
    and the live mass, not the total, is normalised. So ``basis``, a
    feasible basis of the sign tests' program whose vertex carries live
    evidence, is a feasible basis here too, and phase 2 starts from it;
    only a basis that roundoff makes singular or infeasible falls back
    to a phase 1 of this program's own.

    The optimal value is the window's candidate bound. The solution
    itself is not trusted: recovering prior masses divides by the scaled
    likelihood, which amplifies tableau roundoff by up to e^30, so the
    witness is extracted separately by the well-scaled sign-test LP.
    """
    scale = np.where(window.live & (window.lik > 0.0), window.lik, 1.0)
    result = solve_lp(
        np.where(window.live, window.gains, 0.0),
        # built inline, so that solve_lp holds the only reference and frees
        # it once the tableau is built
        a_ub=homogeneous_ub(window.rows, scale=scale),
        b_ub=b_ub,
        a_eq=window.live.astype(float).reshape(1, -1),
        b_eq=np.ones(1),
        maximize=maximize,
        basis=basis,
    )
    if result.status != "optimal":
        return None
    return min(max(result.value, 0.0), 1.0)


#: a sign-test value below this certifies that the level is beaten strictly
_SIGN_TOL = 1e-12


@dataclass
class _LatestPhaseOne:
    """The sign tests' phase 1 of the latest window, as a zero-cost LP result.

    Every sign test shares its window's constraints, so one phase 1 serves
    them all; only the objective changes with the level. The program
    depends on the kept columns alone, so the next window reuses it when
    it keeps the same columns. Anchors descend, so such windows come in a
    row, and only the latest phase 1 is held.
    """

    keep: np.ndarray | None = None
    vertex: LpResult | None = None

    def for_window(self, window: _Window) -> LpResult:
        if self.keep is None or not np.array_equal(window.keep, self.keep):
            self.vertex = None  # free the previous phase 1 before building this one
            a_ub = homogeneous_ub(window.rows)
            self.vertex = solve_lp(
                np.zeros(window.keep.size),
                a_ub=a_ub,
                b_ub=None if a_ub is None else np.zeros(a_ub.shape[0]),
                a_eq=np.ones((1, window.keep.size)),
                b_eq=np.ones(1),
            )
            self.keep = window.keep
        return self.vertex


def _window_masses(
    window: _Window, maximize: bool, latest: _LatestPhaseOne | None = None
) -> np.ndarray | None:
    """Worst-case prior masses within one window, or None.

    The sign tests' phase 1 comes first, from ``latest`` if it holds that
    of a window with the same kept columns: if it fails, every sign test
    does, and otherwise its basis starts the ratio LP. The ratio LP
    proposes the bound; sign tests at a whisker to either side confirm
    and tighten it (falling back to bisection over [0, 1] when the
    proposal does not verify), and the argmin of the final achievable
    sign test is the witness.
    """
    vertex = (_LatestPhaseOne() if latest is None else latest).for_window(window)
    if vertex.status != "optimal":
        return None
    start, basis = vertex.start, vertex.basis
    # from ``start`` on, a sign test reads only the constraints' shape
    n_ub = start.n_cols - window.keep.size
    b_ub = np.zeros(n_ub) if n_ub else None

    def sign_lp(cost, maximize):
        return solve_lp(cost, b_ub=b_ub, maximize=maximize, start=start)

    if not np.any(vertex.x[window.live] > 0.0):
        # phase 1 stopped where only parked columns carry mass, which is
        # no vertex of the ratio LP; the one with the most live mass is
        densest = sign_lp(window.live.astype(float), True)
        if densest.status != "optimal" or densest.value <= 0.0:
            return None  # no prior in the window has live evidence
        basis = densest.basis
    proposal = _window_ratio_value(window, maximize, b_ub, basis)
    if proposal is None:
        return None

    # the bracket runs on u = level when maximising and on u = -level when
    # minimising, so that a larger u is always harder to beat. IEEE negation
    # and halving are exact, so either direction tests the levels, and
    # stops at the widths, that a bracket on the level itself would
    sign = 1.0 if maximize else -1.0

    def achievable(u: float):
        """The optimal masses if the sign test beats level ``sign * u`` strictly.

        It optimises sum x * lik * (gain - level) over the window's
        priors. Every coefficient is O(1): the likelihood multiplies
        rather than divides, so nothing amplifies simplex roundoff.
        """
        result = sign_lp(window.lik * (window.gains - sign * u), maximize)
        if result.status != "optimal":
            return None
        return np.maximum(result.x, 0.0) if sign * result.value > _SIGN_TOL else None

    step = 2e-9
    witness = None
    # invariant: achievable somewhere above lo only
    lo, hi = (0.0, 1.0) if maximize else (-1.0, 0.0)
    target = sign * proposal
    probe = achievable(target - step)
    if probe is not None:
        witness, lo = probe, target - step
        if achievable(target + step) is None:
            hi = lo  # proposal verified within 2*step
    for _ in range(60):
        if hi - lo <= 1e-11:
            break
        mid = (lo + hi) / 2.0
        x = achievable(mid)
        if x is not None:
            witness, lo = x, mid
        else:
            hi = mid
    if witness is None:
        return None
    x = np.zeros(window.n_grid)
    x[window.keep] = witness
    total = x.sum()
    if not math.isfinite(total) or total <= 0.0:
        return None
    return x / total


def _witness_from_masses(points, x, constraints) -> PriorDistribution | None:
    for drop_tol in (1e-12, 0.0):
        cleaned = np.where(x > drop_tol, x, 0.0)
        total = cleaned.sum()
        if total <= 0.0:
            continue
        cleaned = cleaned / total
        idx = np.nonzero(cleaned)[0]
        candidate = PriorDistribution(tuple(points[idx]), tuple(cleaned[idx]))
        if candidate.satisfies_all(constraints):
            return candidate
    return None


def _status_for(witness: PriorDistribution, constraints, objective) -> str:
    pinned = set(forced_grid_points(constraints, objective))
    return STATUS_OPTIMAL if set(witness.support) <= pinned else STATUS_GRID_LIMITED


def solve(
    constraints,
    obs: Observation,
    objective: ObjectiveSpec,
    grid: PfdGrid,
) -> CbiResult:
    """The conservative posterior bound over all grid-supported priors
    satisfying the partial knowledge, with the worst-case prior as witness."""
    points = grid.as_array()
    rows = constraint_rows(constraints, points)
    feas_witness = max_mean_prior(points, rows)
    if feas_witness is None:
        return CbiResult(
            bound=None,
            witness=None,
            objective=objective,
            observation=obs,
            grid_resolution=len(grid),
            solver_status=STATUS_INFEASIBLE,
        )
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    maximize = objective.direction == CONSERVATIVE_MAX

    best: tuple[float, PriorDistribution] | None = None
    anchors = _anchor_shifts(constraints, rows, objective, obs, points, log_lik, feas_witness)
    latest = _LatestPhaseOne()
    for anchor in anchors:
        window = _make_window(rows, points, log_lik, anchor, gains)
        if window is None:
            continue
        x = _window_masses(window, maximize, latest)
        if x is None:
            continue
        witness = _witness_from_masses(points, x, constraints)
        if witness is None:
            continue
        try:
            bound = posterior_value(witness, obs, objective)
        except ZeroEvidenceError:
            continue
        if best is None or (bound > best[0] if maximize else bound < best[0]):
            best = (bound, witness)
    if best is None:
        raise ZeroEvidenceError(
            f"no prior admitted by the constraints gives observation "
            f"n={obs.n}, k={obs.k} positive probability"
        )
    bound, witness = best
    return CbiResult(
        bound=bound,
        witness=witness,
        objective=objective,
        observation=obs,
        grid_resolution=len(grid),
        solver_status=_status_for(witness, constraints, objective),
    )


def _vertex_batch(points, mandatory_rows, slack_rows, log_lik, gains, m, maximize):
    """Best posterior value over all size-m supports whose masses solve the
    mandatory rows exactly; returns (value, support, masses, saw_feasible)."""
    n_pts = points.size
    combos = np.array(list(itertools.combinations(range(n_pts), m)), dtype=np.intp)
    if combos.size == 0:
        return None, None, None, False
    coeff = np.stack([r.coeffs for r in mandatory_rows])
    rhs = np.array([r.rhs for r in mandatory_rows])
    n_rows = len(mandatory_rows)
    systems = np.moveaxis(coeff[:, combos], 1, 0)  # (N, n_rows, m)

    if n_rows == m:
        mats = systems
        targets = np.broadcast_to(rhs, (combos.shape[0], m))
    else:  # overdetermined: normal equations, then residuals gate acceptance
        transposed = np.swapaxes(systems, 1, 2)
        mats = transposed @ systems
        targets = transposed @ rhs

    with np.errstate(all="ignore"):
        dets = np.linalg.det(mats)
    solvable = np.abs(dets) > 1e-12
    x = np.full((combos.shape[0], m), np.nan)
    if solvable.any():
        rhs_col = np.ascontiguousarray(targets[solvable])[:, :, None]
        try:
            x[solvable] = np.linalg.solve(mats[solvable], rhs_col)[:, :, 0]
        except np.linalg.LinAlgError:
            x[solvable] = np.einsum(
                "nij,nj->ni", np.linalg.pinv(mats[solvable]), targets[solvable]
            )

    feasible = solvable & np.all(np.nan_to_num(x, nan=-1.0) >= -1e-10, axis=1)
    residuals = np.einsum("nrm,nm->nr", systems, np.nan_to_num(x)) - rhs
    feasible &= np.all(np.abs(residuals) <= 1e-9, axis=1)
    for row in slack_rows:
        vals = np.einsum("nm,nm->n", row.coeffs[combos], np.nan_to_num(x))
        if row.sense == "le":
            feasible &= vals <= row.rhs + 1e-9
        else:
            feasible &= vals >= row.rhs - 1e-9
    if not feasible.any():
        return None, None, None, False

    masses = np.where(np.nan_to_num(x) > 0.0, x, 0.0)
    lls = log_lik[combos]
    active = (masses > 1e-15) & np.isfinite(lls)
    shifts = np.max(np.where(active, lls, -np.inf), axis=1)
    with np.errstate(invalid="ignore"):
        scaled = np.where(
            active, np.exp(np.clip(lls - shifts[:, None], EXP_UNDERFLOW, 0.0)), 0.0
        )
    evidence = np.sum(masses * scaled, axis=1)
    usable = feasible & np.isfinite(shifts) & (evidence > 0.0)
    if not usable.any():
        return None, None, None, True
    values = np.sum(masses * scaled * gains[combos], axis=1) / np.where(
        usable, evidence, 1.0
    )
    sentinel = -np.inf if maximize else np.inf
    ranked = np.where(usable, values, sentinel)
    idx = int(np.argmax(ranked) if maximize else np.argmin(ranked))
    return float(values[idx]), combos[idx], masses[idx], True


def oracle_solve(
    constraints,
    obs: Observation,
    objective: ObjectiveSpec,
    coarse_grid: PfdGrid,
) -> CbiResult:
    """Exhaustive small-support enumeration, independent of the simplex path.

    Every prior polytope vertex has at most (constraints + 1) support
    points, so enumerating supports up to the cap (constraints + 2) and
    solving each small linear system covers the optimum. Support sizes
    that admit no all-positive vertex are skipped a priori.
    """
    points = coarse_grid.as_array()
    n_pts = points.size
    cap = min(len(constraints) + 2, n_pts)
    if math.comb(n_pts, cap) > 1e8:
        raise ValueError(
            f"combination guard: C({n_pts}, {cap}) exceeds 1e8; use a coarser grid"
        )
    rows = constraint_rows(constraints, points)
    eq_rows = [r for r in rows if r.sense == "eq"]
    ineq_rows = [r for r in rows if r.sense != "eq"]
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    maximize = objective.direction == CONSERVATIVE_MAX
    normalisation = ConstraintRow(np.ones(n_pts), "eq", 1.0)

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    saw_feasible = False
    for m in range(1, cap + 1):
        needed = m - 1 - len(eq_rows)
        if needed > len(ineq_rows):
            continue
        for tight in itertools.combinations(range(len(ineq_rows)), max(needed, 0)):
            mandatory = [normalisation, *eq_rows, *(ineq_rows[t] for t in tight)]
            slack = [ineq_rows[t] for t in range(len(ineq_rows)) if t not in tight]
            value, support, masses, feas = _vertex_batch(
                points, mandatory, slack, log_lik, gains, m, maximize
            )
            saw_feasible |= feas
            if value is None:
                continue
            if best is None or (value > best[0] if maximize else value < best[0]):
                best = (value, support, masses)

    if best is None:
        if saw_feasible:
            raise ZeroEvidenceError(
                f"no admissible prior gives observation n={obs.n}, k={obs.k} "
                "positive probability"
            )
        return CbiResult(
            bound=None,
            witness=None,
            objective=objective,
            observation=obs,
            grid_resolution=len(coarse_grid),
            solver_status=STATUS_INFEASIBLE,
        )
    _, support, masses = best
    full = np.zeros(n_pts)
    full[support] = masses
    witness = _witness_from_masses(points, full, constraints)
    if witness is None:  # fall back to the raw vertex masses
        keep = masses > 0.0
        witness = PriorDistribution(
            tuple(points[support][keep]), tuple(masses[keep] / masses[keep].sum())
        )
    bound = posterior_value(witness, obs, objective)
    return CbiResult(
        bound=bound,
        witness=witness,
        objective=objective,
        observation=obs,
        grid_resolution=len(coarse_grid),
        solver_status=_status_for(witness, constraints, objective),
    )


def _masses_admissible(x: np.ndarray, ineq_rows) -> bool:
    if np.any(x < -1e-10):
        return False
    for row in ineq_rows:
        val = float(row.coeffs @ x)
        if row.sense == "le" and val > row.rhs + 1e-9:
            return False
        if row.sense == "ge" and val < row.rhs - 1e-9:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _vertex_selectors(m: int, n_base: int, n_ineq: int) -> np.ndarray:
    """Row indices of every vertex system over a size-m support, one system
    per row, in enumeration order: tight inequality count ascending, then
    the tight combinations, then the zero-mass combinations.

    Rows index the stack ``[1; equalities; inequalities; eye(m)]``, whose
    first ``n_base`` rows every system keeps. Cached, so read-only.
    """
    free = m - n_base
    systems = [
        [*range(n_base), *(n_base + t for t in tight), *(n_base + n_ineq + j for j in zeros)]
        for n_tight in range(min(n_ineq, free) + 1)
        for tight in itertools.combinations(range(n_ineq), n_tight)
        for zeros in itertools.combinations(range(m), free - n_tight)
    ]
    selectors = np.array(systems, dtype=np.intp)
    selectors.flags.writeable = False
    return selectors


def feasible_vertices(constraints, points: np.ndarray, support: np.ndarray) -> list[np.ndarray]:
    """All vertices of the constraint polytope restricted to one support.

    Returns mass vectors over ``support`` (not the full grid), in
    enumeration order (see ``_vertex_selectors``). Used by the
    feasible-prior sampler, whose random stream depends on that order.
    Every vertex system is a row selection from one stacked matrix, so one
    batched determinant and one batched solve cover them all; the
    admissibility check stays per vertex.
    """
    sub = np.asarray(points, dtype=float)[np.asarray(support, dtype=np.intp)]
    rows = constraint_rows(constraints, sub)
    eq_rows = [r for r in rows if r.sense == "eq"]
    ineq_rows = [r for r in rows if r.sense != "eq"]
    m = sub.size
    stack = np.vstack([np.ones(m)] + [r.coeffs for r in eq_rows + ineq_rows] + [np.eye(m)])
    stack_rhs = np.array([1.0] + [r.rhs for r in eq_rows + ineq_rows] + [0.0] * m)
    n_base = 1 + len(eq_rows)

    if n_base > m:
        # more equalities than mass freedoms: at most one consistent point
        mat, rhs = stack[:n_base], stack_rhs[:n_base]
        x, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if np.max(np.abs(mat @ x - rhs)) <= 1e-9 and _masses_admissible(x, ineq_rows):
            return [np.maximum(x, 0.0)]
        return []

    selectors = _vertex_selectors(m, n_base, len(ineq_rows))
    mats = stack[selectors]
    with np.errstate(divide="ignore", invalid="ignore"):
        dets = np.linalg.det(mats)
    regular = ~(np.abs(dets) < 1e-12)
    xs = np.linalg.solve(mats[regular], stack_rhs[selectors[regular]][:, :, None])[:, :, 0]
    return [
        np.maximum(x, 0.0)
        for x in xs[~(xs < -1e-10).any(axis=1)]
        if _masses_admissible(x, ineq_rows)
    ]


def curve(constraints, objective, n_values, k: int, *, grid: PfdGrid | None = None):
    """Bounds for a sweep of demand counts at a fixed failure count."""
    n_list = list(n_values)
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_values must be sorted strictly ascending")
    if grid is None:
        grid = build_grid(constraints, objective, DEFAULT_RESOLUTION)
    out = []
    for n in n_list:
        result = solve(constraints, Observation(n=n, k=k), objective, grid)
        if result.solver_status == STATUS_INFEASIBLE:
            raise InfeasibleConstraintsError("constraint set is infeasible on the grid")
        out.append((n, result.bound))
    return out

