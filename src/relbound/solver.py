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
feasibility programs). Within a window, points below the live band keep
evidence-free columns so constrained mass can park there, and points
above it are excluded (priors with mass there belong to a higher
window). The window's ratio LP proposes a bound; sign-test programs —
whose coefficients multiply the likelihood and therefore stay order one
— certify it, falling back to bisection on the bound when the proposal
does not verify, and their solution is the witness. Every candidate
witness is re-valued exactly on its own support, and the most
conservative certified candidate wins.
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
    EQUALITY_SLACK,
    ConstraintRow,
    PfdGrid,
    PriorDistribution,
    build_grid,
    check_feasible,
    constraint_rows,
    forced_grid_points,
)
from .simplex import solve_lp

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


def _singleton_feasible(constraints, points: np.ndarray) -> np.ndarray:
    """Which grid points can carry a feasible point-mass prior."""
    from .priors import ConfidenceBound, MeanBound, PerfectionConfidence, PriorReliability
    from .numerics import survive_prob

    ok = np.ones(points.size, dtype=bool)
    for constraint in constraints:
        if isinstance(constraint, MeanBound):
            ok &= points <= constraint.m + 1e-12
        elif isinstance(constraint, PriorReliability):
            ok &= survive_prob(points, constraint.n0) >= constraint.gamma - 1e-12
        elif isinstance(constraint, ConfidenceBound):
            if constraint.theta >= 1.0 - 1e-9:
                ok &= points <= constraint.epsilon
            elif constraint.theta <= 1e-9:
                ok &= points > constraint.epsilon
            else:
                ok &= False
        elif isinstance(constraint, PerfectionConfidence):
            if constraint.theta >= 1.0 - 1e-9:
                ok &= points == 0.0
            elif constraint.theta <= 1e-9:
                ok &= points > 0.0
            else:
                ok &= False
    return ok


def _support_feasible(rows, mask: np.ndarray) -> bool:
    """Is the constraint set satisfiable with all mass on the masked points?"""
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return False
    sub_rows = [ConstraintRow(r.coeffs[idx], r.sense, r.rhs) for r in rows]
    from .priors import rows_as_ub

    a_ub, b_ub = rows_as_ub(sub_rows)
    result = solve_lp(
        np.zeros(idx.size),
        a_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if a_ub.size else None,
        a_eq=np.ones((1, idx.size)),
        b_eq=np.ones(1),
    )
    return result.status == "optimal"


def _deepest_dominant_level(rows, log_lik: np.ndarray) -> float | None:
    """The lowest likelihood level L such that the constraints are satisfiable
    with every atom at likelihood <= L. The evidence-dominant atom of a
    worst-case prior can sink exactly this deep, so it is a window anchor.
    Monotone in L, hence found by bisection over the grid's levels."""
    levels = np.unique(log_lik[np.isfinite(log_lik)])
    if levels.size == 0:
        return None
    # zero-likelihood points are admissible at every level, so the mask
    # log_lik <= level keeps them throughout
    if not _support_feasible(rows, log_lik <= levels[-1]):
        return None
    lo, hi = 0, levels.size - 1  # invariant: feasible at hi
    if _support_feasible(rows, log_lik <= levels[lo]):
        return float(levels[lo])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _support_feasible(rows, log_lik <= levels[mid]):
            hi = mid
        else:
            lo = mid
    return float(levels[hi])


def _anchor_shifts(
    constraints, rows, objective, obs, points, log_lik, feas_witness
) -> list[float]:
    """Window anchors: one per likelihood shell where a worst-case prior can
    concentrate its evidence."""
    from .priors import MeanBound, PriorReliability

    finite_mask = np.isfinite(log_lik)
    if not finite_mask.any():
        return []
    anchors = [float(log_lik[finite_mask].max())]
    thresholds = [p for p in forced_grid_points(constraints, objective) if p not in (0.0, 1.0)]
    for constraint in constraints:
        if isinstance(constraint, MeanBound):
            thresholds.append(constraint.m)
        elif isinstance(constraint, PriorReliability) and constraint.n0 > 0:
            if constraint.gamma > 0.0:
                thresholds.append(1.0 - constraint.gamma ** (1.0 / constraint.n0))
    anchors.extend(
        _scalar_log_likelihood(p, obs) for p in thresholds if 0.0 <= p <= 1.0
    )
    singles = _singleton_feasible(constraints, points) & finite_mask
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


def _homogeneous_ub(rows, scale: np.ndarray | None = None):
    a_list: list[np.ndarray] = []
    for row in rows:
        coeffs = row.coeffs if scale is None else row.coeffs / scale
        rhs_vec = row.rhs if scale is None else row.rhs / scale
        if row.sense == "le":
            a_list.append(coeffs - rhs_vec)
        elif row.sense == "ge":
            a_list.append(rhs_vec - coeffs)
        else:  # equality, relaxed two-sided for numerical rank safety
            delta = EQUALITY_SLACK if scale is None else EQUALITY_SLACK / scale
            a_list.append(coeffs - rhs_vec - delta)
            a_list.append(rhs_vec - delta - coeffs)
    if not a_list:
        return None, None
    return np.vstack(a_list), np.zeros(len(a_list))


def _window_ratio_value(window: _Window, maximize: bool) -> float | None:
    """The ratio-transformed LP on the window, in posterior-mass variables.

    The optimal value is the window's candidate bound. The solution
    itself is not trusted: recovering prior masses divides by the scaled
    likelihood, which amplifies tableau roundoff by up to e^30, so the
    witness is extracted separately by the well-scaled sign-test LP.
    """
    scale = np.where(window.live & (window.lik > 0.0), window.lik, 1.0)
    a_ub, b_ub = _homogeneous_ub(window.rows, scale=scale)
    result = solve_lp(
        np.where(window.live, window.gains, 0.0),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=window.live.astype(float).reshape(1, -1),
        b_eq=np.ones(1),
        maximize=maximize,
    )
    if result.status != "optimal":
        return None
    return min(max(result.value, 0.0), 1.0)


#: a sign-test value below this certifies that the level is beaten strictly
_SIGN_TOL = 1e-12


def _window_masses(window: _Window, maximize: bool) -> np.ndarray | None:
    """Worst-case prior masses within one window, or None.

    The ratio LP proposes the bound; sign tests at a whisker to either
    side confirm and tighten it (falling back to bisection over [0, 1]
    when the proposal does not verify), and the argmin of the final
    achievable sign test is the witness.
    """
    proposal = _window_ratio_value(window, maximize)
    if proposal is None:
        return None

    # every sign test shares the window's constraints, so the first one's
    # phase 1 serves the rest; only the objective changes with the level
    a_ub, b_ub = _homogeneous_ub(window.rows)
    a_eq = np.ones((1, window.keep.size))
    start = None

    def achievable(level: float):
        """The optimal masses if the sign test beats ``level`` strictly.

        It optimises sum x * lik * (gain - level) over the window's
        priors. Every coefficient is O(1): the likelihood multiplies
        rather than divides, so nothing amplifies simplex roundoff.
        """
        nonlocal start
        result = solve_lp(
            window.lik * (window.gains - level),
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=np.ones(1),
            maximize=maximize,
            start=start,
        )
        start = result.start
        if result.status != "optimal":
            return None
        beaten = result.value > _SIGN_TOL if maximize else result.value < -_SIGN_TOL
        return np.maximum(result.x, 0.0) if beaten else None

    step = 2e-9
    witness = None
    if maximize:
        lo, hi = 0.0, 1.0  # invariant: achievable somewhere above lo only
        probe = achievable(proposal - step)
        if probe is not None:
            witness, lo = probe, proposal - step
            if achievable(proposal + step) is None:
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
    else:
        lo, hi = 0.0, 1.0
        probe = achievable(proposal + step)
        if probe is not None:
            witness, hi = probe, proposal + step
            if achievable(proposal - step) is None:
                lo = hi
        for _ in range(60):
            if hi - lo <= 1e-11:
                break
            mid = (lo + hi) / 2.0
            x = achievable(mid)
            if x is not None:
                witness, hi = x, mid
            else:
                lo = mid
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
    feasibility = check_feasible(constraints, grid)
    if not feasibility.feasible:
        return CbiResult(
            bound=None,
            witness=None,
            objective=objective,
            observation=obs,
            grid_resolution=len(grid),
            solver_status=STATUS_INFEASIBLE,
        )
    rows = constraint_rows(constraints, points)
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    maximize = objective.direction == CONSERVATIVE_MAX

    best: tuple[float, PriorDistribution] | None = None
    anchors = _anchor_shifts(
        constraints, rows, objective, obs, points, log_lik, feasibility.witness
    )
    for anchor in anchors:
        window = _make_window(rows, points, log_lik, anchor, gains)
        if window is None:
            continue
        x = _window_masses(window, maximize)
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

