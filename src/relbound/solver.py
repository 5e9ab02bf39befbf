"""Worst-case posterior bounds over partially known priors.

The posterior functional is linear-fractional in the prior masses placed
on a pfd grid, and the partial knowledge is linear in those masses. A
ratio transformation (y = x / evidence) turns the worst case into a
linear program over non-negative transformed masses, solved with the
bespoke dense simplex; the normalisation constant is absorbed into the
transformed variables. Basic feasible solutions of that program carry at
most (constraints + 1) support points, matching the moment-problem
structure of the continuum problem.

``oracle_solve`` is an independent check: it exhaustively enumerates the
vertices of the constraint polytope restricted to every support of up to
(constraints + 1) points, without going through the ratio transformation
or the simplex. It shares its vertex enumerator, ``feasible_vertices``,
with the audit's prior sampler, and judges and ranks vertices as
``solve`` judges and values its candidates: masses cleaned by
``drop_roundoff``, admitted by ``rows_admit`` and valued by
``score_rows``. Both report the winner's value through ``_result``.

Likelihood scaling: the posterior ratio is invariant under a common
rescaling of the likelihood vector, but a single scaling cannot make a
whole grid representable: failure-free runs of 1e6 demands separate grid
points by thousands of orders of magnitude, and no float64 tableau can
rank coefficients across such spans. The solver therefore works in
likelihood windows anchored wherever a worst-case prior can concentrate
its evidence: the grid maximum, every constraint threshold, the deepest
feasible single-atom placement, and the deepest satisfiable dominance
level (read off the rows' structure, with one ``rows_admit`` call over
every level and no simplex). The windows run deepest anchor first.
Within a window, points below the live band keep evidence-free columns
so constrained mass can park there, and points above it are excluded
(priors with mass there belong to a higher window). The window's ratio
LP proposes a bound; sign-test programs — whose coefficients multiply
the likelihood and therefore stay order one — certify it, falling back
to bisection on the bound when the proposal does not verify or roundoff
leaves none, and their solution is the witness. A level that no live
column can beat needs no sign test. The sign tests' phase 1 runs before
the ratio LP, once per set of kept columns: the program depends on
nothing else, and windows that keep the same columns come in a row, so
``_running_best`` holds only the latest and hands it to each window. Its
program is ``priors.grid_feasibility``, the one that decides whether the
constraints are satisfiable on a set of grid points. ``solve`` runs it
on the whole grid before any window, as ``check_feasible`` does: an
infeasible set gets no window, and a feasible one hands that phase 1 to
every window that keeps every column, as the window anchored at the
grid maximum does. Both programs range over the same cone of masses, so
when that phase 1's vertex carries live evidence the ratio LP starts from
its basis and runs no phase 1 of its own, unless roundoff makes the basis
singular or infeasible there; otherwise the ratio LP runs its own. Every
candidate witness leaves the window's masses through
``priors.admitted_row``, as ``check_feasible``'s does: it loses its
roundoff masses (``drop_roundoff``), must pass ``rows_admit`` on the
solve's own rows, and stays a ``(support, masses)`` row that
``score_rows`` values exactly on its own support. The windows run as
one stream, ``_running_best``, that yields the running best after each
window whose candidate is at least as conservative. A window's
candidate depends on its anchor alone, so the last item's value is the
same in any window order; ``solve`` reads the stream to the end, and
its bound is the last item's value, with that row's prior as the
witness. A GSN goal (``gsn._evaluate_binding``) stops at the first item
that refutes its claim, since the running best never moves back. The
deep windows come first because they are cheap: their ratio-LP proposal
usually verifies at once, where the window at the grid maximum often
bisects, and their candidates refute most refuted claims.
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
    posterior_value,  # noqa: F401  (bound by name in benchmark/spans.py)
    score_rows,
)
from .priors import (
    DEFAULT_RESOLUTION,
    MASS_TOL,
    ConstraintRow,
    PfdGrid,
    PriorDistribution,
    admitted_row,
    build_grid,
    carried_prior,
    check_feasible,  # noqa: F401  (bound by name in benchmark/spans.py; solve does not call it)
    constraint_rows,
    drop_roundoff,
    equality_cuts,
    forced_grid_points,
    grid_feasibility,
    homogeneous_ub,
    rows_admit,
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


def _singleton_feasible(rows, n_points: int) -> np.ndarray:
    """Which grid points can carry a feasible point-mass prior.

    A point mass meets an ``"eq"`` row as ``rows_admit`` judges it: when
    that point's coefficient is within ``MASS_TOL`` of the right-hand side.
    """
    ok = np.ones(n_points, dtype=bool)
    for row in rows:
        if row.sense == "le":
            ok &= row.coeffs <= row.rhs + 1e-12
        else:
            ok &= np.abs(row.coeffs - row.rhs) <= MASS_TOL
    return ok


def _deepest_dominant_level(rows, log_lik: np.ndarray) -> float:
    """The lowest likelihood level L such that the constraints are satisfiable
    with every atom at likelihood <= L. The evidence-dominant atom of a
    worst-case prior can sink exactly this deep, so it is a window anchor.

    It is read off the rows. Every ``"eq"`` row is the indicator of a grid
    prefix, so the rows fix each run's mass, where a run is the stretch of
    grid between consecutive cuts (the first row of each cut wins, and
    ``rows_admit`` judges repeats). Every ``"le"`` row is non-decreasing
    along the sorted grid, so at level L a run's mass is best placed on
    its first point with ``log_lik <= L``; zero-likelihood points qualify
    at every level. A run holding at most ``MASS_TOL`` may stay empty, as
    ``rows_admit`` lets each row miss by that much. One ``rows_admit``
    call then decides every level. With none admitted, the top level is
    returned: it keeps every point, and ``solve`` has already found the
    whole grid feasible. Some grid point must have finite likelihood.
    """
    levels = np.unique(log_lik[np.isfinite(log_lik)])
    first_rhs: dict[int, float] = {}
    for cut, rhs in equality_cuts(rows):
        first_rhs.setdefault(cut, rhs)
    cuts = sorted(first_rhs)
    bounds = [0, *cuts, log_lik.size]
    run_mass = np.maximum(np.diff([0.0, *(first_rhs[c] for c in cuts), 1.0]), 0.0)
    supports = np.empty((levels.size, len(run_mass)), dtype=np.intp)
    masses = np.empty(supports.shape)
    admitted = np.ones(levels.size, dtype=bool)
    for r, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        deepest = -np.minimum.accumulate(log_lik[start:stop])
        first = start + np.searchsorted(deepest, -levels)
        present = first < stop
        if run_mass[r] > MASS_TOL:
            admitted &= present
        supports[:, r] = np.where(present, first, 0)
        masses[:, r] = np.where(present, run_mass[r], 0.0)
    admitted[admitted] = rows_admit(rows, supports[admitted], masses[admitted])
    return float(levels[np.argmax(admitted)] if admitted.any() else levels[-1])


def _anchor_shifts(constraints, rows, objective, obs, points, log_lik) -> list[float]:
    """Window anchors: one per likelihood shell where a worst-case prior can
    concentrate its evidence, descending, each more than 1e-9 below the last."""
    finite_mask = np.isfinite(log_lik)
    if not finite_mask.any():
        return []
    anchors = [float(log_lik[finite_mask].max())]
    thresholds = np.array(threshold_points(constraints, objective), dtype=float)
    anchors.extend(log_likelihood_vector(thresholds, obs).tolist())
    singles = _singleton_feasible(rows, points.size) & finite_mask
    if singles.any():
        anchors.append(float(log_lik[singles].min()))
    anchors.append(_deepest_dominant_level(rows, log_lik))
    selected: list[float] = []
    for a in sorted({a for a in anchors if math.isfinite(a)}, reverse=True):
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
    # log_lik is finite or -inf, so rel is too: parked columns are those
    # below the live band, zero-likelihood points among them
    rel = log_lik - anchor
    keep = np.nonzero(rel <= _ABOVE_SPAN)[0]
    live_kept = rel[keep] >= -_BELOW_SPAN
    if not live_kept.any():
        return None
    lik_kept = np.where(live_kept, np.exp(rel[keep]), 0.0)
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
    evidence, is a feasible basis here too, and phase 2 starts from it.
    It is None when the sign tests' phase-1 vertex carries no live
    evidence, which is no vertex here; then, as for a basis that roundoff
    makes singular or infeasible, this program runs a phase 1 of its own.

    The optimal value is the window's candidate bound. The solution
    itself is not trusted: recovering prior masses divides by the scaled
    likelihood, which amplifies tableau roundoff by up to e^30, so the
    witness is extracted separately by the well-scaled sign-test LP.
    """
    scale = np.where(window.live, window.lik, 1.0)  # live columns have lik >= e^-30
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


def _window_masses(window: _Window, maximize: bool, vertex: LpResult) -> np.ndarray | None:
    """Worst-case prior masses within one window, or None.

    ``vertex`` is the sign tests' phase 1, ``grid_feasibility`` over the
    window's kept columns: every sign test shares the window's
    constraints, so one phase 1 serves them all. If it fails, every sign
    test does. Otherwise its basis starts the ratio LP when its vertex
    carries live evidence; when it does not, the basis passed is None and
    the ratio LP runs its own phase 1. The ratio LP proposes the bound;
    sign tests at a whisker to either side confirm and tighten it (falling
    back to bisection over [0, 1] when the proposal does not verify), and
    the argmin of the final achievable sign test is the witness. If no
    level in [0, 1] is beaten, one more sign test just past the bracket's
    low end finds a window whose priors all score the objective's best
    case, 0 or 1. A level at or past the best live gain (the largest when
    maximising, the smallest when minimising) is not beaten, and its sign
    test runs no LP; the levels tested stay the same. The ratio LP's
    objective is bounded by the largest gain, so it reports no optimum
    only on roundoff or on a window with no live evidence: the bisection
    then runs without a proposal.
    """
    if vertex.status != "optimal":
        return None
    start = vertex.start
    # from ``start`` on, a sign test reads only the constraints' shape
    b_ub = np.zeros(start.n_cols - window.keep.size)

    # a phase-1 vertex where only parked columns carry mass is no vertex of
    # the ratio LP, which then runs a phase 1 of its own
    live = np.any(vertex.x[window.live] > 0.0)
    proposal = _window_ratio_value(window, maximize, b_ub, vertex.basis if live else None)

    # the bracket runs on u = level when maximising and on u = -level when
    # minimising, so that a larger u is always harder to beat. IEEE negation
    # and halving are exact, so either direction tests the levels, and
    # stops at the widths, that a bracket on the level itself would
    sign = 1.0 if maximize else -1.0
    # at u >= cut every live cost lik * (gain - level) has the losing sign
    # and parked columns cost 0, so no prior beats the level
    cut = float(np.max(sign * window.gains[window.live]))

    def achievable(u: float):
        """The optimal masses if the sign test beats level ``sign * u`` strictly.

        It optimises sum x * lik * (gain - level) over the window's
        priors. Every coefficient is O(1): the likelihood multiplies
        rather than divides, so nothing amplifies simplex roundoff. At or
        past ``cut`` the answer is known, and no LP runs.
        """
        if u >= cut:
            return None
        cost = window.lik * (window.gains - sign * u)
        result = solve_lp(cost, b_ub=b_ub, maximize=maximize, start=start)
        if result.status != "optimal":
            return None
        return np.maximum(result.x, 0.0) if sign * result.value > _SIGN_TOL else None

    step = 2e-9
    witness = None
    # invariant: achievable somewhere above lo only
    lo, hi = (0.0, 1.0) if maximize else (-1.0, 0.0)
    if proposal is not None:
        target = sign * proposal
        probe = achievable(target - step)
        if probe is not None:
            witness, lo = probe, target - step
            if achievable(target + step) is None:
                hi = lo  # proposal verified within 2*step
    while hi - lo > 1e-11:
        mid = (lo + hi) / 2.0
        x = achievable(mid)
        if x is not None:
            witness, lo = x, mid
        else:
            hi = mid
    if witness is None:
        # a sign test must beat its level strictly, so priors that all
        # score the best case (0 maximised, 1 minimised) pass only below it
        witness = achievable(lo - step)
        if witness is None:
            return None
    x = np.zeros(window.n_grid)
    x[window.keep] = witness
    return x / x.sum()


def _keep_best(best, log_lik, gains, supports, masses, obs, maximize):
    """The most conservative of ``best`` and the rows ``(supports, masses)``.

    ``best`` is None or ``(value, support, masses)``, and so is the
    result. Rows are valued by ``score_rows`` over the grid's ``log_lik``
    and ``gains``; a row with no evidence (NaN) is skipped, and on a tie
    the earlier row stays: the first of the batch, and ``best`` over it.
    """
    values, _ = score_rows(log_lik, gains, supports, masses, obs)
    if np.isnan(values).all():
        return best
    idx = int(np.nanargmax(values) if maximize else np.nanargmin(values))
    if best is None or (values[idx] > best[0] if maximize else values[idx] < best[0]):
        return values[idx], supports[idx], masses[idx]
    return best


def _result(constraints, obs, objective, grid, best=None) -> CbiResult:
    """The infeasible result without ``best``; otherwise the winning row
    ``best = (value, support, masses)``: its ``score_rows`` value is the
    bound, and the prior on its carried points (an oracle row can hold
    masses that ``drop_roundoff`` zeroed) is the witness. It is optimal
    when its support holds only the points the constraints and objective
    force onto every grid."""
    if best is None:
        prior, bound, status = None, None, STATUS_INFEASIBLE
    else:
        value, support, masses = best
        prior, bound = carried_prior(grid.as_array(), support, masses), float(value)
        pinned = set(forced_grid_points(constraints, objective))
        status = STATUS_OPTIMAL if set(prior.support) <= pinned else STATUS_GRID_LIMITED
    return CbiResult(bound, prior, objective, obs, len(grid), status)


def _running_best(constraints, obs: Observation, objective: ObjectiveSpec, grid: PfdGrid):
    """The running best of ``solve``'s windows, as a stream.

    The windows run deepest anchor first. After each window whose admitted
    candidate is at least as conservative as the running best, the
    candidate replaces it and is yielded as ``(value, support, masses)``,
    its value by ``score_rows``. The values never fall for a maximised
    objective and never rise for a minimised one, so a prefix of the
    stream bounds its last value from one side. A window's candidate
    depends on its anchor alone, so the last value is the most
    conservative candidate whatever the order, and among windows tied on
    it the highest anchor's row is the last item.

    The set is first judged on the whole grid by ``grid_feasibility``, the
    program ``check_feasible`` runs: if it fails the stream yields nothing,
    and otherwise its phase 1 is that of every window that keeps the whole
    grid. When no window admits a candidate with evidence,
    ``ZeroEvidenceError`` is raised after the last window.
    """
    points = grid.as_array()
    rows = constraint_rows(constraints, points)
    gate = grid_feasibility(rows, points.size)
    if gate.status != "optimal":
        return
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    maximize = objective.direction == CONSERVATIVE_MAX

    best = None
    anchors = _anchor_shifts(constraints, rows, objective, obs, points, log_lik)
    # a window's phase 1 depends on its kept columns alone. Anchors are
    # walked ascending, so windows that keep the same columns come in a
    # row, and only the latest phase 1 is held; a window that keeps every
    # column takes the gate's
    keep = vertex = None
    for anchor in reversed(anchors):
        window = _make_window(rows, points, log_lik, anchor, gains)
        if window is None:
            continue
        if not np.array_equal(window.keep, keep):
            vertex = None  # free the previous phase 1 before building this one
            keep = window.keep
            vertex = gate if keep.size == points.size else grid_feasibility(window.rows, keep.size)
        x = _window_masses(window, maximize, vertex)
        row = None if x is None else admitted_row(rows, x)
        if row is None:
            continue
        (value,), _ = score_rows(log_lik, gains, row[0][None], row[1][None], obs)
        # a row without evidence reads NaN; a tie replaces the running best
        behind = best is not None and (value < best[0] if maximize else value > best[0])
        if np.isnan(value) or behind:
            continue
        best = value, *row
        yield best
    if best is None:
        raise ZeroEvidenceError(
            f"no prior admitted by the constraints gives observation "
            f"n={obs.n}, k={obs.k} positive probability"
        )


def solve(
    constraints,
    obs: Observation,
    objective: ObjectiveSpec,
    grid: PfdGrid,
) -> CbiResult:
    """The conservative posterior bound over all grid-supported priors
    satisfying the partial knowledge, with the worst-case prior as witness:
    the last item of ``_running_best``, finished by ``_result``."""
    best = None
    for best in _running_best(constraints, obs, objective, grid):
        pass
    return _result(constraints, obs, objective, grid, best)


#: supports per ``feasible_vertices`` call in ``oracle_solve``
_ORACLE_CHUNK = 4096


def oracle_solve(
    constraints,
    obs: Observation,
    objective: ObjectiveSpec,
    coarse_grid: PfdGrid,
) -> CbiResult:
    """Exhaustive small-support enumeration, independent of the simplex path.

    Every vertex of the prior polytope has at most (constraints + 1)
    support points, and a linear-fractional optimum sits at a vertex. So
    the oracle runs ``feasible_vertices`` over every support of up to
    (constraints + 1) grid points, in chunks of ``_ORACLE_CHUNK``. On each
    support it keeps only the systems with no zero-mass row: a vertex with
    a zero mass is found again on the smaller support. Each chunk's
    vertices go through ``drop_roundoff``; those that ``rows_admit``
    accepts are ranked by ``_keep_best``, as ``solve`` ranks its window
    candidates, and the winner's carried points are the witness. An
    ``"eq"`` row on grid index 0 alone with rhs above ``MASS_TOL`` admits
    no prior without that point, so then only the supports holding it are
    enumerated (and counted by the 1e8 guard): they open each size's
    combinations, in the same order, so the result is the same. With no
    admitted vertex the constraints are infeasible on the grid; with
    admitted vertices but none that gives the observation positive
    probability, ``ZeroEvidenceError`` is raised.
    """
    points = coarse_grid.as_array()
    n_pts = points.size
    rows = constraint_rows(constraints, points)
    pinned = int(any(cut == 1 and rhs > MASS_TOL for cut, rhs in equality_cuts(rows)))
    cap = min(len(constraints) + 1, n_pts)
    free, size = n_pts - pinned, cap - pinned
    if math.comb(free, size) > 1e8:
        raise ValueError(f"combination guard: C({free}, {size}) exceeds 1e8; use a coarser grid")
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    maximize = objective.direction == CONSERVATIVE_MAX

    best = None
    saw_feasible = False
    for m in range(1, cap + 1):
        combos = itertools.combinations(range(pinned, n_pts), m - pinned)
        if pinned:
            combos = ((0, *rest) for rest in combos)
        combos = itertools.chain.from_iterable(combos)
        while (flat := np.fromiter(itertools.islice(combos, _ORACLE_CHUNK * m), np.intp)).size:
            supports = flat.reshape(-1, m)
            masses, owners = feasible_vertices(rows, supports, exact_support=True)
            masses, admitted = drop_roundoff(masses)
            supports = supports[owners]  # one row per vertex
            admitted[admitted] = rows_admit(rows, supports[admitted], masses[admitted])
            if admitted.any():
                saw_feasible = True
                best = _keep_best(
                    best, log_lik, gains, supports[admitted], masses[admitted], obs, maximize
                )

    if best is None and saw_feasible:
        raise ZeroEvidenceError(
            f"no admissible prior gives observation n={obs.n}, k={obs.k} "
            "positive probability"
        )
    return _result(constraints, obs, objective, coarse_grid, best)


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


def feasible_vertices(rows, supports: np.ndarray, exact_support: bool = False):
    """The vertices of the constraint polytope restricted to each support.

    ``rows`` are the constraints' rows over the whole grid, as
    ``constraint_rows`` builds them, and ``supports`` is a ``(count, m)``
    array whose rows each index that grid. Returns ``(masses, owners)``: a
    ``(vertices, m)`` array of vertex masses over their supports (not the
    full grid), and each vertex's row in ``supports``. Vertices come by
    owner, and within an owner in enumeration order (see
    ``_vertex_selectors``), on which the feasible-prior sampler's random
    streams depend. Every vertex system is a row selection from its
    support's stacked matrix ``[1; rows; eye(m)]``, so one batched
    determinant, one batched solve and one batched admissibility check
    cover every support's systems. An ``"eq"`` row repeated exactly (the
    same ``equality_cuts`` entry) is stacked once, since a repeat would
    make every square system singular.

    ``exact_support`` keeps only the systems with no zero-mass row. That
    suffices for ``oracle_solve``, which runs over every smaller support
    too, where a vertex with a zero mass is found again.
    """
    supports = np.asarray(supports, dtype=np.intp)
    count, m = supports.shape
    eq_rows = [r for r in rows if r.sense == "eq"]
    eq_rows = list(dict(zip(equality_cuts(rows), eq_rows)).values())
    ineq_rows = [r for r in rows if r.sense != "eq"]
    ordered = eq_rows + ineq_rows
    stack = np.concatenate(
        [
            np.stack([np.ones((count, m))] + [r.coeffs[supports] for r in ordered], axis=1),
            np.broadcast_to(np.eye(m), (count, m, m)),
        ],
        axis=1,
    )
    stack_rhs = np.array([1.0] + [r.rhs for r in ordered] + [0.0] * m)
    n_base = 1 + len(eq_rows)
    ineq = slice(n_base, n_base + len(ineq_rows))
    if n_base > m:
        # more equalities than mass freedoms: at most one consistent point
        # per support
        mats, rhs = stack[:, :n_base], stack_rhs[:n_base]
        xs = np.stack([np.linalg.lstsq(mat, rhs, rcond=None)[0] for mat in mats])
        residuals = np.abs((mats @ xs[:, :, None])[:, :, 0] - rhs)
        owners = np.nonzero(residuals.max(axis=1) <= MASS_TOL)[0]
        xs = xs[owners]
    else:
        selectors = _vertex_selectors(m, n_base, len(ineq_rows))
        if exact_support:
            selectors = selectors[np.all(selectors < n_base + len(ineq_rows), axis=1)]
        mats = stack[:, selectors]
        with np.errstate(divide="ignore", invalid="ignore"):
            dets = np.linalg.det(mats)
        regular = ~(np.abs(dets) < 1e-12)
        owners, systems = np.nonzero(regular)
        xs = np.linalg.solve(mats[regular], stack_rhs[selectors[systems]][:, :, None])[:, :, 0]
    # admissible: no mass below -1e-10, and every inequality row of the
    # owner's support met within MASS_TOL
    values = (stack[owners, ineq] @ xs[:, :, None])[:, :, 0]
    keep = ~(xs < -1e-10).any(axis=1) & np.all(values <= stack_rhs[ineq] + MASS_TOL, axis=1)
    return np.maximum(xs[keep], 0.0), owners[keep]


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

