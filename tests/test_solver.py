import collections
import itertools
import math
import random

import numpy as np
import pytest

from relbound import simplex, solver
from relbound.errors import InfeasibleConstraintsError, ZeroEvidenceError
from relbound.inference import (
    CONSERVATIVE_MAX,
    FutureReliability,
    Observation,
    PosteriorConfidence,
    PosteriorExpectedPfd,
    log_likelihood_vector,
    objective_gain,
    posterior_value,
)
from relbound.numerics import survive_prob
from relbound.operational import sample_feasible_prior
from relbound.priors import (
    EQUALITY_SLACK,
    ConfidenceBound,
    ConstraintRow,
    MeanBound,
    PerfectionConfidence,
    PfdGrid,
    PriorReliability,
    build_grid,
    constraint_rows,
    forced_grid_points,
    homogeneous_ub,
    max_mean_prior,
    rows_as_ub,
)
from relbound.solver import curve, oracle_solve, solve


def run(constraints, obs, objective, resolution=200):
    grid = build_grid(constraints, objective, resolution)
    return solve(constraints, obs, objective, grid), grid


class TestClosedForms:
    @pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.3])
    @pytest.mark.parametrize("n", [0, 10, 10_000])
    @pytest.mark.parametrize("t", [1, 1000])
    def test_full_confidence_bound_collapses_to_point_mass(self, eps, n, t):
        # with theta = 1 all mass sits at or below eps and the worst prior
        # is the point mass exactly at eps
        result, _ = run([ConfidenceBound(eps, 1.0)], Observation(n, 0), FutureReliability(t))
        expected = (1.0 - eps) ** t
        assert result.bound == pytest.approx(expected, abs=1e-9)
        if expected > 1e-9:  # below that the threshold pin is unresolvable
            assert result.solver_status == "optimal"

    def test_certain_perfection_gives_certainty(self):
        result, _ = run(
            [PerfectionConfidence(1.0)], Observation(100, 0), FutureReliability(100)
        )
        assert result.bound == 1.0
        assert result.witness.support == (0.0,)

    def test_mean_bound_two_point_family(self):
        # the worst case for the posterior mean is a two-point prior {0, x}
        # with mass m/x at x; scan the family over the grid directly
        m, n = 0.01, 100
        constraints = [MeanBound(m)]
        result, grid = run(constraints, Observation(n, 0), PosteriorExpectedPfd())
        xs = np.array([p for p in grid.points if p >= m and p < 1.0])
        family = m * xs * (1 - xs) ** n / (xs - m + m * (1 - xs) ** n)
        assert result.bound == pytest.approx(float(family.max()), abs=1e-9)


class TestCbiResultContract:
    def test_witness_attains_bound(self):
        constraints = [ConfidenceBound(1e-3, 0.8), MeanBound(0.05)]
        obs = Observation(5000, 0)
        objective = FutureReliability(500)
        result, _ = run(constraints, obs, objective)
        assert result.witness.satisfies_all(constraints)
        assert posterior_value(result.witness, obs, objective) == pytest.approx(
            result.bound, abs=1e-9
        )

    def test_witness_support_is_small(self):
        constraints = [ConfidenceBound(1e-3, 0.8), MeanBound(0.05)]
        result, _ = run(constraints, Observation(5000, 0), FutureReliability(500))
        assert len(result.witness.support) <= len(constraints) + 2

    def test_infeasible_status(self):
        constraints = [ConfidenceBound(0.1, 0.9), MeanBound(0.005)]
        result, _ = run(constraints, Observation(10, 0), PosteriorExpectedPfd())
        assert result.solver_status == "infeasible"
        assert result.bound is None
        assert result.witness is None

    def test_zero_evidence_raises(self):
        # perfection is certain, yet a failure was observed
        with pytest.raises(ZeroEvidenceError):
            run([PerfectionConfidence(1.0)], Observation(10, 1), PosteriorExpectedPfd())

    def test_interior_optimum_reports_grid_limited(self):
        # the free 1-theta mass settles at an interior lattice point above
        # epsilon, so refinement would move the bound
        result, _ = run(
            [ConfidenceBound(1e-4, 0.9)], Observation(10_000, 0), FutureReliability(1000)
        )
        assert result.solver_status == "grid-limited"
        assert any(p not in (0.0, 1e-4, 1e-4 * (1 + 1e-12), 1.0) for p in result.witness.support)

    def test_boundary_optimum_reports_optimal(self):
        # the worst prior for the posterior mean concentrates on the mean
        # threshold itself: resolution-independent
        result, _ = run([MeanBound(0.01)], Observation(1000, 0), PosteriorExpectedPfd())
        assert result.solver_status == "optimal"
        assert result.witness.support == (0.01,)


class TestOracleAgreement:
    def test_trivial_cases_identical(self):
        for constraints, obs, objective in [
            ([PerfectionConfidence(1.0)], Observation(100, 0), FutureReliability(100)),
            ([ConfidenceBound(0.01, 1.0)], Observation(50, 0), FutureReliability(10)),
        ]:
            grid = build_grid(constraints, objective, 80)
            a = solve(constraints, obs, objective, grid)
            b = oracle_solve(constraints, obs, objective, grid)
            assert a.bound == pytest.approx(b.bound, abs=1e-9)

    def test_derived_confidence_bound_instance(self):
        constraints = [ConfidenceBound(1e-4, 0.9)]
        obs = Observation(10_000, 0)
        objective = FutureReliability(1000)
        grid = build_grid(constraints, objective, 100)
        a = solve(constraints, obs, objective, grid)
        b = oracle_solve(constraints, obs, objective, grid)
        assert a.bound == pytest.approx(b.bound, abs=1e-4)

    def test_random_single_confidence_bounds(self):
        rng = np.random.default_rng(2024)
        for _ in range(15):
            eps = float(10 ** rng.uniform(-4, -0.8))
            theta = float(rng.uniform(0.3, 0.99))
            n = int(rng.integers(0, 5000))
            t = int(rng.integers(1, 2000))
            constraints = [ConfidenceBound(eps, theta)]
            objective = FutureReliability(t)
            grid = build_grid(constraints, objective, 60)
            a = solve(constraints, Observation(n, 0), objective, grid)
            b = oracle_solve(constraints, Observation(n, 0), objective, grid)
            assert a.bound == pytest.approx(b.bound, abs=1e-4)

    def test_oracle_guard_rejects_huge_grids(self):
        constraints = [MeanBound(0.1), ConfidenceBound(0.01, 0.5), PriorReliability(10, 0.5)]
        pts = tuple(np.linspace(0.0, 1.0, 2000))
        with pytest.raises(ValueError, match="guard"):
            oracle_solve(
                constraints, Observation(10, 0), PosteriorExpectedPfd(), PfdGrid(pts)
            )


class TestSoundness:
    @pytest.mark.parametrize(
        "constraints,objective",
        [
            ([ConfidenceBound(1e-2, 0.8)], FutureReliability(200)),
            ([MeanBound(0.05)], PosteriorExpectedPfd()),
            ([PriorReliability(100, 0.7)], PosteriorConfidence(1e-2)),
            ([ConfidenceBound(1e-3, 0.6), MeanBound(0.02)], FutureReliability(50)),
        ],
    )
    def test_bound_is_conservative_side_of_samples(self, constraints, objective):
        obs = Observation(300, 0)
        grid = build_grid(constraints, objective, 120)
        result = solve(constraints, obs, objective, grid)
        maximize = objective.direction == "conservative-max"
        for seed in range(40):
            prior = sample_feasible_prior(constraints, grid, seed)
            value = posterior_value(prior, obs, objective)
            if maximize:
                assert result.bound >= value - 1e-9
            else:
                assert result.bound <= value + 1e-9


class TestGridRefinement:
    @pytest.mark.parametrize(
        "constraints,objective",
        [
            ([ConfidenceBound(1e-3, 0.9)], FutureReliability(100)),
            ([MeanBound(0.02)], PosteriorExpectedPfd()),
        ],
    )
    def test_superset_grid_moves_conservatively(self, constraints, objective):
        obs = Observation(500, 0)
        grid = build_grid(constraints, objective, 100)
        fine = grid.refine()
        coarse_bound = solve(constraints, obs, objective, grid).bound
        fine_bound = solve(constraints, obs, objective, fine).bound
        if objective.direction == "conservative-max":
            assert fine_bound >= coarse_bound - 1e-6
        else:
            assert fine_bound <= coarse_bound + 1e-6

    def test_doubled_resolution_on_pinned_instance(self):
        # theta = 1 pins the optimum at the forced threshold point, so the
        # non-nested rebuild may wobble only within tolerance
        constraints = [ConfidenceBound(1e-3, 1.0)]
        objective = FutureReliability(100)
        obs = Observation(1000, 0)
        bounds = [
            solve(constraints, obs, objective, build_grid(constraints, objective, res)).bound
            for res in (200, 400)
        ]
        assert bounds[1] == pytest.approx(bounds[0], abs=1e-6)


class TestCurve:
    def test_theta_one_curve_constant(self):
        points = curve(
            [ConfidenceBound(0.01, 1.0)],
            FutureReliability(100),
            [1, 10, 100, 1000],
            0,
            grid=build_grid([ConfidenceBound(0.01, 1.0)], FutureReliability(100), 100),
        )
        values = [b for _, b in points]
        expected = (1 - 0.01) ** 100
        assert values == pytest.approx([expected] * 4, abs=1e-9)

    def test_failure_free_curve_nondecreasing_and_matches_oracle(self):
        constraints = [ConfidenceBound(1e-3, 0.9)]
        objective = FutureReliability(100)
        grid = build_grid(constraints, objective, 80)
        ns = [10, 100, 1000, 10_000, 100_000]
        points = curve(constraints, objective, ns, 0, grid=grid)
        values = [b for _, b in points]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        for n, bound in [points[0], points[2], points[4]]:
            check = oracle_solve(constraints, Observation(n, 0), objective, grid)
            assert bound == pytest.approx(check.bound, abs=1e-4)

    def test_stronger_belief_dominates_pointwise(self):
        objective = FutureReliability(100)
        ns = [10, 100, 1000, 10_000]
        weak = curve([ConfidenceBound(1e-3, 0.5)], objective, ns, 0)
        strong = curve([ConfidenceBound(1e-3, 0.9)], objective, ns, 0)
        for (_, low), (_, high) in zip(weak, strong):
            assert high >= low - 1e-9

    def test_unsorted_demands_rejected(self):
        with pytest.raises(ValueError):
            curve([MeanBound(0.1)], PosteriorExpectedPfd(), [10, 5], 0)

    def test_infeasible_constraints_raise(self):
        with pytest.raises(InfeasibleConstraintsError):
            curve(
                [ConfidenceBound(0.1, 0.9), MeanBound(0.005)],
                PosteriorExpectedPfd(),
                [10, 100],
                0,
            )


class TestWindowRatioLp:
    """A window's ratio LP starts from the sign tests' basis. Started by its
    own artificial phase 1 instead, it spun to the iteration limit on one
    instance here and proposed too low a bound on another."""

    @staticmethod
    def _assert_witness_attains_bound(constraints, obs, objective, result):
        assert result.witness.satisfies_all(constraints)
        assert posterior_value(result.witness, obs, objective) == pytest.approx(
            result.bound, rel=1e-7, abs=1e-13
        )

    def test_ratio_lp_does_not_spin(self, monkeypatch):
        constraints = [
            ConfidenceBound(3.262509737286604e-06, 0.92463809336271),
            PerfectionConfidence(0.510930664478502),
            PriorReliability(72, 0.8262410609866191),
        ]
        obs = Observation(7945, 5)
        objective = PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, 1000)
        pivots = 0
        pivot = simplex._pivot

        def counting_pivot(*args):
            nonlocal pivots
            pivots += 1
            if pivots > 5000:  # a relapse into the spin fails here, not after seconds
                raise AssertionError("pivot budget exceeded")
            return pivot(*args)

        monkeypatch.setattr(simplex, "_pivot", counting_pivot)
        result = solve(constraints, obs, objective, grid)
        self._assert_witness_attains_bound(constraints, obs, objective, result)
        assert result.bound == pytest.approx(0.0061539877, rel=1e-8)

    def test_ratio_lp_runs_no_phase_one(self, monkeypatch):
        # phase 1 leaves every window of this instance at a vertex with no
        # live mass, so each ratio LP starts from the vertex of most live mass
        constraints = [MeanBound(0.0073911406827693645)]
        obs = Observation(22012, 51)
        objective = PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, 500)
        phase_ones = 0
        per_window = []
        phase_one, window_masses = simplex._phase_one, solver._window_masses

        def counting_phase_one(*args):
            nonlocal phase_ones
            phase_ones += 1
            return phase_one(*args)

        def counting_window_masses(*args):
            before = phase_ones
            masses = window_masses(*args)
            per_window.append(phase_ones - before)
            return masses

        monkeypatch.setattr(simplex, "_phase_one", counting_phase_one)
        monkeypatch.setattr(solver, "_window_masses", counting_window_masses)
        result = solve(constraints, obs, objective, grid)
        self._assert_witness_attains_bound(constraints, obs, objective, result)
        # the sign tests' phase 1 is each window's only one
        assert per_window and all(count == 1 for count in per_window)

    def test_bound_not_below_subgrid_oracle(self):
        # the ratio LP's cold phase 1 once proposed 0.0041525 here, and the
        # sign tests then certified that lower bound
        constraints = [
            MeanBound(0.0047976308250040674),
            PerfectionConfidence(0.14637816288865813),
            PriorReliability(757, 0.6581864710179217),
        ]
        obs = Observation(28210, 45)
        objective = PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, 8000)
        result = solve(constraints, obs, objective, grid)
        self._assert_witness_attains_bound(constraints, obs, objective, result)
        # every sub-grid prior is a prior on the grid, so the sub-grid
        # optimum is a lower bound on the grid's
        points = grid.as_array()
        chosen = set(points[np.linspace(0, points.size - 1, 20).round().astype(int)].tolist())
        chosen.update(forced_grid_points(constraints, objective))
        oracle = oracle_solve(constraints, obs, objective, PfdGrid(tuple(chosen)))
        assert result.bound >= oracle.bound * (1 - 1e-3)


def _support_feasible(rows, mask):
    """Is the constraint set satisfiable with all mass on the masked points?"""
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return False
    sub_rows = [ConstraintRow(r.coeffs[idx], r.sense, r.rhs) for r in rows]
    a_ub, b_ub = rows_as_ub(sub_rows)
    result = simplex.solve_lp(
        np.zeros(idx.size),
        a_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if a_ub.size else None,
        a_eq=np.ones((1, idx.size)),
        b_eq=np.ones(1),
    )
    return result.status == "optimal"


def _reference_deepest_dominant_level(rows, log_lik):
    """The level search with every point of each probe's mask as a column."""
    levels = np.unique(log_lik[np.isfinite(log_lik)])
    if levels.size == 0:
        return None
    lo, hi = 0, levels.size - 1
    if _support_feasible(rows, log_lik <= levels[lo]):
        return float(levels[lo])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _support_feasible(rows, log_lik <= levels[mid]):
            hi = mid
        else:
            lo = mid
    return float(levels[hi])


_KINDS = ("mean", "confidence", "perfection", "reliability")
_KIND_SETS = [s for r in range(len(_KINDS) + 1) for s in itertools.combinations(_KINDS, r)]


def _random_constraint(rng: random.Random, kind: str):
    def unit() -> float:
        # the edges 0 and 1 are where the indicator rows degenerate
        return rng.choice((0.0, 1.0)) if rng.random() < 0.15 else rng.random()

    if kind == "mean":
        return MeanBound(10 ** rng.uniform(-6, -0.3))
    if kind == "confidence":
        return ConfidenceBound(10 ** rng.uniform(-8, -0.5), unit())
    if kind == "perfection":
        return PerfectionConfidence(unit())
    return PriorReliability(int(10 ** rng.uniform(0, 6)), unit())


class TestDeepestDominantLevel:
    """Each probe keeps one point per run of equal ``"eq"`` coefficients; the
    level found must equal that of the probe over every masked point."""

    @pytest.mark.parametrize("kinds", _KIND_SETS, ids=lambda k: "+".join(k) or "none")
    def test_matches_full_mask_bisection(self, kinds):
        rng = random.Random("+".join(kinds))
        infeasible = 0
        for i in range(19):
            constraints = [_random_constraint(rng, kind) for kind in kinds]
            n = int(10 ** rng.uniform(1, 7))
            k = 0 if i % 2 == 0 else rng.randint(1, min(n, 60))
            resolution = round(10 ** rng.uniform(math.log10(12), math.log10(8000)))
            points = build_grid(constraints, None, resolution).as_array()
            rows = constraint_rows(constraints, points)
            log_lik = log_likelihood_vector(points, Observation(n, k))
            expected = _reference_deepest_dominant_level(rows, log_lik)
            got = solver._deepest_dominant_level(rows, log_lik)
            assert got == expected, (constraints, n, k, resolution)
            infeasible += not _support_feasible(rows, np.ones(points.size, bool))
        if "confidence" in kinds and len(kinds) > 1:
            assert infeasible > 0  # the sets cover infeasible instances too

    def test_no_finite_level_gives_none(self):
        points = build_grid((), None, 2).as_array()
        log_lik = log_likelihood_vector(points, Observation(10, 3))
        assert _reference_deepest_dominant_level([], log_lik) is None
        assert solver._deepest_dominant_level([], log_lik) is None


def _reference_window_masses(window, maximize):
    """The window search with one bisection loop per direction.

    Returns the masses, the case the probe at the proposal fell into (None
    when no bisection ran), and how many sign tests passed at or past the
    level of a failed probe.
    """
    a_ub = homogeneous_ub(window.rows)
    b_ub = None if a_ub is None else np.zeros(a_ub.shape[0])
    vertex = solver.solve_lp(
        np.zeros(window.keep.size),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=np.ones((1, window.keep.size)),
        b_eq=np.ones(1),
    )
    if vertex.status != "optimal":
        return None, None, 0
    start, basis = vertex.start, vertex.basis

    def sign_lp(cost, maximize):
        return solver.solve_lp(cost, b_ub=b_ub, maximize=maximize, start=start)

    if not np.any(vertex.x[window.live] > 0.0):
        densest = sign_lp(window.live.astype(float), True)
        if densest.status != "optimal" or densest.value <= 0.0:
            return None, None, 0
        basis = densest.basis
    proposal = solver._window_ratio_value(window, maximize, b_ub, basis)
    if proposal is None:
        return None, None, 0
    failed_at = None
    late_passes = 0

    def achievable(level):
        nonlocal late_passes
        result = sign_lp(window.lik * (window.gains - level), maximize)
        if result.status != "optimal":
            return None
        beaten = result.value > solver._SIGN_TOL if maximize else result.value < -solver._SIGN_TOL
        if beaten and failed_at is not None:
            late_passes += level >= failed_at if maximize else level <= failed_at
        return np.maximum(result.x, 0.0) if beaten else None

    step = 2e-9
    witness = None
    case = "failed"
    if maximize:
        lo, hi = 0.0, 1.0
        probe = achievable(proposal - step)
        if probe is None:
            failed_at = proposal - step
        else:
            witness, lo = probe, proposal - step
            case = "both pass"
            if achievable(proposal + step) is None:
                hi, case = lo, "verified"
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
        if probe is None:
            failed_at = proposal + step
        else:
            witness, hi = probe, proposal + step
            case = "both pass"
            if achievable(proposal - step) is None:
                lo, case = hi, "verified"
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
        return None, case, late_passes
    x = np.zeros(window.n_grid)
    x[window.keep] = witness
    total = x.sum()
    if not math.isfinite(total) or total <= 0.0:
        return None, case, late_passes
    return x / total, case, late_passes


def _windows(constraints, obs, objective, resolution):
    """Every window ``solve`` searches on this instance."""
    points = build_grid(constraints, objective, resolution).as_array()
    rows = constraint_rows(constraints, points)
    feas_witness = max_mean_prior(points, rows)
    if feas_witness is None:
        return []
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    anchors = solver._anchor_shifts(
        constraints, rows, objective, obs, points, log_lik, feas_witness
    )
    windows = (solver._make_window(rows, points, log_lik, a, gains) for a in anchors)
    return [w for w in windows if w is not None]


class TestWindowBisection:
    """One bracket loop serves both directions. It must run the sign tests
    of the loop per direction, cost for cost, and return its masses byte
    for byte."""

    #: each proposal shift and the case it must produce in both directions:
    #: none, and a shift by 1e-6 to the side that the sign tests beat, so
    #: that both probes pass, or to the side they do not, so that the probe
    #: fails (too rare to rely on without a shift in the minimising direction)
    SHIFTS = {0.0: "verified", -1e-6: "both pass", 1e-6: "failed"}

    @staticmethod
    def _record_sign_tests(monkeypatch) -> list:
        """Record the objective of every LP run from the sign tests' phase 1."""
        costs = []
        solve_lp = solver.solve_lp

        def recording_solve_lp(c, **kwargs):
            if kwargs.get("start") is not None:
                costs.append(c.tobytes())
            return solve_lp(c, **kwargs)

        monkeypatch.setattr(solver, "solve_lp", recording_solve_lp)
        return costs

    @staticmethod
    def _assert_matches_reference(window, maximize, costs):
        """Returns the reference's case and its sign tests passed past a failed probe."""
        costs.clear()
        want, case, late_passes = _reference_window_masses(window, maximize)
        reference_costs = costs.copy()
        costs.clear()
        got = solver._window_masses(window, maximize)
        assert costs == reference_costs
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()
        return case, late_passes

    @pytest.mark.parametrize("shift", SHIFTS)
    def test_matches_reference_bisection(self, shift, monkeypatch):
        ratio_value = solver._window_ratio_value

        def shifted_ratio_value(window, maximize, *args):
            value = ratio_value(window, maximize, *args)
            return None if value is None else value + (shift if maximize else -shift)

        monkeypatch.setattr(solver, "_window_ratio_value", shifted_ratio_value)
        costs = self._record_sign_tests(monkeypatch)
        rng = random.Random(11)
        cases = collections.Counter()
        for i in range(25):
            kinds = rng.choice([s for s in _KIND_SETS if s])
            constraints = [_random_constraint(rng, kind) for kind in kinds]
            n = int(10 ** rng.uniform(2, 7))
            obs = Observation(n, rng.randint(1, 30) if i % 3 else 0)
            objective = rng.choice(
                [
                    PosteriorExpectedPfd(),
                    PosteriorConfidence(10 ** rng.uniform(-6, -1)),
                    FutureReliability(rng.randint(1, 10**5)),
                ]
            )
            maximize = objective.direction == CONSERVATIVE_MAX
            for window in _windows(constraints, obs, objective, rng.choice((100, 300, 1000))):
                case, _ = self._assert_matches_reference(window, maximize, costs)
                cases[maximize, case] += 1
        for maximize in (True, False):
            assert cases[maximize, self.SHIFTS[shift]] > 0, cases

    def test_sign_test_past_a_failed_probe_can_pass(self, monkeypatch):
        # in exact arithmetic no sign test past a failed one passes, but
        # here one does, and its witness gives the most conservative bound
        # (5.759464e-4); a bisection that counted such midpoints as failed
        # without solving them returned 5.759439e-4
        constraints = (
            PerfectionConfidence(0.4127000724141244),
            PriorReliability(2039, 0.5933767103367452),
        )
        obs, objective = Observation(3_833_252, 45), PosteriorExpectedPfd()
        costs = self._record_sign_tests(monkeypatch)
        late_passes = [
            self._assert_matches_reference(window, True, costs)[1]
            for window in _windows(constraints, obs, objective, 8000)
        ]
        assert any(late_passes)
        grid = build_grid(constraints, objective, 8000)
        assert solve(constraints, obs, objective, grid).bound >= 5.75946e-4


class TestSharedPhaseOne:
    """Windows that keep the same columns share one sign-test phase 1."""

    #: solve-mix seed-5 input ``s364``: five windows over three kept sets,
    #: the first two and the last two alike
    INSTANCE = (
        (
            ConfidenceBound(0.0009324515633061724, 0.5993139216734447),
            PerfectionConfidence(0.46723997205291146),
            PriorReliability(6114, 0.4175010595910956),
        ),
        Observation(9_311_728, 0),
        PosteriorConfidence(2.6692693686942145e-06),
    )

    def test_one_phase_one_per_kept_set(self, monkeypatch):
        constraints, obs, objective = self.INSTANCE
        windows = _windows(constraints, obs, objective, 500)
        new_set = [True] + [not np.array_equal(a.keep, b.keep) for a, b in zip(windows, windows[1:])]
        assert new_set == [True, False, True, True, False]
        phase_ones = 0
        per_window = []
        phase_one, window_masses = simplex._phase_one, solver._window_masses

        def counting_phase_one(*args):
            nonlocal phase_ones
            phase_ones += 1
            return phase_one(*args)

        def counting_window_masses(*args):
            before = phase_ones
            masses = window_masses(*args)
            per_window.append(phase_ones - before)
            return masses

        monkeypatch.setattr(simplex, "_phase_one", counting_phase_one)
        monkeypatch.setattr(solver, "_window_masses", counting_window_masses)
        solve(constraints, obs, objective, build_grid(constraints, objective, 500))
        assert per_window == [int(new) for new in new_set]

    def test_masses_match_a_fresh_phase_one(self, monkeypatch):
        constraints, obs, objective = self.INSTANCE
        seen = []
        window_masses = solver._window_masses

        def recording_window_masses(window, maximize, latest=None):
            masses = window_masses(window, maximize, latest)
            seen.append((window, maximize, masses))
            return masses

        monkeypatch.setattr(solver, "_window_masses", recording_window_masses)
        solve(constraints, obs, objective, build_grid(constraints, objective, 500))
        assert len(seen) == 5
        for window, maximize, masses in seen:
            # its own phase 1, with nothing recorded from earlier sign tests
            fresh = window_masses(window, maximize)
            if masses is None:
                assert fresh is None
            else:
                assert masses.tobytes() == fresh.tobytes()


# --- constraints as rows: the solver must read them as the classes mean ---

#: where an equality's right-hand side switches what a point mass needs
_CUT_OFFS = (1e-9, 1.0 - 1e-9)
_EDGE_UNITS = (0.0, 1.0, *_CUT_OFFS) + tuple(
    float(np.nextafter(c, toward)) for c in _CUT_OFFS for toward in (0.0, 1.0)
)


def _reference_singleton_feasible(constraints, points):
    """Point-mass feasibility read from the constraint classes, as the
    solver did before it read rows."""
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


def _edge_constraint(rng: random.Random, kind: str):
    """A constraint whose parameters sit on the edges that a point-mass
    test distinguishes about as often as anywhere else."""

    def unit() -> float:
        return rng.choice(_EDGE_UNITS) if rng.random() < 0.6 else rng.random()

    def level() -> float:
        return rng.choice((0.0, 1.0)) if rng.random() < 0.3 else 10 ** rng.uniform(-9, 0)

    if kind == "mean":
        return MeanBound(level())
    if kind == "confidence":
        return ConfidenceBound(level(), unit())
    if kind == "perfection":
        return PerfectionConfidence(unit())
    return PriorReliability(rng.choice((0, 1, 10, 1000, 10**6)), unit())


def _reference_threshold_points(constraints, objective):
    """The anchor thresholds as the solver listed them before ``priors``
    did: the mean bound appears twice, and 0 and 1 are not dropped."""
    thresholds = [p for p in forced_grid_points(constraints, objective) if p not in (0.0, 1.0)]
    for constraint in constraints:
        if isinstance(constraint, MeanBound):
            thresholds.append(constraint.m)
        elif isinstance(constraint, PriorReliability) and constraint.n0 > 0:
            if constraint.gamma > 0.0:
                thresholds.append(1.0 - constraint.gamma ** (1.0 / constraint.n0))
    return [p for p in thresholds if 0.0 <= p <= 1.0]


def _reference_anchor_shifts(constraints, rows, objective, obs, points, log_lik, feas_witness):
    finite_mask = np.isfinite(log_lik)
    if not finite_mask.any():
        return []
    anchors = [float(log_lik[finite_mask].max())]
    anchors.extend(
        solver._scalar_log_likelihood(p, obs) for p in _reference_threshold_points(constraints, objective)
    )
    singles = _reference_singleton_feasible(constraints, points) & finite_mask
    if singles.any():
        anchors.append(float(log_lik[singles].min()))
    if feas_witness is not None:
        anchors.extend(solver._scalar_log_likelihood(p, obs) for p in feas_witness.support)
    deepest = solver._deepest_dominant_level(rows, log_lik)
    if deepest is not None:
        anchors.append(deepest)
    anchors = [a for a in anchors if math.isfinite(a)]
    selected = []
    for a in sorted(set(anchors), reverse=True):
        if not selected or selected[-1] - a > 1e-9:
            selected.append(a)
    return selected


def _reference_homogeneous_ub(rows, scale=None):
    """The homogeneous rows as the solver built them before ``priors`` did."""
    a_list = []
    for row in rows:
        coeffs = row.coeffs if scale is None else row.coeffs / scale
        rhs_vec = row.rhs if scale is None else row.rhs / scale
        if row.sense == "le":
            a_list.append(coeffs - rhs_vec)
        elif row.sense == "ge":
            a_list.append(rhs_vec - coeffs)
        else:
            delta = EQUALITY_SLACK if scale is None else EQUALITY_SLACK / scale
            a_list.append(coeffs - rhs_vec - delta)
            a_list.append(rhs_vec - delta - coeffs)
    if not a_list:
        return None
    return np.vstack(a_list)


class TestRowsOnly:
    """The solver reads constraints only as rows; each reading must equal
    the one it replaced, which read the constraint classes."""

    @pytest.mark.parametrize("kinds", _KIND_SETS, ids=lambda k: "+".join(k) or "none")
    def test_singleton_mask_matches_class_reading(self, kinds):
        rng = random.Random("singleton:" + "+".join(kinds))
        partial = 0
        for _ in range(250):
            constraints = [_edge_constraint(rng, kind) for kind in kinds]
            points = build_grid(constraints, None, rng.choice((12, 200, 2000))).as_array()
            want = _reference_singleton_feasible(constraints, points)
            got = solver._singleton_feasible(constraint_rows(constraints, points), points.size)
            assert np.array_equal(got, want), constraints
            partial += 0 < want.sum() < points.size
        if kinds:
            assert partial > 0  # the masks do split the grid

    @pytest.mark.parametrize("theta", _EDGE_UNITS)
    def test_singleton_mask_at_equality_edges(self, theta):
        points = build_grid([ConfidenceBound(1e-3, theta)], None, 200).as_array()
        for constraint in (ConfidenceBound(1e-3, theta), PerfectionConfidence(theta)):
            want = _reference_singleton_feasible([constraint], points)
            got = solver._singleton_feasible(constraint_rows([constraint], points), points.size)
            assert np.array_equal(got, want), constraint

    def test_anchor_shifts_match_class_thresholds(self):
        rng = random.Random(29)
        edges = [
            (MeanBound(0.0),),
            (MeanBound(1.0),),
            (PriorReliability(100, 0.0),),
            (PriorReliability(100, 1.0),),
            (PriorReliability(0, 0.4),),
            (MeanBound(0.0), PriorReliability(0, 0.0)),
            (MeanBound(1.0), PriorReliability(50, 1.0), PerfectionConfidence(0.3)),
            (MeanBound(1.0), ConfidenceBound(1e-4, 1.0)),
        ]
        randoms = [
            tuple(_edge_constraint(rng, kind) for kind in rng.choice(_KIND_SETS[1:]))
            for _ in range(60)
        ]
        for constraints in edges + randoms:
            objective = rng.choice(
                [PosteriorExpectedPfd(), PosteriorConfidence(1e-4), FutureReliability(1000)]
            )
            points = build_grid(constraints, objective, rng.choice((12, 200, 2000))).as_array()
            rows = constraint_rows(constraints, points)
            feas_witness = max_mean_prior(points, rows)
            n = rng.choice((10, 1000, 10**6))
            for k in (0, rng.randint(1, min(30, n - 1)), n):
                obs = Observation(n, k)
                log_lik = log_likelihood_vector(points, obs)
                args = (constraints, rows, objective, obs, points, log_lik, feas_witness)
                assert solver._anchor_shifts(*args) == _reference_anchor_shifts(*args), args[:4]

    def test_homogeneous_rows_byte_equal(self):
        rng = random.Random(31)
        windows = 0
        for i in range(20):
            kinds = rng.choice(_KIND_SETS[1:])
            constraints = [_random_constraint(rng, kind) for kind in kinds]
            obs = Observation(int(10 ** rng.uniform(2, 7)), rng.randint(1, 30) if i % 2 else 0)
            for window in _windows(constraints, obs, PosteriorExpectedPfd(), rng.choice((100, 500))):
                scale = np.where(window.live & (window.lik > 0.0), window.lik, 1.0)
                got, want = homogeneous_ub(window.rows), _reference_homogeneous_ub(window.rows)
                assert got.tobytes() == want.tobytes()
                got = homogeneous_ub(window.rows, scale=scale)
                want = _reference_homogeneous_ub(window.rows, scale=scale)
                assert got.tobytes() == want.tobytes()
                windows += 1
        assert windows > 20
        assert homogeneous_ub([]) is None
