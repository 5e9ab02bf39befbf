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
    MASS_TOL,
    ConfidenceBound,
    ConstraintRow,
    FeasibilityResult,
    MeanBound,
    PerfectionConfidence,
    PfdGrid,
    PriorDistribution,
    PriorReliability,
    admitted_row,
    build_grid,
    carried_prior,
    check_feasible,
    constraint_rows,
    drop_roundoff,
    forced_grid_points,
    grid_feasibility,
    homogeneous_ub,
    rows_admit,
    threshold_points,
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

    @pytest.mark.parametrize(
        "objective, bound",
        [(PosteriorExpectedPfd(), 0.0), (PosteriorConfidence(1e-3), 1.0), (FutureReliability(5), 1.0)],
    )
    def test_best_case_optimum_has_a_witness(self, objective, bound):
        # the only admissible prior is the point mass at 0, which scores the
        # objective's best case: no sign test inside [0, 1] beats that
        constraints = [MeanBound(0.0), PerfectionConfidence(1.0)]
        result, _ = run(constraints, Observation(10, 0), objective)
        assert result.bound == bound
        assert result.witness == PriorDistribution((0.0,), (1.0,))
        assert result.solver_status == "optimal"

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
        with pytest.raises(ValueError, match=r"guard: C\(2000, 4\)"):
            oracle_solve(
                constraints, Observation(10, 0), PosteriorExpectedPfd(), PfdGrid(pts)
            )

    def test_oracle_covers_one_constraint_full_grid(self):
        # C(2000, 2) supports pass the guard, so one constraint needs no
        # sub-grid. ``solve`` reads 0.99505 here, as its windows miss this
        # worst case (ROADMAP Open item 1), so only the oracle is asserted
        constraints = [PriorReliability(9498, 0.43781)]
        obs = Observation(134, 48)
        objective = PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, 2000)
        assert len(grid) == 2000
        result = oracle_solve(constraints, obs, objective, grid)
        assert result.bound == pytest.approx(0.99901, rel=1e-12)
        assert result.witness.satisfies_all(constraints)
        assert set(result.witness.support) <= set(grid.points)
        assert posterior_value(result.witness, obs, objective) == result.bound

    def test_repeated_equality_constraint_changes_nothing(self):
        # stacked twice, the equality row would leave every square vertex
        # system singular, and the oracle would read 0.142 here
        objective = PosteriorExpectedPfd()
        obs = Observation(100, 1)
        once = [ConfidenceBound(0.01, 0.5), MeanBound(0.1)]
        twice = [ConfidenceBound(0.01, 0.5), *once]
        grid = build_grid(twice, objective, 30)
        want = oracle_solve(once, obs, objective, grid)
        got = oracle_solve(twice, obs, objective, grid)
        assert got.bound == want.bound and got.witness == want.witness
        assert got.bound == pytest.approx(0.1422527, rel=1e-6)
        assert got.witness.satisfies_all(twice)
        assert solve(twice, obs, objective, grid).bound == pytest.approx(got.bound, rel=1e-9)


class TestOracleAdmission:
    """``oracle_solve`` cleans, admits and scores whatever vertices
    ``feasible_vertices`` hands it; here a stub hands it chosen ones."""

    @staticmethod
    def stub_vertices(monkeypatch, vertices):
        """Make ``feasible_vertices`` return, for each support, the masses
        that ``vertices`` lists under that support's tuple of grid indices."""

        def stub(rows, supports, exact_support=False):
            found = [
                (owner, masses)
                for owner, support in enumerate(supports.tolist())
                for masses in vertices.get(tuple(support), [])
            ]
            masses = np.array([masses for _, masses in found], dtype=float)
            owners = np.array([owner for owner, _ in found], dtype=np.intp)
            return masses.reshape(-1, supports.shape[1]), owners

        monkeypatch.setattr(solver, "feasible_vertices", stub)

    def test_inadmissible_top_vertex_ignored(self, monkeypatch):
        # {0: 0.5, 0.9: 0.5} scores 0.9 but breaks the mean bound
        self.stub_vertices(monkeypatch, {(1,): [[1.0]], (0, 2): [[0.5, 0.5]]})
        constraints = [MeanBound(0.1)]
        obs, objective = Observation(10, 1), PosteriorExpectedPfd()
        result = oracle_solve(constraints, obs, objective, PfdGrid((0.0, 0.05, 0.9, 1.0)))
        assert result.witness == PriorDistribution.point_mass(0.05)
        assert result.witness.satisfies_all(constraints)
        assert result.bound == posterior_value(result.witness, obs, objective)

    def test_roundoff_mass_does_not_steer_the_ranking(self, monkeypatch):
        # 5e-13 on pfd 1, whose likelihood is 1e10 times that of pfd 0.1,
        # lifts the raw vertex to 0.1045; cleaned, it scores 0.1, below 0.102
        vertices = {(2,): [[1.0]], (1, 3): [[1.0 - 5e-13, 5e-13]]}
        self.stub_vertices(monkeypatch, vertices)
        obs, objective = Observation(10, 10), PosteriorExpectedPfd()
        grid = PfdGrid((0.0, 0.1, 0.102, 1.0))
        result = oracle_solve([MeanBound(0.5)], obs, objective, grid)
        assert result.witness == PriorDistribution.point_mass(0.102)
        assert result.bound == pytest.approx(0.102, rel=1e-15)

    def test_no_admitted_vertex_is_infeasible(self, monkeypatch):
        # neither vertex has evidence for one failure; one breaks the mean
        # bound, the other keeps no mass once roundoff is dropped
        vertices = {(0, 2): [[0.5, 0.5]], (1,): [[1e-16]]}
        self.stub_vertices(monkeypatch, vertices)
        grid = PfdGrid((0.0, 0.5, 1.0))
        args = ([MeanBound(0.1)], Observation(10, 1), PosteriorExpectedPfd(), grid)
        result = oracle_solve(*args)
        assert result.solver_status == solver.STATUS_INFEASIBLE
        assert result.bound is None and result.witness is None
        # an admitted vertex without evidence is a zero-evidence failure
        self.stub_vertices(monkeypatch, {**vertices, (0,): [[1.0]]})
        with pytest.raises(ZeroEvidenceError):
            oracle_solve(*args)


class TestKeepBest:
    """``_keep_best``, the one ranking rule of ``solve`` and ``oracle_solve``."""

    # one failure in ten demands: pfd 0 carries no evidence, 0.2 and 0.5 do
    POINTS = np.array([0.0, 0.2, 0.5])
    OBS = Observation(10, 1)

    def keep(self, best, supports, masses, maximize):
        return solver._keep_best(
            best,
            log_likelihood_vector(self.POINTS, self.OBS),
            objective_gain(PosteriorExpectedPfd(), self.POINTS),
            np.array(supports, dtype=np.intp),
            np.array(masses, dtype=float),
            self.OBS,
            maximize,
        )

    @pytest.mark.parametrize("maximize", [True, False])
    def test_tie_keeps_the_earlier_row(self, maximize):
        # both rows score exactly 0.2: the second's mass on pfd 0 has no evidence
        alone, diluted = ([1, 2], [1.0, 0.0]), ([0, 1], [0.5, 0.5])
        for first, second in ((alone, diluted), (diluted, alone)):
            rows = [first[0], second[0]], [first[1], second[1]]
            value, support, masses = self.keep(None, *rows, maximize)
            assert value == 0.2
            assert support.tolist() == first[0] and masses.tolist() == first[1]
            best = (value, np.array(second[0]), np.array(second[1]))
            assert self.keep(best, *rows, maximize) is best

    @pytest.mark.parametrize("maximize", [True, False])
    def test_all_nan_batch_returns_best_unchanged(self, maximize):
        rows = [[0], [0]], [[1.0], [1.0]]
        assert self.keep(None, *rows, maximize) is None
        best = (0.3, np.array([2]), np.array([1.0]))
        assert self.keep(best, *rows, maximize) is best

    @pytest.mark.parametrize("maximize, winner", [(True, 2), (False, 1)])
    def test_nan_rows_among_finite_ones_are_skipped(self, maximize, winner):
        value, support, masses = self.keep(None, [[0], [1], [0], [2]], [[1.0]] * 4, maximize)
        assert support.tolist() == [winner] and masses.tolist() == [1.0]
        assert value == self.POINTS[winner]


def _stream_inputs(count, seed):
    """``count`` seeded ``(constraints, obs, objective, grid)`` inputs, each
    objective kind in turn, over random kind sets on 60- to 300-point
    grids; some sets are infeasible and some give no evidence."""
    rng = random.Random(seed)
    for i in range(count):
        constraints = [_random_constraint(rng, kind) for kind in rng.choice(_KIND_SETS)]
        n = int(10 ** rng.uniform(1, 6))
        obs = Observation(n, rng.choice((0, 0, 1, rng.randint(0, min(n, 40)))))
        objective = (
            PosteriorExpectedPfd(),
            PosteriorConfidence(10 ** rng.uniform(-6, -1)),
            FutureReliability(int(10 ** rng.uniform(0, 4))),
        )[i % 3]
        yield constraints, obs, objective, build_grid(constraints, objective, rng.randint(60, 300))


def _descending_solve(constraints, obs, objective, grid):
    """``solve`` with its windows walked highest anchor first, each with a
    fresh phase 1, and a candidate kept only when strictly more
    conservative than the running best, so that a tie keeps the higher
    anchor's row. Returns the result and the number of windows whose
    candidate tied the running best with another row."""
    points = grid.as_array()
    rows = constraint_rows(constraints, points)
    if grid_feasibility(rows, points.size).status != "optimal":
        return solver._result(constraints, obs, objective, grid), 0
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    maximize = objective.direction == CONSERVATIVE_MAX
    best, ties = None, 0
    for anchor in solver._anchor_shifts(constraints, rows, objective, obs, points, log_lik):
        window = solver._make_window(rows, points, log_lik, anchor, gains)
        if window is None:
            continue
        vertex = grid_feasibility(window.rows, window.keep.size)
        x = solver._window_masses(window, maximize, vertex)
        row = None if x is None else admitted_row(rows, x)
        if row is None:
            continue
        support, masses = row[0][None], row[1][None]
        candidate = solver._keep_best(None, log_lik, gains, support, masses, obs, maximize)
        if best is not None and candidate is not None and candidate[0] == best[0]:
            ties += (candidate[1].tolist(), candidate[2].tolist()) != (
                best[1].tolist(),
                best[2].tolist(),
            )
        best = solver._keep_best(best, log_lik, gains, support, masses, obs, maximize)
    if best is None:
        raise ZeroEvidenceError("no admitted candidate with evidence")
    return solver._result(constraints, obs, objective, grid, best[1:]), ties


class TestRunningBest:
    """``solve`` is the full reduction of ``_running_best``: the stream
    yields the running best after each window that improves or ties it."""

    #: every prior puts all its mass on pfd 0, which cannot fail
    NO_EVIDENCE = [
        ([PerfectionConfidence(1.0)], Observation(100, 2), objective)
        for objective in (PosteriorExpectedPfd(), PosteriorConfidence(1e-3), FutureReliability(10))
    ]

    def test_solve_reports_the_last_item(self):
        lengths = collections.Counter()
        ties = collections.Counter()
        no_evidence = [(*case, build_grid(case[0], case[2], 100)) for case in self.NO_EVIDENCE]
        for constraints, obs, objective, grid in [*_stream_inputs(90, 11), *no_evidence]:
            try:
                items = list(solver._running_best(constraints, obs, objective, grid))
            except ZeroEvidenceError:
                with pytest.raises(ZeroEvidenceError):
                    solve(constraints, obs, objective, grid)
                lengths["zero-evidence"] += 1
                continue
            result = solve(constraints, obs, objective, grid)
            lengths[min(len(items), 2)] += 1
            if not items:
                assert result.solver_status == solver.STATUS_INFEASIBLE
                continue
            assert result.to_dict() == solver._result(
                constraints, obs, objective, grid, items[-1][1:]
            ).to_dict()
            # the re-valued bound is the stream's own last value
            assert result.bound == items[-1][0]
            values = [value for value, _, _ in items]
            if objective.direction == CONSERVATIVE_MAX:
                assert all(a <= b for a, b in zip(values, values[1:]))
            else:
                assert all(a >= b for a, b in zip(values, values[1:]))
            for (a, support_a, masses_a), (b, support_b, masses_b) in zip(items, items[1:]):
                if a == b:
                    same = support_a.tolist() == support_b.tolist() and (
                        masses_a.tolist() == masses_b.tolist()
                    )
                    ties["same row" if same else "other row"] += 1
        # every case occurs: infeasible, one item, several items, no evidence
        assert all(lengths[key] >= 3 for key in (0, 1, 2, "zero-evidence")), lengths
        # equal consecutive items occur with the same row, from windows that
        # agree, and with another row, from the higher anchor among tied ones
        assert ties["same row"] >= 1 and ties["other row"] >= 1, ties

    def test_solve_matches_the_descending_walk(self):
        # a window's candidate depends on its anchor alone, so walking the
        # windows in any order finds the same bound; among tied windows the
        # highest anchor's row must win, as it did when it came first
        outcomes = collections.Counter()
        no_evidence = [(*case, build_grid(case[0], case[2], 100)) for case in self.NO_EVIDENCE]
        for constraints, obs, objective, grid in [*_stream_inputs(210, 26), *no_evidence]:
            try:
                want, ties = _descending_solve(constraints, obs, objective, grid)
            except ZeroEvidenceError:
                with pytest.raises(ZeroEvidenceError):
                    solve(constraints, obs, objective, grid)
                outcomes["zero-evidence"] += 1
                continue
            assert solve(constraints, obs, objective, grid).to_dict() == want.to_dict()
            outcomes[want.solver_status] += 1
            outcomes["ties"] += ties > 0
        statuses = (solver.STATUS_OPTIMAL, solver.STATUS_GRID_LIMITED, solver.STATUS_INFEASIBLE)
        assert all(outcomes[key] >= 3 for key in ("zero-evidence", "ties", *statuses)), outcomes

    def test_tie_keeps_the_highest_anchor(self):
        # solve-mix seed-7 input ``s43``: windows tie at bound 0.0. The
        # deepest one's row sits on pfd 0.99901, a grid point, and the
        # highest one's on the confidence threshold, which every grid holds
        constraints = [ConfidenceBound(3.2607261779456e-06, 0.7009223788420067)]
        objective = PosteriorConfidence(0.008504319627564977)
        obs = Observation(8_422_324, 31)
        result = solve(constraints, obs, objective, build_grid(constraints, objective, 2000))
        assert result.bound == 0.0
        assert result.solver_status == solver.STATUS_OPTIMAL
        assert result.witness.support == (0.0, 0.008504319627573483)

    def test_empty_when_infeasible(self):
        constraints, objective = [ConfidenceBound(0.1, 0.9), MeanBound(0.005)], FutureReliability(10)
        grid = build_grid(constraints, objective, 100)
        assert list(solver._running_best(constraints, Observation(10, 0), objective, grid)) == []

    def test_zero_evidence_raises_after_every_window(self, monkeypatch):
        # every prior puts all its mass on pfd 0, which cannot fail
        constraints, obs, objective = [PerfectionConfidence(1.0)], Observation(100, 2), PosteriorExpectedPfd()
        made, searched = [], []
        make_window, window_masses = solver._make_window, solver._window_masses

        def counting_make_window(*args):
            window = make_window(*args)
            made.extend([] if window is None else [window])
            return window

        def counting_window_masses(window, *args):
            searched.append(window)
            return window_masses(window, *args)

        monkeypatch.setattr(solver, "_make_window", counting_make_window)
        monkeypatch.setattr(solver, "_window_masses", counting_window_masses)
        stream = solver._running_best(constraints, obs, objective, build_grid(constraints, objective, 200))
        with pytest.raises(ZeroEvidenceError):
            next(stream)
        assert len(made) >= 2 and searched == made


#: sets that the old gate, an ``A x <= b`` program, admitted while every
#: window refused them: ``solve`` raised ``ZeroEvidenceError``
_GATE_ADMITTED = [
    (
        [PerfectionConfidence(0.32835334298732144), PriorReliability(115580, 1.0)],
        Observation(752, 48),
        None,
        1166,
    ),
    # gamma = 1 puts all mass on 0, while theta_0 = 0.70
    (
        [
            MeanBound(3.961388094498708e-06),
            ConfidenceBound(0.0030318180043518825, 1.0),
            PerfectionConfidence(0.701367561000227),
            PriorReliability(187236, 1.0),
        ],
        Observation(133628, 0),
        PosteriorExpectedPfd(),
        196,
    ),
]


def _feasibility_edge_constraint(rng: random.Random, kind: str):
    """A constraint on the edges where a set turns infeasible: theta and
    gamma at or within 1e-12 of 0 and 1, and a mean bound of 0."""
    edge = rng.choice((0.0, 1e-12, 1.0 - 1e-12, 1.0))
    if kind == "mean":
        return MeanBound(rng.choice((0.0, 1e-12, 1e-3)))
    if kind == "confidence":
        return ConfidenceBound(rng.choice((0.0, 1e-9, 1e-3)), edge)
    if kind == "perfection":
        return PerfectionConfidence(edge)
    return PriorReliability(rng.choice((1, 10, 10**4)), edge)


class TestOneFeasibilityProgram:
    """``solve`` and ``check_feasible`` decide feasibility by one program,
    ``grid_feasibility``, so they agree on every set."""

    @pytest.mark.parametrize("constraints, obs, grid_objective, resolution", _GATE_ADMITTED)
    def test_gate_admitted_sets_are_infeasible(self, constraints, obs, grid_objective, resolution):
        grid = build_grid(constraints, grid_objective, resolution)
        result = solve(constraints, obs, PosteriorExpectedPfd(), grid)
        assert result.solver_status == solver.STATUS_INFEASIBLE
        assert not check_feasible(constraints, grid).feasible

    def test_feasible_without_a_max_mean_witness(self):
        # roundoff leaves the whole-grid phase 1 at a basis with a basic
        # value of -1.3e8, and the max-mean phase 2 from it finds no optimum
        constraints = (
            MeanBound(1.0 - 1e-12),
            ConfidenceBound(1.0 - 1e-12, 1.0 - 1e-12),
            PerfectionConfidence(1e-9),
            PriorReliability(1, 1e-9),
        )
        grid = build_grid(constraints, None, 50)
        assert check_feasible(constraints, grid) == FeasibilityResult(True, None, ())
        result = solve(constraints, Observation(10**9, 1), PosteriorExpectedPfd(), grid)
        assert result.witness.satisfies_all(constraints)

    #: the sets of the seeded draw below where the two do not agree, with
    #: the reason. "no witness": the simplex's phase 1 declares the whole
    #: grid feasible from a basis whose roundoff leaves a basic value below
    #: zero (-6.6e-5 and -0.038), so the max-mean phase 2 from it ends on
    #: masses that ``rows_admit`` refuses, and ``check_feasible`` returns
    #: none. "oracle only": gamma = 1 beside theta_0 < 1 is exactly
    #: infeasible, but the oracle admits a vertex that misses the
    #: reliability row by less than ``MASS_TOL``
    DISAGREE = {
        35: "no witness",
        77: "no witness",
        101: "oracle only",
        150: "oracle only",
        178: "oracle only",
    }

    def test_witness_mean_is_the_oracles_max_mean(self):
        # with no data the posterior is the prior, so the oracle's bound on
        # E[pfd] is the largest prior mean on the grid
        rng = random.Random(0)
        disagree = {}
        feasible = 0
        for i in range(300):
            constraints = [_random_constraint(rng, kind) for kind in rng.choice(_KIND_SETS)]
            grid = build_grid(constraints, None, rng.randint(12, 30))
            report = check_feasible(constraints, grid)
            oracle = oracle_solve(constraints, Observation(0, 0), PosteriorExpectedPfd(), grid)
            if report.feasible:
                assert report.witness is None or report.witness.satisfies_all(constraints)
            if report.feasible and report.witness is None:
                disagree[i] = "no witness"
            elif report.feasible != (oracle.solver_status != solver.STATUS_INFEASIBLE):
                assert not report.feasible, constraints
                disagree[i] = "oracle only"
            elif report.feasible:
                feasible += 1
                assert report.witness.mean() == pytest.approx(oracle.bound, rel=0, abs=1e-9)
        assert disagree == self.DISAGREE
        assert feasible >= 200

    def test_max_mean_witness_is_admitted_or_none(self):
        # --extreme seed 5 input e11: the max-mean phase 2 ends on a prior
        # with mean 1.7e-7 under MeanBound(1e-12), once returned as the
        # witness
        constraints = [
            PriorReliability(1000000, 1e-09),
            MeanBound(1e-12),
            PerfectionConfidence(1e-12),
            ConfidenceBound(1.0, 0.999999999999),
        ]
        grid = build_grid(constraints, PosteriorConfidence(1e-9), 200)
        assert len(grid) == 202
        report = check_feasible(constraints, grid)
        assert report.feasible
        assert report.witness is None or report.witness.satisfies_all(constraints)

    def test_solve_is_infeasible_exactly_when_check_feasible_is(self):
        rng = random.Random(23)
        seen = collections.Counter()
        for i in range(150):
            kinds = rng.choice(_KIND_SETS[1:])
            constraints = [_feasibility_edge_constraint(rng, kind) for kind in kinds]
            n = rng.choice((1, 100, 10**6))
            obs = Observation(n, rng.choice((0, 1, n)))
            objective = (
                PosteriorExpectedPfd(),
                PosteriorConfidence(rng.choice((1e-9, 1e-4))),
                FutureReliability(rng.choice((0, 10, 10**6))),
            )[i % 3]
            grid = build_grid(constraints, objective, rng.choice((50, 200)))
            feasible = check_feasible(constraints, grid).feasible
            try:
                status = solve(constraints, obs, objective, grid).solver_status
            except ZeroEvidenceError:
                assert feasible, constraints
                seen["zero-evidence"] += 1
                continue
            assert (status == solver.STATUS_INFEASIBLE) == (not feasible), constraints
            seen[status] += 1
        # every outcome occurs
        assert all(seen[key] >= 10 for key in ("zero-evidence", solver.STATUS_INFEASIBLE)), seen
        assert seen[solver.STATUS_OPTIMAL] + seen[solver.STATUS_GRID_LIMITED] >= 10, seen


class TestOnePosteriorValue:
    """Window candidates stay rows until the winner: only the result is
    built as a prior and re-valued by ``posterior_value``."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []

        def counting(prior, obs, objective):
            calls.append(posterior_value(prior, obs, objective))
            return calls[-1]

        monkeypatch.setattr(solver, "posterior_value", counting)
        return calls

    def test_once_per_feasible_solve(self, monkeypatch):
        # five windows, two of which admit a candidate
        constraints, obs, objective = TestSharedPhaseOne.INSTANCE
        grid = build_grid(constraints, objective, 500)
        calls = self.count_calls(monkeypatch)
        result = solve(constraints, obs, objective, grid)
        assert calls == [result.bound]
        assert result.bound == posterior_value(result.witness, obs, objective)
        result = oracle_solve(constraints, obs, objective, build_grid(constraints, objective, 20))
        assert calls[1:] == [result.bound]

    def test_none_for_an_infeasible_solve(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        constraints = [ConfidenceBound(0.1, 0.9), MeanBound(0.005)]
        result, _ = run(constraints, Observation(10, 0), PosteriorExpectedPfd())
        assert result.solver_status == solver.STATUS_INFEASIBLE and calls == []


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
        new_set = _kept_sets(_windows(constraints, obs, objective, 500))
        phase_ones = 0
        per_window = []
        phase_one, window_masses = simplex._phase_one, solver._window_masses

        def counting_phase_one(*args):
            nonlocal phase_ones
            phase_ones += 1
            return phase_one(*args)

        seen = 1  # the whole-grid gate's, run before the first window

        def counting_window_masses(*args):
            # a window's phase 1 runs before its call, so each window counts
            # the runs since the previous window's call ended
            nonlocal seen
            masses = window_masses(*args)
            per_window.append(phase_ones - seen)
            seen = phase_ones
            return masses

        monkeypatch.setattr(simplex, "_phase_one", counting_phase_one)
        monkeypatch.setattr(solver, "_window_masses", counting_window_masses)
        result = solve(constraints, obs, objective, grid)
        self._assert_witness_attains_bound(constraints, obs, objective, result)
        # the sign tests' phase 1 is each window's only one, and the last
        # window, anchored at the grid maximum, keeps the whole grid and
        # reuses the gate's: one per solve for each kept set
        assert per_window == [1] * (len(new_set) - 1) + [0]
        assert phase_ones == sum(new_set) == len(new_set)

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
    return grid_feasibility(sub_rows, idx.size).status == "optimal"


def _lp_deepest_dominant_level(rows, log_lik):
    """The level search as a bisection of simplex feasibility programs over
    every masked point, under the simplex's own tolerances."""
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


def _brute_deepest_dominant_level(rows, log_lik):
    """The level search by brute force: at every level, every choice of one
    masked point per run, each run's mass on its chosen point, judged by
    ``rows_admit``. A run holding at most ``MASS_TOL`` with no masked point
    stays empty. Runs are the stretches on which every ``"eq"`` row has one
    coefficient, and the mass below a run is the right-hand side of the
    first row that steps up at its start."""
    levels = np.unique(log_lik[np.isfinite(log_lik)])
    if levels.size == 0:
        return None
    n = log_lik.size
    eq = [r for r in rows if r.sense == "eq"]
    starts = [0] + [b for b in range(1, n) if any(r.coeffs[b - 1] != r.coeffs[b] for r in eq)]
    below = [next(r.rhs for r in eq if r.coeffs[b - 1] != r.coeffs[b]) for b in starts[1:]]
    run_mass = np.maximum(np.diff([0.0, *below, 1.0]), 0.0)
    runs = list(zip(starts, starts[1:] + [n], run_mass))
    for level in levels:
        choices = []
        for start, stop, mass in runs:
            masked = [j for j in range(start, stop) if log_lik[j] <= level]
            if not masked and mass > MASS_TOL:
                break
            choices.append([(j, mass) for j in masked] or [(0, 0.0)])
        else:
            combos = np.array(list(itertools.product(*choices)))  # (combos, runs, 2)
            supports = combos[:, :, 0].astype(np.intp)
            if rows_admit(rows, supports, combos[:, :, 1]).any():
                return float(level)
    return float(levels[-1])


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


def _level_instances(kinds, count, low, high, all_fail=False):
    """``count`` seeded ``(constraints, rows, log_lik)`` of the kind set
    ``kinds``, on grids built at resolutions from ``low`` to ``high``. With
    ``all_fail``, every demand failed (k = n): then pfd 1 is the likeliest
    point, and the grid's top run can hold no point at a low level."""
    rng = random.Random("+".join(kinds))
    for i in range(count):
        constraints = [_random_constraint(rng, kind) for kind in kinds]
        n = int(10 ** rng.uniform(1, 7))
        k = 0 if i % 2 == 0 else rng.randint(1, min(n, 60))
        k = n if all_fail else k
        resolution = round(10 ** rng.uniform(math.log10(low), math.log10(high)))
        points = build_grid(constraints, None, resolution).as_array()
        rows = constraint_rows(constraints, points)
        yield constraints, rows, log_likelihood_vector(points, Observation(n, k))


class TestDeepestDominantLevel:
    """The level is read off the rows with no simplex. It must equal the
    brute-force search over every masked point per run. On the seeded
    instances below it never lies under the simplex bisection it replaced,
    whose phase-1 tolerance admits more; ``rows_admit``'s absolute
    ``MASS_TOL`` on an ``"le"`` row can admit more instead (e541)."""

    @pytest.mark.parametrize("all_fail", [False, True], ids=["k<=60", "k=n"])
    @pytest.mark.parametrize("kinds", _KIND_SETS, ids=lambda k: "+".join(k) or "none")
    def test_matches_brute_force(self, kinds, all_fail):
        for constraints, rows, log_lik in _level_instances(kinds, 12, 12, 30, all_fail):
            expected = _brute_deepest_dominant_level(rows, log_lik)
            assert solver._deepest_dominant_level(rows, log_lik) == expected, constraints

    @pytest.mark.parametrize("kinds", _KIND_SETS, ids=lambda k: "+".join(k) or "none")
    def test_never_below_simplex_bisection(self, kinds):
        infeasible = equal = 0
        for constraints, rows, log_lik in _level_instances(kinds, 19, 12, 8000):
            lp_level = _lp_deepest_dominant_level(rows, log_lik)
            got = solver._deepest_dominant_level(rows, log_lik)
            assert got >= lp_level, constraints
            equal += got == lp_level
            infeasible += not _support_feasible(rows, np.ones(log_lik.size, bool))
        if "confidence" in kinds and len(kinds) > 1:
            assert infeasible > 0  # the sets cover infeasible instances too
        # they part only at the tolerance's edge: one instance of these 304,
        # [PerfectionConfidence(0.328...), PriorReliability(115580, 1.0)],
        # where ``solve`` finds no prior with evidence either way
        assert equal >= 18

    def test_runs_no_linear_program(self, monkeypatch):
        calls = 0
        solve_lp = simplex.solve_lp

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(simplex, "solve_lp", counted)
        monkeypatch.setattr(solver, "solve_lp", counted)
        for kinds in _KIND_SETS:
            for _, rows, log_lik in _level_instances(kinds, 3, 12, 2000):
                solver._deepest_dominant_level(rows, log_lik)
        assert calls == 0

    def test_no_finite_level_gives_none(self):
        points = build_grid((), None, 2).as_array()
        log_lik = log_likelihood_vector(points, Observation(10, 3))
        assert _brute_deepest_dominant_level([], log_lik) is None
        assert solver._deepest_dominant_level([], log_lik) is None

    def test_extreme_seed_5_e541_reads_the_deeper_window(self):
        # extreme seed 5 e541. ``rows_admit`` lets the mean row miss by
        # MASS_TOL, so the level is read at -23.27, where the mass past the
        # confidence cut sits at 3.9e-9; the simplex bisection stopped at
        # -21.99 (1.9e-9), and ``solve`` then read 1.0000000000010001e-09 as
        # optimal. The deeper window finds a higher bound. The admissible
        # prior {0: 0.5, 1.9153937435990025e-09: 0.5} still scores higher
        # (ROADMAP Open item 1).
        constraints = [MeanBound(1e-9), PerfectionConfidence(0.5), ConfidenceBound(1e-9, 0.5)]
        objective = PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, 500)
        result = solve(constraints, Observation(10**9, 1), objective, grid)
        assert result.bound >= 1.7948e-9
        assert result.witness.satisfies_all(constraints)


def _reference_window_masses(window, maximize):
    """The window search with one bisection loop per direction, running the
    LP of every sign test.

    Returns the masses, the case the probe at the proposal fell into (None
    when no bisection ran, "no proposal" when the ratio LP gave none), how
    many sign tests passed at or past the level of a failed probe, and for
    each sign test in order whether its level is at or past the window's
    best live gain and whether the LP read it as beaten.
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
        return None, None, 0, []
    start, basis = vertex.start, vertex.basis

    def sign_lp(cost, maximize):
        return solver.solve_lp(cost, b_ub=b_ub, maximize=maximize, start=start)

    if not np.any(vertex.x[window.live] > 0.0):
        densest = sign_lp(window.live.astype(float), True)
        if densest.status != "optimal" or densest.value <= 0.0:
            return None, None, 0, []
        basis = densest.basis
    proposal = solver._window_ratio_value(window, maximize, b_ub, basis)
    failed_at = None
    late_passes = 0
    tests = []
    live_gains = window.gains[window.live]

    def achievable(level):
        nonlocal late_passes
        result = sign_lp(window.lik * (window.gains - level), maximize)
        past = level >= live_gains.max() if maximize else level <= live_gains.min()
        if result.status != "optimal":
            tests.append((past, False))
            return None
        beaten = result.value > solver._SIGN_TOL if maximize else result.value < -solver._SIGN_TOL
        tests.append((past, beaten))
        if beaten and failed_at is not None:
            late_passes += level >= failed_at if maximize else level <= failed_at
        return np.maximum(result.x, 0.0) if beaten else None

    step = 2e-9
    witness = None
    case = "failed" if proposal is not None else "no proposal"
    if maximize:
        lo, hi = 0.0, 1.0
        probe = None if proposal is None else achievable(proposal - step)
        if proposal is not None and probe is None:
            failed_at = proposal - step
        elif probe is not None:
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
        if witness is None:
            witness = achievable(lo - step)
    else:
        lo, hi = 0.0, 1.0
        probe = None if proposal is None else achievable(proposal + step)
        if proposal is not None and probe is None:
            failed_at = proposal + step
        elif probe is not None:
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
            witness = achievable(hi + step)
    if witness is None:
        return None, case, late_passes, tests
    x = np.zeros(window.n_grid)
    x[window.keep] = witness
    total = x.sum()
    if not math.isfinite(total) or total <= 0.0:
        return None, case, late_passes, tests
    return x / total, case, late_passes, tests


def _kept_sets(windows):
    """For each window, whether it keeps other columns than the one before."""
    return [True] + [not np.array_equal(a.keep, b.keep) for a, b in zip(windows, windows[1:])]


def _windows(constraints, obs, objective, resolution):
    """Every window ``solve`` searches on this instance, in its order:
    deepest anchor first."""
    points = build_grid(constraints, objective, resolution).as_array()
    rows = constraint_rows(constraints, points)
    if grid_feasibility(rows, points.size).status != "optimal":
        return []
    log_lik = log_likelihood_vector(points, obs)
    gains = objective_gain(objective, points)
    anchors = solver._anchor_shifts(constraints, rows, objective, obs, points, log_lik)
    windows = (solver._make_window(rows, points, log_lik, a, gains) for a in reversed(anchors))
    return [w for w in windows if w is not None]


class TestWindowBisection:
    """One bracket loop serves both directions. It must run the sign tests
    of the loop per direction, cost for cost, except those at levels no
    live column can beat, and return its masses byte for byte."""

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
        """Returns the reference's case, its sign tests passed past a failed
        probe, and how many of its sign tests the window search skips."""
        costs.clear()
        want, case, late_passes, tests = _reference_window_masses(window, maximize)
        # on these windows the LP reads every level at or past the best
        # live gain as not beaten, so the window search, which runs no sign
        # test there, must end where the reference does
        assert not any(past and beaten for past, beaten in tests)
        lead = len(costs) - len(tests)  # the densest-vertex LP, if it ran
        reference_costs = costs[:lead] + [
            cost for cost, (past, _) in zip(costs[lead:], tests) if not past
        ]
        costs.clear()
        got = solver._window_masses(
            window, maximize, grid_feasibility(window.rows, window.keep.size)
        )
        assert costs == reference_costs
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()
        return case, late_passes, sum(past for past, _ in tests)

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
        skipped = 0
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
                case, _, skips = self._assert_matches_reference(window, maximize, costs)
                cases[maximize, case] += 1
                skipped += skips
        for maximize in (True, False):
            assert cases[maximize, self.SHIFTS[shift]] > 0, cases
        assert skipped > 0

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

    def test_window_without_a_proposal_still_bisects(self, monkeypatch):
        # the ratio LP reads this window as unbounded, which only roundoff
        # can make it; the window's candidate was once dropped for that
        constraints = (
            PerfectionConfidence(0.1677117377546238),
            PriorReliability(3679, 0.5255469533719609),
        )
        obs, objective = Observation(780, 51), PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, 500)
        points = grid.as_array()
        window = solver._make_window(
            constraint_rows(constraints, points),
            points,
            log_likelihood_vector(points, obs),
            -188.39601901618036,
            objective_gain(objective, points),
        )
        costs = self._record_sign_tests(monkeypatch)
        case, _, _ = self._assert_matches_reference(window, True, costs)
        assert case == "no proposal"
        masses = solver._window_masses(
            window, True, grid_feasibility(window.rows, window.keep.size)
        )
        support, carried = admitted_row(constraint_rows(constraints, points), masses)
        witness = carried_prior(points, support, carried)
        assert witness.satisfies_all(constraints)
        assert witness.support == pytest.approx((0.0, 1e-12, 0.12484), rel=1e-9)
        assert posterior_value(witness, obs, objective) == pytest.approx(0.12484, rel=1e-9)
        assert solve(constraints, obs, objective, grid).bound == 0.6665717117840831

    def test_no_sign_test_past_every_live_gain(self):
        # FutureReliability(0) scores every prior 1, so no level at or below
        # 1 is beaten. Run anyway, the sign tests there read values down to
        # -5e-10 through phase-1 roundoff; the bisection took their masses,
        # which ``rows_admit`` refuses, and ``solve`` raised
        # ZeroEvidenceError, though a point mass beside pfd 1e-12 is admitted
        constraints = (
            ConfidenceBound(1e-12, 1e-9),
            PriorReliability(1000, 1e-9),
            MeanBound(0.5),
            PerfectionConfidence(0.0),
        )
        objective = FutureReliability(0)
        grid = build_grid(constraints, objective, 50)
        result = solve(constraints, Observation(10_000, 0), objective, grid)
        assert result.bound == 1.0
        assert result.witness.satisfies_all(constraints)


class TestSharedPhaseOne:
    """Windows that keep the same columns share one sign-test phase 1."""

    #: solve-mix seed-5 input ``s364``: five windows over three kept sets,
    #: the first two and the last two alike; the last two keep the whole grid
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
        new_set = _kept_sets(windows)
        assert new_set == [True, False, True, True, False]
        size = len(build_grid(constraints, objective, 500))
        assert [w.keep.size == size for w in windows] == [False, False, False, True, True]
        phase_ones = 0
        per_window = []
        phase_one, window_masses = simplex._phase_one, solver._window_masses

        def counting_phase_one(*args):
            nonlocal phase_ones
            phase_ones += 1
            return phase_one(*args)

        seen = 1  # the whole-grid gate's, run before the first window

        def counting_window_masses(*args):
            # a window's phase 1 runs before its call, so each window counts
            # the runs since the previous window's call ended
            nonlocal seen
            masses = window_masses(*args)
            per_window.append(phase_ones - seen)
            seen = phase_ones
            return masses

        monkeypatch.setattr(simplex, "_phase_one", counting_phase_one)
        monkeypatch.setattr(solver, "_window_masses", counting_window_masses)
        solve(constraints, obs, objective, build_grid(constraints, objective, 500))
        # one phase 1 per solve for each kept set, the gate's included: the
        # windows that keep the whole grid reuse the gate's
        assert phase_ones == sum(new_set) == 3
        assert per_window == [1, 0, 1, 0, 0]

    def test_masses_match_a_fresh_phase_one(self, monkeypatch):
        constraints, obs, objective = self.INSTANCE
        seen = []
        window_masses = solver._window_masses

        def recording_window_masses(window, maximize, vertex):
            masses = window_masses(window, maximize, vertex)
            seen.append((window, maximize, masses))
            return masses

        monkeypatch.setattr(solver, "_window_masses", recording_window_masses)
        solve(constraints, obs, objective, build_grid(constraints, objective, 500))
        assert len(seen) == 5
        for window, maximize, masses in seen:
            # its own phase 1, with nothing recorded from earlier sign tests
            fresh = window_masses(
                window, maximize, grid_feasibility(window.rows, window.keep.size)
            )
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


def _reference_anchor_shifts(constraints, rows, objective, obs, points, log_lik, feas_witness=None):
    """The anchors read from the constraint classes; with ``feas_witness``,
    also at that prior's support, as the solver once placed them."""
    finite_mask = np.isfinite(log_lik)
    if not finite_mask.any():
        return []
    anchors = [float(log_lik[finite_mask].max())]
    anchors.extend(
        float(log_likelihood_vector(np.array([p]), obs)[0])
        for p in _reference_threshold_points(constraints, objective)
    )
    singles = _reference_singleton_feasible(constraints, points) & finite_mask
    if singles.any():
        anchors.append(float(log_lik[singles].min()))
    if feas_witness is not None:
        anchors.extend(
            float(log_likelihood_vector(np.array([p]), obs)[0]) for p in feas_witness.support
        )
    deepest = solver._deepest_dominant_level(rows, log_lik)
    if deepest is not None:
        anchors.append(deepest)
    anchors = [a for a in anchors if math.isfinite(a)]
    selected = []
    for a in sorted(set(anchors), reverse=True):
        if not selected or selected[-1] - a > 1e-9:
            selected.append(a)
    return selected


def _reference_max_mean_prior(points, rows):
    """The max-mean prior as the solver once found it, before its anchors
    were dropped: an ``A x <= b`` program, equalities relaxed by
    ±``EQUALITY_SLACK``. ``check_feasible``'s witness solves the same
    program in homogeneous form; where the maximum mean is attained on a
    face, it can stop at another vertex of it."""
    a_ub, b_ub = [], []
    for row in rows:
        if row.sense == "eq":
            a_ub += [row.coeffs, -row.coeffs]
            b_ub += [row.rhs + EQUALITY_SLACK, -(row.rhs - EQUALITY_SLACK)]
        else:
            a_ub.append(row.coeffs)
            b_ub.append(row.rhs)
    result = simplex.solve_lp(
        points,
        a_ub=np.vstack(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if a_ub else None,
        a_eq=np.ones((1, points.size)),
        b_eq=np.ones(1),
        maximize=True,
    )
    if result.status != "optimal":
        return None
    # what ``drop_roundoff`` leaves, unjudged, as the deleted
    # ``priors.prior_from_masses`` built it
    (cleaned,), (kept,) = drop_roundoff(result.x[None])
    return carried_prior(points, np.arange(points.size), cleaned) if kept else None


class TestMaxMeanAnchors:
    """The max-mean prior's support was once a set of anchors as well. The
    threshold anchors sit where that prior puts its atoms, so adding its
    support back must move no solve."""

    def test_solve_unchanged_without_max_mean_support(self, monkeypatch):
        rng = random.Random(37)
        # a mean bound beside a confidence bound puts that prior's free mass
        # on an interior grid point, which no other anchor names
        both = [s for s in _KIND_SETS if {"mean", "confidence"} <= set(s)]
        instances = []
        for i in range(200):
            kinds = rng.choice(both if i % 4 == 0 else _KIND_SETS[1:])
            constraints = [_random_constraint(rng, kind) for kind in kinds]
            n = int(10 ** rng.uniform(1, 7))
            obs = Observation(n, 0 if i % 2 == 0 else rng.randint(1, min(n, 60)))
            objective = rng.choice(
                [
                    PosteriorExpectedPfd(),
                    PosteriorConfidence(10 ** rng.uniform(-6, -1)),
                    FutureReliability(rng.randint(1, 10**5)),
                ]
            )
            grid = build_grid(constraints, objective, rng.choice((100, 300)))
            instances.append((constraints, obs, objective, grid))

        def outcome(instance):
            try:
                return solve(*instance).to_dict()
            except ZeroEvidenceError:
                return "zero-evidence"

        want = [outcome(instance) for instance in instances]
        anchor_shifts = solver._anchor_shifts
        added = 0

        def with_max_mean_support(constraints, rows, objective, obs, points, log_lik):
            nonlocal added
            anchors = _reference_anchor_shifts(
                constraints, rows, objective, obs, points, log_lik,
                _reference_max_mean_prior(points, rows),
            )
            added += anchors != list(
                anchor_shifts(constraints, rows, objective, obs, points, log_lik)
            )
            return anchors

        monkeypatch.setattr(solver, "_anchor_shifts", with_max_mean_support)
        assert [outcome(instance) for instance in instances] == want
        # the support adds anchors to only a few instances (3 of these 200)
        assert added >= 3


class TestAnchorGuards:
    """Bounds that a single anchor source alone finds: without that source,
    ``solve`` reads the lower number in each comment, on the optimistic side."""

    @pytest.mark.parametrize(
        "constraints, obs, resolution, bound",
        [
            # the deepest single-atom placement; 0.01 without it
            ([PriorReliability(10, 1e-9)], Observation(1000, 0), 200, 0.8713),
            # the same, on an off-grid reliability boundary (ROADMAP Open
            # item 1); 4.6e-7 without it
            ([PriorReliability(1000, 1e-9)], Observation(10**7, 0), 2000, 0.0199),
            # the reliability boundary 1 - gamma**(1/n0) among the
            # thresholds; 0.9802 without it
            ([PriorReliability(10, 0.9)], Observation(10, 3), 200, 0.9901),
        ],
    )
    def test_bound_needs_its_anchor(self, constraints, obs, resolution, bound):
        objective = PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, resolution)
        result = solve(constraints, obs, objective, grid)
        assert result.bound == pytest.approx(bound, rel=1e-9)
        assert result.witness.satisfies_all(constraints)


class TestAnchorList:
    """``_anchor_shifts`` is one descending list, each anchor more than 1e-9
    below the last. Each source's anchor is in it, or lies at most 1e-9
    below one that is, and every anchor is some source's."""

    @staticmethod
    def _instances(rng, count):
        objectives = [PosteriorExpectedPfd(), PosteriorConfidence(1e-4), FutureReliability(1000)]
        for i in range(count):
            n = int(10 ** rng.uniform(1, 7))
            k = rng.choice((0, rng.randint(1, min(60, n)), n))
            kinds = rng.choice(_KIND_SETS)
            constraints = [_random_constraint(rng, kind) for kind in kinds]
            if i % 4 == 0 and 0 < k < n:
                # a reliability boundary just off the likeliest pfd k/n, which
                # no grid point hits, so its anchor lies above the grid maximum
                n0 = rng.choice((1, 10, 1000))
                constraints.append(PriorReliability(n0, (1.0 - k / n * 1.001) ** n0))
            if i % 9 == 0:
                # every prior's mass sits at pfd 0, so the deepest level is the
                # grid maximum when no demand failed
                constraints.append(PerfectionConfidence(1.0))
            objective = rng.choice(objectives)
            points = build_grid(constraints, objective, rng.choice((12, 200, 2000))).as_array()
            yield constraints, objective, Observation(n, k), points

    def test_anchors_cover_every_source(self):
        rng = random.Random(25)
        above, deepest_at_top, inputs = 0, 0, 0
        for constraints, objective, obs, points in self._instances(rng, 240):
            rows = constraint_rows(constraints, points)
            log_lik = log_likelihood_vector(points, obs)
            anchors = solver._anchor_shifts(constraints, rows, objective, obs, points, log_lik)
            inputs += 1
            finite = np.isfinite(log_lik)
            if not finite.any():
                assert anchors == []
                continue
            top = float(log_lik[finite].max())
            thresholds = np.array(threshold_points(constraints, objective), dtype=float)
            sources = [top, *log_likelihood_vector(thresholds, obs).tolist()]
            singles = solver._singleton_feasible(rows, points.size) & finite
            if singles.any():
                sources.append(float(log_lik[singles].min()))
            level = solver._deepest_dominant_level(rows, log_lik)
            sources.append(level)
            sources = [a for a in sources if math.isfinite(a)]
            assert all(a - b > 1e-9 for a, b in zip(anchors, anchors[1:])), anchors
            assert set(anchors) <= set(sources)
            for source in sources:
                assert any(0.0 <= a - source <= 1e-9 for a in anchors), (source, anchors)
            above += anchors[0] > top
            deepest_at_top += level == top
        assert inputs >= 200
        assert above > 0 and deepest_at_top > 0, (above, deepest_at_top)


def test_ratio_lp_never_undercuts_an_admissible_point_mass():
    # The point mass at 1e-9 is admissible and scores exactly 1e-9. A ratio
    # LP whose scaled rows read (coeffs - rhs - delta) / lik, instead of
    # coeffs / lik - rhs / lik - delta / lik, reads 0.0 here.
    constraints = [ConfidenceBound(0.5, 1.0), MeanBound(1e-9)]
    objective = PosteriorExpectedPfd()
    obs = Observation(10**9, 0)
    point_mass = PriorDistribution.point_mass(1e-9)
    assert point_mass.satisfies_all(constraints)
    assert posterior_value(point_mass, obs, objective) == 1e-9
    assert solve(constraints, obs, objective, build_grid(constraints, objective, 50)).bound >= 1e-9


def _three_sense_rows(constraints, rows):
    """``rows`` in the older form, where prior reliability was the ``"ge"``
    row E[(1-pfd)**n0] >= gamma; negation is exact, so this is that row."""
    return [
        ConstraintRow(-r.coeffs, "ge", -r.rhs) if isinstance(c, PriorReliability) else r
        for c, r in zip(constraints, rows)
    ]


def _reference_homogeneous_ub(rows, scale=None):
    """The homogeneous rows as the solver built them before ``priors`` did,
    from rows in the three-sense form."""
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
            n = rng.choice((10, 1000, 10**6))
            for k in (0, rng.randint(1, min(30, n - 1)), n):
                obs = Observation(n, k)
                log_lik = log_likelihood_vector(points, obs)
                args = (constraints, rows, objective, obs, points, log_lik)
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
                old_rows = _three_sense_rows(constraints, window.rows)
                got, want = homogeneous_ub(window.rows), _reference_homogeneous_ub(old_rows)
                assert got.tobytes() == want.tobytes()
                got = homogeneous_ub(window.rows, scale=scale)
                want = _reference_homogeneous_ub(old_rows, scale=scale)
                assert got.tobytes() == want.tobytes()
                windows += 1
        assert windows > 20
        assert homogeneous_ub([]) is None
