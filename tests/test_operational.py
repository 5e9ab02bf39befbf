import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbound.errors import ParseError, SamplingFailureError
from relbound import operational
from relbound.inference import FutureReliability, Observation, PosteriorExpectedPfd, posterior_value
from relbound.operational import (
    DemandLog,
    _seed_support,
    check_conservatism,
    ingest,
    load_demand_log,
    sample_feasible_prior,
    save_demand_log,
    simulate_demands,
)
from relbound.priors import (
    ConfidenceBound,
    MeanBound,
    PerfectionConfidence,
    PriorReliability,
    build_grid,
    constraint_rows,
)
from relbound.solver import _masses_admissible, feasible_vertices, solve


class TestIngest:
    def test_empty_log(self):
        assert ingest(DemandLog(())) == Observation(0, 0)

    def test_all_passes(self):
        log = DemandLog(tuple((i, "pass") for i in range(1, 11)))
        assert ingest(log) == Observation(10, 0)

    def test_interleaved_failures(self):
        outcomes = ["pass"] * 4 + ["fail"] + ["pass"] * 4 + ["fail"]
        log = DemandLog(tuple(enumerate(outcomes)))
        assert ingest(log) == Observation(10, 2)

    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            DemandLog(((2, "pass"), (1, "pass")))

    def test_prefix_plus_suffix_counts_add(self):
        outcomes = ["pass", "fail", "pass", "fail", "pass"]
        full = DemandLog(tuple(enumerate(outcomes)))
        head = DemandLog(tuple(enumerate(outcomes[:2])))
        tail = DemandLog(tuple(enumerate(outcomes[2:], start=2)))
        assert ingest(full).n == ingest(head).n + ingest(tail).n
        assert ingest(full).k == ingest(head).k + ingest(tail).k


class TestLogIo:
    def test_roundtrip(self, tmp_path):
        log = simulate_demands(0.3, 25, seed=5)
        path = tmp_path / "log.csv"
        save_demand_log(log, str(path))
        assert load_demand_log(str(path)) == log

    def test_bad_outcome_token_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("index,outcome\n1,pass\n2,ok\n")
        with pytest.raises(ParseError, match=":3"):
            load_demand_log(str(path))


class TestSimulate:
    def test_zero_pfd_never_fails(self):
        log = simulate_demands(0.0, 200, seed=1)
        assert ingest(log) == Observation(200, 0)

    def test_unit_pfd_always_fails(self):
        log = simulate_demands(1.0, 200, seed=1)
        assert ingest(log) == Observation(200, 200)

    def test_reproducible_per_seed(self):
        assert simulate_demands(0.2, 100, seed=9) == simulate_demands(0.2, 100, seed=9)
        assert simulate_demands(0.2, 100, seed=9) != simulate_demands(0.2, 100, seed=10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_failure_fraction_within_three_sigma(self, seed):
        n = 100_000
        log = simulate_demands(0.1, n, seed=seed)
        sigma = (0.1 * 0.9 / n) ** 0.5
        assert ingest(log).k / n == pytest.approx(0.1, abs=5 * sigma)

    @given(st.floats(0.0, 1.0), st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_demand_count_preserved(self, pfd, n, seed):
        assert ingest(simulate_demands(pfd, n, seed)).n == n


class TestSampler:
    def test_unique_feasible_prior(self):
        constraints = [PerfectionConfidence(1.0)]
        grid = build_grid(constraints, resolution=50)
        for seed in range(5):
            prior = sample_feasible_prior(constraints, grid, seed)
            assert prior.support == (0.0,)

    def test_confidence_bound_mass_exact(self):
        constraints = [ConfidenceBound(0.1, 0.9)]
        grid = build_grid(constraints, resolution=100)
        for seed in range(20):
            prior = sample_feasible_prior(constraints, grid, seed)
            assert prior.prob_at_most(0.1) == pytest.approx(0.9, abs=1e-9)

    def test_two_constraint_recheck(self):
        constraints = [ConfidenceBound(0.01, 0.6), MeanBound(0.2)]
        grid = build_grid(constraints, resolution=100)
        for seed in range(100):
            prior = sample_feasible_prior(constraints, grid, seed)
            assert prior.satisfies_all(constraints)

    def test_samples_vary(self):
        constraints = [MeanBound(0.3)]
        grid = build_grid(constraints, resolution=100)
        supports = {sample_feasible_prior(constraints, grid, s).support for s in range(10)}
        assert len(supports) > 1

    def test_infeasible_set_exhausts_retries(self):
        constraints = [ConfidenceBound(0.1, 0.9), MeanBound(0.005)]
        grid = build_grid(constraints, resolution=100)
        with pytest.raises(SamplingFailureError):
            sample_feasible_prior(constraints, grid, 0, max_attempts=20)


class TestConservatism:
    def test_unique_prior_margin_zero(self):
        constraints = [PerfectionConfidence(1.0)]
        grid = build_grid(constraints, resolution=50)
        report = check_conservatism(
            constraints, Observation(50, 0), FutureReliability(10), 30, seed=4, grid=grid
        )
        assert report.violations == 0
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_single_confidence_bound_audit_clean(self):
        constraints = [ConfidenceBound(0.01, 0.8)]
        grid = build_grid(constraints, FutureReliability(50), resolution=100)
        report = check_conservatism(
            constraints, Observation(500, 0), FutureReliability(50), 200, seed=11, grid=grid
        )
        assert report.trials == 200
        assert report.violations == 0
        assert report.worst_margin >= -1e-9

    def test_corrupted_bound_is_caught(self):
        constraints = [PerfectionConfidence(1.0)]
        grid = build_grid(constraints, resolution=50)
        objective = FutureReliability(10)
        obs = Observation(50, 0)
        honest = solve(constraints, obs, objective, grid).bound
        # minimisation objective: raising the reported bound is anti-conservative
        report = check_conservatism(
            constraints, obs, objective, 20, seed=4, grid=grid, bound=honest + 0.01
        )
        assert report.violations > 0

    def test_margins_match_direct_recomputation(self):
        constraints = [MeanBound(0.1)]
        objective = FutureReliability(20)
        obs = Observation(100, 0)
        grid = build_grid(constraints, objective, resolution=80)
        bound = solve(constraints, obs, objective, grid).bound
        report = check_conservatism(constraints, obs, objective, 5, seed=2, grid=grid)
        for record in report.records:
            assert record.error is None
            assert record.margin >= -1e-9
        assert report.worst_margin == min(r.margin for r in report.records)

    def test_report_serialises(self):
        constraints = [PerfectionConfidence(1.0)]
        grid = build_grid(constraints, resolution=50)
        report = check_conservatism(
            constraints, Observation(10, 0), FutureReliability(5), 3, seed=0, grid=grid
        )
        doc = report.to_dict()
        assert doc["trials"] == 3
        assert len(doc["records"]) == 3


def _reference_feasible_vertices(constraints, points, support):
    """The one-system-at-a-time enumeration that ``feasible_vertices``
    batches; it must return the same list, in the same order, bit for bit."""
    sub = np.asarray(points, dtype=float)[np.asarray(support, dtype=np.intp)]
    rows = constraint_rows(constraints, sub)
    eq_rows = [r for r in rows if r.sense == "eq"]
    ineq_rows = [r for r in rows if r.sense != "eq"]
    m = sub.size
    base_mat = [np.ones(m)] + [r.coeffs for r in eq_rows]
    base_rhs = [1.0] + [r.rhs for r in eq_rows]
    vertices = []
    free = m - 1 - len(eq_rows)

    if free < 0:
        mat = np.vstack(base_mat)
        rhs = np.array(base_rhs)
        x, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if np.max(np.abs(mat @ x - rhs)) <= 1e-9 and _masses_admissible(x, ineq_rows):
            vertices.append(np.maximum(x, 0.0))
        return vertices

    for n_tight in range(min(len(ineq_rows), free) + 1):
        n_zero = free - n_tight
        for tight in itertools.combinations(range(len(ineq_rows)), n_tight):
            for zeros in itertools.combinations(range(m), n_zero):
                mats = list(base_mat) + [ineq_rows[t].coeffs for t in tight]
                rhs = list(base_rhs) + [ineq_rows[t].rhs for t in tight]
                for j in zeros:
                    unit = np.zeros(m)
                    unit[j] = 1.0
                    mats.append(unit)
                    rhs.append(0.0)
                mat = np.vstack(mats)
                with np.errstate(divide="ignore", invalid="ignore"):
                    det = np.linalg.det(mat)
                if abs(det) < 1e-12:
                    continue
                x = np.linalg.solve(mat, np.array(rhs))
                if _masses_admissible(x, ineq_rows):
                    vertices.append(np.maximum(x, 0.0))
    return vertices


def _assert_same_vertices(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _random_constraints(rng, kinds):
    """A constraint set of the given kinds that a real prior satisfies."""
    eps = float(10 ** rng.uniform(-5, -2))
    theta_zero = float(rng.uniform(0.0, 0.5))
    out = []
    for kind in kinds:
        if kind == "mean":
            out.append(MeanBound(float(10 ** rng.uniform(-2.5, -0.5))))
        elif kind == "confidence":
            out.append(ConfidenceBound(eps, float(rng.uniform(theta_zero, 0.95))))
        elif kind == "perfection":
            out.append(PerfectionConfidence(theta_zero))
        else:
            out.append(PriorReliability(int(10 ** rng.uniform(1, 4)), float(rng.uniform(0.05, 0.6))))
    return tuple(out)


_KINDS = ("mean", "confidence", "perfection", "reliability")
_KIND_SETS = [
    kinds for size in range(1, len(_KINDS) + 1) for kinds in itertools.combinations(_KINDS, size)
]


class TestFeasibleVertices:
    @pytest.mark.parametrize("kinds", _KIND_SETS, ids="+".join)
    def test_matches_reference_on_random_supports(self, kinds):
        rng = np.random.default_rng(_KIND_SETS.index(kinds))
        found = 0
        for _ in range(40):
            constraints = _random_constraints(rng, kinds)
            points = build_grid(constraints, resolution=150).as_array()
            size = len(constraints) + 1 + int(rng.integers(0, 3))
            support = _seed_support(constraints, points, rng, size)
            got = feasible_vertices(constraints, points, support)
            _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, support))
            found += len(got)
        assert found > 0

    def test_more_equalities_than_freedoms(self):
        # free < 0: two equalities on a two-point support go through lstsq
        constraints = (ConfidenceBound(0.01, 0.4), PerfectionConfidence(0.4))
        points = np.array([0.0, 0.5])
        for support in (np.arange(2), np.array([1])):
            got = feasible_vertices(constraints, points, support)
            _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, support))
        assert len(feasible_vertices(constraints, points, np.arange(2))) == 1

    def test_no_freedom_left(self):
        # free == 0: the equalities alone fix the masses
        constraints = (ConfidenceBound(0.01, 0.3),)
        points = np.array([0.001, 0.2])
        got = feasible_vertices(constraints, points, np.arange(2))
        _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, np.arange(2)))
        assert len(got) == 1 and got[0] == pytest.approx([0.3, 0.7])

    def test_no_inequality_rows(self):
        constraints = (PerfectionConfidence(0.2), ConfidenceBound(0.01, 0.5))
        points = np.array([0.0, 0.001, 0.005, 0.1, 0.4])
        got = feasible_vertices(constraints, points, np.arange(5))
        _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, np.arange(5)))
        assert len(got) == 4

    def test_all_systems_singular(self):
        # every support point sits below epsilon, so the confidence row
        # repeats the normalisation row in the only vertex system
        constraints = (ConfidenceBound(0.5, 0.3),)
        points = np.array([0.1, 0.2])
        assert feasible_vertices(constraints, points, np.arange(2)) == []
        assert _reference_feasible_vertices(constraints, points, np.arange(2)) == []

    def test_small_determinant_still_solved(self):
        # the last vertex's system has determinant 1e-10, above the 1e-12 cut
        constraints = (MeanBound(1.5e-10),)
        points = np.array([1e-10, 2e-10, 0.5])
        got = feasible_vertices(constraints, points, np.arange(3))
        _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, np.arange(3)))
        assert len(got) == 4
        assert got[-1] == pytest.approx([0.5, 0.5, 0.0])

    def test_singular_determinant_raises_no_warning(self):
        constraints = (
            MeanBound(0.009768574983984753),
            ConfidenceBound(0.000224525093908702, 0.7496192538156361),
            PriorReliability(6617, 0.4780106661052863),
        )
        points = np.array([2.442168083044748e-06, 0.009682153059967075, 0.10603, 0.35848, 0.51589])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = feasible_vertices(constraints, points, np.arange(5))
        assert len(got) == 4
        _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, np.arange(5)))

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_audit_report_unchanged_with_reference(self, seed, monkeypatch):
        constraints = (
            MeanBound(0.01),
            ConfidenceBound(1e-3, 0.6),
            PerfectionConfidence(0.2),
            PriorReliability(1000, 0.5),
        )
        objective = PosteriorExpectedPfd()
        obs = Observation(2000, 1)
        grid = build_grid(constraints, objective, resolution=300)
        args = (constraints, obs, objective, 15, seed, grid)
        batched = check_conservatism(*args).to_dict()
        monkeypatch.setattr(operational, "feasible_vertices", _reference_feasible_vertices)
        assert check_conservatism(*args).to_dict() == batched
        assert any(r["margin"] is not None for r in batched["records"])
