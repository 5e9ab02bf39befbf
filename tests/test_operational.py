import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_admission import reference_satisfies_all

from relbound.errors import (
    InfeasibleConstraintsError,
    ParseError,
    SamplingFailureError,
    ZeroEvidenceError,
)
from relbound import operational
from relbound.inference import (
    CONSERVATIVE_MAX,
    FutureReliability,
    Observation,
    PosteriorConfidence,
    PosteriorExpectedPfd,
    posterior_value,
)
from relbound.operational import (
    DemandLog,
    _seed_support,
    check_conservatism,
    ingest,
    load_demand_log,
    sample_feasible_masses,
    sample_feasible_prior,
    sample_feasible_priors,
    save_demand_log,
    simulate_demands,
)
from relbound.priors import (
    ConfidenceBound,
    ConstraintRow,
    MeanBound,
    PerfectionConfidence,
    PfdGrid,
    PriorDistribution,
    PriorReliability,
    build_grid,
    carried_prior,
    constraint_rows,
    drop_roundoff,
    equality_cuts,
    rows_admit,
)
from relbound.seeding import entropy_words
from relbound.solver import feasible_vertices, solve


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

    def test_outcome_must_be_pass_or_fail(self):
        with pytest.raises(ValueError, match="record 2: outcome must be pass or fail"):
            DemandLog(((1, "pass"), (2, "ok")))

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

    def test_blank_line_between_records_is_skipped(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("index,outcome\n1,pass\n\n2,fail\n")
        assert ingest(load_demand_log(str(path))) == Observation(n=2, k=1)

    def test_extra_field_reports_line_and_count(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("index,outcome\n1,pass\n2,fail,late\n")
        with pytest.raises(ParseError) as err:
            load_demand_log(str(path))
        assert str(err.value) == f"{path}:3: expected 2 fields, got 3"


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

    def test_integral_float_count(self):
        assert simulate_demands(0.1, 2.0, 0) == simulate_demands(0.1, 2, 0)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (-5, 0, "n must be at least 0, got -5"),
            (2.5, 0, "n must be an integer count"),
            (5, -1, "seed must be at least 0, got -1"),
            (5, True, "seed must be an integer count"),
        ],
    )
    def test_counts_checked(self, n, seed, message):
        with pytest.raises(ValueError, match=message):
            simulate_demands(0.1, n, seed)

    @pytest.mark.parametrize("true_pfd", [-0.1, 1.5, float("nan")])
    def test_true_pfd_checked(self, true_pfd):
        with pytest.raises(ValueError) as err:
            simulate_demands(true_pfd, 5, 0)
        assert str(err.value) == f"true_pfd must lie in [0, 1], got {true_pfd!r}"

    @pytest.mark.parametrize("seed", [0, 42, 2**40])
    def test_stream_is_seed_sequence_pcg64(self, seed):
        n, pfd = 500, 0.3
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        fails = rng.random(n) < pfd
        want = tuple((i + 1, "fail" if fails[i] else "pass") for i in range(n))
        assert simulate_demands(pfd, n, seed).records == want


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

    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, "seed must be an integer count, got True"),
            (-1, "seed must be at least 0, got -1"),
            (2.5, "seed must be an integer count, got 2.5"),
            ("3", "seed must be an integer count, got '3'"),
        ],
    )
    def test_seed_must_be_a_count(self, seed, message):
        constraints = [MeanBound(0.3)]
        grid = build_grid(constraints, resolution=50)
        with pytest.raises(ValueError, match=message):
            sample_feasible_prior(constraints, grid, seed)
        # checked before any block runs, and wherever the seed sits
        for sample in (sample_feasible_priors, sample_feasible_masses):
            with pytest.raises(ValueError, match=message):
                sample(constraints, grid, [0] * 150 + [seed])

    @pytest.mark.parametrize(
        "max_attempts, message",
        [
            (0, "max_attempts must be at least 1, got 0"),
            (True, "max_attempts must be an integer count, got True"),
            (1.5, "max_attempts must be an integer count, got 1.5"),
        ],
    )
    def test_max_attempts_must_be_a_count(self, max_attempts, message):
        constraints = [MeanBound(0.3)]
        grid = build_grid(constraints, resolution=50)
        with pytest.raises(ValueError, match=message):
            sample_feasible_priors(constraints, grid, [0], max_attempts)

    def test_integral_float_counts(self):
        constraints = [MeanBound(0.3)]
        grid = build_grid(constraints, resolution=50)
        assert sample_feasible_prior(constraints, grid, 2.0, 20.0) == sample_feasible_prior(
            constraints, grid, 2, 20
        )
        with pytest.raises(SamplingFailureError, match="found in 3 attempts"):
            sample_feasible_prior([ConfidenceBound(0.1, 0.9), MeanBound(0.005)], grid, 0, 3.0)


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

    def test_repeated_equality_constraint_samples(self):
        # stacked twice, the equality row would leave every square vertex
        # system singular, and every trial would fail to sample
        constraints = [PerfectionConfidence(0.5)] * 2
        objective = PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, resolution=200)
        report = check_conservatism(constraints, Observation(100, 1), objective, 10, 1, grid)
        assert all(r.error is None for r in report.records)
        priors = list(sample_feasible_priors(constraints, grid, range(10)))
        assert all(p is not None and p.satisfies_all(constraints) for p in priors)

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

    def test_no_margin_gives_none(self, monkeypatch):
        def failing_sampler(constraints, grid, seeds, max_attempts=operational.MAX_ATTEMPTS):
            yield np.zeros((len(seeds), 1), dtype=np.intp), np.zeros((len(seeds), 1))

        monkeypatch.setattr(operational, "sample_feasible_masses", failing_sampler)
        constraints = [MeanBound(0.1)]
        grid = build_grid(constraints, resolution=50)
        report = check_conservatism(
            constraints, Observation(10, 0), FutureReliability(5), 3, seed=0, grid=grid
        )
        assert report.violations == 0
        assert report.worst_margin is None
        assert all(r.margin is None and r.error for r in report.records)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_bound_refused(self, bound):
        # a NaN bound would report no violation and a NaN worst margin
        constraints = [MeanBound(0.1)]
        grid = build_grid(constraints, resolution=50)
        with pytest.raises(ValueError, match="bound must be a finite number"):
            check_conservatism(
                constraints, Observation(10, 0), FutureReliability(5), 3, 0, grid, bound=bound
            )

    def test_infeasible_set_refused(self):
        # the confidence bound leaves 0.1 of the mass above pfd 0.1, so the
        # prior mean exceeds 0.01
        constraints = [ConfidenceBound(0.1, 0.9), MeanBound(0.005)]
        grid = build_grid(constraints, resolution=100)
        with pytest.raises(InfeasibleConstraintsError, match="cannot audit an infeasible"):
            check_conservatism(constraints, Observation(10, 0), PosteriorExpectedPfd(), 3, 0, grid)

    @pytest.mark.parametrize("trials", [True, 2.5, "3"])
    def test_trials_must_be_a_count(self, trials):
        constraints = [MeanBound(0.1)]
        grid = build_grid(constraints, resolution=50)
        with pytest.raises(ValueError, match="trials must be an integer count"):
            check_conservatism(constraints, Observation(10, 0), FutureReliability(5), trials, 0, grid)

    @pytest.mark.parametrize(
        "seed, message",
        [(True, "seed must be an integer count"), (-1, "seed must be at least 0, got -1")],
    )
    def test_seed_must_be_a_count(self, seed, message):
        constraints = [MeanBound(0.1)]
        grid = build_grid(constraints, resolution=50)
        with pytest.raises(ValueError, match=message):
            check_conservatism(constraints, Observation(10, 0), FutureReliability(5), 3, seed, grid)

    def test_integral_float_trials_reported_as_int(self):
        constraints = [MeanBound(0.1)]
        grid = build_grid(constraints, resolution=50)
        report = check_conservatism(constraints, Observation(10, 0), FutureReliability(5), 2.0, 0, grid)
        assert report.to_dict()["trials"] == 2 and type(report.trials) is int

    def test_report_serialises(self):
        constraints = [PerfectionConfidence(1.0)]
        grid = build_grid(constraints, resolution=50)
        report = check_conservatism(
            constraints, Observation(10, 0), FutureReliability(5), 3, seed=0, grid=grid
        )
        doc = report.to_dict()
        assert doc["trials"] == 3
        assert len(doc["records"]) == 3


def _masses_admissible(x, ineq_rows):
    if np.any(x < -1e-10):
        return False
    return all(float(row.coeffs @ x) <= row.rhs + 1e-9 for row in ineq_rows)


def _reference_feasible_vertices(constraints, points, support, exact_support=False):
    """The one-system-at-a-time enumeration that ``feasible_vertices``
    batches; it must return the same list, in the same order, bit for bit.
    An ``"eq"`` row equal over the whole grid to an earlier one is dropped,
    and ``exact_support`` drops every system with a zero-mass row."""
    support = np.asarray(support, dtype=np.intp)
    rows = constraint_rows(constraints, np.asarray(points, dtype=float))
    eq_rows = []
    for row in rows:
        if row.sense == "eq" and not any(
            np.array_equal(row.coeffs, r.coeffs) and row.rhs == r.rhs for r in eq_rows
        ):
            eq_rows.append(row)
    ineq_rows = [ConstraintRow(r.coeffs[support], r.sense, r.rhs) for r in rows if r.sense != "eq"]
    m = support.size
    base_mat = [np.ones(m)] + [r.coeffs[support] for r in eq_rows]
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
        if exact_support and n_zero:
            continue
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


def _vertex_list(rows, support, exact_support=False):
    """``feasible_vertices`` on the one support, as a list of mass vectors."""
    masses, owners = feasible_vertices(rows, np.asarray(support)[None], exact_support)
    assert masses.shape == (owners.size, np.size(support)) and not owners.any()
    return list(masses)


def _as_batch(found, m):
    """Per-support vertex lists as ``feasible_vertices`` returns them."""
    owners = np.array([i for i, vertices in enumerate(found) for _ in vertices], dtype=np.intp)
    return np.array([v for vertices in found for v in vertices]).reshape(-1, m), owners


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


def _reference_seed_support(constraints, points, rng, size):
    """``_seed_support`` as it read each equality kind on its own, drawing
    with ``choice`` from index arrays; it must draw the same indices and
    leave the generator in the same state."""
    n_pts = points.size
    required = set()
    for constraint in constraints:
        if isinstance(constraint, PerfectionConfidence):
            if constraint.theta > 0.0:
                required.add(0)
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


class TestSeedSupport:
    @pytest.mark.parametrize("n_points", [2, 3, 12, 150, 2000, 8000])
    def test_matches_reference(self, n_points):
        points = build_grid((), resolution=n_points).as_array()
        mid = points.size // 2
        epsilons = (
            points[1] / 2.0,  # below the first positive point
            points[mid],  # on a grid point
            (points[mid - 1] + points[mid]) / 2.0,  # between two points
            1.0,
        )
        cases = 0
        for theta in (0.0, 0.3, 1.0):
            for epsilon in epsilons:
                constraint_sets = (
                    (PerfectionConfidence(theta),),
                    (ConfidenceBound(epsilon, theta),),
                    (MeanBound(0.5), ConfidenceBound(epsilon, theta), PerfectionConfidence(theta)),
                    (
                        ConfidenceBound(epsilon, 0.3),
                        PriorReliability(10, 0.5),
                        ConfidenceBound(epsilon / 2, theta),
                    ),
                )
                for constraints, seed in itertools.product(constraint_sets, range(4)):
                    size = len(constraints) + 1 + seed % 2
                    draws = [np.random.Generator(np.random.PCG64(seed)) for _ in range(2)]
                    rows = constraint_rows(constraints, points)
                    got = _seed_support(equality_cuts(rows), points.size, draws[0], size)
                    want = _reference_seed_support(constraints, points, draws[1], size)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    assert draws[0].bit_generator.state == draws[1].bit_generator.state
                    cases += 1
        assert cases == 3 * 4 * 4 * 4


class TestFeasibleVertices:
    @pytest.mark.parametrize("kinds", _KIND_SETS, ids="+".join)
    def test_matches_reference_on_random_supports(self, kinds):
        rng = np.random.default_rng(_KIND_SETS.index(kinds))
        found = 0
        for _ in range(40):
            constraints = _random_constraints(rng, kinds)
            points = build_grid(constraints, resolution=150).as_array()
            size = len(constraints) + 1 + int(rng.integers(0, 3))
            rows = constraint_rows(constraints, points)
            support = _seed_support(equality_cuts(rows), points.size, rng, size)
            for exact_support in (False, True):
                got = _vertex_list(rows, support, exact_support)
                want = _reference_feasible_vertices(constraints, points, support, exact_support)
                _assert_same_vertices(got, want)
                found += len(got)
        assert found > 0

    def test_more_equalities_than_freedoms(self, monkeypatch):
        # free < 0: the two equality rows differ on the grid but coincide on
        # the support {0, 0.5}, so three rows fix two masses through lstsq
        constraints = (ConfidenceBound(0.01, 0.4), PerfectionConfidence(0.4))
        points = np.array([0.0, 0.005, 0.5])
        rows = constraint_rows(constraints, points)
        for support in (np.array([0, 2]), np.array([1]), np.array([2])):
            got = _vertex_list(rows, support)
            _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, support))
        shapes = []
        lstsq = np.linalg.lstsq

        def recording(mat, *args, **kwargs):
            shapes.append(mat.shape)
            return lstsq(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        assert len(_vertex_list(rows, np.array([0, 2]))) == 1
        assert shapes == [(3, 2)]

    def test_repeated_equality_stacked_once(self):
        # a repeat of an equality row would leave every square system
        # singular; stacked once, the repeat changes no vertex
        points = np.array([0.0, 0.001, 0.2, 0.5])
        once = (PerfectionConfidence(0.4), MeanBound(0.1))
        twice = (PerfectionConfidence(0.4), MeanBound(0.1), PerfectionConfidence(0.4))
        support = np.arange(4)
        got = _vertex_list(constraint_rows(twice, points), support)
        _assert_same_vertices(got, _vertex_list(constraint_rows(once, points), support))
        _assert_same_vertices(got, _reference_feasible_vertices(twice, points, support))
        assert len(got) > 0

    def test_no_freedom_left(self):
        # free == 0: the equalities alone fix the masses
        constraints = (ConfidenceBound(0.01, 0.3),)
        points = np.array([0.001, 0.2])
        got = _vertex_list(constraint_rows(constraints, points), np.arange(2))
        _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, np.arange(2)))
        assert len(got) == 1 and got[0] == pytest.approx([0.3, 0.7])

    def test_no_inequality_rows(self):
        constraints = (PerfectionConfidence(0.2), ConfidenceBound(0.01, 0.5))
        points = np.array([0.0, 0.001, 0.005, 0.1, 0.4])
        got = _vertex_list(constraint_rows(constraints, points), np.arange(5))
        _assert_same_vertices(got, _reference_feasible_vertices(constraints, points, np.arange(5)))
        assert len(got) == 4

    def test_all_systems_singular(self):
        # every support point sits below epsilon, so the confidence row
        # repeats the normalisation row in the only vertex system
        constraints = (ConfidenceBound(0.5, 0.3),)
        points = np.array([0.1, 0.2])
        assert _vertex_list(constraint_rows(constraints, points), np.arange(2)) == []
        assert _reference_feasible_vertices(constraints, points, np.arange(2)) == []

    def test_small_determinant_still_solved(self):
        # the last vertex's system has determinant 1e-10, above the 1e-12 cut
        constraints = (MeanBound(1.5e-10),)
        points = np.array([1e-10, 2e-10, 0.5])
        got = _vertex_list(constraint_rows(constraints, points), np.arange(3))
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
            got = _vertex_list(constraint_rows(constraints, points), np.arange(5))
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
        points = grid.as_array()
        calls = []

        def reference(rows, supports):
            calls.append(len(supports))
            found = [_reference_feasible_vertices(constraints, points, s) for s in supports]
            return _as_batch(found, supports.shape[1])

        monkeypatch.setattr(operational, "feasible_vertices", reference)
        assert check_conservatism(*args).to_dict() == batched
        assert sum(calls) > len(calls)  # the reference ran, on batches of supports
        assert any(r["margin"] is not None for r in batched["records"])


def _reference_sample_feasible_prior(constraints, grid, seed, max_attempts=operational.MAX_ATTEMPTS):
    """The one-trial-at-a-time sampler loop that ``sample_feasible_priors``
    runs in lock-step; each seed must get the same prior, bit for bit, or
    the same ``SamplingFailureError``."""
    points = grid.as_array()
    rows = constraint_rows(constraints, points)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    size_base = len(constraints) + 1
    for _ in range(max_attempts):
        size = size_base + int(rng.integers(0, 2))
        support = _seed_support(equality_cuts(rows), points.size, rng, size)
        vertices = _vertex_list(rows, support)
        if not vertices:
            continue
        first = vertices[int(rng.integers(0, len(vertices)))]
        masses = first
        if len(vertices) > 1 and rng.random() < 0.5:
            second = vertices[int(rng.integers(0, len(vertices)))]
            lam = float(rng.random())
            masses = lam * first + (1.0 - lam) * second
        # what ``drop_roundoff`` leaves, as the deleted
        # ``priors.prior_from_masses`` built it
        (cleaned,), (kept,) = drop_roundoff(masses[None])
        if not kept:
            continue
        candidate = carried_prior(points[support], np.arange(len(support)), cleaned)
        if reference_satisfies_all(candidate, constraints):
            return candidate
    raise SamplingFailureError(
        f"no feasible prior found in {max_attempts} attempts; "
        "the constraint set may be infeasible or extremely tight"
    )


def _outcome(sample, *args):
    """A sampler's prior as exact bytes, or its failure's text."""
    try:
        prior = sample(*args)
    except SamplingFailureError as exc:
        return str(exc)
    return np.array(prior.support).tobytes(), np.array(prior.masses).tobytes()


class TestLockStepSampler:
    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        """The ``(count, m)`` shape of every batch the sampler enumerates."""
        shapes = []
        batched = operational.feasible_vertices

        def recording(rows, supports):
            shapes.append(np.shape(supports))
            return batched(rows, supports)

        monkeypatch.setattr(operational, "feasible_vertices", recording)
        return shapes

    def _assert_matches_reference(self, constraints, grid, seeds, max_attempts=operational.MAX_ATTEMPTS):
        got = list(sample_feasible_priors(constraints, grid, seeds, max_attempts))
        assert len(got) == len(seeds)
        failures = 0
        for seed, prior in zip(seeds, got):
            want = _outcome(_reference_sample_feasible_prior, constraints, grid, seed, max_attempts)
            if prior is None:
                failures += 1
                with pytest.raises(SamplingFailureError) as raised:
                    sample_feasible_prior(constraints, grid, seed, max_attempts)
                assert str(raised.value) == want
            else:
                assert _outcome(lambda: prior) == want
        return failures

    def test_seeds_across_blocks(self, batch_sizes):
        constraints = (MeanBound(0.01), ConfidenceBound(1e-3, 0.6), PriorReliability(1000, 0.5))
        grid = build_grid(constraints, resolution=300)
        seeds = list(range(1000, 1300))
        assert len(seeds) > 2 * operational.SAMPLER_BLOCK
        assert self._assert_matches_reference(constraints, grid, seeds) == 0
        assert max(count for count, _ in batch_sizes) <= operational.SAMPLER_BLOCK

    @pytest.mark.parametrize("kinds", _KIND_SETS, ids="+".join)
    def test_every_kind_set(self, kinds, batch_sizes):
        rng = np.random.default_rng(100 + _KIND_SETS.index(kinds))
        constraints = _random_constraints(rng, kinds)
        grid = build_grid(constraints, resolution=150)
        self._assert_matches_reference(constraints, grid, list(range(40)))
        # a round draws two support sizes, each its own batch
        assert len({m for _, m in batch_sizes}) > 1

    def test_required_representatives_exceed_size(self, batch_sizes):
        # three equality rows, each asking for mass inside and outside its
        # prefix: up to six required points against a size of four or five
        constraints = (
            ConfidenceBound(1e-3, 0.3),
            ConfidenceBound(1e-2, 0.6),
            PerfectionConfidence(0.2),
        )
        grid = build_grid(constraints, resolution=100)
        self._assert_matches_reference(constraints, grid, list(range(60)))
        assert max(m for _, m in batch_sizes) > len(constraints) + 2

    @pytest.mark.parametrize("points", [(0.0, 1.0), (0.0, 0.5, 1.0)])
    def test_more_equalities_than_freedoms(self, points, batch_sizes):
        # repeats stacked once, each grid keeps one equality row per point,
        # the last all ones; with the normalisation row they outnumber the
        # points, so every support goes through lstsq
        constraints = (
            ConfidenceBound(0.5, 0.6),
            PerfectionConfidence(0.6),
            ConfidenceBound(0.7, 0.6),
            ConfidenceBound(1.0, 1.0),
            MeanBound(0.9),
        )
        assert self._assert_matches_reference(constraints, PfdGrid(points), list(range(30))) == 0
        assert batch_sizes and all(m <= len(points) for _, m in batch_sizes)

    def test_seeds_of_many_words_share_a_block(self):
        # 1-, 2- and 5-word seeds: SeedSequence mixes a fifth word past its
        # pool, so the block's stream seeding runs in two passes
        constraints = (MeanBound(0.02), ConfidenceBound(1e-3, 0.5))
        grid = build_grid(constraints, resolution=150)
        seeds = [3, 2**32 + 3, 2**130 + 3, 0, 2**64 - 1, 2**159 - 1, 2**32, 2**128, 11]
        assert {len(entropy_words(seed)) for seed in seeds} == {1, 2, 5}
        assert len(seeds) <= operational.SAMPLER_BLOCK
        assert self._assert_matches_reference(constraints, grid, seeds) == 0

    def test_failures_and_successes_share_a_block(self):
        # tight enough that a few attempts often fail and sometimes succeed
        constraints = (MeanBound(0.004), ConfidenceBound(1e-3, 0.7), PriorReliability(300, 0.6))
        grid = build_grid(constraints, resolution=200)
        seeds = list(range(80))
        failures = self._assert_matches_reference(constraints, grid, seeds, max_attempts=2)
        assert 0 < failures < len(seeds)

    def test_audit_batches_stay_within_one_block(self, batch_sizes):
        constraints = (MeanBound(0.01), PerfectionConfidence(0.2))
        objective = PosteriorExpectedPfd()
        grid = build_grid(constraints, objective, resolution=200)
        report = check_conservatism(constraints, Observation(500, 0), objective, 1000, 9, grid)
        assert report.trials == 1000
        assert max(count for count, _ in batch_sizes) <= operational.SAMPLER_BLOCK
        assert sum(count for count, _ in batch_sizes) >= 1000


def _reference_check_conservatism(constraints, obs, objective, trials, seed, grid, bound=None):
    """``check_conservatism`` one trial at a time: the per-trial sampler loop
    and ``posterior_value`` on each trial's prior. The batched audit must
    give the same report, bit for bit."""
    if bound is None:
        bound = solve(constraints, obs, objective, grid).bound
    maximize = objective.direction == CONSERVATIVE_MAX
    records, margins = [], []
    for index in range(trials):
        trial_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        try:
            prior = _reference_sample_feasible_prior(constraints, grid, trial_seed)
            value = posterior_value(prior, obs, objective)
        except (SamplingFailureError, ZeroEvidenceError) as exc:
            records.append({"index": index, "margin": None, "error": str(exc)})
            continue
        margin = (bound - value) if maximize else (value - bound)
        margins.append(margin)
        records.append({"index": index, "margin": margin, "error": None})
    return {
        "trials": trials,
        "violations": sum(1 for m in margins if m < operational.VIOLATION_TOL),
        "worst_margin": min(margins) if margins else None,
        "records": records,
    }


def _assert_same_report(args, **kwargs):
    got = check_conservatism(*args, **kwargs).to_dict()
    want = _reference_check_conservatism(*args, **kwargs)
    # JSON text tells -0.0 from 0.0, and float repr is exact
    assert json.dumps(got) == json.dumps(want)
    return got


class TestArrayAudit:
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("kinds", _KIND_SETS, ids="+".join)
    def test_matches_per_trial_reference(self, kinds, k):
        rng = np.random.default_rng(300 + _KIND_SETS.index(kinds))
        constraints = _random_constraints(rng, kinds)
        objectives = (PosteriorExpectedPfd(), PosteriorConfidence(1e-3), FutureReliability(300))
        for objective in objectives:
            grid = build_grid(constraints, objective, resolution=150)
            args = (constraints, Observation(2000, k), objective, 12, 5, grid)
            report = _assert_same_report(args)
            assert any(r["margin"] is not None for r in report["records"])

    def test_zero_evidence_trials(self):
        # a support of {0, 1} carries no likelihood for one failure in ten
        # demands; a support holding 0.5 does
        constraints = (PerfectionConfidence(0.5),)
        grid = PfdGrid((0.0, 0.5, 1.0))
        args = (constraints, Observation(10, 1), PosteriorExpectedPfd(), 40, 3, grid)
        report = _assert_same_report(args)
        errors = {r["error"] for r in report["records"]}
        assert "observation n=10, k=1 has zero probability under the prior" in errors
        assert None in errors

    def test_every_trial_without_evidence(self):
        constraints = (PerfectionConfidence(1.0),)
        grid = build_grid(constraints, resolution=50)
        args = (constraints, Observation(10, 1), FutureReliability(5), 5, 0, grid)
        report = _assert_same_report(args, bound=0.5)
        assert report["worst_margin"] is None
        assert all("zero probability" in r["error"] for r in report["records"])

    def test_sampling_failures(self):
        # infeasible, so every trial exhausts its attempts; the bound is given
        constraints = (ConfidenceBound(0.1, 0.9), MeanBound(0.005))
        grid = build_grid(constraints, resolution=100)
        args = (constraints, Observation(100, 0), PosteriorExpectedPfd(), 3, 1, grid)
        report = _assert_same_report(args, bound=0.01)
        message = "no feasible prior found in 200 attempts"
        assert all(r["error"].startswith(message) for r in report["records"])

    def test_trials_across_blocks(self):
        constraints = (MeanBound(0.01), PerfectionConfidence(0.2))
        objective = FutureReliability(50)
        grid = build_grid(constraints, objective, resolution=120)
        trials = 2 * operational.SAMPLER_BLOCK + 7
        args = (constraints, Observation(400, 1), objective, trials, 8, grid)
        report = _assert_same_report(args)
        assert [r["index"] for r in report["records"]] == list(range(trials))

    def test_admissibility_matches_satisfies_all(self, monkeypatch):
        """The array verdict is that of the per-kind ``fsum`` reference
        (``reference_admission``) on every candidate the sampler draws, and
        on each one with mass moved between its outer points, which pushes
        rows past their tolerance."""
        drawn = []

        def recording(rows, supports, masses):
            drawn.append((rows, supports, masses))
            return rows_admit(rows, supports, masses)

        monkeypatch.setattr(operational, "rows_admit", recording)
        rng = np.random.default_rng(12)
        cases = [_random_constraints(rng, kinds) for kinds in _KIND_SETS for _ in range(3)]
        cases.append((MeanBound(0.004), ConfidenceBound(1e-3, 0.7), PriorReliability(300, 0.6)))
        outcomes = []
        for constraints in cases:
            grid = build_grid(constraints, resolution=150)
            points = grid.as_array()
            del drawn[:]
            list(sample_feasible_priors(constraints, grid, range(30)))
            assert drawn
            for rows, supports, masses in drawn:
                for shift in (0.0, 4e-10, 3e-9, 1e-6):
                    moved = masses.copy()
                    take = np.minimum(moved[:, 0], shift)
                    moved[:, 0] -= take
                    moved[:, -1] += take
                    verdicts = rows_admit(rows, supports, moved)
                    for support, row_masses, verdict in zip(supports, moved, verdicts):
                        carried = row_masses > 0.0
                        prior = PriorDistribution(
                            tuple(points[support[carried]]), tuple(row_masses[carried])
                        )
                        assert bool(verdict) == reference_satisfies_all(prior, constraints)
                        outcomes.append((shift, bool(verdict)))
        assert {verdict for _, verdict in outcomes} == {True, False}
