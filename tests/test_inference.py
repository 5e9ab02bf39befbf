import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbound.errors import ZeroEvidenceError
from relbound.inference import (
    FutureReliability,
    Observation,
    PosteriorConfidence,
    PosteriorExpectedPfd,
    _posterior_ratio,
    likelihood,
    log_likelihood_vector,
    objective_from_dict,
    objective_gain,
    objective_to_dict,
    posterior_value,
    score_rows,
)
from relbound.numerics import EXP_UNDERFLOW
from relbound.priors import PriorDistribution


class TestObservation:
    def test_rejects_more_failures_than_demands(self):
        with pytest.raises(ValueError):
            Observation(5, 6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Observation(-1, 0)

    def test_counts_follow_the_cli_rule(self):
        # integral floats are stored as ints; booleans, fractions and
        # non-numbers are refused, as the CLI's count parser refuses them
        obs = Observation(1000.0, 2.0)
        assert type(obs.n) is int and type(obs.k) is int
        assert obs.to_dict() == {"n": 1000, "k": 2}
        assert obs == Observation(1000, 2)
        for n, k in [(True, False), (10, True), (10.5, 2), (10, 2.5), ("10", 2), (float("nan"), 0)]:
            with pytest.raises(ValueError, match="must be an integer count"):
                Observation(n, k)

    def test_rejects_counts_beyond_the_float_range(self):
        for n, k in [(10**400, 0), (10**400, 10**400)]:
            with pytest.raises(ValueError, match="n must be a count within the float range"):
                Observation(n, k)


class TestLikelihood:
    def test_zero_pfd_failure_free(self):
        # 0^0 convention: p = 0 with no failures observed is certain
        assert likelihood(0.0, Observation(5, 0)) == 1.0

    def test_half_one_of_two(self):
        assert likelihood(0.5, Observation(2, 1)) == 0.25

    def test_point_one_ten_failure_free(self):
        assert likelihood(0.1, Observation(10, 0)) == pytest.approx(
            0.3486784401, abs=1e-12
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            likelihood(1.5, Observation(1, 0))

    def test_zero_pfd_with_failure_is_impossible(self):
        assert likelihood(0.0, Observation(3, 1)) == 0.0

    def test_log_space_path_matches_direct(self):
        # the log-space evaluation must agree with the direct product
        p = 0.0003
        direct = p**2 * (1 - p) ** 10004
        assert likelihood(p, Observation(10006, 2)) == pytest.approx(direct, rel=1e-10)

    def test_log_vector_flags_impossible_points(self):
        vec = log_likelihood_vector(np.array([0.0, 0.5, 1.0]), Observation(4, 1))
        assert np.isneginf(vec[0])  # p=0 cannot fail
        assert np.isneginf(vec[2])  # p=1 cannot pass
        assert vec[1] == pytest.approx(np.log(0.5**1 * 0.5**3), abs=1e-12)


class TestObjectives:
    def test_directions(self):
        assert PosteriorExpectedPfd().direction == "conservative-max"
        assert PosteriorConfidence(0.01).direction == "conservative-min"
        assert FutureReliability(10).direction == "conservative-min"

    def test_gain_values(self):
        pts = np.array([0.0, 0.01, 0.5])
        assert objective_gain(PosteriorExpectedPfd(), pts).tolist() == [0.0, 0.01, 0.5]
        assert objective_gain(PosteriorConfidence(0.01), pts).tolist() == [1.0, 1.0, 0.0]
        rel = objective_gain(FutureReliability(2), pts)
        assert rel == pytest.approx([1.0, 0.9801, 0.25], abs=1e-12)

    @pytest.mark.parametrize(
        "objective",
        [PosteriorExpectedPfd(), PosteriorConfidence(1e-3), FutureReliability(500)],
    )
    def test_json_roundtrip(self, objective):
        assert objective_from_dict(objective_to_dict(objective)) == objective

    def test_future_reliability_count_follows_the_cli_rule(self):
        assert type(FutureReliability(100.0).t) is int
        assert objective_to_dict(FutureReliability(100.0)) == {"type": "future_reliability", "t": 100}
        for t in (True, 99.5, "100", float("inf")):
            with pytest.raises(ValueError, match="t must be an integer count"):
                FutureReliability(t)

    def test_future_reliability_rejects_counts_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="t must be a count within the float range"):
            FutureReliability(10**400)


class TestPosteriorValue:
    def test_point_mass_future_reliability(self):
        prior = PriorDistribution.point_mass(0.01)
        value = posterior_value(prior, Observation(50, 0), FutureReliability(100))
        assert value == pytest.approx((1 - 0.01) ** 100, abs=1e-12)

    def test_likelihood_kills_mass_at_one(self):
        prior = PriorDistribution((0.0, 1.0), (0.5, 0.5))
        value = posterior_value(prior, Observation(1, 0), PosteriorExpectedPfd())
        assert value == 0.0

    def test_two_point_confidence_ratio(self):
        # direct evaluation of the ratio, frozen:
        # 0.9*0.9^10 / (0.9*0.9^10 + 0.1*0.5^10)
        prior = PriorDistribution((0.1, 0.5), (0.9, 0.1))
        value = posterior_value(prior, Observation(10, 0), PosteriorConfidence(0.2))
        assert value == pytest.approx(0.9996889019346511, abs=1e-12)

    def test_no_data_returns_prior_functional(self):
        prior = PriorDistribution((0.1, 0.3), (0.25, 0.75))
        value = posterior_value(prior, Observation(0, 0), PosteriorExpectedPfd())
        assert value == pytest.approx(0.25 * 0.1 + 0.75 * 0.3, abs=1e-12)

    def test_value_never_exceeds_one(self):
        # the numerator and the evidence round differently: unclamped, this
        # prior read 1.0000000000000002
        prior = PriorDistribution((0.0, 1e-12), (0.5046868558173903, 0.49531314418260974))
        assert posterior_value(prior, Observation(9044, 0), FutureReliability(0)) == 1.0
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = float(rng.uniform(0.01, 0.99))
            prior = PriorDistribution((0.0, 1e-12), (a, 1.0 - a))
            obs = Observation(int(rng.integers(1, 10**5)), 0)
            assert posterior_value(prior, obs, FutureReliability(0)) <= 1.0

    def test_zero_evidence_raises(self):
        prior = PriorDistribution.point_mass(0.0)
        with pytest.raises(ZeroEvidenceError):
            posterior_value(prior, Observation(3, 1), PosteriorExpectedPfd())

    def test_moderately_deep_support_matches_ratio(self):
        prior = PriorDistribution((0.4, 0.5), (0.5, 0.5))
        value = posterior_value(prior, Observation(500, 0), PosteriorExpectedPfd())
        ratio = (0.6 / 0.5) ** 500  # relative likelihood of the 0.4 atom, ~4e39
        expected = (0.4 * ratio + 0.5) / (ratio + 1.0)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_deep_support_stays_exact(self):
        # both atoms underflow float64 in absolute terms (0.6^5000 ~ e^-2554);
        # the posterior must still come out right via its own likelihood shift
        prior = PriorDistribution((0.4, 0.5), (0.5, 0.5))
        value = posterior_value(prior, Observation(5000, 0), PosteriorExpectedPfd())
        assert value == pytest.approx(0.4, rel=1e-9)

    @given(st.floats(0.01, 100.0))
    def test_mass_scale_invariance(self, factor):
        pts = np.array([0.01, 0.2, 0.7])
        masses = np.array([0.5, 0.3, 0.2])
        obs = Observation(20, 1)
        objective = FutureReliability(10)
        lls = log_likelihood_vector(pts, obs)[None]
        gains = objective_gain(objective, pts)[None]
        (base,), _ = _posterior_ratio(lls, gains, masses[None], obs)
        (scaled,), _ = _posterior_ratio(lls, gains, masses[None] * factor, obs)
        assert scaled == pytest.approx(base, rel=1e-12)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 1000),
        st.integers(0, 50),
    )
    def test_value_ranges(self, a, b, n, t):
        if a == b:
            b = a / 2 + 0.25
        support = tuple(sorted({a, b}))
        masses = (1.0,) if len(support) == 1 else (0.5, 0.5)
        prior = PriorDistribution(support, masses)
        obs = Observation(n, 0)
        rel = posterior_value(prior, obs, FutureReliability(t))
        assert -1e-12 <= rel <= 1.0 + 1e-12
        expected = posterior_value(prior, obs, PosteriorExpectedPfd())
        assert min(support) - 1e-12 <= expected <= max(support) + 1e-12

    @given(st.integers(0, 6))
    def test_failure_free_reliability_nondecreasing_in_n(self, step):
        prior = PriorDistribution((0.01, 0.3), (0.7, 0.3))
        objective = FutureReliability(50)
        ns = [0, 5, 10, 30, 100, 500, 2000]
        values = [
            posterior_value(prior, Observation(n, 0), objective) for n in ns[: step + 1]
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _reference_posterior_value(prior, obs, objective):
    """The one-prior scorer that ``_posterior_ratio`` batches; ``posterior_value``
    must give its bits exactly."""
    points = np.asarray(prior.support, dtype=float)
    masses = np.asarray(prior.masses, dtype=float)
    log_lik = log_likelihood_vector(points, obs)
    finite = (masses > 0.0) & np.isfinite(log_lik)
    if not np.any(finite):
        raise ZeroEvidenceError(
            f"observation n={obs.n}, k={obs.k} has zero probability under the prior"
        )
    shift = float(np.max(log_lik[finite]))
    scaled = np.where(finite, np.exp(np.clip(log_lik - shift, EXP_UNDERFLOW, 0.0)), 0.0)
    evidence = float(masses @ scaled)
    if evidence <= 0.0:
        raise ZeroEvidenceError("marginal evidence vanished")
    gains = objective_gain(objective, points)
    return min(float((masses * scaled) @ gains / evidence), 1.0)


_OBJECTIVES = (PosteriorExpectedPfd(), PosteriorConfidence(0.01), FutureReliability(40))
_OBSERVATIONS = (
    Observation(0, 0),
    Observation(50, 0),
    Observation(50, 3),
    Observation(20, 20),
    Observation(10**6, 7),
)


def _error_text(fn, *args):
    try:
        return np.float64(fn(*args)).tobytes()
    except ZeroEvidenceError as exc:
        return str(exc)


class TestBatchedScorer:
    """``_posterior_ratio`` over a stack of rows, on rows with zero masses
    and on points of zero likelihood (0 and 1), gives each row the bits
    of ``posterior_value`` on that row's prior."""

    def _random_rows(self, rng, count, width):
        grid = np.concatenate([[0.0, 1.0], np.geomspace(1e-9, 0.9, 40)])
        chosen = [rng.choice(grid, width, replace=False) for _ in range(count)]
        points = np.sort(np.stack(chosen), axis=1)
        masses = rng.random((count, width)) * (rng.random((count, width)) < 0.6)
        # one carried point at least
        masses[np.arange(count), rng.integers(0, width, count)] += 0.1
        # the first rows carry only 0 and 1, where a failure, or a
        # success, has zero likelihood
        for i in range(5):
            inner = rng.choice(grid[2:], max(width - 2, 0), replace=False)
            points[i] = np.sort(np.concatenate([[0.0, 1.0][:width], inner]))
            masses[i] = 0.0
            masses[i, [0, -1]] = 0.5
        return points, masses / masses.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    def test_rows_match_posterior_value(self, width):
        rng = np.random.default_rng(width)
        points, masses = self._random_rows(rng, 60, width)
        errors_seen = 0
        for obs in _OBSERVATIONS:
            for objective in _OBJECTIVES:
                lls = log_likelihood_vector(points, obs)
                assert np.isneginf(lls).any() or obs.n == 0
                gains = objective_gain(objective, points)
                values, errors = _posterior_ratio(lls, gains, masses, obs)
                for row_points, row_masses, value, error in zip(points, masses, values, errors):
                    carried = row_masses > 0.0
                    prior = PriorDistribution(
                        tuple(row_points[carried]), tuple(row_masses[carried])
                    )
                    want = _error_text(posterior_value, prior, obs, objective)
                    if error is None:
                        assert value.tobytes() == want
                    else:
                        errors_seen += 1
                        assert np.isnan(value) and str(error) == want
        assert errors_seen > 0

    @pytest.mark.parametrize("width", [1, 2, 4, 7])
    def test_posterior_value_matches_reference(self, width):
        rng = np.random.default_rng(10 + width)
        points, masses = self._random_rows(rng, 60, width)
        for obs in _OBSERVATIONS:
            for objective in _OBJECTIVES:
                for row_points, row_masses in zip(points, masses):
                    carried = row_masses > 0.0
                    prior = PriorDistribution(
                        tuple(row_points[carried]), tuple(row_masses[carried])
                    )
                    assert _error_text(posterior_value, prior, obs, objective) == _error_text(
                        _reference_posterior_value, prior, obs, objective
                    )

    def test_cancelling_raw_masses_keep_their_evidence(self):
        # a negative raw mass is not carried, so it adds nothing to the
        # evidence: a row with a carried point of positive likelihood
        # always has a value
        lls = np.zeros((2, 2))
        masses = np.array([[1.0, -1.0], [0.5, 0.5]])
        gains = np.array([[0.2, 0.9]] * 2)
        values, errors = _posterior_ratio(lls, gains, masses, Observation(5, 0))
        assert values.tolist() == [0.2, 0.55] and errors == [None, None]


class TestScoreRows:
    """``score_rows``, the one scorer of ``(grid indices, masses)`` rows:
    each row is scored on its carried points alone."""

    GRID = np.concatenate([[0.0], np.geomspace(1e-9, 0.9, 60), [1.0]])

    def score(self, indices, masses, obs, objective):
        return score_rows(
            log_likelihood_vector(self.GRID, obs),
            objective_gain(objective, self.GRID),
            np.array(indices, dtype=np.intp),
            np.array(masses, dtype=float),
            obs,
        )

    @pytest.mark.parametrize("obs", _OBSERVATIONS[1:])
    @pytest.mark.parametrize("objective", _OBJECTIVES)
    def test_padding_at_index_zero_changes_no_bit(self, obs, objective):
        # rows of 1 to 6 carried points inside (0, 1), padded to 24 columns
        # with index 0 at mass 0, as the audit sampler pads them, at the
        # front, the back or between carried points. Rows that wide give
        # ``_posterior_ratio`` sums that round differently from the
        # carried points' own
        rng = np.random.default_rng(obs.n + obs.k)
        carried, padded = [], []
        for _ in range(120):
            size = int(rng.integers(1, 7))
            indices = np.sort(rng.choice(np.arange(1, self.GRID.size - 1), size, replace=False))
            masses = rng.random(size) + 0.01
            masses /= masses.sum()
            carried.append((indices, masses))
            at = np.sort(rng.integers(0, size + 1, 24 - size))
            padded.append((np.insert(indices, at, 0), np.insert(masses, at, 0.0)))
        want, _ = self.score(*zip(*padded), obs, objective)
        for (indices, masses), value in zip(carried, want):
            (alone,), _ = self.score([indices], [masses], obs, objective)
            prior = PriorDistribution(tuple(self.GRID[indices]), tuple(masses))
            assert value.tobytes() == alone.tobytes()
            assert value.tobytes() == _error_text(posterior_value, prior, obs, objective)

    def test_a_row_that_carries_nothing_reads_nan_without_error(self):
        obs = Observation(50, 3)
        values, errors = self.score([[0, 0], [4, 9]], [[0.0, 0.0], [0.5, 0.5]], obs, _OBJECTIVES[0])
        assert np.isnan(values[0]) and errors[0] is None
        assert not np.isnan(values[1]) and errors[1] is None

    def test_a_row_without_evidence_reads_nan_with_the_error(self):
        # after a failure and a success, pfd 0 and pfd 1 both have
        # likelihood zero
        obs = Observation(50, 3)
        last = self.GRID.size - 1
        indices, masses = [[0, last, 5], [0, 5, 7]], [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]
        values, errors = self.score(indices, masses, obs, _OBJECTIVES[1])
        assert np.isnan(values).all()
        assert all(isinstance(error, ZeroEvidenceError) for error in errors)
        prior = PriorDistribution((0.0, 1.0), (0.5, 0.5))
        assert str(errors[0]) == _error_text(posterior_value, prior, obs, _OBJECTIVES[1])
