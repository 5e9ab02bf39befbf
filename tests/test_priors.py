import numpy as np
import pytest

from relbound.errors import InvalidDistributionError, ParseError
from relbound.inference import FutureReliability, PosteriorConfidence
from relbound.numerics import just_above
from relbound.priors import (
    GRID_LOG_FLOOR,
    GRID_LOG_KNEE,
    ConfidenceBound,
    MeanBound,
    PerfectionConfidence,
    PfdGrid,
    PriorDistribution,
    PriorReliability,
    build_grid,
    check_feasible,
    constraint_from_dict,
    constraint_rows,
    constraint_to_dict,
    forced_grid_points,
)


class TestConstraintTypes:
    def test_fields_validated(self):
        with pytest.raises(ValueError):
            MeanBound(1.5)
        with pytest.raises(ValueError):
            ConfidenceBound(-0.1, 0.9)
        with pytest.raises(ValueError):
            PerfectionConfidence(2.0)
        with pytest.raises(ValueError):
            PriorReliability(-1, 0.5)

    @pytest.mark.parametrize(
        "constraint",
        [
            MeanBound(0.01),
            ConfidenceBound(1e-4, 0.9),
            PerfectionConfidence(0.5),
            PriorReliability(100, 0.8),
        ],
    )
    def test_json_roundtrip(self, constraint):
        assert constraint_from_dict(constraint_to_dict(constraint)) == constraint

    def test_unknown_type_rejected(self):
        with pytest.raises(ParseError):
            constraint_from_dict({"type": "mystery", "x": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            constraint_from_dict({"type": "confidence_bound", "epsilon": 0.1})


class TestPriorDistribution:
    def test_sorts_support(self):
        prior = PriorDistribution((0.5, 0.1), (0.3, 0.7))
        assert prior.support == (0.1, 0.5)
        assert prior.masses == (0.7, 0.3)

    def test_rejects_bad_mass_sum(self):
        with pytest.raises(InvalidDistributionError):
            PriorDistribution((0.1, 0.5), (0.3, 0.3))

    def test_rejects_duplicate_support(self):
        with pytest.raises(InvalidDistributionError):
            PriorDistribution((0.1, 0.1), (0.5, 0.5))

    def test_boundary_mass_counts_toward_confidence(self):
        prior = PriorDistribution((0.1, 1.0), (0.9, 0.1))
        assert prior.prob_at_most(0.1) == pytest.approx(0.9, abs=1e-15)
        assert prior.satisfies(ConfidenceBound(0.1, 0.9))

    def test_satisfies_each_form(self):
        prior = PriorDistribution((0.0, 0.2), (0.5, 0.5))
        assert prior.satisfies(MeanBound(0.1))
        assert not prior.satisfies(MeanBound(0.05))
        assert prior.satisfies(PerfectionConfidence(0.5))
        assert prior.satisfies(PriorReliability(1, 0.9))
        assert not prior.satisfies(PriorReliability(100, 0.9))


class TestBuildGrid:
    def test_minimum_resolution_is_endpoints(self):
        assert build_grid(resolution=2).points == (0.0, 1.0)

    def test_forced_threshold_points(self):
        grid = build_grid([ConfidenceBound(1e-4, 0.9)], resolution=100)
        assert 1e-4 in grid.points
        assert just_above(1e-4) in grid.points

    def test_forced_objective_threshold(self):
        grid = build_grid([], PosteriorConfidence(1e-3), resolution=100)
        assert 1e-3 in grid.points
        assert just_above(1e-3) in grid.points

    def test_contains_endpoints_sorted_distinct(self):
        grid = build_grid([MeanBound(0.37)], FutureReliability(10), resolution=500)
        pts = np.asarray(grid.points)
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)
        assert 0.37 in grid.points

    def test_resolution_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_grid(resolution=1)

    def test_refine_is_superset(self):
        grid = build_grid([ConfidenceBound(0.1, 0.9)], resolution=50)
        fine = grid.refine()
        assert set(grid.points) <= set(fine.points)
        assert len(fine) == 2 * len(grid) - 1

    def test_as_array_is_cached_and_read_only(self):
        grid = build_grid([MeanBound(0.01)], resolution=200)
        array = grid.as_array()
        assert grid.as_array() is array
        assert array.dtype == float
        np.testing.assert_array_equal(array, np.asarray(grid.points, dtype=float))
        with pytest.raises(ValueError):
            array[0] = 0.5
        assert grid.as_array()[0] == 0.0

    def test_as_array_leaves_equality_and_hash_alone(self):
        grid = build_grid([MeanBound(0.01)], resolution=200)
        twin = build_grid([MeanBound(0.01)], resolution=200)
        grid.as_array()
        assert grid == twin and hash(grid) == hash(twin)


def _assert_canonical(grid, pts):
    assert grid.points == tuple(sorted(set(map(float, pts))))
    assert all(type(p) is float for p in grid.points)


_FORCING = [
    ([], None),
    ([MeanBound(0.37)], FutureReliability(10)),
    ([ConfidenceBound(1e-4, 0.9), PerfectionConfidence(0.2)], PosteriorConfidence(1e-3)),
    ([ConfidenceBound(GRID_LOG_FLOOR, 0.5), MeanBound(GRID_LOG_KNEE)], None),
]


class TestPfdGridPoints:
    """``points`` is the sorted set of the given values, as Python floats."""

    @pytest.mark.parametrize("resolution", [2, 3, 4, 5, 12, 101, 2000, 8000])
    @pytest.mark.parametrize("forcing", range(len(_FORCING)))
    def test_build_grid(self, resolution, forcing):
        constraints, objective = _FORCING[forcing]
        interior = resolution - 2
        n_log = interior // 2
        n_lin = interior - n_log
        raw = [0.0, 1.0]
        if n_log > 0:
            raw += np.geomspace(GRID_LOG_FLOOR, GRID_LOG_KNEE, num=n_log).tolist()
        if n_lin > 0:
            raw += np.linspace(GRID_LOG_KNEE, 1.0, num=n_lin + 2)[1:-1].tolist()
        raw += forced_grid_points(constraints, objective)
        _assert_canonical(build_grid(constraints, objective, resolution), raw)

    @pytest.mark.parametrize("resolution", [2, 12, 2000])
    def test_refine(self, resolution):
        grid = build_grid([ConfidenceBound(0.1, 0.9)], resolution=resolution)
        pts = list(grid.points)
        mids = [(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
        _assert_canonical(grid.refine(), pts + mids)

    def test_unsorted_and_duplicate_input(self):
        raw = [0.5, 1, 0.25, 0.5, 0, np.float32(0.125), 1.0, 0.25]
        grid = PfdGrid(raw)
        _assert_canonical(grid, raw)
        assert grid.points == (0.0, 0.125, 0.25, 0.5, 1.0)
        np.testing.assert_array_equal(grid.as_array(), grid.points)

    @pytest.mark.parametrize(
        "raw",
        [
            [0.0, float("nan"), 1.0],
            [0.0, -1e-300, 1.0],
            [0.0, 0.5, 1.0 + 1e-15],
            [0.5, 1.0],
            [0.0, 0.5],
            [],
        ],
        ids=["nan", "below-0", "above-1", "no-0", "no-1", "empty"],
    )
    def test_bad_input_rejected(self, raw):
        with pytest.raises(ValueError):
            PfdGrid(raw)


_ROW_CASES = [
    MeanBound(1e-3),
    MeanBound(0.5),
    ConfidenceBound(1e-4, 0.9),
    ConfidenceBound(0.0, 0.3),
    ConfidenceBound(1.0, 0.6),
    PerfectionConfidence(0.4),
    PriorReliability(0, 0.5),
    PriorReliability(1, 0.5),
    PriorReliability(10_000, 0.9),
    PriorReliability(10**7, 0.1),
]


class TestRowMonotonicity:
    """Along the sorted grid every ``"le"`` row is non-decreasing, every
    ``"ge"`` row non-increasing, and every ``"eq"`` row the 0/1 indicator
    of a prefix. The solver's level search and point-mass test rely on it."""

    @staticmethod
    def _rows(constraint, resolution):
        grid = build_grid([constraint], PosteriorConfidence(3e-5), resolution)
        for points in (grid.as_array(), grid.refine().as_array()):
            yield from constraint_rows([constraint], points)

    @pytest.mark.parametrize("constraint", _ROW_CASES, ids=repr)
    @pytest.mark.parametrize("resolution", [2, 12, 500, 8000])
    def test_inequality_rows_are_monotone(self, constraint, resolution):
        for row in self._rows(constraint, resolution):
            steps = np.diff(row.coeffs)
            if row.sense == "le":
                assert np.all(steps >= 0.0)
            elif row.sense == "ge":
                assert np.all(steps <= 0.0)
            else:
                assert row.sense == "eq"

    @pytest.mark.parametrize("constraint", _ROW_CASES, ids=repr)
    @pytest.mark.parametrize("resolution", [2, 12, 500, 8000])
    def test_equality_rows_are_prefix_indicators(self, constraint, resolution):
        for row in self._rows(constraint, resolution):
            if row.sense == "eq":
                assert np.all((row.coeffs == 0.0) | (row.coeffs == 1.0))
                assert np.all(np.diff(row.coeffs) <= 0.0)
                assert row.coeffs[0] == 1.0  # every grid starts at 0


class TestConstraintRows:
    def test_confidence_bound_row_closed_boundary(self):
        pts = np.array([0.0, 0.1, just_above(0.1), 1.0])
        (row,) = constraint_rows([ConfidenceBound(0.1, 0.9)], pts)
        assert row.sense == "eq"
        assert row.rhs == 0.9
        assert row.coeffs.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_zero_epsilon_bound_matches_perfection_row(self):
        pts = np.array([0.0, 1e-12, 0.5, 1.0])
        (cb_row,) = constraint_rows([ConfidenceBound(0.0, 0.7)], pts)
        (pc_row,) = constraint_rows([PerfectionConfidence(0.7)], pts)
        assert np.array_equal(cb_row.coeffs, pc_row.coeffs)
        assert cb_row.rhs == pc_row.rhs

    def test_prior_reliability_row_values(self):
        pts = np.array([0.0, 0.5, 1.0])
        (row,) = constraint_rows([PriorReliability(2, 0.5)], pts)
        assert row.sense == "ge"
        assert row.coeffs == pytest.approx([1.0, 0.25, 0.0], abs=1e-15)


class TestCheckFeasible:
    def test_single_confidence_bound_witness(self):
        grid = build_grid([ConfidenceBound(0.1, 0.9)], resolution=100)
        result = check_feasible([ConfidenceBound(0.1, 0.9)], grid)
        assert result.feasible
        # the most pessimistic admissible prior: 0.9 at the threshold, rest at 1
        assert result.witness.support == (0.1, 1.0)
        assert result.witness.masses == pytest.approx((0.9, 0.1), abs=1e-9)

    def test_empty_constraints_vacuous_worst_prior(self):
        grid = build_grid([], resolution=50)
        result = check_feasible([], grid)
        assert result.feasible
        assert result.witness.support == (1.0,)

    def test_perfection_forces_point_mass_at_zero(self):
        grid = build_grid([PerfectionConfidence(1.0)], resolution=50)
        result = check_feasible([PerfectionConfidence(1.0)], grid)
        assert result.feasible
        assert result.witness.support == (0.0,)

    def test_confidence_plus_tight_mean_infeasible(self):
        constraints = [ConfidenceBound(0.1, 0.9), MeanBound(0.005)]
        grid = build_grid(constraints, resolution=200)
        # independent check: the smallest achievable mean places the 0.9 mass
        # at 0 and the forced 0.1 mass at the cheapest point above epsilon
        cheapest_above = min(p for p in grid.points if p > 0.1)
        min_mean = 0.1 * cheapest_above
        assert min_mean > 0.005
        result = check_feasible(constraints, grid)
        assert not result.feasible
        assert result.witness is None
        assert set(result.unsatisfiable) == set(constraints)

    def test_infeasible_subset_is_minimal(self):
        constraints = [
            PerfectionConfidence(0.5),
            ConfidenceBound(1.0, 0.3),  # impossible alone: Pr(pfd <= 1) = 1
            MeanBound(0.9),
        ]
        grid = build_grid(constraints, resolution=100)
        result = check_feasible(constraints, grid)
        assert not result.feasible
        assert result.unsatisfiable == (ConfidenceBound(1.0, 0.3),)

    def test_witness_revalidates_on_every_constraint(self):
        constraints = [ConfidenceBound(0.01, 0.6), MeanBound(0.2), PriorReliability(5, 0.5)]
        grid = build_grid(constraints, resolution=300)
        result = check_feasible(constraints, grid)
        assert result.feasible
        assert result.witness.satisfies_all(constraints)

    def test_grid_superset_preserves_feasibility(self):
        constraints = [ConfidenceBound(0.05, 0.8), MeanBound(0.1)]
        grid = build_grid(constraints, resolution=60)
        assert check_feasible(constraints, grid).feasible
        assert check_feasible(constraints, grid.refine()).feasible

    def test_inconsistent_confidence_bounds_detected(self):
        # smaller epsilon must not claim more confidence than a larger one
        constraints = [ConfidenceBound(1e-4, 0.9), ConfidenceBound(1e-2, 0.5)]
        grid = build_grid(constraints, resolution=200)
        assert not check_feasible(constraints, grid).feasible

    def test_consistent_confidence_bounds_accepted(self):
        constraints = [ConfidenceBound(1e-4, 0.5), ConfidenceBound(1e-2, 0.9)]
        grid = build_grid(constraints, resolution=200)
        result = check_feasible(constraints, grid)
        assert result.feasible
        assert result.witness.satisfies_all(constraints)
