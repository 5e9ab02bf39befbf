import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbound.errors import InvalidCoverageError, ParseError
from relbound.measures import OperationalProfile
from relbound.priors import ConfidenceBound, PerfectionConfidence, constraint_rows
from relbound.verification import (
    DiscreteCoverage,
    IntervalCoverage,
    PiecewiseDensity,
    coverage_bound,
    density_from_dict,
    load_coverage,
    load_discrete_coverage,
    merge_intervals,
    prior_from_verification,
    profile_from_dict,
)

import numpy as np


def intervals(*pairs, density=None):
    cells = tuple((pair, True) for pair in pairs)
    if density is None:
        return IntervalCoverage(cells)
    return IntervalCoverage(cells, density)


class TestMergeIntervals:
    def test_disjoint_kept(self):
        assert merge_intervals([(0.0, 0.1), (0.2, 0.3)]) == [(0.0, 0.1), (0.2, 0.3)]

    def test_overlap_merged(self):
        assert merge_intervals([(0.0, 0.5), (0.4, 0.7)]) == [(0.0, 0.7)]

    def test_touching_merged(self):
        assert merge_intervals([(0.0, 0.5), (0.5, 0.7)]) == [(0.0, 0.7)]

    def test_unsorted_input(self):
        assert merge_intervals([(0.6, 0.9), (0.1, 0.2), (0.15, 0.3)]) == [
            (0.1, 0.3),
            (0.6, 0.9),
        ]


class TestCoverageBound:
    def test_full_coverage(self):
        assert coverage_bound(intervals((0.0, 1.0))) == 0.0

    def test_uniform_ninety_percent(self):
        cov = intervals((0.0, 0.5), (0.5, 0.9))
        assert coverage_bound(cov) == pytest.approx(0.1, abs=1e-12)

    def test_discrete_profile(self):
        profile = OperationalProfile((("a", 0.5), ("b", 0.3), ("c", 0.2)))
        cov = DiscreteCoverage((("a", True), ("b", True), ("c", False)), profile)
        assert coverage_bound(cov) == pytest.approx(0.2, abs=1e-12)

    def test_duplicated_interval_changes_nothing(self):
        base = intervals((0.1, 0.4), (0.5, 0.8))
        doubled = intervals((0.1, 0.4), (0.5, 0.8), (0.1, 0.4))
        assert coverage_bound(doubled) == coverage_bound(base)

    def test_uncovered_cells_do_not_count(self):
        cov = IntervalCoverage((((0.0, 0.6), True), ((0.6, 1.0), False)))
        assert coverage_bound(cov) == pytest.approx(0.4, abs=1e-12)

    def test_piecewise_density_weighting(self):
        density = PiecewiseDensity(((0.0, 0.5, 1.6), (0.5, 1.0, 0.4)))
        cov = intervals((0.0, 0.5), density=density)
        assert coverage_bound(cov) == pytest.approx(0.2, abs=1e-12)

    def test_nan_density_rejected(self):
        for pieces in (((0.0, 1.0, float("nan")),), ((0.0, 0.5, 2.0), (0.5, 1.0, float("nan")))):
            with pytest.raises(InvalidCoverageError):
                PiecewiseDensity(pieces)

    def test_interval_outside_domain_rejected(self):
        with pytest.raises(InvalidCoverageError):
            intervals((0.5, 1.2))

    def test_cells_must_partition_profile(self):
        profile = OperationalProfile((("a", 0.5), ("b", 0.5)))
        with pytest.raises(InvalidCoverageError):
            DiscreteCoverage((("a", True),), profile)

    def test_duplicate_cell_ids_rejected(self):
        profile = OperationalProfile((("a", 0.5), ("b", 0.5)))
        with pytest.raises(InvalidCoverageError, match="duplicate cell ids"):
            DiscreteCoverage((("a", True), ("a", False), ("b", True)), profile)

    def test_unknown_coverage_type_rejected(self):
        with pytest.raises(TypeError, match="unknown coverage"):
            coverage_bound(PiecewiseDensity.uniform())

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=8))
    def test_monotone_and_partition(self, raw):
        cells = [tuple(sorted(pair)) for pair in raw]
        cov = intervals(*cells)
        eps = coverage_bound(cov)
        assert 0.0 <= eps <= 1.0
        covered = PiecewiseDensity.uniform().measure(
            merge_intervals([c for c, _ in cov.cells])
        )
        assert covered + eps == pytest.approx(1.0, abs=1e-9)
        # covering one more cell never increases epsilon
        grown = intervals(*cells, (0.25, 0.35))
        assert coverage_bound(grown) <= eps + 1e-12


class TestPriorFromVerification:
    def test_constructor(self):
        assert prior_from_verification(0.1, 0.9) == ConfidenceBound(0.1, 0.9)

    def test_zero_epsilon_equals_perfection_confidence(self):
        constraint = prior_from_verification(0.0, 1.0)
        pts = np.array([0.0, 1e-12, 0.5, 1.0])
        (row_cb,) = constraint_rows([constraint], pts)
        (row_pc,) = constraint_rows([PerfectionConfidence(1.0)], pts)
        assert np.array_equal(row_cb.coeffs, row_pc.coeffs)
        assert row_cb.rhs == row_pc.rhs

    def test_composition_with_coverage(self):
        cov = intervals((0.0, 0.5), (0.5, 0.9))
        constraint = prior_from_verification(coverage_bound(cov), 0.8)
        assert isinstance(constraint, ConfidenceBound)
        assert constraint.epsilon == pytest.approx(0.1, abs=1e-12)
        assert constraint.theta == 0.8

    def test_bad_trust_rejected(self):
        with pytest.raises(ValueError):
            prior_from_verification(0.1, 1.2)
        with pytest.raises(ValueError):
            prior_from_verification(-0.1, 0.9)


class TestLoaders:
    def test_interval_csv(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("lo,hi\n0.0,0.5\n0.5,0.9\n")
        cov = load_coverage(str(path))
        assert coverage_bound(cov) == pytest.approx(0.1, abs=1e-12)

    def test_discrete_csv_with_profile(self, tmp_path):
        cov_path = tmp_path / "cov.csv"
        cov_path.write_text("point_id,covered\na,1\nb,1\nc,0\n")
        prof_path = tmp_path / "profile.json"
        prof_path.write_text('{"kind": "discrete", "weights": {"a": 0.5, "b": 0.3, "c": 0.2}}')
        cov = load_coverage(str(cov_path), str(prof_path))
        assert coverage_bound(cov) == pytest.approx(0.2, abs=1e-12)

    def test_discrete_requires_profile(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("point_id,covered\na,1\n")
        with pytest.raises(ParseError):
            load_coverage(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("start,end\n0,1\n")
        with pytest.raises(ParseError):
            load_coverage(str(path))

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("lo,hi\n0.0,0.5\nx,0.9\n")
        with pytest.raises(ParseError, match=":3"):
            load_coverage(str(path))

    def test_discrete_flag_must_be_zero_or_one(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("point_id,covered\na,1\nb,yes\n")
        profile = OperationalProfile((("a", 0.5), ("b", 0.5)))
        with pytest.raises(ParseError) as err:
            load_discrete_coverage(str(path), profile)
        assert str(err.value) == f"{path}:3: covered must be 0 or 1, got 'yes'"

    def test_uniform_density_document(self):
        assert density_from_dict({"kind": "uniform"}) == PiecewiseDensity.uniform()

    def test_unknown_density_kind_rejected(self):
        with pytest.raises(ParseError, match="unknown density kind 'gaussian'"):
            density_from_dict({"kind": "gaussian"})

    def test_profile_document_must_be_discrete(self):
        with pytest.raises(ParseError, match="expected a discrete profile, got kind 'uniform'"):
            profile_from_dict({"kind": "uniform", "weights": {"a": 1.0}})

    def test_density_document(self, tmp_path):
        cov_path = tmp_path / "cov.csv"
        cov_path.write_text("lo,hi\n0.0,0.5\n")
        dens_path = tmp_path / "density.json"
        dens_path.write_text('{"kind": "piecewise", "pieces": [[0.0, 0.5, 1.6], [0.5, 1.0, 0.4]]}')
        cov = load_coverage(str(cov_path), str(dens_path))
        assert coverage_bound(cov) == pytest.approx(0.2, abs=1e-12)


class TestPiecewiseDensity:
    def test_must_integrate_to_one(self):
        with pytest.raises(InvalidCoverageError):
            PiecewiseDensity(((0.0, 0.5, 1.0),))

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(InvalidCoverageError):
            PiecewiseDensity(((0.0, 0.6, 1.0), (0.5, 1.0, 1.0)))

    @pytest.mark.parametrize("pieces", [((-0.5, 0.5, 1.0), (0.5, 1.0, 1.0)), ((0.0, 1.5, 1.0),)])
    def test_piece_outside_unit_rejected(self, pieces):
        with pytest.raises(InvalidCoverageError, match=r"density piece .* outside \[0, 1\]"):
            PiecewiseDensity(pieces)
