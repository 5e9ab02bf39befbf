import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbound.errors import (
    InvalidDatasetError,
    InvalidDecompositionError,
    InvalidProfileError,
    ParseError,
)
from relbound.measures import (
    ErrorDecomposition,
    MeasuredDataset,
    OperationalProfile,
    decomposition_from_dict,
    empirical_pfd,
    interpretability_measure,
    load_dataset,
    total_error,
)


def dataset(*items):
    return MeasuredDataset(tuple(items))


def test_pfd_zero_when_no_disagreement():
    data = dataset(("a", 0.5, False), ("b", 0.5, False))
    assert empirical_pfd(data) == 0.0


def test_pfd_one_for_single_failing_point():
    assert empirical_pfd(dataset(("a", 1.0, True))) == 1.0


def test_pfd_hand_sum():
    data = dataset(("a", 0.5, True), ("b", 0.3, False), ("c", 0.2, True))
    # hand sum: 0.5 + 0.2
    assert empirical_pfd(data) == pytest.approx(0.7, abs=1e-12)


def test_interpretability_zero_when_consistent():
    data = dataset(("a", 0.25, False), ("b", 0.75, False))
    assert interpretability_measure(data) == 0.0


def test_interpretability_quarter_weights():
    data = dataset(("a", 0.25, True), ("b", 0.25, False), ("c", 0.25, False), ("d", 0.25, False))
    assert interpretability_measure(data) == pytest.approx(0.25, abs=1e-12)


def test_interpretability_hand_sum():
    data = dataset(("a", 0.6, False), ("b", 0.4, True))
    assert interpretability_measure(data) == pytest.approx(0.4, abs=1e-12)


def test_weights_must_sum_to_one():
    with pytest.raises(InvalidDatasetError):
        dataset(("a", 0.5, True), ("b", 0.4, False))


def test_negative_weight_rejected():
    with pytest.raises(InvalidDatasetError):
        dataset(("a", 1.2, True), ("b", -0.2, False))


@pytest.mark.parametrize("weights", [(math.nan, 1.0), (0.5, math.nan)])
def test_nan_weight_rejected(weights):
    with pytest.raises(InvalidDatasetError):
        dataset(("a", weights[0], True), ("b", weights[1], False))
    with pytest.raises(InvalidProfileError):
        OperationalProfile((("a", weights[0]), ("b", weights[1])))


def test_duplicate_ids_rejected():
    with pytest.raises(InvalidDatasetError):
        dataset(("a", 0.5, True), ("a", 0.5, False))


def test_profile_roundtrip():
    data = dataset(("a", 0.4, True), ("b", 0.6, False))
    assert data.profile() == OperationalProfile((("a", 0.4), ("b", 0.6)))


@given(st.lists(st.booleans(), min_size=1, max_size=20), st.integers(0, 19))
def test_flipping_disagree_to_true_never_decreases(flags, pos):
    pos = pos % len(flags)
    weights = [1.0 / len(flags)] * len(flags)
    base = dataset(*[(f"p{i}", w, f) for i, (w, f) in enumerate(zip(weights, flags))])
    flipped_flags = list(flags)
    flipped_flags[pos] = True
    flipped = dataset(*[(f"p{i}", w, f) for i, (w, f) in enumerate(zip(weights, flipped_flags))])
    assert empirical_pfd(flipped) >= empirical_pfd(base) - 1e-15


@given(
    st.lists(st.tuples(st.floats(0.01, 1.0), st.booleans()), min_size=1, max_size=10),
    st.lists(st.tuples(st.floats(0.01, 1.0), st.booleans()), min_size=1, max_size=10),
    st.floats(0.05, 0.95),
)
def test_mixture_linearity(raw_a, raw_b, lam):
    total_a = sum(w for w, _ in raw_a)
    total_b = sum(w for w, _ in raw_b)
    part_a = [(f"a{i}", w / total_a, f) for i, (w, f) in enumerate(raw_a)]
    part_b = [(f"b{i}", w / total_b, f) for i, (w, f) in enumerate(raw_b)]
    mixed = dataset(
        *[(pid, lam * w, f) for pid, w, f in part_a],
        *[(pid, (1.0 - lam) * w, f) for pid, w, f in part_b],
    )
    expected = lam * empirical_pfd(dataset(*part_a)) + (1.0 - lam) * empirical_pfd(
        dataset(*part_b)
    )
    assert empirical_pfd(mixed) == pytest.approx(expected, abs=1e-9)


def test_total_error_zero():
    assert total_error(ErrorDecomposition(0.0, 0.0, 0.0)) == 0.0


def test_total_error_possible_perfection():
    # reducible components both zero: only the irreducible floor remains
    d = ErrorDecomposition(0.01, 0.0, 0.0, provenance={"bayes_error": "data collection"})
    assert total_error(d) == pytest.approx(0.01, abs=1e-15)


def test_total_error_sum():
    assert total_error(ErrorDecomposition(0.01, 0.02, 0.03)) == pytest.approx(0.06, abs=1e-15)


def test_negative_component_rejected():
    with pytest.raises(InvalidDecompositionError):
        ErrorDecomposition(-0.01, 0.0, 0.0)


@pytest.mark.parametrize("position", range(3))
def test_nan_component_rejected(position):
    parts = [0.01, 0.02, 0.03]
    parts[position] = math.nan
    with pytest.raises(InvalidDecompositionError):
        ErrorDecomposition(*parts)


def test_overweight_decomposition_rejected():
    with pytest.raises(InvalidDecompositionError):
        ErrorDecomposition(0.5, 0.4, 0.2)


@given(st.floats(0.0, 0.4), st.floats(0.0, 0.3), st.floats(0.0, 0.3))
def test_total_never_below_bayes_floor(bayes, approx_err, est):
    d = ErrorDecomposition(bayes, approx_err, est)
    assert total_error(d) >= d.bayes_error


def test_decomposition_from_dict():
    d = decomposition_from_dict(
        {
            "bayes_error": 0.01,
            "approximation_error": 0.02,
            "estimation_error": 0.03,
            "provenance": {"estimation_error": "model training"},
        }
    )
    assert total_error(d) == pytest.approx(0.06, abs=1e-15)
    assert d.provenance["estimation_error"] == "model training"


def test_decomposition_missing_field():
    with pytest.raises(ParseError):
        decomposition_from_dict({"bayes_error": 0.01})


def test_load_dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("point_id,weight,disagree\na,0.5,1\nb,0.3,0\nc,0.2,1\n")
    assert empirical_pfd(load_dataset(str(path))) == pytest.approx(0.7, abs=1e-12)


def test_load_dataset_bad_flag(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("point_id,weight,disagree\na,1.0,yes\n")
    with pytest.raises(ParseError, match=":2"):
        load_dataset(str(path))


def test_load_dataset_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,w,flag\na,1.0,1\n")
    with pytest.raises(ParseError, match=":1"):
        load_dataset(str(path))
