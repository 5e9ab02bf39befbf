"""Probabilistic measures over finite weighted datasets.

The failure measure (pfd: probability of failure per randomly selected
demand) and the instance-wise interpretability measure share the same
arithmetic: a weighted disagreement rate under an operational profile.
The module also keeps a ledger of asserted generalisation-error
components with their lifecycle provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .csvio import csv_records
from .errors import (
    InvalidDatasetError,
    InvalidDecompositionError,
    InvalidProfileError,
    ParseError,
    parsing,
)
from .priors import number_field

WEIGHT_TOL = 1e-9


def _check_weights(pairs, exc_type) -> None:
    ids = [pid for pid, _ in pairs]
    if len(set(ids)) != len(ids):
        raise exc_type("point ids must be unique")
    total = 0.0
    for pid, w in pairs:
        if not w >= 0.0:  # NaN fails too
            raise exc_type(f"negative weight {w!r} for point {pid!r}")
        total += w
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise exc_type(f"weights sum to {total!r}, expected 1 within {WEIGHT_TOL}")


@dataclass(frozen=True)
class OperationalProfile:
    """Probability of each input point being selected in operation."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        _check_weights(self.entries, InvalidProfileError)

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)


@dataclass(frozen=True)
class MeasuredDataset:
    """Weighted points with an evaluated disagreement flag per point.

    For the failure measure the flag records a prediction that differs from
    ground truth; for the interpretability measure it records an
    explanation inconsistent with the human one. The weights must form an
    operational profile.
    """

    items: tuple[tuple[str, float, bool], ...]

    def __post_init__(self) -> None:
        _check_weights([(pid, w) for pid, w, _ in self.items], InvalidDatasetError)

    def profile(self) -> OperationalProfile:
        return OperationalProfile(tuple((pid, w) for pid, w, _ in self.items))


def _weighted_disagreement(data: MeasuredDataset) -> float:
    return math.fsum(w for _, w, flag in data.items if flag)


def empirical_pfd(data: MeasuredDataset) -> float:
    """Probability mass of the points where the model disagrees with truth."""
    return _weighted_disagreement(data)


def interpretability_measure(data: MeasuredDataset) -> float:
    """Probability mass of the points with an inconsistent explanation.

    Same arithmetic as :func:`empirical_pfd`; only the meaning of the
    flag differs (explanation inconsistency instead of misclassification).
    """
    return _weighted_disagreement(data)


@dataclass(frozen=True)
class ErrorDecomposition:
    """Asserted generalisation-error components with their provenance.

    The components are ingested as claimed estimates (there is no agreed
    procedure to compute them from data); ``provenance`` records which
    lifecycle stage produced each estimate.
    """

    bayes_error: float
    approximation_error: float
    estimation_error: float
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        parts = {
            "bayes_error": self.bayes_error,
            "approximation_error": self.approximation_error,
            "estimation_error": self.estimation_error,
        }
        for name, value in parts.items():
            if not value >= 0.0:  # NaN fails too
                raise InvalidDecompositionError(f"{name} is negative: {value!r}")
        if not math.fsum(parts.values()) <= 1.0 + WEIGHT_TOL:
            raise InvalidDecompositionError("components sum beyond 1")


def total_error(d: ErrorDecomposition) -> float:
    """Total generalisation error: sum of the three components."""
    return math.fsum((d.bayes_error, d.approximation_error, d.estimation_error))


def load_dataset(path: str) -> MeasuredDataset:
    """Read a dataset CSV with header ``point_id,weight,disagree``."""
    items: list[tuple[str, float, bool]] = []
    for lineno, row in csv_records(path, ("point_id", "weight", "disagree")):
        pid, weight_text, flag_text = (cell.strip() for cell in row)
        with parsing("weight", at=f"{path}:{lineno}"):
            weight = float(weight_text)
        if flag_text not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: disagree must be 0 or 1, got {flag_text!r}")
        items.append((pid, weight, flag_text == "1"))
    return MeasuredDataset(tuple(items))


def decomposition_from_dict(doc: Mapping) -> ErrorDecomposition:
    with parsing("decomposition document"):
        return ErrorDecomposition(
            bayes_error=number_field(doc, "bayes_error"),
            approximation_error=number_field(doc, "approximation_error"),
            estimation_error=number_field(doc, "estimation_error"),
            provenance=dict(doc.get("provenance", {})),
        )
