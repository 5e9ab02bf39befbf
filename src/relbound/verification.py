"""Prior confidence bounds from robustness-verification coverage.

A verifier reports which parts of the input domain are proven robust;
under the operational profile, the unproven mass is an upper bound on
the failure probability a verified-perfect tool would admit. Assessor
trust in the tool and its assumptions enters as the confidence theta,
yielding the constraint Pr(pfd <= epsilon) = theta for the solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .csvio import csv_records
from .errors import InvalidCoverageError, ParseError, parsing
from .measures import OperationalProfile
from .priors import ConfidenceBound, as_number


@dataclass(frozen=True)
class PiecewiseDensity:
    """Piecewise-constant density over [0, 1]; pieces are (lo, hi, density)."""

    pieces: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.pieces))
        object.__setattr__(self, "pieces", ordered)
        prev_hi = 0.0
        total = 0.0
        for lo, hi, density in ordered:
            if not (0.0 <= lo < hi <= 1.0):
                raise InvalidCoverageError(f"density piece [{lo}, {hi}] outside [0, 1]")
            if lo < prev_hi - 1e-15:
                raise InvalidCoverageError("density pieces overlap")
            if not density >= 0.0:  # NaN fails too
                raise InvalidCoverageError("density must be non-negative")
            total += density * (hi - lo)
            prev_hi = hi
        if not abs(total - 1.0) <= 1e-9:
            raise InvalidCoverageError(f"density integrates to {total!r}, expected 1")

    @classmethod
    def uniform(cls) -> "PiecewiseDensity":
        return cls(((0.0, 1.0, 1.0),))

    def measure(self, intervals: Sequence[tuple[float, float]]) -> float:
        """Probability mass of a union of disjoint intervals."""
        parts = []
        for lo, hi in intervals:
            for plo, phi, density in self.pieces:
                overlap = min(hi, phi) - max(lo, plo)
                if overlap > 0.0:
                    parts.append(density * overlap)
        return math.fsum(parts)


@dataclass(frozen=True)
class IntervalCoverage:
    """Verified cells as sub-intervals of [0, 1]; overlaps allowed on input."""

    cells: tuple[tuple[tuple[float, float], bool], ...]
    density: PiecewiseDensity = field(default_factory=PiecewiseDensity.uniform)

    def __post_init__(self) -> None:
        for (lo, hi), _covered in self.cells:
            if not (0.0 <= lo <= hi <= 1.0):
                raise InvalidCoverageError(f"interval [{lo}, {hi}] outside the domain [0, 1]")


@dataclass(frozen=True)
class DiscreteCoverage:
    """Verified cells over the point ids of a discrete operational profile."""

    cells: tuple[tuple[str, bool], ...]
    profile: OperationalProfile

    def __post_init__(self) -> None:
        cell_ids = [pid for pid, _ in self.cells]
        if len(set(cell_ids)) != len(cell_ids):
            raise InvalidCoverageError("duplicate cell ids")
        if set(cell_ids) != set(self.profile.as_dict()):
            raise InvalidCoverageError("cells must partition the profile's point ids")


VerifiedCoverage = Union[IntervalCoverage, DiscreteCoverage]


@dataclass(frozen=True)
class TrustedBound:
    """A verified pfd bound together with the assessor's trust in it.

    The verifier's result alone says pfd <= epsilon; doubt about the
    tool and its assumptions (ground-truth-invariant neighbourhoods,
    tool soundness) discounts it to confidence theta.
    """

    epsilon: float
    theta: float

    def __post_init__(self) -> None:
        for name, value in (("epsilon", self.epsilon), ("theta", self.theta)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    def as_constraint(self) -> ConfidenceBound:
        return prior_from_verification(self.epsilon, self.theta)


def merge_intervals(
    intervals: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Union of possibly overlapping intervals as a sorted disjoint list."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def coverage_bound(cov: VerifiedCoverage) -> float:
    """The profile mass left unverified: epsilon = 1 - mass(covered cells)."""
    if isinstance(cov, DiscreteCoverage):
        weights = cov.profile.as_dict()
        covered = math.fsum(weights[pid] for pid, flag in cov.cells if flag)
    elif isinstance(cov, IntervalCoverage):
        merged = merge_intervals([cell for cell, flag in cov.cells if flag])
        covered = cov.density.measure(merged)
    else:
        raise TypeError(f"unknown coverage {cov!r}")
    return max(1.0 - covered, 0.0)


def prior_from_verification(epsilon: float, theta: float) -> ConfidenceBound:
    """Package a verified bound and the trust in it as a prior constraint."""
    return ConfidenceBound(epsilon=epsilon, theta=theta)


def density_from_dict(doc: Mapping) -> PiecewiseDensity:
    with parsing("density document"):
        kind = doc.get("kind")
        if kind == "uniform":
            return PiecewiseDensity.uniform()
        if kind == "piecewise":
            return PiecewiseDensity(
                tuple(
                    tuple(as_number(value, "piece", ParseError) for value in (lo, hi, density))
                    for lo, hi, density in doc["pieces"]
                )
            )
    raise ParseError(f"unknown density kind {kind!r}")


def profile_from_dict(doc: Mapping) -> OperationalProfile:
    with parsing("discrete profile document"):
        if doc.get("kind") != "discrete":
            raise ParseError(f"expected a discrete profile, got kind {doc.get('kind')!r}")
        return OperationalProfile(
            tuple((str(pid), as_number(w, "weight", ParseError)) for pid, w in doc["weights"].items())
        )


def load_interval_coverage(path: str, density: PiecewiseDensity | None = None) -> IntervalCoverage:
    """Read covered intervals from a CSV with header ``lo,hi``."""
    cells: list[tuple[tuple[float, float], bool]] = []
    for lineno, row in csv_records(path, ("lo", "hi")):
        with parsing("interval", at=f"{path}:{lineno}"):
            lo, hi = float(row[0]), float(row[1])
        cells.append(((lo, hi), True))
    return IntervalCoverage(tuple(cells), density or PiecewiseDensity.uniform())


def load_discrete_coverage(path: str, profile: OperationalProfile) -> DiscreteCoverage:
    """Read per-point coverage flags from a CSV with header ``point_id,covered``."""
    cells: list[tuple[str, bool]] = []
    for lineno, row in csv_records(path, ("point_id", "covered")):
        pid, flag_text = row[0].strip(), row[1].strip()
        if flag_text not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: covered must be 0 or 1, got {flag_text!r}")
        cells.append((pid, flag_text == "1"))
    return DiscreteCoverage(tuple(cells), profile)


def load_coverage(coverage_path: str, profile_path: str | None = None) -> VerifiedCoverage:
    """Sniff the CSV header and load interval or discrete coverage.

    Interval coverage takes an optional density document; discrete
    coverage requires a profile document.
    """
    with open(coverage_path, newline="") as fh:
        header = fh.readline().strip()
    fields = [h.strip() for h in header.split(",")]
    if fields == ["lo", "hi"]:
        density = None
        if profile_path is not None:
            with open(profile_path) as fh:
                density = density_from_dict(json.load(fh))
        return load_interval_coverage(coverage_path, density)
    if fields == ["point_id", "covered"]:
        if profile_path is None:
            raise ParseError("discrete coverage requires a profile document")
        with open(profile_path) as fh:
            profile = profile_from_dict(json.load(fh))
        return load_discrete_coverage(coverage_path, profile)
    raise ParseError(f"{coverage_path}:1: unrecognised coverage header {header!r}")
