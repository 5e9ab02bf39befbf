"""Partial prior knowledge over pfd, discrete priors, and pfd grids.

Four constraint forms restrict an otherwise unknown prior distribution
over the probability of failure per demand:

* ``MeanBound(m)``        — E[pfd] <= m
* ``ConfidenceBound(e,t)`` — Pr(pfd <= e) = t
* ``PerfectionConfidence(t)`` — Pr(pfd = 0) = t
* ``PriorReliability(n0,g)`` — E[(1-pfd)**n0] >= g

Constraints combine conjunctively. A confidence bound uses a closed
boundary: mass placed exactly at the threshold counts toward it.

Only this module says what a form means; the solver reads nothing but
the ``ConstraintRow``s built here. A new form supplies its dataclass, tag
and parser branch; its exact check in ``PriorDistribution.satisfies``; its
row in ``constraint_rows`` (``"le"`` non-decreasing along the sorted grid,
``"ge"`` non-increasing, ``"eq"`` the 0/1 indicator of a grid prefix); and
its thresholds in ``forced_grid_points`` or ``threshold_points``. The one
other place to edit is ``operational._seed_support``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import InvalidDistributionError, ParseError
from .numerics import just_above, survive_prob

MASS_TOL = 1e-9
#: slack used when an equality constraint is relaxed to two inequalities
EQUALITY_SLACK = 1e-12

DEFAULT_RESOLUTION = 2000
GRID_LOG_FLOOR = 1e-9
GRID_LOG_KNEE = 1e-2


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class MeanBound:
    """The prior mean pfd is no worse than ``m``."""

    m: float

    def __post_init__(self) -> None:
        _check_unit("m", self.m)


@dataclass(frozen=True)
class ConfidenceBound:
    """Prior confidence ``theta`` that pfd is at most ``epsilon``."""

    epsilon: float
    theta: float

    def __post_init__(self) -> None:
        _check_unit("epsilon", self.epsilon)
        _check_unit("theta", self.theta)


@dataclass(frozen=True)
class PerfectionConfidence:
    """Prior confidence ``theta`` that the system is perfect (pfd = 0)."""

    theta: float

    def __post_init__(self) -> None:
        _check_unit("theta", self.theta)


@dataclass(frozen=True)
class PriorReliability:
    """Prior confidence ``gamma`` in surviving ``n0`` demands."""

    n0: int
    gamma: float

    def __post_init__(self) -> None:
        if self.n0 < 0 or int(self.n0) != self.n0:
            raise ValueError(f"n0 must be a non-negative integer, got {self.n0!r}")
        _check_unit("gamma", self.gamma)


PartialPriorConstraint = Union[MeanBound, ConfidenceBound, PerfectionConfidence, PriorReliability]

_CONSTRAINT_TAGS = {
    MeanBound: "mean_bound",
    ConfidenceBound: "confidence_bound",
    PerfectionConfidence: "perfection_confidence",
    PriorReliability: "prior_reliability",
}


def constraint_to_dict(constraint: PartialPriorConstraint) -> dict:
    doc = {"type": _CONSTRAINT_TAGS[type(constraint)]}
    doc.update(vars(constraint))
    return doc


def count_field(doc: Mapping, field: str) -> int:
    """``doc[field]`` as a count: an int or an integral float, not a bool."""
    value = doc[field]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"{field} must be an integer count, got {value!r}")
    return int(value)


def constraint_from_dict(doc: Mapping) -> PartialPriorConstraint:
    try:
        kind = doc["type"]
        if kind == "mean_bound":
            return MeanBound(m=float(doc["m"]))
        if kind == "confidence_bound":
            return ConfidenceBound(epsilon=float(doc["epsilon"]), theta=float(doc["theta"]))
        if kind == "perfection_confidence":
            return PerfectionConfidence(theta=float(doc["theta"]))
        if kind == "prior_reliability":
            return PriorReliability(n0=count_field(doc, "n0"), gamma=float(doc["gamma"]))
    except KeyError as exc:
        raise ParseError(f"constraint document missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad constraint document: {exc}") from None
    raise ParseError(f"unknown constraint type {doc.get('type')!r}")


def constraints_from_list(docs: Sequence[Mapping]) -> tuple[PartialPriorConstraint, ...]:
    return tuple(constraint_from_dict(doc) for doc in docs)


@dataclass(frozen=True)
class PriorDistribution:
    """Finitely supported probability distribution over pfd values."""

    support: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.masses):
            raise InvalidDistributionError("support and masses differ in length")
        if not self.support:
            raise InvalidDistributionError("empty distribution")
        order = sorted(range(len(self.support)), key=lambda i: self.support[i])
        support = tuple(float(self.support[i]) for i in order)
        masses = tuple(float(self.masses[i]) for i in order)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)
        if any(not 0.0 <= p <= 1.0 for p in support):
            raise InvalidDistributionError("support values must lie in [0, 1]")
        if any(a == b for a, b in zip(support, support[1:])):
            raise InvalidDistributionError("support values must be distinct")
        if any(w < 0.0 for w in masses):
            raise InvalidDistributionError("masses must be non-negative")
        total = math.fsum(masses)
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidDistributionError(f"masses sum to {total!r}, expected 1")

    @classmethod
    def point_mass(cls, value: float) -> "PriorDistribution":
        return cls(support=(value,), masses=(1.0,))

    def mean(self) -> float:
        return math.fsum(p * w for p, w in zip(self.support, self.masses))

    def prob_at_most(self, threshold: float) -> float:
        """Pr(pfd <= threshold); the boundary point counts."""
        return math.fsum(w for p, w in zip(self.support, self.masses) if p <= threshold)

    def prob_of_zero(self) -> float:
        return math.fsum(w for p, w in zip(self.support, self.masses) if p == 0.0)

    def reliability_moment(self, t: int) -> float:
        return math.fsum(w * survive_prob(p, t) for p, w in zip(self.support, self.masses))

    def satisfies(self, constraint: PartialPriorConstraint, tol: float = MASS_TOL) -> bool:
        if isinstance(constraint, MeanBound):
            return self.mean() <= constraint.m + tol
        if isinstance(constraint, ConfidenceBound):
            return abs(self.prob_at_most(constraint.epsilon) - constraint.theta) <= tol
        if isinstance(constraint, PerfectionConfidence):
            return abs(self.prob_of_zero() - constraint.theta) <= tol
        if isinstance(constraint, PriorReliability):
            return self.reliability_moment(constraint.n0) >= constraint.gamma - tol
        raise TypeError(f"unknown constraint {constraint!r}")

    def satisfies_all(
        self, constraints: Iterable[PartialPriorConstraint], tol: float = MASS_TOL
    ) -> bool:
        return all(self.satisfies(c, tol) for c in constraints)

    def to_dict(self) -> dict:
        return {"support": list(self.support), "masses": list(self.masses)}


@dataclass(frozen=True)
class PfdGrid:
    """Sorted, distinct candidate pfd values in [0, 1], always with 0 and 1."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        array = np.asarray(self.points, dtype=float)
        if not np.all((array >= 0.0) & (array <= 1.0)):
            raise ValueError("grid points must lie in [0, 1]")
        array = np.unique(array)
        if not array.size or array[0] != 0.0 or array[-1] != 1.0:
            raise ValueError("grid must contain 0 and 1")
        array.flags.writeable = False
        object.__setattr__(self, "points", tuple(array.tolist()))
        object.__setattr__(self, "_array", array)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        """The points as a float array, built once per grid; the same
        read-only array is returned on every call."""
        return self._array

    def refine(self) -> "PfdGrid":
        """Insert a midpoint into every interval (a strict superset grid)."""
        pts = self._array
        return PfdGrid(np.concatenate([pts, (pts[:-1] + pts[1:]) / 2.0]))


def forced_grid_points(
    constraints: Sequence[PartialPriorConstraint], objective=None
) -> list[float]:
    """Thresholds the grid must contain, with a just-above companion for
    every closed equality boundary (so mass can sit immediately past it)."""
    forced: list[float] = [0.0, 1.0]
    for constraint in constraints:
        if isinstance(constraint, ConfidenceBound):
            forced.extend((constraint.epsilon, just_above(constraint.epsilon)))
        elif isinstance(constraint, PerfectionConfidence):
            forced.append(just_above(0.0))
        elif isinstance(constraint, MeanBound):
            forced.append(constraint.m)
    p_req = getattr(objective, "p_req", None)
    if p_req is not None:
        forced.extend((p_req, just_above(p_req)))
    return [p for p in forced if 0.0 <= p <= 1.0]


def threshold_points(
    constraints: Sequence[PartialPriorConstraint], objective=None
) -> list[float]:
    """The forced grid points inside (0, 1), plus each prior-reliability
    boundary 1 - gamma**(1/n0), which a point mass there meets exactly."""
    points = [p for p in forced_grid_points(constraints, objective) if p not in (0.0, 1.0)]
    for c in constraints:
        if isinstance(c, PriorReliability) and c.n0 > 0 and c.gamma > 0.0:
            points.append(1.0 - c.gamma ** (1.0 / c.n0))  # in [0, 1) for gamma in (0, 1]
    return points


def build_grid(
    constraints: Sequence[PartialPriorConstraint] = (),
    objective=None,
    resolution: int = DEFAULT_RESOLUTION,
) -> PfdGrid:
    """Geometric-plus-linear grid over [0, 1] with forced threshold points.

    ``resolution`` counts the base points before thresholds are merged in:
    log-spaced below 1e-2 (pfd claims of interest reach 1e-9, so relative
    spacing matters there) and linear above.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    interior = resolution - 2
    n_log = interior // 2
    n_lin = interior - n_log
    return PfdGrid(
        np.concatenate(
            [
                [0.0, 1.0],
                np.geomspace(GRID_LOG_FLOOR, GRID_LOG_KNEE, num=n_log),
                np.linspace(GRID_LOG_KNEE, 1.0, num=n_lin + 2)[1:-1],
                forced_grid_points(constraints, objective),
            ]
        )
    )


@dataclass(frozen=True)
class ConstraintRow:
    """One linear row a·x (sense) rhs over grid-point masses x."""

    coeffs: np.ndarray
    sense: str  # "le" | "ge" | "eq"
    rhs: float


def constraint_rows(
    constraints: Sequence[PartialPriorConstraint], points: np.ndarray
) -> list[ConstraintRow]:
    rows: list[ConstraintRow] = []
    for constraint in constraints:
        if isinstance(constraint, MeanBound):
            rows.append(ConstraintRow(points.astype(float), "le", constraint.m))
        elif isinstance(constraint, ConfidenceBound):
            coeffs = (points <= constraint.epsilon).astype(float)
            rows.append(ConstraintRow(coeffs, "eq", constraint.theta))
        elif isinstance(constraint, PerfectionConfidence):
            coeffs = (points == 0.0).astype(float)
            rows.append(ConstraintRow(coeffs, "eq", constraint.theta))
        elif isinstance(constraint, PriorReliability):
            rows.append(ConstraintRow(survive_prob(points, constraint.n0), "ge", constraint.gamma))
        else:
            raise TypeError(f"unknown constraint {constraint!r}")
    return rows


def rows_as_ub(rows: Sequence[ConstraintRow]):
    """Express rows as A x <= b, relaxing equalities by ±``EQUALITY_SLACK``."""
    a_list: list[np.ndarray] = []
    b_list: list[float] = []
    for row in rows:
        if row.sense == "le":
            a_list.append(row.coeffs)
            b_list.append(row.rhs)
        elif row.sense == "ge":
            a_list.append(-row.coeffs)
            b_list.append(-row.rhs)
        elif row.sense == "eq":
            a_list.append(row.coeffs)
            b_list.append(row.rhs + EQUALITY_SLACK)
            a_list.append(-row.coeffs)
            b_list.append(-(row.rhs - EQUALITY_SLACK))
        else:
            raise ValueError(f"unknown sense {row.sense!r}")
    if not a_list:
        return np.zeros((0, 0)), np.zeros(0)
    return np.vstack(a_list), np.asarray(b_list, dtype=float)


def homogeneous_ub(rows: Sequence[ConstraintRow], scale=1.0) -> np.ndarray | None:
    """The rows as ``A x <= 0`` over masses ``x * scale`` (a scalar or one
    factor per column), equalities relaxed as in ``rows_as_ub``; None if no rows."""
    a_list: list[np.ndarray] = []
    for row in rows:
        coeffs = row.coeffs / scale
        rhs = row.rhs / scale
        if row.sense == "le":
            a_list.append(coeffs - rhs)
        elif row.sense == "ge":
            a_list.append(rhs - coeffs)
        elif row.sense == "eq":
            delta = EQUALITY_SLACK / scale
            a_list.append(coeffs - rhs - delta)
            a_list.append(rhs - delta - coeffs)
        else:
            raise ValueError(f"unknown sense {row.sense!r}")
    if not a_list:
        return None
    return np.vstack(a_list)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility check over the constraint set."""

    feasible: bool
    witness: PriorDistribution | None
    unsatisfiable: tuple[PartialPriorConstraint, ...]


def _clean_masses(x: np.ndarray) -> np.ndarray:
    cleaned = np.where(x > 1e-12, x, 0.0)
    total = cleaned.sum()
    if total <= 0.0:
        return x / x.sum()
    return cleaned / total


def _distribution_from_solution(points: np.ndarray, x: np.ndarray) -> PriorDistribution:
    cleaned = _clean_masses(np.maximum(x, 0.0))
    idx = np.nonzero(cleaned)[0]
    return PriorDistribution(tuple(points[idx]), tuple(cleaned[idx]))


def max_mean_prior(points: np.ndarray, rows: Sequence[ConstraintRow]) -> PriorDistribution | None:
    """The feasible prior maximising E[pfd], or None when infeasible.

    ``rows`` are the constraints' rows over ``points``, as
    ``constraint_rows`` builds them.
    """
    from .simplex import solve_lp

    a_ub, b_ub = rows_as_ub(rows)  # zero rows when there are no constraints
    result = solve_lp(
        points.astype(float),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=np.ones((1, points.size)),
        b_eq=np.ones(1),
        maximize=True,
    )
    if result.status != "optimal":
        return None
    return _distribution_from_solution(points, result.x)


def check_feasible(
    constraints: Sequence[PartialPriorConstraint], grid: PfdGrid
) -> FeasibilityResult:
    """Feasibility of the constraint set over grid-supported priors.

    On success the witness is the feasible prior with the largest mean
    pfd (the most pessimistic admissible belief); with no constraints at
    all that is the point mass at 1. On failure the result names an
    irreducible unsatisfiable subset, found by greedy deletion.
    """
    points = grid.as_array()
    witness = max_mean_prior(points, constraint_rows(constraints, points))
    if witness is not None:
        return FeasibilityResult(True, witness, ())
    remaining = list(constraints)
    for constraint in list(remaining):
        trial = [c for c in remaining if c is not constraint]
        if max_mean_prior(points, constraint_rows(trial, points)) is None:
            remaining = trial
    return FeasibilityResult(False, None, tuple(remaining))
