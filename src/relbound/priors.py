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
the ``ConstraintRow``s built here. A row has one of two senses: ``"le"``,
with coefficients non-decreasing along the sorted grid, or ``"eq"``, with
coefficients the 0/1 indicator of a grid prefix. A lower bound is an
``"le"`` row negated: prior reliability is -E[(1-pfd)**n0] <= -g. The
rows are also the one admission rule: ``rows_admit`` judges a prior by
them, and ``PriorDistribution.satisfies_all`` is ``rows_admit`` over the
rows built on the prior's own support. Every prior the package returns
has passed ``rows_admit``: ``solve``'s and ``oracle_solve``'s witnesses,
``check_feasible``'s witness and the audit's sampled priors. A new form
supplies its dataclass, tag and parser branch; its row in
``constraint_rows``; and its thresholds in ``forced_grid_points`` or
``threshold_points``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import InvalidDistributionError, ParseError, parsing
from .numerics import just_above, survive_prob
from .simplex import LpResult, solve_lp

MASS_TOL = 1e-9
#: LP masses at or below this are roundoff, dropped before a prior is built
MASS_DROP_TOL = 1e-12
#: slack used when an equality constraint is relaxed to two inequalities
EQUALITY_SLACK = 1e-12

DEFAULT_RESOLUTION = 2000
GRID_LOG_FLOOR = 1e-9
GRID_LOG_KNEE = 1e-2


def check_unit(name: str, value: float) -> None:
    """Refuse a probability ``value`` outside [0, 1] (NaN fails too)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class MeanBound:
    """The prior mean pfd is no worse than ``m``."""

    m: float

    def __post_init__(self) -> None:
        check_unit("m", self.m)


@dataclass(frozen=True)
class ConfidenceBound:
    """Prior confidence ``theta`` that pfd is at most ``epsilon``."""

    epsilon: float
    theta: float

    def __post_init__(self) -> None:
        check_unit("epsilon", self.epsilon)
        check_unit("theta", self.theta)


@dataclass(frozen=True)
class PerfectionConfidence:
    """Prior confidence ``theta`` that the system is perfect (pfd = 0)."""

    theta: float

    def __post_init__(self) -> None:
        check_unit("theta", self.theta)


@dataclass(frozen=True)
class PriorReliability:
    """Prior confidence ``gamma`` in surviving ``n0`` demands."""

    n0: int
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n0", as_count(self.n0, "n0", least=0))
        check_unit("gamma", self.gamma)


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


def as_count(
    value, name: str, error: type[Exception] = ValueError, least: int | None = None
) -> int:
    """``value`` as an int: an integer or an integral float, not a bool,
    small enough to convert to a float (the likelihoods use it as one)
    and, given ``least``, no smaller than that."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise error(f"{name} must be an integer count, got {value!r}")
    count = int(value)
    try:
        float(count)
    except OverflowError:
        raise error(f"{name} must be a count within the float range") from None
    if least is not None and count < least:
        raise error(f"{name} must be at least {least}, got {count}")
    return count


def as_number(value, name: str, error: type[Exception] = ValueError) -> float:
    """``value`` as a float: a real number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    return float(value)


def count_field(doc: Mapping, field: str) -> int:
    """``doc[field]`` as a count, by ``as_count``'s rule."""
    return as_count(doc[field], field, ParseError)


def number_field(doc: Mapping, field: str) -> float:
    """``doc[field]`` as a float, by ``as_number``'s rule."""
    return as_number(doc[field], field, ParseError)


def constraint_from_dict(doc: Mapping) -> PartialPriorConstraint:
    with parsing("constraint document"):
        kind = doc["type"]
        if kind == "mean_bound":
            return MeanBound(m=number_field(doc, "m"))
        if kind == "confidence_bound":
            return ConfidenceBound(
                epsilon=number_field(doc, "epsilon"), theta=number_field(doc, "theta")
            )
        if kind == "perfection_confidence":
            return PerfectionConfidence(theta=number_field(doc, "theta"))
        if kind == "prior_reliability":
            return PriorReliability(n0=count_field(doc, "n0"), gamma=number_field(doc, "gamma"))
    raise ParseError(f"unknown constraint type {kind!r}")


def constraints_from_list(docs: Sequence[Mapping]) -> tuple[PartialPriorConstraint, ...]:
    with parsing("constraint list"):
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
        if not all(w >= 0.0 for w in masses):  # NaN fails too
            raise InvalidDistributionError("masses must be non-negative")
        total = math.fsum(masses)
        if not abs(total - 1.0) <= MASS_TOL:
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

    def satisfies(self, constraint: PartialPriorConstraint) -> bool:
        return self.satisfies_all((constraint,))

    def satisfies_all(self, constraints: Iterable[PartialPriorConstraint]) -> bool:
        """``rows_admit`` over the constraints' rows on this prior's support."""
        support = np.asarray(self.support)
        rows = constraint_rows(tuple(constraints), support)
        masses = np.asarray(self.masses)[None]
        return bool(rows_admit(rows, np.arange(support.size)[None], masses)[0])

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
    resolution = as_count(resolution, "resolution", least=2)
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
    sense: str  # "le" | "eq"
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
            # E[(1-pfd)**n0] >= gamma, negated into an upper bound
            coeffs = -survive_prob(points, constraint.n0)
            rows.append(ConstraintRow(coeffs, "le", -constraint.gamma))
        else:
            raise TypeError(f"unknown constraint {constraint!r}")
    return rows


def equality_cuts(rows: Sequence[ConstraintRow]) -> list[tuple[int, float]]:
    """``(cut, rhs)`` for every ``"eq"`` row, in row order: the row is the
    0/1 indicator of the sorted grid's first ``cut`` points."""
    return [(int(np.count_nonzero(row.coeffs)), row.rhs) for row in rows if row.sense == "eq"]


def rows_admit(
    rows: Sequence[ConstraintRow], supports: np.ndarray, masses: np.ndarray
) -> np.ndarray:
    """Whether each row of ``masses`` meets every constraint row: an
    ``"le"`` row passes at a value up to rhs + ``MASS_TOL``, an ``"eq"`` row
    within ``MASS_TOL`` of rhs.

    Row i of ``masses`` weighs the grid indices in row i of ``supports``;
    both are ``(count, m)`` arrays.
    """
    if not rows:
        return np.ones(len(masses), dtype=bool)
    coeffs = np.stack([row.coeffs[supports] for row in rows], axis=1)
    values = np.matmul(coeffs, masses[:, :, None])[:, :, 0]
    rhs = np.array([row.rhs for row in rows])
    eq = np.array([row.sense == "eq" for row in rows])
    meets = np.where(eq, np.abs(values - rhs) <= MASS_TOL, values <= rhs + MASS_TOL)
    return meets.all(axis=1)


def homogeneous_ub(rows: Sequence[ConstraintRow], scale=1.0) -> np.ndarray | None:
    """The rows as ``A x <= 0`` over masses ``x * scale`` (a scalar or one
    factor per column), each equality relaxed to two inequalities by
    ±``EQUALITY_SLACK``; None if no rows. With ``sum(x) = 1`` and unit
    scale, an ``"le"`` row reads ``coeffs @ x <= rhs``."""
    a_list: list[np.ndarray] = []
    for row in rows:
        coeffs = row.coeffs / scale
        rhs = row.rhs / scale
        if row.sense == "le":
            a_list.append(coeffs - rhs)
        else:
            delta = EQUALITY_SLACK / scale
            a_list.append(coeffs - rhs - delta)
            a_list.append(rhs - delta - coeffs)
    if not a_list:
        return None
    return np.vstack(a_list)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility check over the constraint set."""

    feasible: bool
    witness: PriorDistribution | None
    unsatisfiable: tuple[PartialPriorConstraint, ...]


def drop_roundoff(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``masses`` with every mass at or below ``MASS_DROP_TOL``
    dropped and the rest renormalised, and whether each row kept any mass.
    A row that kept none is all zero."""
    cleaned = np.where(masses > MASS_DROP_TOL, masses, 0.0)
    totals = cleaned.sum(axis=1)
    kept = totals > 0.0
    cleaned /= np.where(kept, totals, 1.0)[:, None]
    return cleaned, kept


def carried_prior(
    points: np.ndarray, support: np.ndarray, masses: np.ndarray
) -> PriorDistribution:
    """The prior with ``masses`` on grid indices ``support``, over its
    positive masses only."""
    carried = masses > 0.0
    return PriorDistribution(tuple(points[support[carried]]), tuple(masses[carried]))


def admitted_row(rows, x) -> tuple[np.ndarray, np.ndarray] | None:
    """The row ``(support, masses)`` that ``drop_roundoff`` leaves of grid
    masses ``x``, over its carried points, if ``rows_admit`` accepts it;
    otherwise None. The one way from an LP's masses to a witness."""
    (masses,), (kept,) = drop_roundoff(x[None])
    support = np.flatnonzero(masses)
    if not kept or not rows_admit(rows, support[None], masses[None, support])[0]:
        return None
    return support, masses[support]


def grid_feasibility(rows: Sequence[ConstraintRow], n_points: int) -> LpResult:
    """Whether some prior on ``n_points`` grid points meets ``rows``: the
    zero-cost program {``homogeneous_ub(rows) @ x <= 0``, sum(x) = 1, x >= 0},
    optimal exactly when it is feasible. Its ``start`` serves any objective
    over these points, as ``solve_lp(..., start=...)``; ``solve``'s first
    window and ``check_feasible`` both start from it."""
    a_ub = homogeneous_ub(rows)
    return solve_lp(
        np.zeros(n_points),
        a_ub=a_ub,
        b_ub=None if a_ub is None else np.zeros(a_ub.shape[0]),
        a_eq=np.ones((1, n_points)),
        b_eq=np.ones(1),
    )


def check_feasible(
    constraints: Sequence[PartialPriorConstraint], grid: PfdGrid
) -> FeasibilityResult:
    """Feasibility of the constraint set over grid-supported priors, by
    ``grid_feasibility``, the program ``solve`` gates on.

    On success the witness is the feasible prior with the largest mean
    pfd (the most pessimistic admissible belief), one phase 2 from that
    program's start, as ``admitted_row`` leaves it; with no constraints at
    all it is the point mass at 1. It is None if roundoff in the start
    leaves that phase 2 without an optimum, or ends it on masses that
    ``rows_admit`` refuses. On failure the result names an irreducible
    unsatisfiable subset, found by greedy deletion by position, so that a
    repeated constraint is deleted one copy at a time.
    """
    points = grid.as_array()
    rows = constraint_rows(constraints, points)  # one row per constraint
    feasibility = grid_feasibility(rows, points.size)
    if feasibility.status == "optimal":
        start = feasibility.start
        b_ub = np.zeros(start.n_cols - points.size)  # sizes the start's slack columns
        max_mean = solve_lp(points, b_ub=b_ub, maximize=True, start=start)
        row = admitted_row(rows, max_mean.x) if max_mean.status == "optimal" else None
        return FeasibilityResult(True, None if row is None else carried_prior(points, *row), ())
    remaining = list(range(len(rows)))
    for i in range(len(rows)):
        trial = [j for j in remaining if j != i]
        if grid_feasibility([rows[j] for j in trial], points.size).status != "optimal":
            remaining = trial
    return FeasibilityResult(False, None, tuple(constraints[i] for i in remaining))
