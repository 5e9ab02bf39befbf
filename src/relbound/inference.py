"""i.i.d. Bernoulli observation model and posterior functionals.

Given a fully specified discrete prior over pfd, these are exact,
closed-form computations; the conservative solver optimises them over
all priors admitted by the partial knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Union

import numpy as np

from .errors import ParseError, ZeroEvidenceError, parsing
from .numerics import EXP_UNDERFLOW, survive_prob
from .priors import PriorDistribution, as_count, count_field, number_field

CONSERVATIVE_MAX = "conservative-max"
CONSERVATIVE_MIN = "conservative-min"


@dataclass(frozen=True)
class Observation:
    """``k`` failures observed in ``n`` demands."""

    n: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_count(self.n, "n"))
        object.__setattr__(self, "k", as_count(self.k, "k"))
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got n={self.n}, k={self.k}")

    def to_dict(self) -> dict:
        return {"n": self.n, "k": self.k}


@dataclass(frozen=True)
class PosteriorExpectedPfd:
    """E[pfd | data]; the worst case maximises it."""

    direction: ClassVar[str] = CONSERVATIVE_MAX


@dataclass(frozen=True)
class PosteriorConfidence:
    """Pr(pfd <= p_req | data); the worst case minimises it."""

    p_req: float
    direction: ClassVar[str] = CONSERVATIVE_MIN

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_req <= 1.0:
            raise ValueError(f"p_req must lie in [0, 1], got {self.p_req!r}")


@dataclass(frozen=True)
class FutureReliability:
    """E[(1-pfd)**t | data], surviving t further demands; worst case minimises."""

    t: int
    direction: ClassVar[str] = CONSERVATIVE_MIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", as_count(self.t, "t", least=0))


ObjectiveSpec = Union[PosteriorExpectedPfd, PosteriorConfidence, FutureReliability]

_OBJECTIVE_TAGS = {
    PosteriorExpectedPfd: "posterior_expected_pfd",
    PosteriorConfidence: "posterior_confidence",
    FutureReliability: "future_reliability",
}


def objective_to_dict(objective: ObjectiveSpec) -> dict:
    doc = {"type": _OBJECTIVE_TAGS[type(objective)]}
    doc.update(vars(objective))
    return doc


def objective_from_dict(doc: Mapping) -> ObjectiveSpec:
    with parsing("objective document"):
        kind = doc["type"]
        if kind == "posterior_expected_pfd":
            return PosteriorExpectedPfd()
        if kind == "posterior_confidence":
            return PosteriorConfidence(p_req=number_field(doc, "p_req"))
        if kind == "future_reliability":
            return FutureReliability(t=count_field(doc, "t"))
    raise ParseError(f"unknown objective type {kind!r}")


def objective_gain(objective: ObjectiveSpec, points: np.ndarray) -> np.ndarray:
    """The functional g(p) whose posterior expectation is being bounded."""
    points = np.asarray(points, dtype=float)
    if isinstance(objective, PosteriorExpectedPfd):
        return points.copy()
    if isinstance(objective, PosteriorConfidence):
        return (points <= objective.p_req).astype(float)
    if isinstance(objective, FutureReliability):
        return survive_prob(points, objective.t)
    raise TypeError(f"unknown objective {objective!r}")


def likelihood(p: float, obs: Observation) -> float:
    """p**k * (1-p)**(n-k) with the 0**0 == 1 convention.

    The binomial coefficient is omitted: it is constant in p and cancels
    in every posterior ratio. It is evaluated in log space, so failure-free
    runs of ~1e6 demands do not underflow pointwise arithmetic prematurely.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return float(np.exp(log_likelihood_vector(np.array([p]), obs)[0]))


def log_likelihood_vector(points: np.ndarray, obs: Observation) -> np.ndarray:
    """log of the likelihood at each point; -inf where it is exactly 0."""
    points = np.asarray(points, dtype=float)
    out = np.zeros_like(points)
    with np.errstate(divide="ignore"):
        if obs.k > 0:
            out = out + obs.k * np.log(points)
        if obs.n - obs.k > 0:
            out = out + (obs.n - obs.k) * np.log1p(-points)
    return out


def _posterior_ratio(
    log_lik: np.ndarray, gains: np.ndarray, masses: np.ndarray, obs: Observation
) -> tuple[np.ndarray, list[ZeroEvidenceError | None]]:
    """Posterior functional of each row of raw (not necessarily normalised)
    masses.

    Row i of ``log_lik`` and of ``gains`` holds the log-likelihoods and the
    objective gains of the points that row i of ``masses`` weighs. The
    ratio is invariant under positive scaling of a row. Each row's
    likelihood is shifted by its maximum over the row's carried support
    before exponentiation, so the result stays exact even when the
    absolute likelihood scale underflows float64. Both sums of a row are
    that row's own dot product (``np.matmul`` over a stack of rows), so a
    row gets the same bits in any batch.

    Returns ``(values, errors)``. A row that carries no point of positive
    likelihood has value NaN and, in ``errors``, the ``ZeroEvidenceError``
    that ``posterior_value`` raises for it; every other row has None.
    """
    finite = (masses > 0.0) & np.isfinite(log_lik)
    shifts = np.max(np.where(finite, log_lik, -np.inf), axis=1, keepdims=True)
    # a row with no carried point of finite likelihood reads -inf - -inf
    # and then 0 / 0; every other row has evidence of at least the mass of
    # its largest-likelihood point, whose scaled likelihood is exp(0) = 1
    with np.errstate(invalid="ignore"):
        scaled = np.where(finite, np.exp(np.clip(log_lik - shifts, EXP_UNDERFLOW, 0.0)), 0.0)
        evidence = np.matmul(masses[:, None, :], scaled[:, :, None])[:, 0, 0]
        numerator = np.matmul((masses * scaled)[:, None, :], gains[:, :, None])[:, 0, 0]
        # every gain lies in [0, 1], so a value is at most 1; the numerator
        # and the evidence round differently and can put it an ulp above
        values = np.minimum(numerator / evidence, 1.0)
    errors: list[ZeroEvidenceError | None] = [None] * len(values)
    for row in np.flatnonzero(~finite.any(axis=1)).tolist():
        errors[row] = ZeroEvidenceError(
            f"observation n={obs.n}, k={obs.k} has zero probability under the prior"
        )
    return values, errors


def score_rows(log_lik, gains, indices, masses, obs: Observation):
    """Posterior value and error per row of ``(grid indices, masses)``, as
    ``_posterior_ratio`` returns them, over a grid's ``log_lik`` and
    ``gains``: the one scorer of prior rows. Rows are scored in one batch
    per count of carried points, on those points alone, so each row's
    value is bit for bit ``posterior_value`` of its carried prior (a row
    padded with zero masses can round differently). A row that carries
    no point reads NaN with no error.
    """
    values = np.full(len(masses), np.nan)
    errors: list[ZeroEvidenceError | None] = [None] * len(masses)
    carried = masses > 0.0
    sizes = carried.sum(axis=1)
    for size in np.unique(sizes[sizes > 0]).tolist():
        batch = np.nonzero(sizes == size)[0]
        keep = carried[batch]
        batch_indices = indices[batch][keep].reshape(-1, size)
        values[batch], batch_errors = _posterior_ratio(
            log_lik[batch_indices],
            gains[batch_indices],
            masses[batch][keep].reshape(-1, size),
            obs,
        )
        for row, error in zip(batch.tolist(), batch_errors):
            errors[row] = error
    return values, errors


def posterior_value(
    prior: PriorDistribution, obs: Observation, objective: ObjectiveSpec
) -> float:
    """Exact posterior functional of a fully specified discrete prior: the
    one-row case of ``_posterior_ratio``."""
    points = np.asarray(prior.support, dtype=float)
    values, (error,) = _posterior_ratio(
        log_likelihood_vector(points, obs)[None],
        objective_gain(objective, points)[None],
        np.asarray(prior.masses, dtype=float)[None],
        obs,
    )
    if error is not None:
        raise error
    return float(values[0])
