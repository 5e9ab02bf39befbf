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
from .priors import PriorDistribution, as_count, count_field

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
        object.__setattr__(self, "t", as_count(self.t, "t"))
        if self.t < 0:
            raise ValueError(f"t must be a non-negative integer, got {self.t!r}")


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
            return PosteriorConfidence(p_req=float(doc["p_req"]))
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
    points: np.ndarray,
    masses: np.ndarray,
    obs: Observation,
    objective: ObjectiveSpec,
) -> float:
    """Posterior functional for raw (not necessarily normalised) masses.

    The ratio is invariant under positive scaling of the masses. The
    likelihood is shifted by its maximum over the carried support before
    exponentiation, so the result stays exact even when the absolute
    likelihood scale underflows float64.
    """
    points = np.asarray(points, dtype=float)
    masses = np.asarray(masses, dtype=float)
    log_lik = log_likelihood_vector(points, obs)
    active = masses > 0.0
    finite = active & np.isfinite(log_lik)
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
    # every gain lies in [0, 1], so the value is at most 1; the numerator
    # and the evidence round differently and can put it an ulp above
    return min(float((masses * scaled) @ gains / evidence), 1.0)


def posterior_value(
    prior: PriorDistribution, obs: Observation, objective: ObjectiveSpec
) -> float:
    """Exact posterior functional of a fully specified discrete prior."""
    return _posterior_ratio(
        np.asarray(prior.support), np.asarray(prior.masses), obs, objective
    )
