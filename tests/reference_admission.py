"""Per-kind admission checks, kept as a reference for the row-based rule.

Each constraint is judged by its own exact ``math.fsum`` statistic of the
prior (``mean``, ``prob_at_most``, ``prob_of_zero``, ``reliability_moment``)
against ``MASS_TOL``, without building a constraint row. Tests compare
``PriorDistribution.satisfies_all`` and ``rows_admit`` with it.
"""

from relbound.priors import (
    MASS_TOL,
    ConfidenceBound,
    MeanBound,
    PerfectionConfidence,
    PriorReliability,
)


def reference_satisfies(prior, constraint) -> bool:
    if isinstance(constraint, MeanBound):
        return prior.mean() <= constraint.m + MASS_TOL
    if isinstance(constraint, ConfidenceBound):
        return abs(prior.prob_at_most(constraint.epsilon) - constraint.theta) <= MASS_TOL
    if isinstance(constraint, PerfectionConfidence):
        return abs(prior.prob_of_zero() - constraint.theta) <= MASS_TOL
    if isinstance(constraint, PriorReliability):
        return prior.reliability_moment(constraint.n0) >= constraint.gamma - MASS_TOL
    raise TypeError(f"unknown constraint {constraint!r}")


def reference_satisfies_all(prior, constraints) -> bool:
    return all(reference_satisfies(prior, c) for c in constraints)
