"""Conservative Bayesian reliability claims for ML components.

The toolkit turns partial prior knowledge (mean bounds, confidence
bounds, perfection confidence, demonstrated reliability) plus
operational pass/fail data into worst-case posterior claims, derives
prior bounds from robustness-verification coverage, and evaluates the
quantitative goals of a GSN safety case against those claims.
"""

from .errors import (
    InfeasibleConstraintsError,
    InvalidCoverageError,
    InvalidDatasetError,
    InvalidDecompositionError,
    InvalidDistributionError,
    InvalidProfileError,
    ParseError,
    RelboundError,
    SamplingFailureError,
    ZeroEvidenceError,
)
from .gsn import GsnNode, QuantClaim, SafetyCase, Violation, evaluate_case, export_dot, validate
from .inference import (
    FutureReliability,
    Observation,
    ObjectiveSpec,
    PosteriorConfidence,
    PosteriorExpectedPfd,
    likelihood,
    posterior_value,
)
from .measures import (
    ErrorDecomposition,
    MeasuredDataset,
    OperationalProfile,
    empirical_pfd,
    interpretability_measure,
    total_error,
)
from .operational import (
    ConservatismReport,
    DemandLog,
    check_conservatism,
    ingest,
    sample_feasible_prior,
    sample_feasible_priors,
    simulate_demands,
)
from .priors import (
    ConfidenceBound,
    FeasibilityResult,
    MeanBound,
    PartialPriorConstraint,
    PerfectionConfidence,
    PfdGrid,
    PriorDistribution,
    PriorReliability,
    build_grid,
    check_feasible,
)
from .solver import CbiResult, curve, oracle_solve, solve
from .verification import (
    DiscreteCoverage,
    IntervalCoverage,
    PiecewiseDensity,
    TrustedBound,
    VerifiedCoverage,
    coverage_bound,
    prior_from_verification,
)

__version__ = "0.1.0"

__all__ = [
    "CbiResult",
    "ConfidenceBound",
    "ConservatismReport",
    "DemandLog",
    "DiscreteCoverage",
    "ErrorDecomposition",
    "FeasibilityResult",
    "FutureReliability",
    "GsnNode",
    "InfeasibleConstraintsError",
    "IntervalCoverage",
    "InvalidCoverageError",
    "InvalidDatasetError",
    "InvalidDecompositionError",
    "InvalidDistributionError",
    "InvalidProfileError",
    "MeanBound",
    "MeasuredDataset",
    "Observation",
    "ObjectiveSpec",
    "OperationalProfile",
    "ParseError",
    "PartialPriorConstraint",
    "PerfectionConfidence",
    "PfdGrid",
    "PiecewiseDensity",
    "PosteriorConfidence",
    "PosteriorExpectedPfd",
    "PriorDistribution",
    "PriorReliability",
    "QuantClaim",
    "RelboundError",
    "SafetyCase",
    "SamplingFailureError",
    "TrustedBound",
    "VerifiedCoverage",
    "Violation",
    "ZeroEvidenceError",
    "build_grid",
    "check_conservatism",
    "check_feasible",
    "coverage_bound",
    "curve",
    "empirical_pfd",
    "evaluate_case",
    "export_dot",
    "ingest",
    "interpretability_measure",
    "likelihood",
    "oracle_solve",
    "posterior_value",
    "prior_from_verification",
    "sample_feasible_prior",
    "sample_feasible_priors",
    "simulate_demands",
    "solve",
    "total_error",
    "validate",
]
