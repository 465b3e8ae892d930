"""Trivariate dependence modeling toolkit.

Samplers for the extremal-coskewness, mixture, Gaussian and mixing
dependence structures; estimators for correlation, coskewness and their
rank analogues; closed-form predictions; and reproducible experiment
drivers.
"""

from .analytic import (
    BoundsResult,
    coskew_bound,
    mixture_prediction,
    pearson_from_spearman_gaussian,
    rank_coskew_gaussian,
    spearman_from_pearson_gaussian,
    trivariate_orthant_prob,
    uniform_product_moment_gaussian,
)
from .copulas import (
    CopulaSpec,
    GaussianParams,
    parse_copula,
    sample,
    sample_comonotonic,
    sample_gaussian,
    sample_independence,
    sample_max_coskew,
    sample_min_coskew,
    sample_mixing_sum,
    sample_mixture,
    to_data,
)
from .errors import (
    CoskewError,
    DegenerateColumnError,
    DomainError,
    InsufficientEventRowsError,
    InvalidCorrelationError,
    QuadratureError,
    UnsupportedMarginalError,
)
from .estimators import (
    EventSpec,
    MomentAccumulator,
    build_event_mask,
    conditional_corr,
    coskewness,
    parse_event,
    pearson_corr,
    rank_coskewness,
    rank_transform,
    spearman_rho,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_algorithm1,
    run_example1,
    run_figure1,
    run_figure2,
    verify_propositions,
)
from .marginals import (
    Marginal,
    exponential,
    laplace,
    parse_marginal,
    standard_normal,
    student_t,
    uniform01,
)
from .samples import SeedSpec, TriSample, USample

__version__ = "0.1.0"

__all__ = [
    "BoundsResult",
    "CopulaSpec",
    "CoskewError",
    "DegenerateColumnError",
    "DomainError",
    "EventSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "GaussianParams",
    "InsufficientEventRowsError",
    "InvalidCorrelationError",
    "Marginal",
    "MomentAccumulator",
    "QuadratureError",
    "SeedSpec",
    "TriSample",
    "USample",
    "UnsupportedMarginalError",
    "build_event_mask",
    "conditional_corr",
    "coskew_bound",
    "coskewness",
    "exponential",
    "laplace",
    "mixture_prediction",
    "parse_copula",
    "parse_event",
    "parse_marginal",
    "pearson_corr",
    "pearson_from_spearman_gaussian",
    "rank_coskew_gaussian",
    "rank_coskewness",
    "rank_transform",
    "run_algorithm1",
    "run_example1",
    "run_figure1",
    "run_figure2",
    "sample",
    "sample_comonotonic",
    "sample_gaussian",
    "sample_independence",
    "sample_max_coskew",
    "sample_min_coskew",
    "sample_mixing_sum",
    "sample_mixture",
    "spearman_from_pearson_gaussian",
    "spearman_rho",
    "standard_normal",
    "student_t",
    "to_data",
    "trivariate_orthant_prob",
    "uniform01",
    "uniform_product_moment_gaussian",
    "verify_propositions",
]
