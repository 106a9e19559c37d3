"""Robust nonnegative matrix factorization with an entropy-weighted loss,
a graph-regularized variant, classic baselines, and a reproducible
clustering-experiment harness."""

from .core import (
    ConvergenceTrace,
    DataMatrix,
    FactorPair,
    ResidualWeights,
    column_norms,
    guarded_norms,
    residual_matrix,
    update_basis,
    update_coeff,
)
from .data import (
    inject_block_noise,
    inject_outlier_vectors,
    load_csv,
    synth_blobs,
    synth_outliers,
    synth_random,
    unit_normalize,
)
from .errors import InputError, NumericalError
from .experiment import (
    DatasetSpec,
    ExperimentConfig,
    Sweep,
    load_config,
    realize_dataset,
    run_bound_curve,
    run_experiment,
)
from .graph import (
    SimilarityGraph,
    gemmf_update_coeff,
    knn_graph,
    normalize_graph,
)
from .losses import (
    InfluenceReport,
    default_epsilon,
    entropy_objective,
    entropy_weights,
    influence_ratios,
    influence_upper_bound,
    single_outlier_share,
)
from .metrics import MetricSummary, accuracy, hungarian_match, nmi, summarize
from .solvers import (
    FitResult,
    SolverConfig,
    extend_factors,
    fit,
    init_factors,
)

__all__ = [
    "ConvergenceTrace",
    "DataMatrix",
    "DatasetSpec",
    "ExperimentConfig",
    "FactorPair",
    "FitResult",
    "InfluenceReport",
    "InputError",
    "MetricSummary",
    "NumericalError",
    "ResidualWeights",
    "SimilarityGraph",
    "SolverConfig",
    "Sweep",
    "accuracy",
    "column_norms",
    "default_epsilon",
    "entropy_objective",
    "entropy_weights",
    "extend_factors",
    "fit",
    "gemmf_update_coeff",
    "guarded_norms",
    "hungarian_match",
    "influence_ratios",
    "influence_upper_bound",
    "init_factors",
    "inject_block_noise",
    "inject_outlier_vectors",
    "knn_graph",
    "load_config",
    "load_csv",
    "nmi",
    "normalize_graph",
    "realize_dataset",
    "residual_matrix",
    "run_bound_curve",
    "run_experiment",
    "single_outlier_share",
    "summarize",
    "synth_blobs",
    "synth_outliers",
    "synth_random",
    "unit_normalize",
    "update_basis",
    "update_coeff",
]

__version__ = "0.1.0"
