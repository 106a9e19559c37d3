"""Robust nonnegative matrix factorization with an entropy-weighted loss,
a graph-regularized variant, classic baselines, and a reproducible
clustering-experiment harness."""

from .core import (
    ConvergenceTrace,
    DataMatrix,
    FactorPair,
    ResidualWeights,
    column_norms,
    residual_matrix,
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
from .graph import SimilarityGraph, knn_graph
from .losses import (
    InfluenceReport,
    influence_ratios,
    influence_upper_bound,
)
from .metrics import MetricSummary, accuracy, nmi, summarize
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
    "extend_factors",
    "fit",
    "influence_ratios",
    "influence_upper_bound",
    "init_factors",
    "inject_block_noise",
    "inject_outlier_vectors",
    "knn_graph",
    "load_config",
    "load_csv",
    "nmi",
    "realize_dataset",
    "residual_matrix",
    "run_bound_curve",
    "run_experiment",
    "summarize",
    "synth_blobs",
    "synth_outliers",
    "synth_random",
    "unit_normalize",
]

__version__ = "0.1.0"
