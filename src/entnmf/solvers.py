"""End-to-end fitting loops with k-means initialization and convergence control.

Methods:
  EMMF     entropy-minimizing factorization; each iteration recomputes the
           entropy weights Q from the pre-update factors, then updates U and V
           through the shared weighted engine. The recorded objective is the
           entropy loss.
  GEMMF    EMMF plus the graph term; V is updated by the graph-regularized
           rule and the recorded objective is entropy + lambda ||S - VV^T||_F^2
           on the normalized graph.
  NMF_FRO  classic multiplicative rules for the squared Frobenius loss;
           records ||X - UV^T||_F^2.
  NMF_DIV  divergence formulation with its classical multiplicative rules;
           records DIV(X || UV^T).
  L21_NMF  weighted engine with Q_ii = 1/(2 ||m_i||); records ||X - UV^T||_{2,1}.

All fits are deterministic given the seed. Iteration stops when the relative
objective change falls below `tol` or after `max_iter` iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

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
from .errors import InputError, NumericalError
from .graph import SimilarityGraph, gemmf_update_coeff, normalize_graph
from .losses import default_epsilon, entropy_objective, entropy_weights

METHODS = ("EMMF", "GEMMF", "NMF_FRO", "NMF_DIV", "L21_NMF")
INITS = ("KMEANS", "RANDOM")

# Strictly-positive one-hot offset for the k-means coefficient init;
# multiplicative rules cannot revive exact zeros.
V_INIT_OFFSET = 0.2


@dataclass
class SolverConfig:
    method: str = "EMMF"
    c: int = 2
    max_iter: int = 500
    tol: float = 1e-6
    lam: float = 0.0
    epsilon: float | None = None
    seed: int = 0
    init: str = "KMEANS"

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.init not in INITS:
            raise InputError(f"unknown init {self.init!r}, expected one of {INITS}")
        if self.c < 1:
            raise InputError(f"cluster count must be >= 1, got {self.c}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol < 0:
            raise InputError(f"tol must be >= 0, got {self.tol}")
        if self.lam < 0:
            raise InputError(f"lambda must be >= 0, got {self.lam}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class FitResult:
    factors: FactorPair
    trace: ConvergenceTrace
    assignments: np.ndarray | None = None
    final_q: ResidualWeights | None = None


def _kmeans(points: np.ndarray, c: int, rng: np.random.Generator, n_iter: int = 100):
    """Lloyd's algorithm with k-means++ seeding on points (rows are samples).

    An emptied cluster is re-seeded at the point farthest from its assigned
    centroid. Returns (centroids c x d, labels n)."""
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total > 0:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = points[rng.integers(n)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(n_iter):
        dist = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        for j in range(c):
            mask = new_labels == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(dist[np.arange(n), new_labels]))
                centers[j] = points[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centers, labels


def init_factors(X: DataMatrix, c: int, seed: int, strategy: str = "KMEANS") -> FactorPair:
    """Strictly positive starting factors.

    KMEANS: Lloyd on the samples; U is the centroids as columns and V the
    one-hot assignment shifted by V_INIT_OFFSET. RANDOM: i.i.d. uniform (0, 1].
    """
    if strategy not in INITS:
        raise InputError(f"unknown init {strategy!r}, expected one of {INITS}")
    if not 1 <= c <= min(X.d, X.n):
        raise InputError(f"cluster count {c} outside [1, min(d, n)] for data {X.values.shape}")
    rng = np.random.default_rng(seed)
    if strategy == "RANDOM":
        U = 1.0 - rng.random((X.d, c))
        V = 1.0 - rng.random((X.n, c))
        return FactorPair(U=U, V=V)
    centers, labels = _kmeans(X.values.T, c, rng)
    # Centroids of nonnegative data can still contain exact zeros; floor them
    # so the multiplicative rules can move every entry.
    floor = 1e-8 * max(1.0, float(X.values.max()))
    U = np.maximum(centers.T, floor)
    V = np.full((X.n, c), V_INIT_OFFSET)
    V[np.arange(X.n), labels] += 1.0
    return FactorPair(U=U, V=V)


def extend_factors(F: FactorPair, X: DataMatrix) -> FactorPair:
    """Grow V to cover columns appended to the matrix F was built for.

    Each new column gets a one-hot row (nearest basis column, Euclidean)
    plus the usual strictly positive offset. U is kept as-is, so a fit
    started from the result isolates how the new columns move the basis."""
    extra = X.n - F.V.shape[0]
    if extra < 0:
        raise InputError(f"factors cover {F.V.shape[0]} samples but data has only {X.n}")
    if extra == 0:
        return FactorPair(U=F.U.copy(), V=F.V.copy())
    tail = X.values[:, F.V.shape[0] :]
    dist = np.sum((tail[:, :, None] - F.U[:, None, :]) ** 2, axis=0)
    nearest = np.argmin(dist, axis=1)
    V_new = np.full((extra, F.c), V_INIT_OFFSET)
    V_new[np.arange(extra), nearest] += 1.0
    return FactorPair(U=F.U.copy(), V=np.vstack([F.V, V_new]))


def _assignments(V: np.ndarray) -> np.ndarray:
    # np.argmax resolves ties toward the lowest column index
    return np.argmax(V, axis=1)


def _l21_weights(M: np.ndarray, epsilon: float) -> ResidualWeights:
    norms = guarded_norms(M, epsilon)
    return ResidualWeights(norms=norms, total=float(norms.sum()), q=0.5 / norms, epsilon=epsilon)


def _divergence(X: np.ndarray, B: np.ndarray) -> float:
    """DIV(X || B) = sum_ij X_ij log(X_ij / B_ij) - X_ij + B_ij, with 0 log 0 = 0."""
    guarded = B + 1e-12
    log_term = np.where(X > 0, X * np.log(np.where(X > 0, X, 1.0) / guarded), 0.0)
    return float(np.sum(log_term - X + B))


def _run_loop(X, cfg, initial_objective, step, objective_of, initial=None):
    """Shared outer loop: step mutates factors, objective_of records the loss."""
    if initial is None:
        F = init_factors(X, cfg.c, cfg.seed, cfg.init)
    else:
        if initial.U.shape != (X.d, cfg.c) or initial.V.shape != (X.n, cfg.c):
            raise InputError(
                f"initial factors {initial.U.shape}/{initial.V.shape} do not fit "
                f"data {X.values.shape} with c={cfg.c}"
            )
        F = initial
    start = time.perf_counter()
    objective = [initial_objective(F)]
    iterations = 0
    converged = False
    for t in range(1, cfg.max_iter + 1):
        try:
            F = step(F)
            value = objective_of(F)
        except NumericalError as err:
            raise NumericalError(str(err), iteration=t, objective=objective) from err
        if not np.isfinite(value):
            raise NumericalError("objective became non-finite", iteration=t, objective=objective)
        objective.append(value)
        iterations = t
        if abs(value - objective[-2]) / max(objective[-2], 1e-30) < cfg.tol:
            converged = True
            break
    trace = ConvergenceTrace(
        objective=objective,
        iterations=iterations,
        converged=converged,
        wall_time=time.perf_counter() - start,
    )
    return F, trace


def fit_emmf(X: DataMatrix, cfg: SolverConfig, initial: FactorPair | None = None) -> FitResult:
    """Alternate entropy weights, U step, V step until converged."""
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)

    def step(F):
        w = entropy_weights(residual_matrix(X, F), eps)
        U = update_basis(X, F, w)
        F = FactorPair(U=U, V=F.V)
        return FactorPair(U=U, V=update_coeff(X, F, w))

    F, trace = _run_loop(X, cfg, lambda F: entropy_objective(X, F, eps), step,
                         lambda F: entropy_objective(X, F, eps), initial)
    return FitResult(
        factors=F,
        trace=trace,
        assignments=_assignments(F.V),
        final_q=entropy_weights(residual_matrix(X, F), eps),
    )


def fit_gemmf(X: DataMatrix, graph: SimilarityGraph, cfg: SolverConfig,
              initial: FactorPair | None = None) -> FitResult:
    """EMMF with the graph-regularized V update on the normalized graph."""
    if graph.n != X.n:
        raise InputError(f"graph has {graph.n} vertices but data has {X.n} samples")
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)
    S = normalize_graph(graph)

    def objective_of(F):
        return entropy_objective(X, F, eps) + cfg.lam * S.penalty(F.V)

    def step(F):
        w = entropy_weights(residual_matrix(X, F), eps)
        U = update_basis(X, F, w)
        F = FactorPair(U=U, V=F.V)
        return FactorPair(U=U, V=gemmf_update_coeff(X, F, w, S, cfg.lam))

    F, trace = _run_loop(X, cfg, objective_of, step, objective_of, initial)
    return FitResult(
        factors=F,
        trace=trace,
        assignments=_assignments(F.V),
        final_q=entropy_weights(residual_matrix(X, F), eps),
    )


def fit_baseline(X: DataMatrix, cfg: SolverConfig, initial: FactorPair | None = None) -> FitResult:
    """Frobenius, divergence, or l2,1 factorization recording its own loss."""
    if cfg.method not in ("NMF_FRO", "NMF_DIV", "L21_NMF"):
        raise InputError(f"not a baseline method: {cfg.method!r}")
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)

    if cfg.method == "NMF_DIV":
        def step(F):
            ratio = X.values / (F.U @ F.V.T + 1e-12)
            U = F.U * (ratio @ F.V) / (np.sum(F.V, axis=0)[None, :] + 1e-12)
            F = FactorPair(U=U, V=F.V)
            ratio = X.values / (F.U @ F.V.T + 1e-12)
            V = F.V * (ratio.T @ F.U) / (np.sum(F.U, axis=0)[None, :] + 1e-12)
            return FactorPair(U=U, V=V)

        def objective_of(F):
            return _divergence(X.values, F.U @ F.V.T)
    elif cfg.method == "NMF_FRO":
        def step(F):
            U = F.U * (X.values @ F.V) / (F.U @ (F.V.T @ F.V) + 1e-12)
            F = FactorPair(U=U, V=F.V)
            V = F.V * (X.values.T @ F.U) / (F.V @ (F.U.T @ F.U) + 1e-12)
            return FactorPair(U=U, V=V)

        def objective_of(F):
            M = residual_matrix(X, F)
            return float(np.sum(M * M))
    else:
        def step(F):
            w = _l21_weights(residual_matrix(X, F), eps)
            U = update_basis(X, F, w)
            F = FactorPair(U=U, V=F.V)
            return FactorPair(U=U, V=update_coeff(X, F, w))

        def objective_of(F):
            return float(np.sum(column_norms(residual_matrix(X, F))))

    F, trace = _run_loop(X, cfg, objective_of, step, objective_of, initial)
    return FitResult(factors=F, trace=trace, assignments=_assignments(F.V), final_q=None)


def fit(X: DataMatrix, cfg: SolverConfig, graph: SimilarityGraph | None = None,
        initial: FactorPair | None = None) -> FitResult:
    """Dispatch on cfg.method; GEMMF requires a similarity graph."""
    if cfg.method == "EMMF":
        return fit_emmf(X, cfg, initial)
    if cfg.method == "GEMMF":
        if graph is None:
            raise InputError("GEMMF requires a similarity graph")
        return fit_gemmf(X, graph, cfg, initial)
    return fit_baseline(X, cfg, initial)
