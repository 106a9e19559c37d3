"""One fitting loop over a table of methods, with k-means initialization.

Every method is two functions on the raw factor arrays:

  measure(U, V) -> (objective, norms, q)
  step(U, V, q) -> (U, V)

measure records the loss at (U, V) and, from the same residual, the q the
next step reads (per-sample weights, UV^T for NMF_DIV, or None); norms are
the guarded residual norms behind the entropy weights, reported as
`final_q`, and None for the other methods. step makes one U update, then
one V update. So the loop forms the residual X - U V^T once per iteration
(plus once for the starting point), and the loss and the next weights come
from one set of column norms.

  EMMF     weights q from the entropy linearization (`entnmf.losses`),
           shared weighted engine for U and V; records the entropy loss.
  GEMMF    EMMF with the graph-regularized V step on the normalized graph;
           records entropy + lambda ||S - VV^T||_F^2.
  NMF_FRO  classic multiplicative rules for the squared Frobenius loss;
           records ||X - UV^T||_F^2.
  NMF_DIV  divergence formulation with its classical multiplicative rules;
           records DIV(X || UV^T). The product UV^T is shared between the
           loss and the next U step.
  L21_NMF  weighted engine with Q_ii = 1/(2 ||m_i||); records ||X - UV^T||_{2,1}.

All fits are deterministic given the seed. Iteration stops when the relative
objective change falls below `tol` or after `max_iter` iterations. Inputs are
validated once, at entry; `FactorPair` and `ResidualWeights` are built once,
for the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    DELTA,
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
from .losses import default_epsilon, entropy_terms

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


def _divergence(X: np.ndarray, B: np.ndarray) -> float:
    """DIV(X || B) = sum_ij X_ij log(X_ij / B_ij) - X_ij + B_ij, with 0 log 0 = 0."""
    guarded = B + 1e-12
    log_term = np.where(X > 0, X * np.log(np.where(X > 0, X, 1.0) / guarded), 0.0)
    return float(np.sum(log_term - X + B))


def _method(X: DataMatrix, cfg: SolverConfig, graph: SimilarityGraph | None, eps: float):
    """(measure, step) of cfg.method on X; see the module docstring."""

    def entropy(U, V):
        norms = guarded_norms(residual_matrix(X, U, V), eps)
        value, q = entropy_terms(norms)
        return value, norms, q

    def weighted_step(U, V, q):
        U = update_basis(X, U, V, q)
        return U, update_coeff(X, U, V, q)

    if cfg.method == "EMMF":
        return entropy, weighted_step
    if cfg.method == "GEMMF":
        if graph is None:
            raise InputError("GEMMF requires a similarity graph")
        if graph.n != X.n:
            raise InputError(f"graph has {graph.n} vertices but data has {X.n} samples")
        S = normalize_graph(graph)

        def measure(U, V):
            value, norms, q = entropy(U, V)
            return value + cfg.lam * S.penalty(V), norms, q

        def step(U, V, q):
            U = update_basis(X, U, V, q)
            return U, gemmf_update_coeff(X, U, V, q, S, cfg.lam)

        return measure, step
    if cfg.method == "L21_NMF":
        def measure(U, V):
            norms = column_norms(residual_matrix(X, U, V))
            return float(np.sum(norms)), None, 0.5 / np.maximum(norms, eps)

        return measure, weighted_step
    if cfg.method == "NMF_FRO":
        def measure(U, V):
            M = residual_matrix(X, U, V)
            return float(np.sum(M * M)), None, None

        def step(U, V, _):
            U = U * (X.values @ V) / (U @ (V.T @ V) + DELTA)
            return U, V * (X.values.T @ U) / (V @ (U.T @ U) + DELTA)

        return measure, step

    def measure(U, V):  # NMF_DIV; the next step's first ratio reuses UV^T
        B = U @ V.T
        return _divergence(X.values, B), None, B

    def step(U, V, B):
        U = U * ((X.values / (B + DELTA)) @ V) / (np.sum(V, axis=0)[None, :] + DELTA)
        ratio = X.values / (U @ V.T + DELTA)
        return U, V * (ratio.T @ U) / (np.sum(U, axis=0)[None, :] + DELTA)

    return measure, step


def fit(X: DataMatrix, cfg: SolverConfig, graph: SimilarityGraph | None = None,
        initial: FactorPair | None = None) -> FitResult:
    """Fit X ~ U V^T with cfg.method; GEMMF requires a similarity graph.

    Starts from `initial` when given, else from `init_factors`. A non-finite
    factor or objective raises NumericalError carrying the iteration and the
    objective trace so far.
    """
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)
    measure, step = _method(X, cfg, graph, eps)
    if initial is None:
        initial = init_factors(X, cfg.c, cfg.seed, cfg.init)
    elif initial.U.shape != (X.d, cfg.c) or initial.V.shape != (X.n, cfg.c):
        raise InputError(
            f"initial factors {initial.U.shape}/{initial.V.shape} do not fit "
            f"data {X.values.shape} with c={cfg.c}"
        )
    U, V = initial.U, initial.V
    start = time.perf_counter()
    value, norms, q = measure(U, V)
    objective = [value]
    iterations = 0
    converged = False
    for t in range(1, cfg.max_iter + 1):
        try:
            U, V = step(U, V, q)
            value, norms, q = measure(U, V)
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
    final_q = None
    if norms is not None:
        final_q = ResidualWeights(norms=norms, total=float(np.sum(norms)), q=q, epsilon=eps)
    return FitResult(
        factors=FactorPair(U=U, V=V),
        trace=trace,
        assignments=np.argmax(V, axis=1),  # ties resolve toward the lowest column
        final_q=final_q,
    )
