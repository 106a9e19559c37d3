"""Shared fixtures: seeded random problem instances, weight helpers, the
checked call of an update kernel, and the weighted-surrogate oracle; the
graph-regularized V step as a kernel of its own (`graph_coeff_step`), the
oracle of `core.coeff_step` given S V; the entropy oracles on one whole
residual (`entropy_weights`, `entropy_objective`, `single_outlier_share`);
the scipy oracle of a similarity graph (`csr`), of its degree normalization
(`normalized`) and of its squared Frobenius norm (`sq_norm`), and a graph
operator's entries as a scipy matrix (`stack_csr`); and two CPUs for the
harness's worker pool (`two_cpus`). Tests import the oracles from here."""

import concurrent.futures
import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from entnmf import (
    DataMatrix,
    FactorPair,
    InputError,
    NumericalError,
    ResidualWeights,
    column_norms,
    residual_matrix,
)
from entnmf import experiment
from entnmf.core import DELTA, coeff_step, gram_products
from entnmf.losses import _share_terms, entropy_terms


def _guarded_entropy_terms(M: np.ndarray, epsilon: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The column norms of one residual M floored at epsilon, with their loss
    and weights; a non-finite loss raises NumericalError."""
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    norms = np.maximum(column_norms(M), epsilon)
    value, q = entropy_terms(norms)
    if not np.isfinite(value):
        with np.errstate(all="ignore"):
            bad = int(np.argmax(~np.isfinite(norms * np.log(norms / np.sum(norms)))))
        raise NumericalError(f"entropy objective is non-finite at sample {bad}")
    return float(value), norms, q


def entropy_weights(M: np.ndarray, epsilon: float) -> ResidualWeights:
    """Diagonal weights Q_ii = -log(||m_i|| / ||M||_{2,1}) / ||m_i||, guarded."""
    _, norms, q = _guarded_entropy_terms(np.asarray(M, dtype=float), epsilon)
    return ResidualWeights(norms=norms, q=q, epsilon=epsilon)


def entropy_objective(X: DataMatrix, F: FactorPair, epsilon: float) -> float:
    """Entropy loss -sum_i ||m_i|| log(||m_i|| / ||M||_{2,1}) with guarded norms."""
    return _guarded_entropy_terms(residual_matrix(X, F.U, F.V), epsilon)[0]


def single_outlier_share(p: float, n: int) -> float:
    """Entropy share of one outlier at residue ratio p, the rest uniform.

    phi(p) = p log p / (p log p + (1 - p) [log(1 - p) - log(n - 1)]).
    """
    numer, denom = _share_terms(p, n)
    return numer / denom


def graph_coeff_step(A: np.ndarray, G: np.ndarray, V: np.ndarray, Q: np.ndarray,
                     SV: np.ndarray, lam: float) -> np.ndarray:
    """Graph-regularized multiplicative step on V, given A = X^T U, G = U^T U,
    SV = S V and the diagonal weights Q broadcastable to V's shape, with its
    sums in their own order: the oracle of `core.coeff_step` given SV, bit
    for bit.

    Raw arrays, one problem or a stack (..., n, c), like the kernels in
    `entnmf.core`; no checks, no silenced warnings. A and G are left as they
    are, for the residual norms; the elementwise work runs in place on the
    n x c products, which gives the same bits as fresh arrays would."""
    A = A * Q                                          # Q X^T U
    B = V @ G                                          # Q V U^T U
    B *= Q
    Vt = V.swapaxes(-1, -2)
    minus = Vt @ B                                     # L5-
    plus = Vt @ A + 2.0 * lam * (Vt @ SV)              # L5+
    numer = 2.0 * lam * SV
    numer += A
    numer += V @ minus
    denom = V @ plus
    denom += B
    denom += DELTA
    numer /= denom
    np.sqrt(numer, out=numer)
    numer *= V
    return numer


def csr(graph) -> sparse.csr_array:
    """The graph as a scipy `csr_array` on its own CSR arrays: the oracle of
    its product and its dense form (`.toarray()`)."""
    return sparse.csr_array((graph.data, graph.indices, graph.indptr), shape=(graph.n,) * 2)


def normalized(graph) -> SimpleNamespace:
    """The degree normalization D^-1/2 S D^-1/2 of a raw graph, on the same
    CSR arrays: each weight S_ij times d_i^-1/2 d_j^-1/2, from scipy's row
    sums, as the former `normalize_graph` formed it. Isolated vertices keep
    their zero row and column. The oracle of the operator `GraphStack` forms."""
    deg = csr(graph).sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return SimpleNamespace(n=graph.n, indptr=graph.indptr, indices=graph.indices,
                           data=graph.data * (inv_sqrt[rows] * inv_sqrt[graph.indices]))


def sq_norm(graph) -> float:
    """||S||_F^2 as one BLAS dot of the stored weights, as the former
    `SimilarityGraph.sq_norm` took it: the oracle of `GraphStack.sq_norm`
    up to rounding (OpenBLAS splits a dot of more than 10 000 entries across
    its threads)."""
    return float(graph.data @ graph.data)


def stack_csr(S) -> sparse.csr_array:
    """The block-diagonal operator of a `GraphStack` as a scipy `csr_array`
    on its entries, each row's in the order the operator keeps them."""
    return sparse.csr_array((S.data, (S.rows, S.indices)), shape=(S.size,) * 2)


@pytest.fixture
def make_instance():
    """Factory for a seeded random (X, F) pair with strictly positive factors."""

    def make(seed, d_max=12, n_max=16, c_max=4, scale=1.0):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, d_max + 1))
        n = int(rng.integers(3, n_max + 1))
        c = int(min(rng.integers(1, c_max + 1), d, n))
        X = DataMatrix(values=scale * rng.random((d, n)))
        F = FactorPair(U=rng.random((d, c)) + 0.05, V=rng.random((n, c)) + 0.05)
        return X, F

    return make


@pytest.fixture
def ones_weights():
    """Unit diagonal weights for a given residual; realizes the plain quadratic."""

    def make(M, epsilon=1e-10):
        norms = np.maximum(column_norms(M), epsilon)
        return ResidualWeights(norms=norms, q=np.ones(norms.shape), epsilon=epsilon)

    return make


@pytest.fixture
def kernel():
    """Call an update kernel (`core.basis_step`, or `core.coeff_step` with or
    without S V) on X.values as the fit loop runs it: the weights q as a full
    array of V's shape, the V step on the Gram products at the given U, with
    floating-point warnings silenced, and the step asserted finite."""

    def run(step, X, U, V, q, *args):
        Q = np.repeat(q[:, None], V.shape[1], axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            if step is coeff_step:
                out = step(*gram_products(X.values, U), V, Q, *args)
            else:
                out = step(X.values, U, V, Q, *args)
        assert np.all(np.isfinite(out)), f"{step.__name__} produced non-finite entries"
        return out

    return run


@pytest.fixture
def trace_objective():
    """Weighted quadratic surrogate Tr(M Q M^T) = sum_i Q_ii ||m_i||_2^2."""

    def value(X, F, w):
        if not np.all(np.isfinite(w.q)):
            raise InputError("weights must be finite")
        M = residual_matrix(X, F.U, F.V)
        return float(np.sum(w.q * np.sum(M * M, axis=0)))

    return value


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs for this process, whatever the host has, so that a small
    sweep's values run in a pool of two forked workers; the fixture is the
    list of the worker counts of the pools `run_experiment` creates. Skips
    where the harness does not fork."""
    if not experiment._FORKS:
        pytest.skip("the harness runs every sweep value in one process here")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return pools
