"""Shared fixtures: seeded random problem instances, weight helpers, the
checked call of an update kernel, and the weighted-surrogate oracle; the
entropy oracles on one whole residual (`entropy_weights`, `entropy_objective`,
`single_outlier_share`); the scipy oracle of a similarity graph (`csr`);
and two CPUs for the harness's worker pool (`two_cpus`). Tests import the
oracles from here."""

import concurrent.futures
import os

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
from entnmf.core import coeff_step, gram_products
from entnmf.graph import graph_coeff_step
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


def csr(graph) -> sparse.csr_array:
    """The graph as a scipy `csr_array` on its own CSR arrays: the oracle of
    its product and its dense form (`.toarray()`)."""
    return sparse.csr_array((graph.data, graph.indices, graph.indptr), shape=(graph.n,) * 2)


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
    """Call an update kernel (`core.basis_step`, `core.coeff_step`,
    `graph.graph_coeff_step`) on X.values as the fit loop runs it: the
    weights q as a full array of V's shape, the V steps on the Gram products
    at the given U, with floating-point warnings silenced, and the step
    asserted finite."""

    def run(step, X, U, V, q, *args):
        Q = np.repeat(q[:, None], V.shape[1], axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            if step in (coeff_step, graph_coeff_step):
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
