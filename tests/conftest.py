"""Shared fixtures: seeded random problem instances, weight helpers and the
weighted-surrogate oracle."""

import numpy as np
import pytest

from entnmf import (
    DataMatrix,
    FactorPair,
    InputError,
    ResidualWeights,
    guarded_norms,
    residual_matrix,
)


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
        norms = guarded_norms(M, epsilon)
        return ResidualWeights(
            norms=norms, total=float(norms.sum()), q=np.ones(norms.shape), epsilon=epsilon
        )

    return make


@pytest.fixture
def trace_objective():
    """Weighted quadratic surrogate Tr(M Q M^T) = sum_i Q_ii ||m_i||_2^2."""

    def value(X, F, w):
        if not np.all(np.isfinite(w.q)):
            raise InputError("weights must be finite")
        M = residual_matrix(X, F.U, F.V)
        return float(np.sum(w.q * np.sum(M * M, axis=0)))

    return value
