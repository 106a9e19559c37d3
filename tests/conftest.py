"""Shared fixtures: seeded random problem instances, weight helpers, the
checked call of an update kernel, and the weighted-surrogate oracle."""

import numpy as np
import pytest

from entnmf import (
    DataMatrix,
    FactorPair,
    InputError,
    ResidualWeights,
    residual_matrix,
)
from entnmf.core import coeff_step, gram_products, guarded_norms
from entnmf.graph import graph_coeff_step


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
def kernel():
    """Call an update kernel (`core.basis_step`, `core.coeff_step`,
    `graph.graph_coeff_step`) on X.values as the fit loop runs it: the V
    steps on the Gram products at the given U, with floating-point warnings
    silenced, and the step asserted finite."""

    def run(step, X, U, *args):
        with np.errstate(invalid="ignore", divide="ignore"):
            if step in (coeff_step, graph_coeff_step):
                out = step(*gram_products(X.values, U), *args)
            else:
                out = step(X.values, U, *args)
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
