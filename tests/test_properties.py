"""Invariants of `fit` over generated shapes, seeds and data scales.

Examples are derandomized and no example database is kept, so the suite
stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entnmf import DataMatrix, SolverConfig, fit, knn_graph

METHODS = ("EMMF", "GEMMF", "NMF_FRO", "NMF_DIV", "L21_NMF")
# methods whose recorded objective the update rules never increase
MONOTONE = ("EMMF", "L21_NMF", "NMF_FRO")

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def problems(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(2, 12))
    c = draw(st.integers(1, min(d, n)))
    seed = draw(st.integers(0, 2**31 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    values = scale * np.random.default_rng(seed).random((d, n))
    return DataMatrix(values=values), c, seed


def run(X, c, seed, method, init="KMEANS"):
    graph = knn_graph(X, min(3, X.n - 1)) if method == "GEMMF" else None
    cfg = SolverConfig(method=method, c=c, seed=seed, max_iter=30, tol=0.0, lam=1.0, init=init)
    return fit(X, cfg, graph)


@PROPERTY
@given(problems(), st.sampled_from(["KMEANS", "RANDOM"]))
def test_factors_stay_nonnegative_and_finite(problem, init):
    X, c, seed = problem
    for method in METHODS:
        r = run(X, c, seed, method, init)
        for A in (r.factors.U, r.factors.V):
            assert np.all(np.isfinite(A)) and A.min() >= 0, method
        assert np.all(np.isfinite(r.trace.objective)), method


@PROPERTY
@given(problems())
def test_objective_never_increases(problem):
    X, c, seed = problem
    for method in MONOTONE:
        obj = np.asarray(run(X, c, seed, method).trace.objective)
        slack = 1e-8 * np.maximum(1.0, np.abs(obj[:-1]))
        assert np.all(np.diff(obj) <= slack), method


@PROPERTY
@given(problems())
def test_same_seed_gives_the_same_fit(problem):
    X, c, seed = problem
    for method in METHODS:
        a, b = run(X, c, seed, method), run(X, c, seed, method)
        assert np.array_equal(a.trace.objective, b.trace.objective), method
        assert np.array_equal(a.factors.U, b.factors.U), method
        assert np.array_equal(a.factors.V, b.factors.V), method
