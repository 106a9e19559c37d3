"""The single fit loop against the former per-method fit functions, and
stacked fits against fits of each member alone.

`reference_fit` below is the earlier implementation, kept as the oracle: one
fit function per method family over a shared outer loop, rebuilding
`FactorPair`/`ResidualWeights` on every step and forming the residual norms
once for the step and again for the objective. Its kernels
are copied with it, so the comparison pins the arithmetic, not only the
loop. `fit` must reproduce it bit for bit, except NMF_FRO's objective: the
oracle sums the squares of the whole residual X - U V^T, `fit` the squared
norms from the Gram products, and the two agree to `FRO_OBJECTIVE_RTOL`.
`fit_stack` must give every member what `fit` gives it alone. Two earlier
forms are kept as oracles that the current ones must match to rounding: the
U step's association (X diag(q)) V, `scaled_data_basis_step`, against
X (diag(q) V); and the squared residual norms from the whole residual,
`exact_residual_sq_norms`, against those from the Gram products X^T U and
U^T U.
"""

import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entnmf import (
    ConvergenceTrace,
    DataMatrix,
    FactorPair,
    InputError,
    NumericalError,
    ResidualWeights,
    SolverConfig,
    extend_factors,
    fit,
    init_factors,
    inject_block_noise,
    inject_outlier_vectors,
    knn_graph,
    synth_blobs,
    unit_normalize,
)
from entnmf import core
from entnmf import experiment as experiment_module
from entnmf import solvers as solvers_module
from entnmf.experiment import DatasetSpec, ExperimentConfig, Sweep, run_experiment
from entnmf.graph import graph_penalty
from entnmf.losses import default_epsilon, entropy_terms
from entnmf.solvers import fit_stack
from conftest import csr, normalized
from test_properties import PROPERTY, stacks

METHODS = ("EMMF", "GEMMF", "NMF_FRO", "NMF_DIV", "L21_NMF")


# ---- the former implementation -------------------------------------------


def ref_residual(X, F):
    return X.values - F.U @ F.V.T


def ref_norms(X, F):
    """Residual norms from the Gram products: each sample's
    ||x||^2 + v.(v (U^T U) - a - a) with a its row of X^T U, or, when any
    sample's square is at most TAU ||x||^2, every norm from the whole
    residual."""
    P = X.values
    sq = np.einsum("ij,ij->j", P, P)
    A = P.T @ F.U
    T = F.V @ (F.U.T @ F.U) - A - A
    T *= F.V
    r = sq + T[:, 0]
    for k in range(1, F.c):
        r += T[:, k]
    if np.any(r <= core.TAU * sq):
        M = ref_residual(X, F)
        return np.sqrt(np.sum(M * M, axis=0))
    return np.sqrt(r)


def ref_guarded_norms(X, F, eps):
    return np.maximum(ref_norms(X, F), eps)


def ref_entropy_weights(X, F, eps):
    norms = ref_guarded_norms(X, F, eps)
    total = float(np.sum(norms))
    q = np.maximum(-np.log(norms / total) / norms, 0.0)
    return ResidualWeights(norms=norms, q=q, epsilon=eps)


def ref_entropy_objective(X, F, eps):
    norms = ref_guarded_norms(X, F, eps)
    total = float(np.sum(norms))
    return max(float(-np.sum(norms * np.log(norms / total))), 0.0)


def ref_l21_weights(X, F, eps):
    norms = ref_guarded_norms(X, F, eps)
    return ResidualWeights(norms=norms, q=0.5 / norms, epsilon=eps)


def ref_update_basis(X, F, w):
    Vq = F.V * w.q[:, None]
    numer = X.values @ Vq
    denom = F.U @ (Vq.T @ F.V)
    return F.U * np.sqrt(numer / (denom + 1e-12))


def exact_residual_sq_norms(X, sq, U, V, A, G):
    """The squared residual norms as first computed, from the whole residual
    X - U V^T. Kept as the oracle for `core.residual_sq_norms`, which takes
    them from the Gram products."""
    M = core.residual(X, U, V)
    return np.sum(M * M, axis=-2)


def scaled_data_basis_step(X, U, V, Q):
    """The U step as first written, weighting X instead of V: its numerator
    is (X diag(q)) V, a d x n pass before the product. Kept as the oracle for
    the association `core.basis_step` takes, X (diag(q) V). It takes the
    weights as the fit loop passes them, an array of V's shape whose columns
    all hold q."""
    q = Q[..., 0]
    numer = (X * q[..., None, :]) @ V
    denom = U @ ((V * q[..., :, None]).swapaxes(-1, -2) @ V)
    return U * np.sqrt(numer / (denom + 1e-12))


def ref_update_coeff(X, F, w):
    q = w.q
    numer = q[:, None] * (X.values.T @ F.U)
    denom = q[:, None] * (F.V @ (F.U.T @ F.U))
    return F.V * np.sqrt(numer / (denom + 1e-12))


def ref_gemmf_update_coeff(X, F, w, graph, lam):
    q = w.q
    A = q[:, None] * (X.values.T @ F.U)
    B = q[:, None] * (F.V @ (F.U.T @ F.U))
    SV = csr(graph) @ F.V
    minus = F.V.T @ B
    plus = F.V.T @ A + 2.0 * lam * (F.V.T @ SV)
    numer = A + 2.0 * lam * SV + F.V @ minus
    denom = B + F.V @ plus
    return F.V * np.sqrt(numer / (denom + 1e-12))


def ref_divergence(X, B):
    guarded = B + 1e-12
    log_term = np.where(X > 0, X * np.log(np.where(X > 0, X, 1.0) / guarded), 0.0)
    return float(np.sum(log_term - X + B))


def ref_run_loop(X, cfg, initial_objective, step, objective_of, initial=None):
    F = init_factors(X, cfg.c, cfg.seed, cfg.init) if initial is None else initial
    objective = [initial_objective(F)]
    converged = False
    for _ in range(cfg.max_iter):
        F = step(F)
        value = objective_of(F)
        objective.append(value)
        if abs(value - objective[-2]) / max(objective[-2], 1e-30) < cfg.tol:
            converged = True
            break
    return F, ConvergenceTrace(objective=objective, converged=converged)


def ref_fit_emmf(X, cfg, initial=None):
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)

    def step(F):
        w = ref_entropy_weights(X, F, eps)
        U = ref_update_basis(X, F, w)
        F = FactorPair(U=U, V=F.V)
        return FactorPair(U=U, V=ref_update_coeff(X, F, w))

    F, trace = ref_run_loop(X, cfg, lambda F: ref_entropy_objective(X, F, eps), step,
                            lambda F: ref_entropy_objective(X, F, eps), initial)
    return F, trace, ref_entropy_weights(X, F, eps)


def ref_fit_gemmf(X, graph, cfg, initial=None):
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)
    S = normalized(graph)
    # ||S||_F^2 with the squares added one after another from zero, the
    # rounding of the fit's operator
    sq_norm = 0.0
    for w in S.data.tolist():
        sq_norm += w * w

    def objective_of(F):
        return ref_entropy_objective(X, F, eps) + cfg.lam * float(
            graph_penalty(sq_norm, csr(S) @ F.V, F.V))

    def step(F):
        w = ref_entropy_weights(X, F, eps)
        U = ref_update_basis(X, F, w)
        F = FactorPair(U=U, V=F.V)
        return FactorPair(U=U, V=ref_gemmf_update_coeff(X, F, w, S, cfg.lam))

    F, trace = ref_run_loop(X, cfg, objective_of, step, objective_of, initial)
    return F, trace, ref_entropy_weights(X, F, eps)


def ref_fit_baseline(X, cfg, initial=None):
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
            return ref_divergence(X.values, F.U @ F.V.T)
    elif cfg.method == "NMF_FRO":
        def step(F):
            U = F.U * (X.values @ F.V) / (F.U @ (F.V.T @ F.V) + 1e-12)
            F = FactorPair(U=U, V=F.V)
            V = F.V * (X.values.T @ F.U) / (F.V @ (F.U.T @ F.U) + 1e-12)
            return FactorPair(U=U, V=V)

        def objective_of(F):
            M = ref_residual(X, F)
            return float(np.sum(M * M))
    else:
        def step(F):
            w = ref_l21_weights(X, F, eps)
            U = ref_update_basis(X, F, w)
            F = FactorPair(U=U, V=F.V)
            return FactorPair(U=U, V=ref_update_coeff(X, F, w))

        def objective_of(F):
            return float(np.sum(ref_norms(X, F)))

    F, trace = ref_run_loop(X, cfg, objective_of, step, objective_of, initial)
    return F, trace, None


def reference_fit(X, cfg, graph=None, initial=None):
    if cfg.method == "EMMF":
        return ref_fit_emmf(X, cfg, initial)
    if cfg.method == "GEMMF":
        return ref_fit_gemmf(X, graph, cfg, initial)
    return ref_fit_baseline(X, cfg, initial)


# ---- the comparison -------------------------------------------------------


def problem(seed):
    """Normalized blobs with appended outliers, as the outlier sweeps use."""
    X = unit_normalize(synth_blobs(3, 10, 6, 8.0, seed=seed))
    X, _ = inject_outlier_vectors(X, 4, seed=seed + 100)
    return X


# Largest difference allowed between NMF_FRO's recorded objective and the
# oracle's sum of squares of the whole residual, relative to ||X||_F^2: the
# Gram form's error in each square scales with the sample's squared norm
# (`core.TAU`). Measured on the tests below: at most 4.3e-16 of ||X||_F^2,
# which is up to 2.4e-14 of the objective once the fit has shrunk it.
FRO_OBJECTIVE_RTOL = 1e-15


def assert_identical(X, cfg, graph=None, initial=None):
    r = fit(X, cfg, graph, initial)
    F, trace, final_q = reference_fit(X, cfg, graph, initial)
    if cfg.method == "NMF_FRO":
        got, want = np.array(r.trace.objective), np.array(trace.objective)
        assert np.all(np.abs(got - want) <= FRO_OBJECTIVE_RTOL * np.sum(X.values ** 2))
    else:
        assert np.array_equal(r.trace.objective, trace.objective)
    assert (r.trace.iterations, r.trace.converged) == (trace.iterations, trace.converged)
    assert np.array_equal(r.factors.U, F.U)
    assert np.array_equal(r.factors.V, F.V)
    assert np.array_equal(r.assignments, np.argmax(F.V, axis=1))
    if final_q is None:
        assert r.final_q is None
    else:
        assert np.array_equal(r.final_q.q, final_q.q)
        assert np.array_equal(r.final_q.norms, final_q.norms)
        assert np.sum(r.final_q.norms) == np.sum(final_q.norms)
    return r


@pytest.mark.parametrize("method", METHODS)
def test_matches_the_former_fit_functions_bit_for_bit(method):
    for seed in range(6):
        X = problem(seed)
        graph = knn_graph(X, 4) if method == "GEMMF" else None
        cfg = SolverConfig(method=method, c=3, seed=seed, max_iter=40, tol=0.0, lam=5.0)
        assert_identical(X, cfg, graph)


@pytest.mark.parametrize("method", METHODS)
def test_matches_from_explicit_initial_factors(method):
    for seed in range(5):
        X = problem(seed)
        graph = knn_graph(X, 3) if method == "GEMMF" else None
        F0 = init_factors(X, 2, seed=seed, strategy="RANDOM")
        cfg = SolverConfig(method=method, c=2, max_iter=25, tol=0.0, lam=1.0)
        assert_identical(X, cfg, graph, F0)


def test_matches_on_a_raw_graph_and_zero_weight():
    for seed in range(5):
        X = problem(seed)
        graph = knn_graph(X, 5)
        for lam in (0.0, 1.0, 10.0):
            cfg = SolverConfig(method="GEMMF", c=3, seed=seed, max_iter=25, tol=0.0, lam=lam)
            assert_identical(X, cfg, graph)


@pytest.mark.parametrize("method", METHODS)
def test_matches_when_the_tolerance_stops_early(method):
    stopped = 0
    for seed in range(5):
        X = problem(seed)
        graph = knn_graph(X, 4) if method == "GEMMF" else None
        cfg = SolverConfig(method=method, c=3, seed=seed, max_iter=300, tol=1e-4, lam=2.0)
        stopped += assert_identical(X, cfg, graph).trace.converged
    assert stopped > 0


def test_matches_with_an_explicit_epsilon():
    for seed in range(5):
        X = problem(seed)
        for method in ("EMMF", "L21_NMF"):
            cfg = SolverConfig(method=method, c=3, seed=seed, max_iter=20, tol=0.0, epsilon=0.05)
            assert_identical(X, cfg)


# ---- the U step against the scaled-data oracle ----------------------------


@PROPERTY
@given(stacks(), st.sampled_from(["unit", "l2,1", "entropy"]))
def test_the_basis_step_matches_the_scaled_data_oracle(stack, weights):
    # the two associations of X Q V differ only in rounding
    X, U, V = stack
    norms = np.maximum(core.column_norms(core.residual(X, U, V)), 1e-10)
    q = {"unit": np.ones_like(norms), "l2,1": 0.5 / norms,
         "entropy": entropy_terms(norms)[1]}[weights]
    Q = np.repeat(q[..., None], V.shape[-1], axis=-1)
    expected = scaled_data_basis_step(X, U, V, Q)
    assert np.all(np.abs(core.basis_step(X, U, V, Q) - expected) <= 1e-13 * expected)


def assert_whole_fits_match(monkeypatch, method, name, oracle):
    """Fits on the README sweep data (its blobs with 0, 20 and 40 outliers,
    its solver) against the same fits with `solvers.<name>` replaced by the
    oracle: the same assignments and iteration counts, objectives within
    1e-12."""
    cfg = SolverConfig(method=method, c=3, max_iter=300, tol=1e-6, lam=5.0, seed=3)
    base = unit_normalize(synth_blobs(3, 40, 10, 8.0, seed=1))
    for outliers in (0, 20, 40):
        X, _ = inject_outlier_vectors(base, outliers,
                                      seed=cfg.seed + experiment_module.INJECTION_SEED_OFFSET)
        graph = knn_graph(X, 5) if method == "GEMMF" else None
        r = fit(X, cfg, graph)
        with monkeypatch.context() as patch:
            patch.setattr(solvers_module, name, oracle)
            expected = fit(X, cfg, graph)
        assert np.array_equal(r.assignments, expected.assignments)
        assert r.trace.iterations == expected.trace.iterations
        got, want = np.array(r.trace.objective), np.array(expected.trace.objective)
        assert np.all(np.abs(got - want) <= 1e-12 * want), outliers


@pytest.mark.parametrize("method", ("EMMF", "GEMMF", "L21_NMF"))
def test_whole_fits_match_the_scaled_data_oracle(monkeypatch, method):
    assert_whole_fits_match(monkeypatch, method, "basis_step", scaled_data_basis_step)


@pytest.mark.parametrize("method", ("EMMF", "GEMMF", "L21_NMF", "NMF_FRO"))
def test_whole_fits_match_the_exact_residual_oracle(monkeypatch, method):
    assert_whole_fits_match(monkeypatch, method, "residual_sq_norms", exact_residual_sq_norms)


def test_an_exact_product_fit_falls_back_and_keeps_descending(monkeypatch):
    # X = U V^T exactly and a start near it: the residual norms fall far
    # below the samples', so every measure forms the exact residual, the fit
    # is the exact-residual fit bit for bit, and its objective never increases
    rng = np.random.default_rng(7)
    U, V = 0.5 + rng.random((8, 3)), 0.5 + rng.random((40, 3))
    X = DataMatrix(values=U @ V.T)
    initial = FactorPair(U=U * (1.0 + 0.01 * rng.random(U.shape)), V=V)
    real = core.residual
    fallbacks = []

    def counting(X, U, V, out=None):
        fallbacks.append(1)
        return real(X, U, V, out)

    cfg = SolverConfig(method="EMMF", c=3, max_iter=200, tol=0.0)
    with monkeypatch.context() as patch:
        patch.setattr(core, "residual", counting)
        r = fit(X, cfg, initial=initial)
    assert len(fallbacks) == cfg.max_iter + 1
    assert np.all(np.diff(r.trace.objective) <= 0.0)
    monkeypatch.setattr(solvers_module, "residual_sq_norms", exact_residual_sq_norms)
    assert_same_fit(r, fit(X, cfg, initial=initial))


@pytest.mark.parametrize("method", ("EMMF", "GEMMF", "L21_NMF", "NMF_FRO"))
def test_forms_no_residual_outside_the_fallback(monkeypatch, method):
    # the squared residual norms come from the Gram products the V step
    # formed; only a member with a square at most TAU ||x||^2 forms its exact
    # residual, one of its own shape per measure
    real = core.residual
    calls = []

    def counting(X, U, V, out=None):
        calls.append(X.shape)
        return real(X, U, V, out)

    monkeypatch.setattr(core, "residual", counting)
    # the README sweep's blobs with 20 outliers, on which no member falls back
    base = unit_normalize(synth_blobs(3, 40, 10, 8.0, seed=1))
    Xs = [inject_outlier_vectors(base, 20, seed=seed)[0] for seed in range(3)]
    graphs = [knn_graph(X, 5) for X in Xs] if method == "GEMMF" else None
    initials = [init_factors(X, 3, seed=seed) for seed, X in enumerate(Xs)]
    for k in (1, 7, 30):
        cfg = SolverConfig(method=method, c=3, max_iter=k, tol=0.0, lam=5.0)
        calls.clear()
        results = fit_stack(Xs, cfg, initials, graphs)
        assert [r.trace.iterations for r in results] == [k] * 3
        assert calls == []
        with monkeypatch.context() as patch:
            patch.setattr(core, "TAU", np.inf)  # every member falls back
            fit_stack(Xs, cfg, initials, graphs)
        assert calls == [Xs[0].values.shape] * (3 * (k + 1))


@pytest.mark.parametrize("B", (1, 3))
@pytest.mark.parametrize("method", ("EMMF", "L21_NMF", "NMF_FRO"))
def test_an_iteration_allocates_nothing_of_the_data_size(method, B):
    # d = 100, n = 2000: one measure and step pair and the next measure, on a
    # member alone and on a stack of three, raise the traced peak by less
    # than one d x n array
    d, n, c = 100, 2000, 3
    rng = np.random.default_rng(0)
    X = rng.random((B, d, n))
    U, V = rng.random((B, d, c)), rng.random((B, n, c))
    cfg = SolverConfig(method=method, c=c)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        measure, step = solvers_module._method(X, np.full((B, 1), 1e-10), cfg, None)
        _, _, carry = measure(U, V, None)
        U, V, grams = step(U, V, *carry)
        measure(U, V, grams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8 * d * n


def test_validates_factors_and_weights_once_per_fit(monkeypatch):
    # only `FactorPair` checks itself; the fit builds `final_q` valid
    # (test_properties.py::test_factors_stay_nonnegative_and_finite)
    X = problem(1)
    F0 = init_factors(X, 3, seed=0)
    calls = []
    original = FactorPair.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(FactorPair, "__post_init__", counted)
    fit(X, SolverConfig(method="EMMF", c=3, max_iter=50, tol=0.0), initial=F0)
    assert len(calls) == 1


def test_gemmf_graph_checks_stay_at_the_boundary():
    X = problem(0)
    cfg = SolverConfig(method="GEMMF", c=3, lam=1.0, max_iter=5)
    with pytest.raises(InputError, match="graph"):
        fit(X, cfg)
    with pytest.raises(InputError, match="vertices"):
        fit(X, cfg, knn_graph(DataMatrix(values=X.values[:, :-1]), 3))


def test_numerical_failure_names_the_iteration_and_keeps_the_trace(monkeypatch):
    real = solvers_module.coeff_step
    calls = []

    def breaks_on_the_third_step(A, G, V, Q, *graph_term):
        calls.append(1)
        V = real(A, G, V, Q, *graph_term)
        return V * np.inf if len(calls) == 3 else V

    monkeypatch.setattr(solvers_module, "coeff_step", breaks_on_the_third_step)
    X = problem(0)
    with pytest.raises(NumericalError) as info:
        fit(X, SolverConfig(method="EMMF", c=3, max_iter=10, tol=0.0))
    assert info.value.iteration == 3
    assert len(info.value.objective) == 3
    assert np.all(np.isfinite(info.value.objective))


# ---- stacks against members fitted alone ----------------------------------


def assert_same_fit(r, alone):
    assert all(type(v) is float for v in r.trace.objective)
    assert np.array_equal(r.trace.objective, alone.trace.objective)
    assert (r.trace.iterations, r.trace.converged) == (alone.trace.iterations, alone.trace.converged)
    assert np.array_equal(r.factors.U, alone.factors.U)
    assert np.array_equal(r.factors.V, alone.factors.V)
    assert np.array_equal(r.assignments, alone.assignments)
    if alone.final_q is None:
        assert r.final_q is None
    else:
        assert np.array_equal(r.final_q.q, alone.final_q.q)
        assert np.array_equal(r.final_q.norms, alone.final_q.norms)
        assert np.sum(r.final_q.norms) == np.sum(alone.final_q.norms)
        assert r.final_q.epsilon == alone.final_q.epsilon


def assert_stack_matches(Xs, cfg, initials, graphs=None):
    results = fit_stack(Xs, cfg, initials, graphs)
    assert len(results) == len(Xs)
    for b, r in enumerate(results):
        assert_same_fit(r, fit(Xs[b], cfg, graphs and graphs[b], initials[b]))
    return results


@pytest.mark.parametrize("method", METHODS)
def test_a_stack_matches_each_member_fitted_alone(method):
    # members differ in data, graph and k-means start, and stop at different
    # iterations, so the stack shrinks several times
    Xs = [problem(seed) for seed in range(6)]
    graphs = [knn_graph(X, 4) for X in Xs] if method == "GEMMF" else None
    initials = [init_factors(X, 3, seed=seed) for seed, X in enumerate(Xs)]
    cfg = SolverConfig(method=method, c=3, max_iter=300, tol=1e-4, lam=1.0)
    results = assert_stack_matches(Xs, cfg, initials, graphs)
    iterations = {r.trace.iterations for r in results}
    assert len(iterations) > 1
    assert any(r.trace.converged for r in results)


@pytest.mark.parametrize("method", METHODS)
def test_a_stack_matches_from_random_initials(method):
    Xs = [problem(seed) for seed in range(4)]
    graphs = [knn_graph(X, 3) for X in Xs] if method == "GEMMF" else None
    initials = [init_factors(X, 2, seed=seed, strategy="RANDOM") for seed, X in enumerate(Xs)]
    cfg = SolverConfig(method=method, c=2, max_iter=300, tol=1e-4, lam=2.0)
    results = assert_stack_matches(Xs, cfg, initials, graphs)
    assert len({r.trace.iterations for r in results}) > 1


@pytest.mark.parametrize("lam", (0.0, 1.0, 10.0))
def test_gemmf_stack_with_one_graph_per_member(lam):
    Xs = [problem(seed) for seed in range(5)]
    graphs = [knn_graph(X, 1 + seed) for seed, X in enumerate(Xs)]
    initials = [init_factors(X, 3, seed=seed) for seed, X in enumerate(Xs)]
    cfg = SolverConfig(method="GEMMF", c=3, max_iter=200, tol=1e-5, lam=lam)
    assert_stack_matches(Xs, cfg, initials, graphs)


@st.composite
def member_stacks(draw, method):
    """1-5 members for `method`, their data of one shape, each with its own
    start and, under GEMMF, its own kNN graph. A member's data is
    s U V^T + s e E and its start (U, V) scaled up by at most 1 + m: e = 0
    with m = 0.01 starts near an exact product, where the residual norms
    take the exact fallback (`core.TAU`), and the members stop at different
    iterations."""
    B = draw(st.integers(1, 5))
    d = draw(st.integers(1, 8))
    n = draw(st.integers(3, 12))
    c = draw(st.integers(1, min(d, n, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    Xs, initials, graphs = [], [], []
    for _ in range(B):
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        noise = draw(st.sampled_from([0.0, 1e-4, 1.0]))
        move = draw(st.sampled_from([0.01, 0.5]))
        U, V = scale * (0.5 + rng.random((d, c))), 0.5 + rng.random((n, c))
        values = U @ V.T + scale * noise * rng.random((d, n))
        Xs.append(DataMatrix(values=values))
        initials.append(FactorPair(U=U * (1.0 + move * rng.random(U.shape)),
                                   V=V * (1.0 + move * rng.random(V.shape))))
        graphs.append(knn_graph(Xs[-1], draw(st.integers(1, n - 1))))
    tol = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
    lam = draw(st.sampled_from([0.0, 1.0]))
    cfg = SolverConfig(method=method, c=c, max_iter=40, tol=tol, lam=lam)
    return Xs, cfg, initials, graphs if method == "GEMMF" else None


@pytest.mark.parametrize("method", METHODS)
def test_a_generated_stack_matches_each_member_fitted_alone(monkeypatch, method):
    # and when a NaN enters one drawn member's V at a drawn step, that member
    # alone leaves, with a NumericalError, if it was still fitting then
    @PROPERTY
    @given(member_stacks(method), st.data())
    def check(stack, data):
        Xs, cfg, initials, graphs = stack
        alone = assert_stack_matches(Xs, cfg, initials, graphs)
        b = data.draw(st.integers(0, len(Xs) - 1))
        k = data.draw(st.integers(1, cfg.max_iter))
        with monkeypatch.context() as patch:
            inject_non_finite(patch, Xs[b].values, k)
            results = fit_stack(Xs, cfg, initials, graphs)
        for j, r in enumerate(results):
            if j == b and alone[b].trace.iterations >= k:
                assert isinstance(r, NumericalError)
                assert "updating V" in str(r)
                assert r.iteration == k
                assert r.objective == alone[b].trace.objective[:k]
            else:
                assert_same_fit(r, alone[j])

    check()


def test_members_sharing_data_and_graph_match_with_an_explicit_epsilon():
    X = problem(3)
    graph = knn_graph(X, 4)
    initials = [init_factors(X, 3, seed=seed) for seed in range(4)]
    for method in ("EMMF", "GEMMF", "L21_NMF"):
        cfg = SolverConfig(method=method, c=3, max_iter=40, tol=0.0, lam=1.0, epsilon=0.05)
        assert_stack_matches([X] * 4, cfg, initials, [graph] * 4)


def test_a_gemmf_stack_forms_s_v_once_per_measure_across_departures(monkeypatch):
    # the measure's S V serves its penalty and the next V step; members that
    # leave take their rows of it with them, so no product is formed again
    calls = []
    real = solvers_module.GraphStack.product

    def counting(self, V):
        calls.append(V.shape[0])
        return real(self, V)

    monkeypatch.setattr(solvers_module.GraphStack, "product", counting)
    Xs = [problem(seed) for seed in range(5)]
    graphs = [knn_graph(X, 4) for X in Xs]
    initials = [init_factors(X, 3, seed=seed) for seed, X in enumerate(Xs)]
    cfg = SolverConfig(method="GEMMF", c=3, tol=1e-4, lam=2.0)
    results = fit_stack(Xs, cfg, initials, graphs)
    iterations = [r.trace.iterations for r in results]
    assert len(set(iterations)) > 1
    assert len(calls) == max(iterations) + 1


def test_a_stack_keeps_its_workspaces_until_it_shrinks(monkeypatch):
    # NMF_DIV, the method that still holds workspaces of the data's size: U V^T
    # and the loss terms, each measure writing into them
    calls = []
    spaces = []
    real = solvers_module._divergence

    def recording(X, B, zero, out):
        calls.append(X.shape[0])
        spaces.append((B, out))
        return real(X, B, zero, out)

    monkeypatch.setattr(solvers_module, "_divergence", recording)
    Xs = [problem(seed) for seed in range(5)]
    initials = [init_factors(X, 3, seed=0) for X in Xs]
    fit_stack(Xs, SolverConfig(method="NMF_DIV", c=3, max_iter=12, tol=0.0), initials)
    assert calls == [5] * 13
    # no member leaves before the end, so the stack keeps its two workspaces
    first = spaces[0]
    assert first[0] is not first[1]
    assert all(A.shape == (5,) + Xs[0].values.shape for A in first)
    assert all(B is first[0] and out is first[1] for B, out in spaces)
    # members that meet tol leave at different iterations; the workspaces are
    # replaced exactly when the stack shrinks
    calls.clear()
    spaces.clear()
    fit_stack(Xs, SolverConfig(method="NMF_DIV", c=3, max_iter=200, tol=1e-4), initials)
    assert len(set(calls)) > 2
    assert [out.shape[0] for _, out in spaces] == calls
    for i in range(1, len(calls)):
        for now, before in zip(spaces[i], spaces[i - 1]):
            assert (now is before) == (calls[i] == calls[i - 1])


def test_a_failing_member_raises_only_its_own_error(monkeypatch):
    real = solvers_module.coeff_step
    calls = []

    def breaks_member_one_on_the_third_step(A, G, V, Q, *graph_term):
        calls.append(1)
        V = real(A, G, V, Q, *graph_term)
        if len(calls) == 3:
            V[1] = np.inf
        return V

    Xs = [problem(seed) for seed in range(3)]
    initials = [init_factors(X, 3, seed=seed) for seed, X in enumerate(Xs)]
    cfg = SolverConfig(method="EMMF", c=3, max_iter=10, tol=0.0)
    monkeypatch.setattr(solvers_module, "coeff_step", breaks_member_one_on_the_third_step)
    results = fit_stack(Xs, cfg, initials)
    monkeypatch.undo()
    err = results[1]
    assert isinstance(err, NumericalError)
    assert "updating V" in str(err)
    assert err.iteration == 3
    assert err.objective == fit(Xs[1], replace(cfg, max_iter=2), initial=initials[1]).trace.objective
    for b in (0, 2):
        assert_same_fit(results[b], fit(Xs[b], cfg, initial=initials[b]))


def inject_non_finite(patch, target, k, factor="V", bad=np.nan):
    """Patch the fit loop so that its k-th step puts `bad` into entry (0, 0)
    of `factor` for the member whose data equals `target`, if that member is
    still in the stack. The stack notices it through the objective."""
    real = solvers_module._method
    steps = []

    def injecting(X, *args):
        measure, step = real(X, *args)

        def broken_step(U, V, *carry):
            U, V, grams = step(U, V, *carry)
            steps.append(1)
            if len(steps) == k:
                for j in range(X.shape[0]):
                    if np.array_equal(X[j], target):
                        (U if factor == "U" else V)[j, 0, 0] = bad
                        grams = None  # the step's Gram products predate the bad entry
            return U, V, grams

        return measure, broken_step

    patch.setattr(solvers_module, "_method", injecting)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
@pytest.mark.parametrize("factor", ("U", "V"))
@pytest.mark.parametrize("method", METHODS)
def test_a_non_finite_factor_names_itself_and_leaves_the_others(monkeypatch, method, factor, bad):
    # member 1's factor turns non-finite in the third step; the stack notices
    # it through the objective and reports the factor, as a direct check would
    Xs = [problem(seed) for seed in range(3)]
    graphs = [knn_graph(X, 4) for X in Xs] if method == "GEMMF" else [None] * 3
    initials = [init_factors(X, 3, seed=seed) for seed, X in enumerate(Xs)]
    cfg = SolverConfig(method=method, c=3, max_iter=10, tol=0.0, lam=1.0)
    inject_non_finite(monkeypatch, Xs[1].values, 3, factor, bad)
    results = fit_stack(Xs, cfg, initials, graphs)
    monkeypatch.undo()
    err = results[1]
    assert isinstance(err, NumericalError)
    assert f"updating {factor}" in str(err)
    assert err.iteration == 3
    assert err.objective == fit(Xs[1], replace(cfg, max_iter=2), graphs[1],
                                initials[1]).trace.objective
    for b in (0, 2):
        assert_same_fit(results[b], fit(Xs[b], cfg, graphs[b], initials[b]))


def test_stacks_validate_their_members():
    Xs = [problem(0), problem(1)]
    initials = [init_factors(X, 3, seed=0) for X in Xs]
    cfg = SolverConfig(method="EMMF", c=3, max_iter=5)
    with pytest.raises(InputError, match="one initial"):
        fit_stack(Xs, cfg, initials[:1])
    with pytest.raises(InputError, match="shape"):
        fit_stack([Xs[0], DataMatrix(values=Xs[1].values[:, :-1])], cfg, initials)
    with pytest.raises(InputError, match="graph"):
        fit_stack(Xs, replace(cfg, method="GEMMF"), initials, [knn_graph(Xs[0], 3), None])


# ---- the harness's stacks --------------------------------------------------


def sweep_config(out, method, sweep, repetitions=4, **solver):
    return ExperimentConfig(
        dataset=DatasetSpec(
            source="SYNTH_BLOBS",
            params={"c": 3, "per_cluster": 8, "d": 9, "separation": 8.0, "seed": 2,
                    "samples_per_class": 2},
            normalize=True,
        ),
        solver=SolverConfig(method=method, c=3, seed=5, max_iter=150, tol=1e-5, lam=1.0, **solver),
        repetitions=repetitions,
        sweep=sweep,
        output_dir=str(out),
    )


def written_bytes(cfg, threads=1):
    paths = run_experiment(cfg, threads=threads)
    contents = {os.path.basename(p): Path(p).read_bytes() for p in paths}
    for p in paths:
        os.remove(p)
    return contents


@pytest.mark.parametrize("method, sweep", [
    ("EMMF", Sweep(name="outlier_count", values=[0, 3, 6])),
    ("GEMMF", Sweep(name="lambda", values=[0.0, 1.0, 10.0])),
    ("GEMMF", Sweep(name="block_size", values=[0, 2])),
    ("NMF_DIV", None),
    ("NMF_FRO", Sweep(name="outlier_count", values=[2, 5])),
    ("L21_NMF", Sweep(name="sigma", values=[1.0, 100.0])),
])
def test_output_files_do_not_depend_on_the_stack_budget(tmp_path, monkeypatch, method, sweep):
    # a point's repetitions are fitted max(1, STACK_BYTES // (8 d n)) at a
    # time; the default budget holds them all, and a drawn one, from one
    # member per stack up to all of them, must write the same bytes. A sigma
    # sweep fits once, outside the stacks.
    cfg = sweep_config(tmp_path, method, sweep)
    sizes = []
    real = experiment_module.fit_stack

    def recording(Xs, *args):
        sizes.append(len(Xs))
        return real(Xs, *args)

    monkeypatch.setattr(experiment_module, "fit_stack", recording)
    # the values run in this process, where `sizes` records their stacks
    monkeypatch.setattr(experiment_module, "_worker_count", lambda *args: 0)
    stacked = written_bytes(cfg)
    name = sweep.name if sweep else None
    points = [] if name == "sigma" else sweep.values if sweep else [0]
    assert sizes == [cfg.repetitions] * len(points)
    assert written_bytes(cfg, threads=3) == stacked
    X = experiment_module.realize_dataset(cfg.dataset)
    member_bytes = [8 * X.d * (X.n + (value if name == "outlier_count" else 0))
                    for value in points]
    most = cfg.repetitions * max(member_bytes, default=1)

    @settings(PROPERTY, max_examples=6)
    @example(1)  # one member per stack
    @example(most)  # every repetition of each point in one stack
    @given(st.integers(1, most))
    def check(budget):
        sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(experiment_module, "STACK_BYTES", budget)
            assert written_bytes(cfg) == stacked
        expected = []
        for member in member_bytes:
            size = max(1, budget // member)
            expected += [min(size, cfg.repetitions - first)
                         for first in range(0, cfg.repetitions, size)]
        assert sizes == expected

    check()


def assert_pooled_bytes_match_one_process(cfg, monkeypatch, pools):
    """The values of `cfg` run in two forked workers (`pools`, the
    `two_cpus` fixture), and then in this process: the same files, returned
    in the same order, and no worker left running."""
    pooled = written_bytes(cfg)
    assert pools == [2]
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(experiment_module, "_worker_count", lambda *args: 0)
    alone = written_bytes(cfg)
    assert pools == [2]
    assert list(alone) == list(pooled)
    assert alone == pooled


@pytest.mark.parametrize("method, sweep", [
    ("EMMF", Sweep(name="outlier_count", values=[0, 3, 6])),
    # a graph per problem, built in the worker
    ("GEMMF", Sweep(name="outlier_count", values=[0, 3, 6])),
    # every fit on the one graph of the clean data
    ("GEMMF", Sweep(name="lambda", values=[0.0, 1.0, 10.0])),
    # k-means per problem, in the worker
    ("EMMF", Sweep(name="block_size", values=[0, 2])),
])
def test_a_pool_of_workers_writes_the_bytes_of_one_process(tmp_path, monkeypatch, two_cpus,
                                                           method, sweep):
    assert_pooled_bytes_match_one_process(sweep_config(tmp_path, method, sweep), monkeypatch,
                                          two_cpus)


def test_a_sweep_whose_one_knn_block_is_within_the_gate_runs_in_a_pool(tmp_path, monkeypatch,
                                                                       two_cpus):
    # d = 70 at 60 and 61 samples: a graph per problem, whose one kNN block
    # of 61 x 61 x 70 products is within ONE_THREAD_PRODUCT
    cfg = replace(sweep_config(tmp_path, "GEMMF", Sweep(name="outlier_count", values=[0, 1])),
                  dataset=DatasetSpec(source="SYNTH_RANDOM", params={"d": 70, "n": 60}))
    assert_pooled_bytes_match_one_process(cfg, monkeypatch, two_cpus)


def former_task_fit(cfg, X_base, sweep_name, value, rep):
    """One task as the harness fitted it before stacking: its own k-means
    start and its own graph, built per (value, repetition)."""
    fit_seed = cfg.solver.seed + rep
    inject_seed = fit_seed + experiment_module.INJECTION_SEED_OFFSET
    solver = replace(cfg.solver, seed=fit_seed)
    X, initial = X_base, None
    if sweep_name == "outlier_count":
        X, _ = inject_outlier_vectors(X_base, int(value), seed=inject_seed)
        initial = extend_factors(init_factors(X_base, solver.c, fit_seed, solver.init), X)
    elif sweep_name == "block_size":
        X, _ = inject_block_noise(X_base, int(value), 2, seed=inject_seed)
    elif sweep_name == "lambda":
        solver = replace(solver, lam=float(value))
    graph = knn_graph(X, cfg.graph_k) if solver.method == "GEMMF" else None
    return fit(X, solver, graph, initial)


@pytest.mark.parametrize("method, sweep", [
    ("EMMF", Sweep(name="outlier_count", values=[0, 4])),
    ("GEMMF", Sweep(name="outlier_count", values=[3])),
    ("GEMMF", Sweep(name="lambda", values=[0.5, 5.0])),
    ("GEMMF", Sweep(name="block_size", values=[2])),
    ("L21_NMF", None),
])
def test_shared_starts_and_graphs_reproduce_the_per_task_fits(tmp_path, method, sweep):
    cfg = sweep_config(tmp_path, method, sweep, repetitions=3)
    run_experiment(cfg)
    X_base = experiment_module.realize_dataset(cfg.dataset)
    values = sweep.values if sweep else [None]
    for idx, value in enumerate(values):
        for rep in range(cfg.repetitions):
            expected = former_task_fit(cfg, X_base, sweep and sweep.name, value, rep)
            rows = (tmp_path / f"trace_{idx * cfg.repetitions + rep}.csv").read_text().split()
            assert rows[1:] == [f"{t},{v!r}" for t, v in enumerate(expected.trace.objective)]


def test_the_first_failing_repetition_stops_the_run(tmp_path, monkeypatch):
    real = solvers_module.coeff_step
    calls = []

    def breaks_member_two_on_the_fourth_step(A, G, V, Q, *graph_term):
        calls.append(1)
        V = real(A, G, V, Q, *graph_term)
        if len(calls) == 4:
            V[2] = np.nan
        return V

    monkeypatch.setattr(solvers_module, "coeff_step", breaks_member_two_on_the_fourth_step)
    with pytest.raises(NumericalError) as info:
        run_experiment(sweep_config(tmp_path, "EMMF", None))
    assert info.value.iteration == 4
    assert len(info.value.objective) == 4
    assert list(tmp_path.iterdir()) == []


# Fits the gemmf_2k benchmark recipe: the README blobs at c = 5, 380 per
# cluster, d = 100, unit-normalized, with 100 injected outliers, by GEMMF at
# lambda = 5 for 40 iterations from the harness's start, and prints the hex
# of each objective and of epsilon, and the sha256 of the factors' bytes.
LARGE_GEMMF_FIT = """
import hashlib
from entnmf import (SolverConfig, extend_factors, fit, init_factors, inject_outlier_vectors,
                   knn_graph, synth_blobs, unit_normalize)
from entnmf.experiment import INJECTION_SEED_OFFSET
X_base = unit_normalize(synth_blobs(5, 380, 100, 8.0, seed=1))
X, _ = inject_outlier_vectors(X_base, 100, seed=3 + INJECTION_SEED_OFFSET)
initial = extend_factors(init_factors(X_base, 5, 3, "KMEANS"), X)
cfg = SolverConfig(method="GEMMF", c=5, max_iter=40, tol=1e-6, lam=5.0, seed=3)
result = fit(X, cfg, knn_graph(X, 5), initial)
for t, value in enumerate(result.trace.objective):
    print(t, value.hex())
print("epsilon", result.final_q.epsilon.hex())
for name in ("U", "V"):
    print(name, hashlib.sha256(getattr(result.factors, name).tobytes()).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="BLAS needs two CPUs for two threads")
def test_a_large_gemmf_fit_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10 000 entries across its threads:
    # the graph of 2000 samples has more, and so has the data, d n = 210 000.
    # ||S||_F^2 and ||X||_F are numpy reductions, so one and two threads
    # write the same objectives, factors and epsilon.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", LARGE_GEMMF_FIT], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        printed.append(out.stdout.splitlines())
    assert len(printed[0]) == 41 + 3
    for one, two in zip(*printed):
        assert one == two
