"""The single fit loop against the former per-method fit functions.

`reference_fit` below is the earlier implementation, kept as the oracle: one
fit function per method family over a shared outer loop, rebuilding and
validating `FactorPair`/`ResidualWeights` on every step and forming the
residual once for the step and again for the objective. Its kernels are
copied with it, so the comparison pins the arithmetic, not only the loop.
`fit` must reproduce it bit for bit.
"""

import numpy as np
import pytest

from entnmf import (
    ConvergenceTrace,
    DataMatrix,
    FactorPair,
    InputError,
    NumericalError,
    ResidualWeights,
    SolverConfig,
    default_epsilon,
    fit,
    init_factors,
    inject_outlier_vectors,
    knn_graph,
    normalize_graph,
    synth_blobs,
    unit_normalize,
)
from entnmf import core
from entnmf import solvers as solvers_module

METHODS = ("EMMF", "GEMMF", "NMF_FRO", "NMF_DIV", "L21_NMF")


# ---- the former implementation -------------------------------------------


def ref_residual(X, F):
    return X.values - F.U @ F.V.T


def ref_guarded_norms(M, eps):
    return np.maximum(np.sqrt(np.sum(M * M, axis=0)), eps)


def ref_entropy_weights(M, eps):
    norms = ref_guarded_norms(M, eps)
    total = float(np.sum(norms))
    q = np.maximum(-np.log(norms / total) / norms, 0.0)
    return ResidualWeights(norms=norms, total=total, q=q, epsilon=eps)


def ref_entropy_objective(X, F, eps):
    norms = ref_guarded_norms(ref_residual(X, F), eps)
    total = float(np.sum(norms))
    return max(float(-np.sum(norms * np.log(norms / total))), 0.0)


def ref_l21_weights(M, eps):
    norms = ref_guarded_norms(M, eps)
    return ResidualWeights(norms=norms, total=float(norms.sum()), q=0.5 / norms, epsilon=eps)


def ref_update_basis(X, F, w):
    q = w.q
    numer = (X.values * q[None, :]) @ F.V
    denom = F.U @ ((F.V * q[:, None]).T @ F.V)
    return F.U * np.sqrt(numer / (denom + 1e-12))


def ref_update_coeff(X, F, w):
    q = w.q
    numer = q[:, None] * (X.values.T @ F.U)
    denom = q[:, None] * (F.V @ (F.U.T @ F.U))
    return F.V * np.sqrt(numer / (denom + 1e-12))


def ref_gemmf_update_coeff(X, F, w, graph, lam):
    q = w.q
    A = q[:, None] * (X.values.T @ F.U)
    B = q[:, None] * (F.V @ (F.U.T @ F.U))
    SV = graph.S @ F.V
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
    iterations = 0
    converged = False
    for t in range(1, cfg.max_iter + 1):
        F = step(F)
        value = objective_of(F)
        objective.append(value)
        iterations = t
        if abs(value - objective[-2]) / max(objective[-2], 1e-30) < cfg.tol:
            converged = True
            break
    return F, ConvergenceTrace(objective=objective, iterations=iterations, converged=converged)


def ref_fit_emmf(X, cfg, initial=None):
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)

    def step(F):
        w = ref_entropy_weights(ref_residual(X, F), eps)
        U = ref_update_basis(X, F, w)
        F = FactorPair(U=U, V=F.V)
        return FactorPair(U=U, V=ref_update_coeff(X, F, w))

    F, trace = ref_run_loop(X, cfg, lambda F: ref_entropy_objective(X, F, eps), step,
                            lambda F: ref_entropy_objective(X, F, eps), initial)
    return F, trace, ref_entropy_weights(ref_residual(X, F), eps)


def ref_fit_gemmf(X, graph, cfg, initial=None):
    eps = cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)
    S = normalize_graph(graph)

    def objective_of(F):
        return ref_entropy_objective(X, F, eps) + cfg.lam * S.penalty(F.V)

    def step(F):
        w = ref_entropy_weights(ref_residual(X, F), eps)
        U = ref_update_basis(X, F, w)
        F = FactorPair(U=U, V=F.V)
        return FactorPair(U=U, V=ref_gemmf_update_coeff(X, F, w, S, cfg.lam))

    F, trace = ref_run_loop(X, cfg, objective_of, step, objective_of, initial)
    return F, trace, ref_entropy_weights(ref_residual(X, F), eps)


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
            w = ref_l21_weights(ref_residual(X, F), eps)
            U = ref_update_basis(X, F, w)
            F = FactorPair(U=U, V=F.V)
            return FactorPair(U=U, V=ref_update_coeff(X, F, w))

        def objective_of(F):
            M = ref_residual(X, F)
            return float(np.sum(np.sqrt(np.sum(M * M, axis=0))))

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


def assert_identical(X, cfg, graph=None, initial=None):
    r = fit(X, cfg, graph, initial)
    F, trace, final_q = reference_fit(X, cfg, graph, initial)
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
        assert r.final_q.total == final_q.total
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


def test_matches_on_unnormalized_and_normalized_graphs_and_zero_weight():
    for seed in range(5):
        X = problem(seed)
        g = knn_graph(X, 5)
        for graph in (g, normalize_graph(g)):
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


@pytest.mark.parametrize("method", ("EMMF", "GEMMF", "L21_NMF", "NMF_FRO"))
def test_forms_one_residual_per_iteration(monkeypatch, method):
    calls = []

    def counting(X, U, V):
        calls.append(1)
        return core.residual_matrix(X, U, V)

    monkeypatch.setattr(solvers_module, "residual_matrix", counting)
    X = problem(0)
    graph = knn_graph(X, 4) if method == "GEMMF" else None
    for k in (1, 7, 30):
        calls.clear()
        r = fit(X, SolverConfig(method=method, c=3, max_iter=k, tol=0.0, lam=1.0), graph)
        assert r.trace.iterations == k
        assert len(calls) == k + 1


def test_validates_factors_and_weights_once_per_fit(monkeypatch):
    X = problem(1)
    F0 = init_factors(X, 3, seed=0)
    counts = {"FactorPair": 0, "ResidualWeights": 0}
    for cls in (FactorPair, ResidualWeights):
        original = cls.__post_init__

        def counted(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    fit(X, SolverConfig(method="EMMF", c=3, max_iter=50, tol=0.0), initial=F0)
    assert counts == {"FactorPair": 1, "ResidualWeights": 1}


def test_gemmf_graph_checks_stay_at_the_boundary():
    X = problem(0)
    cfg = SolverConfig(method="GEMMF", c=3, lam=1.0, max_iter=5)
    with pytest.raises(InputError, match="graph"):
        fit(X, cfg)
    with pytest.raises(InputError, match="vertices"):
        fit(X, cfg, knn_graph(DataMatrix(values=X.values[:, :-1]), 3))


def test_numerical_failure_names_the_iteration_and_keeps_the_trace(monkeypatch):
    real = solvers_module.update_coeff
    calls = []

    def breaks_on_the_third_step(X, U, V, q):
        calls.append(1)
        V = real(X, U, V, q)
        if len(calls) == 3:
            V = V * np.inf
        return core._check_finite(V, "V")

    monkeypatch.setattr(solvers_module, "update_coeff", breaks_on_the_third_step)
    X = problem(0)
    with pytest.raises(NumericalError) as info:
        fit(X, SolverConfig(method="EMMF", c=3, max_iter=10, tol=0.0))
    assert info.value.iteration == 3
    assert len(info.value.objective) == 3
    assert np.all(np.isfinite(info.value.objective))
