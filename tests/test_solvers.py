"""Fitting loops: initialization, convergence control, and each method's rules."""

import tracemalloc

import numpy as np
import pytest

from entnmf import (
    DataMatrix,
    FactorPair,
    InputError,
    SimilarityGraph,
    SolverConfig,
    column_norms,
    entropy_objective,
    entropy_weights,
    extend_factors,
    fit,
    init_factors,
    knn_graph,
    normalize_graph,
    residual_matrix,
    synth_blobs,
    synth_outliers,
    synth_random,
)
from entnmf.graph import graph_penalty
from entnmf.losses import default_epsilon
from entnmf.solvers import V_INIT_OFFSET, _kmeans, _method


def broadcast_kmeans(points, c, rng, n_iter=100):
    """The earlier `_kmeans`, kept as the oracle: it forms the distances of
    every point to every centroid as one (n, c, d) broadcast per iteration."""
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


def dense_penalty(S, V):
    """The former dense graph penalty ||S - V V^T||_F^2, kept as the reference."""
    return float(np.linalg.norm(S - V @ V.T) ** 2)


def penalty(g, V):
    """||S - V V^T||_F^2 of graph g by the kernel the fit loop runs."""
    return float(graph_penalty(g.sq_norm, g.S @ V, V))


class TestSolverConfig:
    def test_defaults_are_valid(self):
        cfg = SolverConfig()
        assert cfg.method == "EMMF" and cfg.init == "KMEANS"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "SVD"},
            {"init": "SPECTRAL"},
            {"c": 0},
            {"max_iter": 0},
            {"tol": -1e-6},
            {"lam": -1.0},
            {"epsilon": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InputError):
            SolverConfig(**kwargs)


class TestInitFactors:
    def test_kmeans_init_is_strictly_positive_one_hot(self):
        X = synth_blobs(3, 8, 5, 10.0, seed=0)
        F = init_factors(X, 3, seed=0)
        assert F.U.min() > 0 and F.V.min() > 0
        # every coefficient row is the offset plus a single spike
        assert np.all(np.sort(F.V, axis=1)[:, :-1] == V_INIT_OFFSET)
        assert np.all(F.V.max(axis=1) == 1.0 + V_INIT_OFFSET)

    def test_kmeans_init_recovers_separated_clusters(self):
        from entnmf import accuracy

        X = synth_blobs(3, 10, 6, 12.0, seed=1)
        F = init_factors(X, 3, seed=1)
        assert accuracy(np.argmax(F.V, axis=1), X.labels) == 1.0

    @pytest.mark.parametrize("order", ("C", "F"))
    def test_kmeans_matches_the_broadcast_distances(self, order):
        # quarter-integer entries give tied distances, and data with fewer
        # distinct points than centroids gives emptied clusters
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 12))
            c = int(rng.integers(1, min(n, 6) + 1))
            values = (rng.integers(0, 8, (d, n)) / 4, rng.integers(0, 3, (min(d, 2), n)) / 4,
                      rng.random((d, n)))[seed % 3]
            points = np.asarray(values, order=order).T
            got = _kmeans(points, c, np.random.default_rng(seed))
            want = broadcast_kmeans(points, c, np.random.default_rng(seed))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_random_init_is_in_the_unit_interval(self):
        X = synth_random(4, 9, seed=0)
        F = init_factors(X, 2, seed=5, strategy="RANDOM")
        for A in (F.U, F.V):
            assert A.min() > 0 and A.max() <= 1.0

    def test_deterministic_per_seed(self):
        X = synth_random(4, 9, seed=0)
        A = init_factors(X, 2, seed=3)
        B = init_factors(X, 2, seed=3)
        assert np.array_equal(A.U, B.U) and np.array_equal(A.V, B.V)

    def test_survives_duplicate_samples(self):
        X = DataMatrix(values=np.tile([[1.0], [2.0]], (1, 6)))
        F = init_factors(X, 2, seed=0)
        assert F.U.min() > 0 and F.V.shape == (6, 2)

    def test_validation(self):
        X = synth_random(3, 4, seed=0)
        with pytest.raises(InputError):
            init_factors(X, 4, seed=0)  # c > min(d, n)
        with pytest.raises(InputError):
            init_factors(X, 2, seed=0, strategy="GRID")


class TestExtendFactors:
    def test_new_columns_get_one_hot_rows_at_the_nearest_basis(self):
        U = np.array([[1.0, 10.0], [1.0, 10.0]])
        F = FactorPair(U=U, V=np.full((2, 2), 0.5))
        X = DataMatrix(values=np.array([[1.0, 10.0, 9.5, 1.2], [1.0, 10.0, 9.5, 0.8]]))
        G = extend_factors(F, X)
        assert np.array_equal(G.U, U)
        assert np.array_equal(G.V[:2], F.V)
        assert np.argmax(G.V[2]) == 1  # (9.5, 9.5) sits next to the second column
        assert np.argmax(G.V[3]) == 0
        assert np.sort(G.V[2])[0] == V_INIT_OFFSET

    def test_without_growth_returns_an_independent_copy(self):
        F = FactorPair(U=np.ones((2, 1)), V=np.ones((3, 1)))
        X = DataMatrix(values=np.ones((2, 3)))
        G = extend_factors(F, X)
        assert np.array_equal(G.V, F.V)
        assert G.U is not F.U and G.V is not F.V

    def test_rejects_shrinking_data(self):
        F = FactorPair(U=np.ones((2, 1)), V=np.ones((5, 1)))
        with pytest.raises(InputError):
            extend_factors(F, DataMatrix(values=np.ones((2, 3))))


class TestFitLoop:
    def test_trace_bookkeeping(self):
        X = synth_random(6, 10, seed=1)
        r = fit(X, SolverConfig(method="EMMF", c=2, seed=0, max_iter=7, tol=0.0))
        assert r.trace.iterations == 7
        assert not r.trace.converged
        assert len(r.trace.objective) == 8

    def test_zero_tolerance_never_stops_early(self):
        X = synth_random(5, 8, seed=2)
        r = fit(X, SolverConfig(method="NMF_FRO", c=2, seed=0, max_iter=30, tol=0.0))
        assert r.trace.iterations == 30 and not r.trace.converged

    def test_loose_tolerance_stops_at_the_first_stall(self):
        X = synth_random(5, 8, seed=2)
        r = fit(X, SolverConfig(method="EMMF", c=2, seed=0, max_iter=200, tol=1e-3))
        assert r.trace.converged
        assert r.trace.iterations < 200
        a, b = r.trace.objective[-2], r.trace.objective[-1]
        assert abs(b - a) / max(a, 1e-30) < 1e-3

    def test_explicit_initial_factors_are_respected(self):
        X = synth_random(5, 8, seed=3)
        F0 = init_factors(X, 2, seed=9, strategy="RANDOM")
        r = fit(X, SolverConfig(method="EMMF", c=2, max_iter=1), initial=F0)
        eps = default_epsilon(X.values)
        assert r.trace.objective[0] == pytest.approx(entropy_objective(X, F0, eps), rel=1e-12)

    def test_rejects_initial_factors_of_the_wrong_shape(self):
        X = synth_random(5, 8, seed=3)
        F0 = init_factors(X, 2, seed=0)
        with pytest.raises(InputError):
            fit(X, SolverConfig(method="EMMF", c=3, max_iter=1), initial=F0)

    def test_assignments_are_row_argmax_of_v(self):
        X = synth_blobs(2, 6, 4, 10.0, seed=0)
        r = fit(X, SolverConfig(method="EMMF", c=2, seed=0, max_iter=50))
        assert np.array_equal(r.assignments, np.argmax(r.factors.V, axis=1))

    def test_final_q_matches_the_final_residual(self):
        X = synth_random(5, 9, seed=4)
        cfg = SolverConfig(method="EMMF", c=2, seed=0, max_iter=20)
        r = fit(X, cfg)
        M = residual_matrix(X, r.factors.U, r.factors.V)
        w = entropy_weights(M, default_epsilon(X.values))
        assert np.allclose(r.final_q.q, w.q, atol=1e-15)


class TestEmmf:
    def test_first_iteration_matches_the_written_rules(self):
        X = synth_random(6, 9, seed=5)
        F0 = init_factors(X, 3, seed=1, strategy="RANDOM")
        eps = default_epsilon(X.values)
        w = entropy_weights(residual_matrix(X, F0.U, F0.V), eps)
        q = w.q
        U1 = F0.U * np.sqrt(
            ((X.values * q) @ F0.V) / (F0.U @ ((F0.V * q[:, None]).T @ F0.V) + 1e-12)
        )
        V1 = F0.V * np.sqrt(
            (q[:, None] * (X.values.T @ U1)) / (q[:, None] * (F0.V @ (U1.T @ U1)) + 1e-12)
        )
        r = fit(X, SolverConfig(method="EMMF", c=3, max_iter=1), initial=F0)
        assert np.allclose(r.factors.U, U1, atol=1e-13)
        assert np.allclose(r.factors.V, V1, atol=1e-13)

    def test_objective_decreases_on_real_data(self):
        for seed in range(5):
            X = synth_outliers(seed)
            r = fit(X, SolverConfig(method="EMMF", c=2, seed=seed, max_iter=80, tol=0.0))
            diffs = np.diff(r.trace.objective)
            assert np.all(diffs <= 1e-8 * np.maximum(1.0, np.abs(r.trace.objective[:-1])))

    def test_converges_quickly_on_small_structured_data(self):
        # instances chosen to stay well under the iteration budget
        for s in range(6):
            r = fit(synth_outliers(s), SolverConfig(method="EMMF", c=1, seed=s, max_iter=100))
            assert r.trace.converged and r.trace.iterations <= 35
        for s in (0, 1):
            X = synth_blobs(2, 10, 4, 10.0, seed=s)
            r = fit(X, SolverConfig(method="EMMF", c=2, seed=s, max_iter=100))
            assert r.trace.converged
        X = synth_blobs(3, 10, 5, 20.0, seed=1)
        r = fit(X, SolverConfig(method="EMMF", c=3, seed=1, max_iter=100))
        assert r.trace.converged


    def test_an_iteration_allocates_nothing_of_the_data_size(self):
        # at the emmf_2k benchmark's size, building the pair included: the
        # residual norms come from the Gram products the V step forms, so no
        # workspace and no temporary has X's size
        rng = np.random.default_rng(0)
        d, n, c = 100, 2000, 5
        X = rng.random((1, d, n))
        U, V = rng.random((1, d, c)), rng.random((1, n, c))
        with np.errstate(all="ignore"):
            tracemalloc.start()
            try:
                measure, step = _method(X, np.full((1, 1), 1e-10), SolverConfig(c=c), None)
                _, _, carry = measure(U, V, None)
                U, V, grams = step(U, V, *carry)
                value = measure(U, V, grams)[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.isfinite(value).all()
        assert peak < X.nbytes / 4


class TestGemmf:
    def test_requires_a_graph_through_the_dispatcher(self):
        X = synth_random(4, 8, seed=0)
        with pytest.raises(InputError, match="graph"):
            fit(X, SolverConfig(method="GEMMF", c=2))

    def test_rejects_graph_of_the_wrong_size(self):
        X = synth_random(4, 8, seed=0)
        g = knn_graph(synth_random(4, 6, seed=0), 2)
        with pytest.raises(InputError):
            fit(X, SolverConfig(method="GEMMF", c=2), g)

    def test_records_the_penalized_objective(self):
        X = synth_random(5, 10, seed=6)
        g = knn_graph(X, 3)
        lam = 2.5
        F0 = init_factors(X, 2, seed=0)
        r = fit(X, SolverConfig(method="GEMMF", c=2, lam=lam, max_iter=1), g, initial=F0)
        S = normalize_graph(g).S.toarray()
        eps = default_epsilon(X.values)
        expected = entropy_objective(X, F0, eps) + lam * np.linalg.norm(S - F0.V @ F0.V.T) ** 2
        assert r.trace.objective[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_reduces_to_the_entropy_objective(self):
        X = synth_random(5, 10, seed=7)
        g = knn_graph(X, 3)
        F0 = init_factors(X, 2, seed=0)
        r = fit(X, SolverConfig(method="GEMMF", c=2, lam=0.0, max_iter=1), g, initial=F0)
        eps = default_epsilon(X.values)
        assert r.trace.objective[0] == pytest.approx(entropy_objective(X, F0, eps), rel=1e-12)

    def test_accepts_an_unnormalized_graph(self):
        X = synth_random(5, 10, seed=8)
        g = knn_graph(X, 3)
        assert not g.normalized
        r = fit(X, SolverConfig(method="GEMMF", c=2, lam=1.0, max_iter=5), g)
        assert np.all(np.isfinite(r.trace.objective))

    def test_penalty_matches_the_dense_oracle(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 60))
            g = normalize_graph(knn_graph(synth_random(4, n, seed=seed), int(rng.integers(1, 7))))
            V = rng.random((n, int(rng.integers(1, 5))))
            assert penalty(g, V) == pytest.approx(dense_penalty(g.S.toarray(), V), rel=1e-12)

    def test_penalty_survives_cancellation(self):
        # normalized cliques with self-loops equal V V^T for V the block
        # indicators over sqrt(block size); near that V the penalty is far
        # below ||S||_F^2 and the expanded form cancels
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sizes = rng.integers(2, 8, size=3)
            labels = np.repeat(np.arange(3), sizes)
            g = normalize_graph(SimilarityGraph(S=labels[:, None] == labels[None, :]))
            V0 = (labels[:, None] == np.arange(3)) / np.sqrt(sizes)
            for scale in (0.0, 1e-5):
                V = V0 + scale * rng.random(V0.shape)
                expected = dense_penalty(g.S.toarray(), V)
                assert expected < 1e-6 * g.sq_norm
                value = penalty(g, V)
                assert value >= 0
                assert abs(value - expected) <= 1e-12 * g.sq_norm


class TestBaselines:
    def test_frobenius_first_iteration_matches_the_written_rules(self):
        X = synth_random(5, 8, seed=9)
        F0 = init_factors(X, 2, seed=2, strategy="RANDOM")
        U1 = F0.U * (X.values @ F0.V) / (F0.U @ (F0.V.T @ F0.V) + 1e-12)
        V1 = F0.V * (X.values.T @ U1) / (F0.V @ (U1.T @ U1) + 1e-12)
        r = fit(X, SolverConfig(method="NMF_FRO", c=2, max_iter=1), initial=F0)
        assert np.allclose(r.factors.U, U1, atol=1e-13)
        assert np.allclose(r.factors.V, V1, atol=1e-13)

    def test_frobenius_recovers_an_exact_product(self):
        # rank-1 products collapse to machine precision from any start
        for seed in range(4):
            rng = np.random.default_rng(seed)
            U = rng.random((5, 1)) + 0.2
            V = rng.random((7, 1)) + 0.2
            X = DataMatrix(values=U @ V.T)
            cfg = SolverConfig(
                method="NMF_FRO", c=1, seed=seed, max_iter=200, tol=0.0, init="RANDOM"
            )
            assert fit(X, cfg).trace.objective[-1] < 1e-8
        # higher-rank products converge once started in the right basin
        for seed in range(4):
            rng = np.random.default_rng(seed)
            U = rng.random((6, 2)) + 0.2
            V = rng.random((9, 2)) + 0.2
            X = DataMatrix(values=U @ V.T)
            F0 = FactorPair(
                U=U * (1.0 + 0.2 * rng.random(U.shape)),
                V=V * (1.0 + 0.2 * rng.random(V.shape)),
            )
            cfg = SolverConfig(method="NMF_FRO", c=2, max_iter=200, tol=0.0)
            assert fit(X, cfg, initial=F0).trace.objective[-1] < 1e-8

    def test_divergence_first_objective_is_the_divergence(self):
        X = DataMatrix(values=[[2.0, 1.0], [1.0, 3.0]])
        F0 = FactorPair(U=np.array([[1.0], [1.0]]), V=np.array([[1.0], [1.0]]))
        # sum of x log(x / b) - x + b with every b = 1
        expected = (2 * np.log(2) - 2 + 1) + 0.0 + 0.0 + (3 * np.log(3) - 3 + 1)
        r = fit(X, SolverConfig(method="NMF_DIV", c=1, max_iter=1), initial=F0)
        assert r.trace.objective[0] == pytest.approx(expected, rel=1e-9)

    def test_divergence_vanishes_only_at_an_exact_fit(self):
        rng = np.random.default_rng(3)
        U = rng.random((4, 2)) + 0.5
        V = rng.random((6, 2)) + 0.5
        X = DataMatrix(values=U @ V.T)
        exact = fit(
            X, SolverConfig(method="NMF_DIV", c=2, max_iter=1), initial=FactorPair(U=U, V=V)
        )
        assert exact.trace.objective[0] == pytest.approx(0.0, abs=1e-9)
        off = fit(
            X,
            SolverConfig(method="NMF_DIV", c=2, max_iter=1),
            initial=FactorPair(U=U, V=V + 0.3),
        )
        assert off.trace.objective[0] > 0.1

    def test_divergence_objective_decreases(self):
        X = synth_random(5, 9, seed=10)
        r = fit(X, SolverConfig(method="NMF_DIV", c=2, seed=0, max_iter=60, tol=0.0))
        diffs = np.diff(r.trace.objective)
        assert np.all(diffs <= 1e-8 * np.maximum(1.0, np.abs(r.trace.objective[:-1])))

    def test_divergence_iteration_allocates_nothing_of_the_data_size(self):
        # at the emmf_2k benchmark's size, with zeros in X: U V^T, both ratios
        # and the loss terms are written into the pair's workspaces
        rng = np.random.default_rng(0)
        d, n, c = 100, 2000, 5
        X = rng.random((1, d, n))
        X[X < 0.1] = 0.0
        U, V = rng.random((1, d, c)), rng.random((1, n, c))
        measure, step = _method(X, np.ones((1, 1)), SolverConfig(method="NMF_DIV", c=c), None)
        with np.errstate(all="ignore"):  # log(0) at the zeros, as in the fit loop
            _, _, carry = measure(U, V, None)
            tracemalloc.start()
            try:
                U, V, grams = step(U, V, *carry)
                value = measure(U, V, grams)[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.isfinite(value).all()
        assert peak < X.nbytes / 4

    def test_l21_first_iteration_uses_half_inverse_norm_weights(self):
        X = synth_random(5, 8, seed=11)
        F0 = init_factors(X, 2, seed=4, strategy="RANDOM")
        eps = default_epsilon(X.values)
        norms = np.maximum(column_norms(residual_matrix(X, F0.U, F0.V)), eps)
        q = 0.5 / norms
        U1 = F0.U * np.sqrt(
            ((X.values * q) @ F0.V) / (F0.U @ ((F0.V * q[:, None]).T @ F0.V) + 1e-12)
        )
        V1 = F0.V * np.sqrt(
            (q[:, None] * (X.values.T @ U1)) / (q[:, None] * (F0.V @ (U1.T @ U1)) + 1e-12)
        )
        r = fit(X, SolverConfig(method="L21_NMF", c=2, max_iter=1), initial=F0)
        assert np.allclose(r.factors.U, U1, atol=1e-13)
        assert np.allclose(r.factors.V, V1, atol=1e-13)

    def test_l21_records_the_sum_of_residual_norms(self):
        X = synth_random(5, 8, seed=12)
        F0 = init_factors(X, 2, seed=0)
        r = fit(X, SolverConfig(method="L21_NMF", c=2, max_iter=1), initial=F0)
        assert r.trace.objective[0] == pytest.approx(
            float(np.sum(column_norms(residual_matrix(X, F0.U, F0.V)))), rel=1e-12
        )

    def test_baselines_report_no_entropy_weights(self):
        X = synth_random(4, 6, seed=0)
        r = fit(X, SolverConfig(method="NMF_FRO", c=2, max_iter=3))
        assert r.final_q is None
