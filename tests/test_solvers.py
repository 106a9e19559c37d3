"""Fitting loops: initialization, convergence control, and each method's rules."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entnmf import (
    DataMatrix,
    FactorPair,
    InputError,
    SimilarityGraph,
    SolverConfig,
    column_norms,
    extend_factors,
    fit,
    init_factors,
    knn_graph,
    load_csv,
    residual_matrix,
    synth_blobs,
    synth_outliers,
    synth_random,
)
from entnmf.graph import graph_penalty
from entnmf.losses import default_epsilon
from entnmf.solvers import METHODS, V_INIT_OFFSET, _kmeans, _method, _sq_distances, fit_stack
from conftest import csr, entropy_objective, entropy_weights, normalized, sq_norm


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


def former_kmeans(points, c, rng):
    """The former `_kmeans`, kept as the oracle: its seeding and its Lloyd
    loop each write the squared distance sum themselves, the loop into one
    (n, c) array it reuses."""
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
    dist = np.empty((n, c))
    for _ in range(100):
        for j in range(c):
            dist[:, j] = np.sum((points - centers[j]) ** 2, axis=1)
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


def former_init_factors(X, c, seed):
    """The former KMEANS `init_factors` on `former_kmeans`, kept as the oracle."""
    centers, labels = former_kmeans(X.values.T, c, np.random.default_rng(seed))
    U = np.maximum(centers.T, 1e-8 * max(1.0, float(X.values.max())))
    V = np.full((X.n, c), V_INIT_OFFSET)
    V[np.arange(X.n), labels] += 1.0
    return FactorPair(U=U, V=V)


def broadcast_distances(F, X):
    """The squared distance of each column X appends to F's samples to each
    basis column, as the former `extend_factors` formed it: one d x extra x c
    broadcast."""
    tail = X.values[:, F.V.shape[0] :]
    return np.sum((tail[:, :, None] - F.U[:, None, :]) ** 2, axis=0)


def feature_order_distances(points, centers):
    """(n, c) squared distances of points (n, d) to centers (c, d), each
    summed from zero over the features one after another."""
    total = np.zeros((len(points), len(centers)))
    for f in range(points.shape[1]):
        total += (points[:, f, None] - centers[None, :, f]) ** 2
    return total


def broadcast_extend_factors(F, X):
    """The former `extend_factors`, kept as the oracle."""
    extra = X.n - F.V.shape[0]
    nearest = np.argmin(broadcast_distances(F, X), axis=1)
    V_new = np.full((extra, F.c), V_INIT_OFFSET)
    V_new[np.arange(extra), nearest] += 1.0
    return FactorPair(U=F.U.copy(), V=np.vstack([F.V, V_new]))


@st.composite
def anchored_problems(draw):
    """Clean data of n0 samples and the same data with `extra` columns
    appended, for a c-cluster start. Quarter-integer entries give tied
    distances, and data with fewer distinct points than centroids gives
    emptied clusters."""
    d = draw(st.integers(1, 12))
    n0 = draw(st.integers(2, 30))
    extra = draw(st.integers(0, 20))
    c = draw(st.integers(1, min(d, n0, 6)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["quarters", "few", "uniform"]))
    if kind == "quarters":
        values = rng.integers(0, 8, (d, n0 + extra)) / 4
    elif kind == "few":
        values = rng.integers(0, 3, (d, n0 + extra)) / 4
    else:
        values = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.random((d, n0 + extra))
    return DataMatrix(values=values[:, :n0]), DataMatrix(values=values), c, seed


def dense_penalty(S, V):
    """The former dense graph penalty ||S - V V^T||_F^2, kept as the reference."""
    return float(np.linalg.norm(S - V @ V.T) ** 2)


def penalty(g, V):
    """||S - V V^T||_F^2 of graph g by the kernel the fit loop runs."""
    return float(graph_penalty(sq_norm(g), csr(g) @ V, V))


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

    def test_kmeans_matches_the_broadcast_distances(self):
        # quarter-integer entries give tied distances, and data with fewer
        # distinct points than centroids gives emptied clusters
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 12))
            c = int(rng.integers(1, min(n, 6) + 1))
            values = (rng.integers(0, 8, (d, n)) / 4, rng.integers(0, 3, (min(d, 2), n)) / 4,
                      rng.random((d, n)))[seed % 3]
            points = values.T
            got = _kmeans(points, c, np.random.default_rng(seed))
            want = broadcast_kmeans(points, c, np.random.default_rng(seed))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(anchored_problems())
    def test_kmeans_start_and_its_extension_match_the_former_code(self, problem):
        # the k-means start, C-ordered U and all, bit for bit; its
        # extension sums each distance from zero over the features one after
        # another, and assigns as the broadcast did
        base, X, c, seed = problem
        F, want = init_factors(base, c, seed), former_init_factors(base, c, seed)
        assert F.U.flags.c_contiguous
        assert np.array_equal(F.U, want.U) and np.array_equal(F.V, want.V)
        points = X.values[:, base.n:].T
        assert np.array_equal(_sq_distances(points, F.U.T),
                              feature_order_distances(points, F.U.T))
        G, want = extend_factors(F, X), broadcast_extend_factors(F, X)
        assert G.U.flags.c_contiguous
        assert np.array_equal(G.U, want.U) and np.array_equal(G.V, want.V)

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

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(anchored_problems())
    def test_extending_a_random_start_assigns_as_the_broadcast(self, problem):
        # a C-ordered U: the broadcast itself rounds the distances
        # differently by U's memory order, so they may differ from the
        # kernel's in the last bit; the assignments, and so V, do not
        base, X, c, seed = problem
        F = init_factors(base, c, seed, "RANDOM")
        G, want = extend_factors(F, X), broadcast_extend_factors(F, X)
        assert np.array_equal(G.U, want.U) and np.array_equal(G.V, want.V)

    def test_a_lone_appended_column_sums_its_distances_feature_by_feature(self):
        # numpy sums a one-row reduction pairwise, so one appended column
        # must still get the bits it gets among three
        for d in range(1, 101):
            rng = np.random.default_rng(d)
            X = DataMatrix(values=rng.random((d, 7)))  # 4 samples, 3 appended
            one, three = X.values[:, 4:5].T, X.values[:, 4:].T
            for c in range(1, 6):
                centers = rng.random((c, d))
                lone = _sq_distances(one, centers)
                assert np.array_equal(lone, _sq_distances(three, centers)[:1]), (d, c)
                assert np.array_equal(lone, feature_order_distances(one, centers)), (d, c)

    def test_forms_nothing_of_size_d_by_extra_by_c(self):
        # d = 100, 1000 appended columns, c = 5: a d x extra x c broadcast
        # would take 4 MB
        rng = np.random.default_rng(0)
        d, n0, extra, c = 100, 200, 1000, 5
        X = DataMatrix(values=rng.random((d, n0 + extra)))
        F = FactorPair(U=rng.random((d, c)), V=rng.random((n0, c)))
        tracemalloc.start()
        try:
            G = extend_factors(F, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.V.shape == (n0 + extra, c)
        assert peak < 2_000_000

    def test_rejects_shrinking_data(self):
        F = FactorPair(U=np.ones((2, 1)), V=np.ones((5, 1)))
        with pytest.raises(InputError):
            extend_factors(F, DataMatrix(values=np.ones((2, 3))))

    @pytest.mark.parametrize("d", [3, 1])
    def test_rejects_data_of_another_feature_count(self, d):
        # 4-feature factors: at d = 3 the distances would not broadcast, and
        # at d = 1 they would broadcast to a 4 x 2 U for 1-feature data
        F = FactorPair(U=np.ones((4, 2)), V=np.ones((3, 2)))
        with pytest.raises(InputError, match=f"factors have 4 features but data has {d}$"):
            extend_factors(F, DataMatrix(values=np.ones((d, 5))))


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

    def test_a_stack_of_one_fits_on_its_data_without_a_copy(self):
        # at the emmf_2k benchmark's size: one iteration, the pair and the
        # result included, allocates nothing of the data's size
        rng = np.random.default_rng(0)
        X = DataMatrix(values=rng.random((100, 2000)))
        F0 = FactorPair(U=rng.random((100, 5)), V=rng.random((2000, 5)))
        tracemalloc.start()
        try:
            (r,) = fit_stack([X], SolverConfig(c=5, max_iter=1, tol=0.0), [F0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.trace.iterations == 1
        assert peak < X.values.nbytes / 4

    def test_starts_and_fits_do_not_depend_on_the_memory_order(self):
        # at d=100 a sum over the features rounds differently in C and
        # Fortran order (k-means' distances by up to 1e-15 relative); data
        # is held C-ordered, so its Fortran-ordered and strided copies give
        # the k-means start, its extension and every method's fit bit for bit
        rng = np.random.default_rng(3)
        P = rng.random((100, 500))
        wide = np.zeros((100, 1000))
        wide[:, ::2] = P

        def outcome(values):
            X = DataMatrix(values=values)
            F = init_factors(DataMatrix(values=values[:, :400]), 5, seed=1)
            G = extend_factors(F, X)
            graph = knn_graph(X, 5)
            fits = [fit(X, SolverConfig(method=method, c=5, max_iter=10, tol=0.0, lam=1.0),
                        graph, G) for method in METHODS]
            return [F.U, F.V, G.U, G.V] + [a for r in fits for a in
                                           (r.factors.U, r.factors.V, r.trace.objective)]

        expected = outcome(P)
        for given in (np.asfortranarray(P), wide[:, ::2]):
            for got, want in zip(outcome(given), expected):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("crowded", (False, True))
    def test_a_csv_fit_in_the_former_fortran_layout_matches_within_rounding(self, tmp_path,
                                                                            crowded):
        # load_csv once returned Fortran-ordered data, and the fits on it
        # rounded by that layout. The oracle forces it back: on 300 samples
        # at d=100 whose G-EMMF lambda sweep reads the loaded array directly,
        # a fifth of them duplicates, or 200 copies of one sample and 3 of
        # entries near 1e-170, the graph, the assignments and the iteration
        # counts are the same and the objectives agree within 1e-12 relative
        rng = np.random.default_rng(int(crowded))
        P = rng.random((100, 300))
        if crowded:
            copies = rng.choice(300, 200, replace=False)
            P[:, copies] = P[:, copies[:1]]
            rest = np.setdiff1d(np.arange(300), copies)
            P[:, rest[:3]] = rng.random((100, 3)) * 1e-170
        else:
            src, dst = rng.choice(300, 60, replace=False), rng.choice(300, 60, replace=False)
            P[:, dst] = P[:, src]
        path = tmp_path / "samples.csv"
        np.savetxt(path, P.T, delimiter=",", fmt="%.17g")
        X, former = load_csv(path), load_csv(path)
        object.__setattr__(former, "values", np.asfortranarray(former.values))
        assert former.values.flags.f_contiguous and np.array_equal(X.values, P)
        graph, g = knn_graph(X, 3), knn_graph(former, 3)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(g, name), getattr(graph, name))
        for lam in (1.0, 5.0):
            for seed in (3, 4):
                cfg = SolverConfig(method="GEMMF", c=3, max_iter=20, lam=lam, seed=seed)
                r, want = fit(X, cfg, graph), fit(former, cfg, graph)
                assert np.array_equal(r.assignments, want.assignments)
                assert r.trace.iterations == want.trace.iterations
                np.testing.assert_allclose(r.trace.objective, want.trace.objective, rtol=1e-12)

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
        S = csr(normalized(g)).toarray()
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
        r = fit(X, SolverConfig(method="GEMMF", c=2, lam=1.0, max_iter=5), g)
        assert np.all(np.isfinite(r.trace.objective))

    def test_penalty_matches_the_dense_oracle(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 60))
            g = normalized(knn_graph(synth_random(4, n, seed=seed), int(rng.integers(1, 7))))
            V = rng.random((n, int(rng.integers(1, 5))))
            assert penalty(g, V) == pytest.approx(dense_penalty(csr(g).toarray(), V), rel=1e-12)

    def test_penalty_survives_cancellation(self):
        # normalized cliques with self-loops equal V V^T for V the block
        # indicators over sqrt(block size); near that V the penalty is far
        # below ||S||_F^2 and the expanded form cancels
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sizes = rng.integers(2, 8, size=3)
            labels = np.repeat(np.arange(3), sizes)
            g = normalized(SimilarityGraph(S=labels[:, None] == labels[None, :]))
            V0 = (labels[:, None] == np.arange(3)) / np.sqrt(sizes)
            for scale in (0.0, 1e-5):
                V = V0 + scale * rng.random(V0.shape)
                expected = dense_penalty(csr(g).toarray(), V)
                assert expected < 1e-6 * sq_norm(g)
                value = penalty(g, V)
                assert value >= 0
                assert abs(value - expected) <= 1e-12 * sq_norm(g)


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
