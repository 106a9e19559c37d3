"""Similarity graphs, degree normalization, and the graph-coupled V update."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from entnmf import (
    DataMatrix,
    FactorPair,
    InputError,
    SimilarityGraph,
    SolverConfig,
    entropy_weights,
    fit,
    init_factors,
    knn_graph,
    normalize_graph,
    residual_matrix,
)
from entnmf import graph as graph_module
from entnmf.core import DELTA
from entnmf.graph import graph_coeff_step

EPS = 1e-10


def dense_knn_graph(P, k, general=False):
    """The former dense n x n neighbor search, kept as the reference.

    numpy sends its P^T P to the symmetric product, whose entries for two
    identical samples can differ in the last bit and so break their tie;
    `general` takes the general product instead, as `knn_graph` does."""
    n = P.shape[1]
    sq = np.sum(P * P, axis=0)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (P.T @ (P.copy() if general else P))
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    A = np.zeros((n, n))
    A[np.repeat(np.arange(n), k), order[:, :k].ravel()] = 1.0
    return np.maximum(A, A.T)


def dense_normalize(S):
    """The former dense degree normalization, kept as the reference."""
    deg = np.sum(S, axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    S = S * inv_sqrt[:, None] * inv_sqrt[None, :]
    return 0.5 * (S + S.T)


def multiplier_split(X, F, w, S, lam):
    """Whole-term parts of the orthogonality multiplier, L5 = plus - minus."""
    Q = np.diag(w.q)
    minus = F.V.T @ Q @ F.V @ F.U.T @ F.U
    plus = F.V.T @ Q @ X.values.T @ F.U + 2.0 * lam * F.V.T @ S @ F.V
    return minus, plus


def with_duplicate_columns(rng, P):
    """Copy a third of the samples over others so that distances tie exactly."""
    n = P.shape[1]
    P = P.copy()
    P[:, rng.integers(0, n, size=n // 3)] = P[:, rng.integers(0, n, size=n // 3)]
    return P


def graph_instance(seed, normalized=True):
    rng = np.random.default_rng(seed)
    d, n, c = 5, 9, 3
    X = DataMatrix(values=rng.random((d, n)) + 0.1)
    F = FactorPair(U=rng.random((d, c)) + 0.1, V=rng.random((n, c)) + 0.1)
    w = entropy_weights(residual_matrix(X, F.U, F.V), EPS)
    g = knn_graph(X, 3)
    if normalized:
        g = normalize_graph(g)
    return X, F, w, g


class TestSimilarityGraph:
    def test_rejects_nonsquare(self):
        with pytest.raises(InputError):
            SimilarityGraph(S=np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            SimilarityGraph(S=np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            SimilarityGraph(S=np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_stores_dense_and_sparse_input_as_the_same_csr_array(self):
        dense = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        for given in (dense, sparse.coo_array(dense), sparse.csc_matrix(dense)):
            g = SimilarityGraph(S=given)
            assert isinstance(g.S, sparse.csr_array) and g.S.dtype == np.float64
            assert g.S.nnz == 4
            assert np.array_equal(g.S.toarray(), dense)
            assert g.sq_norm == 10.0

    def test_rejects_asymmetric_sparse_input(self):
        with pytest.raises(InputError):
            SimilarityGraph(S=sparse.coo_array(([1.0], ([0], [1])), shape=(2, 2)))


class TestKnnGraph:
    def test_line_of_points_links_consecutive_neighbors(self):
        # samples on a line at 0, 1, 2.1, 10; one neighbor each
        X = DataMatrix(values=[[0.0, 1.0, 2.1, 10.0]])
        expected = np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(knn_graph(X, 1).S.toarray(), expected)

    def test_wider_neighborhoods_add_edges(self):
        X = DataMatrix(values=[[0.0, 1.0, 2.1, 10.0]])
        S1 = knn_graph(X, 1).S.toarray()
        S2 = knn_graph(X, 2).S.toarray()
        assert np.all(S2 >= S1)
        assert S2[0, 2] == 1.0  # 2.1 is the second-nearest to 0

    def test_structural_invariants_and_determinism(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            X = DataMatrix(values=rng.random((4, 12)))
            k = int(rng.integers(1, 6))
            g = knn_graph(X, k)
            S = g.S.toarray()
            assert g.k == k and not g.normalized
            assert np.array_equal(S, S.T)
            assert set(np.unique(S)) <= {0.0, 1.0}
            assert np.all(np.diag(S) == 0)
            # every vertex names k neighbors, so degrees are at least k
            assert np.all(S.sum(axis=1) >= k)
            assert np.array_equal(S, knn_graph(X, k).S.toarray())

    def test_matches_the_dense_oracle_including_ties(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 40))
            P = rng.random((int(rng.integers(1, 6)), n))
            tied = with_duplicate_columns(rng, P)
            for k in range(1, 7):
                g = knn_graph(DataMatrix(values=P), k)
                assert np.array_equal(g.S.toarray(), dense_knn_graph(P, k)), (seed, k)
                g = knn_graph(DataMatrix(values=tied), k)
                assert np.array_equal(g.S.toarray(), dense_knn_graph(tied, k, general=True)), (seed, k)

    @pytest.mark.parametrize("order", "CF")
    def test_rows_linking_a_duplicated_pair_link_its_lower_index(self, order):
        # sample 29 copies sample 3, so every other sample is exactly as far
        # from one as from the other, and the tie goes to sample 3
        others = np.r_[0:3, 4:29]
        for seed in range(50):
            P = np.random.default_rng(seed).random((4, 30))
            P[:, 29] = P[:, 3]
            X = DataMatrix(values=np.asarray(P, order=order))
            for k in range(1, 8):
                S = knn_graph(X, k).S.toarray()
                assert np.all(S[others, 29] <= S[others, 3]), (seed, k)

    def test_row_blocks_match_the_dense_oracle(self, monkeypatch):
        # quarter-integer coordinates make every distance exact, so ties
        # across blocks are exact too and the neighbor sets must agree
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 40))
            monkeypatch.setattr(graph_module, "BLOCK_BYTES", 5 * 8 * n)  # 5-row blocks
            P = rng.integers(0, 5, size=(int(rng.integers(1, 6)), n)) / 4.0
            for k in range(1, 7):
                g = knn_graph(DataMatrix(values=P), k)
                assert np.array_equal(g.S.toarray(), dense_knn_graph(P, k)), (seed, k)

    def test_stores_only_the_edges(self):
        rng = np.random.default_rng(0)
        g = knn_graph(DataMatrix(values=rng.random((3, 300))), 4)
        assert isinstance(g.S, sparse.csr_array)
        assert 300 * 4 <= g.S.nnz <= 2 * 300 * 4

    def test_rejects_out_of_range_k(self):
        X = DataMatrix(values=np.ones((2, 4)))
        with pytest.raises(InputError):
            knn_graph(X, 0)
        with pytest.raises(InputError):
            knn_graph(X, 4)


class TestNormalizeGraph:
    def test_star_graph_hand_values(self):
        # hub of degree 2, leaves of degree 1: edge weight 1/sqrt(2)
        star = SimilarityGraph(S=np.array([[0.0, 1, 1], [1, 0, 0], [1, 0, 0]]))
        g = normalize_graph(star)
        assert g.normalized
        root_half = 1.0 / np.sqrt(2.0)
        assert g.S[0, 1] == pytest.approx(root_half, abs=1e-15)
        assert g.S[0, 2] == pytest.approx(root_half, abs=1e-15)
        assert g.S[1, 2] == 0.0

    def test_isolated_vertices_stay_zero(self):
        S = np.zeros((3, 3))
        S[0, 1] = S[1, 0] = 1.0
        g = normalize_graph(SimilarityGraph(S=S))
        S = g.S.toarray()
        assert S[0, 1] == 1.0
        assert np.all(S[2] == 0) and np.all(S[:, 2] == 0)

    def test_normalizing_twice_is_a_no_op(self):
        _, _, _, g = graph_instance(3, normalized=True)
        assert normalize_graph(g) is g

    def test_keeps_neighbor_count_metadata(self):
        _, _, _, g = graph_instance(4, normalized=False)
        assert normalize_graph(g).k == g.k

    def test_matches_the_dense_formula(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            P = with_duplicate_columns(rng, rng.random((3, int(rng.integers(8, 40)))))
            g = knn_graph(DataMatrix(values=P), int(rng.integers(1, 7)))
            expected = dense_normalize(g.S.toarray())
            assert np.array_equal(normalize_graph(g).S.toarray(), expected), seed

    def test_weighted_graphs_stay_exactly_symmetric(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            W = rng.random((15, 15)) * (rng.random((15, 15)) < 0.3)
            W = np.triu(W, 1)
            W = W + W.T
            S = normalize_graph(SimilarityGraph(S=W)).S.toarray()
            assert np.array_equal(S, S.T)
            assert np.allclose(S, dense_normalize(W), rtol=1e-15, atol=0)


class TestMultiplierSplit:
    def test_matches_direct_dense_formula(self, kernel):
        # L5 = L5+ - L5- with both parts nonnegative, and the update is the
        # ratio of the split's numerator and denominator terms
        for seed in range(20):
            X, F, w, g = graph_instance(seed)
            lam = float(seed % 4)
            S = g.S.toarray()
            minus, plus = multiplier_split(X, F, w, S, lam)
            assert minus.min() >= 0 and plus.min() >= 0
            Q = np.diag(w.q)
            L5 = F.V.T @ (Q @ X.values.T @ F.U + 2.0 * lam * S @ F.V - Q @ F.V @ F.U.T @ F.U)
            assert np.allclose(plus - minus, L5, atol=1e-12)
            numer = Q @ X.values.T @ F.U + 2.0 * lam * S @ F.V + F.V @ minus
            denom = Q @ F.V @ F.U.T @ F.U + F.V @ plus
            expected = F.V * np.sqrt(numer / (denom + DELTA))
            out = kernel(graph_coeff_step, X, F.U, F.V, w.q, g.S @ F.V, lam)
            assert np.allclose(out, expected, atol=1e-12)


class TestGemmfUpdate:
    def test_matches_direct_dense_transcription(self, kernel):
        for seed in range(20):
            X, F, w, g = graph_instance(seed)
            lam = 0.5 + seed
            Q = np.diag(w.q)
            A = Q @ X.values.T @ F.U
            B = Q @ F.V @ F.U.T @ F.U
            SV = g.S @ F.V
            numer = A + 2.0 * lam * SV + F.V @ (F.V.T @ B)
            denom = B + F.V @ (F.V.T @ A + 2.0 * lam * F.V.T @ SV)
            expected = F.V * np.sqrt(numer / (denom + DELTA))
            out = kernel(graph_coeff_step, X, F.U, F.V, w.q, g.S @ F.V, lam)
            assert np.allclose(out, expected, atol=1e-12)

    def test_preserves_zeros_and_nonnegativity(self, kernel):
        X, F, w, g = graph_instance(7)
        V = F.V.copy()
        V[2, 1] = 0.0
        F = FactorPair(U=F.U, V=V)
        w = entropy_weights(residual_matrix(X, F.U, F.V), EPS)
        out = kernel(graph_coeff_step, X, F.U, F.V, w.q, g.S @ F.V, 10.0)
        assert out[2, 1] == 0.0
        assert out.min() >= 0 and np.all(np.isfinite(out))


def test_graph_path_never_allocates_an_n_by_n_array():
    """kNN build, normalization and one G-EMMF iteration at n=3000 peak
    below a quarter of one dense n x n float64 array."""
    n = 3000
    X = DataMatrix(values=np.random.default_rng(0).random((20, n)))
    F0 = init_factors(X, 3, seed=0)
    tracemalloc.start()
    try:
        g = normalize_graph(knn_graph(X, 5))
        fit(X, SolverConfig(method="GEMMF", c=3, lam=1.0, max_iter=1), g, initial=F0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_neighbor_search_memory_follows_the_block_budget(monkeypatch):
    """With the block budget patched down to 256 KiB, the kNN peak at n=3000
    is a few budgets plus the O(n k) edge lists, not a 256 x n block."""
    n, k, budget = 3000, 5, 2**18
    monkeypatch.setattr(graph_module, "BLOCK_BYTES", budget)
    X = DataMatrix(values=np.random.default_rng(0).random((5, n)))
    tracemalloc.start()
    try:
        knn_graph(X, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * budget + 128 * n * k


def test_edge_path_stays_under_64_bytes_per_edge(monkeypatch):
    """Past the distance blocks, the kNN build holds the k neighbors of each
    row as one CSR array, frees them as it symmetrizes, and checks the result.
    At n=4000 with 256 KiB blocks the whole build peaks below three budgets
    plus 64 bytes per directed edge: this build takes about 46, one through
    per-block COO row and column lists about 80."""
    n, k, budget = 4000, 5, 2**18
    monkeypatch.setattr(graph_module, "BLOCK_BYTES", budget)
    X = DataMatrix(values=np.random.default_rng(1).random((5, n)))
    tracemalloc.start()
    try:
        knn_graph(X, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * budget + 64 * n * k


def test_default_budget_keeps_256_row_blocks_up_to_8192_samples():
    assert graph_module.BLOCK_BYTES // (8 * 8192) >= 256
