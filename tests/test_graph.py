"""Similarity graphs, degree normalization, and the graph-coupled V update."""

import os
import subprocess
import sys
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
    fit,
    init_factors,
    knn_graph,
    residual_matrix,
    synth_blobs,
    unit_normalize,
)
from entnmf import graph as graph_module
from entnmf.core import DELTA
from entnmf.graph import GraphStack, graph_coeff_step, normalize_graph
from conftest import csr, entropy_weights

EPS = 1e-10


def dense_knn_graph(P, k, general=False):
    """The former dense n x n neighbor search, kept as the reference.

    numpy sends its P^T P to the symmetric product, whose entries for two
    identical samples can differ in the last bit and so break their tie;
    `general` takes the general product instead."""
    n = P.shape[1]
    sq = np.sum(P * P, axis=0)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (P.T @ (P.copy() if general else P))
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    A = np.zeros((n, n))
    A[np.repeat(np.arange(n), k), order[:, :k].ravel()] = 1.0
    return np.maximum(A, A.T)


def former_row_blocks(n):
    """The former blocks of min(64, BLOCK_BYTES // (8 n)) rows, sized by the
    module's BLOCK_BYTES, so patching it sizes both searches' blocks alike.
    No block has one row (numpy sends a one-row Gram product to BLAS gemv),
    and a one-row remainder joins the block before it."""
    block = min(64, max(2, graph_module.BLOCK_BYTES // (8 * n)))
    starts = list(range(0, n, block))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def former_knn_graph(X, k):
    """The former per-block neighbor selection, kept as the reference: a
    partition at k - 1, then below/tied passes over every block entry and a 2-D
    nonzero, over the former blocks of at least two rows."""
    n = X.n
    if not 1 <= k < n:
        raise InputError(f"neighbor count {k} outside [1, {n - 1}]")
    P = X.values
    sq = np.sum(P * P, axis=0)
    blocks = former_row_blocks(n)
    # Two float64 buffers serve every block of rows: the Gram rows (then the
    # partition scratch) and the distance rows. Fresh ones per block are
    # page-faulted in anew each time, unless malloc happens to serve them
    # from its heap.
    most = max(stop - start for start, stop in blocks)
    gram = np.empty((most, n))
    dist = np.empty((most, n))
    # A single block would compute P^T P, which numpy sends to the symmetric
    # product; its entries for two identical samples can differ in the last
    # bit, breaking their tie. A copy as the right operand takes the general
    # product, as every block of a larger search does.
    right = P.copy() if len(blocks) == 1 else P
    # every row keeps exactly k neighbors, listed in column order, so the
    # directed graph is a CSR matrix with k entries per row
    cols = []
    for start, stop in blocks:
        G, d2 = gram[: stop - start], dist[: stop - start]
        # (sq_i + sq_j) - 2 p_i.p_j, rounded as the dense formula was
        np.matmul(P[:, start:stop].T, right, out=G)
        G *= 2.0
        np.add.outer(sq[start:stop], sq, out=d2)
        d2 -= G
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # keep every distance below the k-th smallest, then the lowest-index
        # ties at it until the row has k neighbors
        np.copyto(G, d2)
        G.partition(k - 1, axis=1)
        kth = G[:, [k - 1]]
        below = d2 < kth
        keep = d2 == kth
        room = k - np.sum(below, axis=1, keepdims=True)
        # only rows with more ties than room need the running tie count
        over = np.flatnonzero(np.sum(keep, axis=1) > room[:, 0])
        if over.size:
            tied = keep[over]
            keep[over] = tied & (np.cumsum(tied, axis=1) <= room[over])
        keep |= below
        cols.append(np.nonzero(keep)[1])
    del gram, dist, G, d2
    cols = np.concatenate(cols)
    A = sparse.csr_array((np.ones(n * k), cols, k * np.arange(n + 1)), shape=(n, n))
    del cols
    S = A.maximum(A.T)
    del A
    return SimilarityGraph(S=S)


def assert_same_csr(a, b, context):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), (name, context)


def tie_rule_rows(P, k):
    """Rows whose (k+1)-th smallest distance equals the k-th: more ties at the
    k-th than room, the rows the lowest-index tie rule decides."""
    d2 = np.sum((P[:, :, None] - P[:, None, :]) ** 2, axis=0)
    np.fill_diagonal(d2, np.inf)
    d2.sort(axis=1)
    return int(np.sum(d2[:, k - 1] == d2[:, k]))


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
            assert g.data.dtype == np.float64 and g.n == 3
            assert np.array_equal(g.indptr, [0, 1, 3, 4])
            assert np.array_equal(g.indices, [1, 0, 2, 1])
            assert np.array_equal(g.data, [2.0, 2.0, 1.0, 1.0])
            assert np.array_equal(csr(g).toarray(), dense)
            assert g.sq_norm == 10.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_weights_naming_the_entry(self, bad):
        # checked before symmetry, which a NaN would fail, and before a fit
        # could divide by an infinite degree
        dense = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, bad], [0.0, bad, 0.0]])
        coo = sparse.coo_array(([1.0, 1.0, bad, bad], ([0, 1, 1, 2], [1, 0, 2, 1])), shape=(3, 3))
        for given in (dense, coo):
            with pytest.raises(InputError, match=r"finite.*entry \(1, 2\) = (inf|nan)$"):
                SimilarityGraph(S=given)

    def test_rejects_a_weighted_degree_that_overflows_naming_the_row(self):
        # finite weights whose row sums are inf would normalize to all zeros
        dense = np.full((3, 3), 1e308)
        np.fill_diagonal(dense, 0.0)
        for given in (dense, sparse.coo_array(dense)):
            with pytest.raises(InputError, match="degree of graph row 0 overflows"):
                SimilarityGraph(S=given)
        SimilarityGraph(S=dense / 2)  # row sums of 1e308 are finite

    def test_rejects_asymmetric_sparse_input(self):
        with pytest.raises(InputError):
            SimilarityGraph(S=sparse.coo_array(([1.0], ([0], [1])), shape=(2, 2)))

    def test_explicit_zeros_and_duplicates_of_sparse_input(self):
        # an explicit zero needs no mirror, and duplicates are summed first
        S = sparse.coo_array(([0.0, 1.0, 0.5, 0.5], ([0, 1, 2, 2], [2, 2, 1, 1])), shape=(3, 3))
        g = SimilarityGraph(S=S)
        assert np.array_equal(csr(g).toarray(), [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        with pytest.raises(InputError):
            SimilarityGraph(S=sparse.coo_array(([1.0, 0.5], ([1, 2], [2, 1])), shape=(3, 3)))


# Builds the kNN graph (n = argv[1], k = argv[2]) of d=100 random samples, a
# fifth of them copied over another fifth, and prints the hex of its indptr
# and indices bytes.
DUPLICATED_GRAPH = """
import sys
import numpy as np
from entnmf import DataMatrix, knn_graph
n, k = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(0)
V = rng.random((100, n))
src = rng.choice(n, n // 5, replace=False)
dst = rng.choice(n, n // 5, replace=False)
V[:, dst] = V[:, src]
g = knn_graph(DataMatrix(values=V), k)
print(g.indptr.tobytes().hex())
print(g.indices.tobytes().hex())
"""


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
        assert np.array_equal(csr(knn_graph(X, 1)).toarray(), expected)

    def test_wider_neighborhoods_add_edges(self):
        X = DataMatrix(values=[[0.0, 1.0, 2.1, 10.0]])
        S1 = csr(knn_graph(X, 1)).toarray()
        S2 = csr(knn_graph(X, 2)).toarray()
        assert np.all(S2 >= S1)
        assert S2[0, 2] == 1.0  # 2.1 is the second-nearest to 0

    def test_structural_invariants_and_determinism(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            X = DataMatrix(values=rng.random((4, 12)))
            k = int(rng.integers(1, 6))
            g = knn_graph(X, k)
            S = csr(g).toarray()
            assert np.array_equal(S, S.T)
            assert set(np.unique(S)) <= {0.0, 1.0}
            assert np.all(np.diag(S) == 0)
            # every vertex names k neighbors, so degrees are at least k
            assert np.all(S.sum(axis=1) >= k)
            assert np.array_equal(S, csr(knn_graph(X, k)).toarray())

    def test_matches_the_dense_oracle_including_ties(self):
        # random samples, a third of them copies of others, all-identical
        # samples, 3-valued integers, and three samples of entries near
        # 1e-170 with two copies of one of them: their squared differences
        # underflow, so they tie at an exact 0 with each other as with the
        # copies, and the lower index goes first. In C and Fortran order.
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 40))
            P = rng.random((int(rng.integers(1, 6)), n))
            tied = with_duplicate_columns(rng, P)
            d = P.shape[0]
            tiny = rng.random((d, n))
            at = rng.choice(n, 5, replace=False)
            tiny[:, at[:3]] = rng.random((d, 3)) * 1e-170
            tiny[:, at[3:]] = tiny[:, at[:1]]
            for given, general in ((P, False), (tied, True), (np.repeat(P[:, :1], n, axis=1), True),
                                   (rng.integers(0, 3, size=(d, n)).astype(float), True),
                                   (tiny, True)):
                for k in range(1, 7):
                    expected = dense_knn_graph(given, k, general)
                    for order in "CF":
                        g = knn_graph(DataMatrix(values=np.asarray(given, order=order)), k)
                        assert np.array_equal(csr(g).toarray(), expected), (seed, k, order)

    def test_identical_samples_link_their_lowest_index_others(self):
        # 2000 copies of one sample at d=100: every row holds all 1999 others
        # within the bound of its 5th, each bitwise equal to its own sample,
        # and links the 5 lowest-index others. The settle gives each copy the
        # sum 0 with no pass; summing the 100 squared differences of every
        # candidate peaked at 11.51 MB here (tracemalloc) and took 1.5 s on a
        # 2-vCPU Xeon, against 9.7 MB and 0.2 s.
        n, k = 2000, 5
        X = DataMatrix(values=np.repeat(np.random.default_rng(0).random((100, 1)), n, axis=1))
        tracemalloc.start()
        try:
            g = knn_graph(X, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11.52e6
        lowest = [np.setdiff1d(np.arange(k + 1), [i])[:k] for i in range(n)]
        A = sparse.csr_array((np.ones(n * k), np.concatenate(lowest), k * np.arange(n + 1)),
                             shape=(n, n))
        assert (csr(g) != A.maximum(A.T)).nnz == 0

    def test_a_hash_collision_splits_duplicates_without_changing_the_graph(self):
        # sample 1 is made to hash as sample 0 under the fold key * M ^ x of
        # `_duplicate_groups`, and samples 2 and 3 copy sample 0. Sorted by
        # hash, the collision parts sample 0 from its copies: labels stay
        # shared only by bitwise-equal samples, and the rows of the copies
        # sum their differences from sample 0 instead, to the same exact 0
        P = np.random.default_rng(0).random((2, 12))
        P[:, 0] = 0.25, 0.5
        P[0, 1] = 0.10200100050025013
        bits = P.view(np.uint64)
        folded = bits[0, :2] * np.uint64(0x9E3779B97F4A7C15)
        bits[1, 1] = folded[0] ^ bits[1, 0] ^ folded[1]
        P[:, [2, 3]] = P[:, [0]]
        groups = graph_module._duplicate_groups(P)
        assert len(set(groups[:4])) == 3
        for label in np.unique(groups):
            same = bits[:, groups == label]
            assert np.all(same == same[:, :1]), label
        for order in "CF":
            X = DataMatrix(values=np.asarray(P, order=order))
            for k in range(1, 5):
                assert np.array_equal(csr(knn_graph(X, k)).toarray(),
                                      dense_knn_graph(P, k, general=True)), (order, k)

    @pytest.mark.parametrize("order", "CF")
    def test_rows_linking_a_duplicated_pair_link_its_lower_index(self, monkeypatch, order):
        # the last sample copies sample 3, so every other sample is exactly
        # as far from one as from the other, and the tie goes to sample 3. At
        # n=30 the default budget takes the rows in one block; at n=257 and
        # 300 it takes several, and at n=257 the last block has one row.
        # Budgets of one, 16 and 64 rows cut every n into blocks. At d=100
        # the Gram rows of several blocks, in either memory order, can round
        # the two samples' distances apart (n=257 and 300 at seed 1), which
        # the search settles on the feature-by-feature sums.
        default = graph_module.BLOCK_BYTES
        for d, n, seeds in [(d, n, seeds) for d in (4, 30, 100)
                            for n, seeds in ((30, 20), (257, 3), (300, 3))]:
            copy = n - 1
            others = np.setdiff1d(np.arange(n), [3, copy])
            for budget in (default, 8 * n, 16 * 8 * n, 64 * 8 * n):
                monkeypatch.setattr(graph_module, "BLOCK_BYTES", budget)
                for seed in range(seeds):
                    P = np.random.default_rng(seed).random((d, n))
                    P[:, copy] = P[:, 3]
                    X = DataMatrix(values=np.asarray(P, order=order))
                    for k in range(1, 8):
                        S = csr(knn_graph(X, k)).toarray()
                        assert np.all(S[others, copy] <= S[others, 3]), (d, n, budget, seed, k)

    def test_the_graph_does_not_depend_on_the_memory_order(self):
        # at d=100 a column sum rounds differently in C and Fortran order;
        # the search copies only strided data, and settles its crowded rows
        # on feature-by-feature sums, which are the same in any order
        rng = np.random.default_rng(3)
        P = with_duplicate_columns(rng, rng.random((100, 600)))
        wide = np.zeros((100, 1200))
        wide[:, ::2] = P
        for k in (1, 3, 5):
            expected = knn_graph(DataMatrix(values=P), k)
            for given in (np.asfortranarray(P), wide[:, ::2]):
                assert_same_csr(knn_graph(DataMatrix(values=given), k), expected, k)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="BLAS needs two CPUs for two threads")
    @pytest.mark.parametrize("n, k", [(300, 3), (1500, 1)])
    def test_the_graph_does_not_depend_on_the_blas_thread_count(self, n, k):
        # a fifth of the samples copied over another fifth, at d=100: one
        # and two BLAS threads sum a block's Gram rows in different orders,
        # and can round the distances of identical samples apart differently
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        built = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", DUPLICATED_GRAPH, str(n), str(k)], env=env,
                                 capture_output=True, text=True, check=True, timeout=120)
            built.append(out.stdout)
        assert built[0] == built[1]

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
                assert np.array_equal(csr(g).toarray(), dense_knn_graph(P, k)), (seed, k)

    @pytest.mark.parametrize("rows", [1, 7, 256])
    @pytest.mark.parametrize("order", "CF")
    def test_matches_the_former_selection_byte_for_byte(self, monkeypatch, rows, order):
        # tie-heavy inputs, every k up to n - 1 (where a row keeps every
        # other sample), blocks of 1, 7 and 256 rows
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 30))
            monkeypatch.setattr(graph_module, "BLOCK_BYTES", rows * 8 * n)
            d = int(rng.integers(1, 5))
            for P in (rng.integers(0, 5, size=(d, n)) / 4.0,
                      with_duplicate_columns(rng, rng.random((d, n)))):
                X = DataMatrix(values=np.asarray(P, order=order))
                for k in range(1, n):
                    assert_same_csr(knn_graph(X, k), former_knn_graph(X, k), (seed, k))

    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_lattice_ties_take_the_former_lowest_index_rule(self, monkeypatch, rows):
        # points of a 2-D integer grid have up to four neighbors at distance
        # 1 and four at sqrt(2), so many rows tie at the k-th distance
        grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0))).reshape(2, -1)
        n = grid.shape[1]
        monkeypatch.setattr(graph_module, "BLOCK_BYTES", rows * 8 * n)
        reached = 0
        for k in range(1, 12):
            reached += tie_rule_rows(grid, k)
            X = DataMatrix(values=grid)
            assert_same_csr(knn_graph(X, k), former_knn_graph(X, k), k)
        assert reached > 100

    def test_rejects_samples_whose_squared_distances_overflow(self):
        # d=3: squared norm 3e400 overflows; 1.47e308 is finite but its double
        # is not, and a distance can reach twice the largest squared norm
        for big in (1e200, 7e153):
            P = np.random.default_rng(0).random((3, 6))
            P[:, [1, 4]] = big
            with np.errstate(over="ignore"):
                assert np.isfinite(np.sum(P * P, axis=0)).all() == (big < 1e154)
            with pytest.raises(InputError, match="sample 1 "):
                knn_graph(DataMatrix(values=P), 3)
        P = np.random.default_rng(0).random((3, 6))
        P[:, 0:4] = 1e200
        with pytest.raises(InputError, match="sample 0 "):
            knn_graph(DataMatrix(values=P), 3)

    def test_stores_only_the_edges(self):
        rng = np.random.default_rng(0)
        g = knn_graph(DataMatrix(values=rng.random((3, 300))), 4)
        assert g.indptr.shape == (301,) and g.indptr[0] == 0
        assert g.indices.shape == g.data.shape == (g.indptr[-1],)
        assert 300 * 4 <= g.data.size <= 2 * 300 * 4
        # each row's columns ascending, none repeated
        rows = np.repeat(np.arange(300), np.diff(g.indptr))
        assert np.all(np.diff(rows * 300 + g.indices) > 0)

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
        root_half = 1.0 / np.sqrt(2.0)
        # edges (0, 1), (0, 2) and their reverses, none between the leaves
        assert np.array_equal(g.indptr, [0, 2, 3, 4])
        assert np.array_equal(g.indices, [1, 2, 0, 0])
        assert g.data == pytest.approx([root_half] * 4, abs=1e-15)

    def test_isolated_vertices_stay_zero(self):
        S = np.zeros((3, 3))
        S[0, 1] = S[1, 0] = 1.0
        g = normalize_graph(SimilarityGraph(S=S))
        S = csr(g).toarray()
        assert S[0, 1] == 1.0
        assert np.all(S[2] == 0) and np.all(S[:, 2] == 0)

    def test_keeps_the_neighbor_structure(self):
        _, _, _, g = graph_instance(4, normalized=False)
        h = normalize_graph(g)
        assert np.array_equal(h.indptr, g.indptr)
        assert np.array_equal(h.indices, g.indices)

    def test_matches_the_dense_formula(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            P = with_duplicate_columns(rng, rng.random((3, int(rng.integers(8, 40)))))
            g = knn_graph(DataMatrix(values=P), int(rng.integers(1, 7)))
            expected = dense_normalize(csr(g).toarray())
            assert np.array_equal(csr(normalize_graph(g)).toarray(), expected), seed

    def test_weighted_graphs_stay_exactly_symmetric(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            W = rng.random((15, 15)) * (rng.random((15, 15)) < 0.3)
            W = np.triu(W, 1)
            W = W + W.T
            S = csr(normalize_graph(SimilarityGraph(S=W))).toarray()
            assert np.array_equal(S, S.T)
            assert np.allclose(S, dense_normalize(W), rtol=1e-15, atol=0)


def weighted_graph(rng, n):
    """A symmetric graph of uniform weights on about 40% of the pairs, with
    about a fifth of the vertices isolated."""
    W = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    W = np.triu(W, 1)
    W = W + W.T
    alone = rng.integers(0, n, size=max(1, n // 5))
    W[alone] = 0.0
    W[:, alone] = 0.0
    return SimilarityGraph(S=W)


class TestScipyOracle:
    """The numpy product and degrees give the bits of scipy's CSR product and
    row sums on the same arrays."""

    def test_stack_product_equals_scipy_bit_for_bit(self):
        # weighted graphs, raw and normalized, in stacks of 1-5 members
        for seed in range(60):
            rng = np.random.default_rng(seed)
            B, n, c = 1 + seed % 5, int(rng.integers(2, 61)), 1 + seed % 6
            graphs = [weighted_graph(rng, n) for _ in range(B)]
            if seed % 2:
                graphs = [normalize_graph(g) for g in graphs]
            V = rng.random((B, n, c))
            SV = GraphStack(graphs).product(V)
            assert SV.shape == V.shape and SV.flags.c_contiguous
            for b, g in enumerate(graphs):
                assert np.array_equal(SV[b], csr(g) @ V[b]), (seed, b)

    def test_product_on_normalized_blob_knn_graphs_equals_scipy(self):
        for seed in range(10):
            X = unit_normalize(synth_blobs(3, 20, 10, 8.0, seed=seed))
            graphs = [normalize_graph(knn_graph(X, k)) for k in (3, 5, 9)]
            V = np.random.default_rng(seed).random((3, X.n, 4))
            SV = GraphStack(graphs).product(V)
            for b, g in enumerate(graphs):
                assert np.array_equal(SV[b], csr(g) @ V[b]), (seed, b)

    def test_weighted_degrees_equal_scipy_row_sums(self):
        # the normalized weights scale by the degrees as scipy sums them
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = weighted_graph(rng, int(rng.integers(2, 61)))
            deg = csr(g).sum(axis=1)
            with np.errstate(divide="ignore"):
                inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
            rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
            expected = g.data * (inv_sqrt[rows] * inv_sqrt[g.indices])
            assert np.array_equal(normalize_graph(g).data, expected), seed


class TestMultiplierSplit:
    def test_matches_direct_dense_formula(self, kernel):
        # L5 = L5+ - L5- with both parts nonnegative, and the update is the
        # ratio of the split's numerator and denominator terms
        for seed in range(20):
            X, F, w, g = graph_instance(seed)
            lam = float(seed % 4)
            S = csr(g).toarray()
            minus, plus = multiplier_split(X, F, w, S, lam)
            assert minus.min() >= 0 and plus.min() >= 0
            Q = np.diag(w.q)
            L5 = F.V.T @ (Q @ X.values.T @ F.U + 2.0 * lam * S @ F.V - Q @ F.V @ F.U.T @ F.U)
            assert np.allclose(plus - minus, L5, atol=1e-12)
            numer = Q @ X.values.T @ F.U + 2.0 * lam * S @ F.V + F.V @ minus
            denom = Q @ F.V @ F.U.T @ F.U + F.V @ plus
            expected = F.V * np.sqrt(numer / (denom + DELTA))
            out = kernel(graph_coeff_step, X, F.U, F.V, w.q, csr(g) @ F.V, lam)
            assert np.allclose(out, expected, atol=1e-12)


class TestGemmfUpdate:
    def test_matches_direct_dense_transcription(self, kernel):
        for seed in range(20):
            X, F, w, g = graph_instance(seed)
            lam = 0.5 + seed
            Q = np.diag(w.q)
            A = Q @ X.values.T @ F.U
            B = Q @ F.V @ F.U.T @ F.U
            SV = csr(g) @ F.V
            numer = A + 2.0 * lam * SV + F.V @ (F.V.T @ B)
            denom = B + F.V @ (F.V.T @ A + 2.0 * lam * F.V.T @ SV)
            expected = F.V * np.sqrt(numer / (denom + DELTA))
            out = kernel(graph_coeff_step, X, F.U, F.V, w.q, csr(g) @ F.V, lam)
            assert np.allclose(out, expected, atol=1e-12)

    def test_preserves_zeros_and_nonnegativity(self, kernel):
        X, F, w, g = graph_instance(7)
        V = F.V.copy()
        V[2, 1] = 0.0
        F = FactorPair(U=F.U, V=V)
        w = entropy_weights(residual_matrix(X, F.U, F.V), EPS)
        out = kernel(graph_coeff_step, X, F.U, F.V, w.q, csr(g) @ F.V, 10.0)
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
        g = knn_graph(X, 5)
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
    row as one list of sorted keys and symmetrizes them by one sort. At
    n=4000 with 256 KiB blocks the whole build peaks below three budgets plus
    64 bytes per directed edge: this build takes about 11, since its
    symmetrization (about 32 bytes per edge) stays below the search's peak;
    a build through scipy's CSR maximum took about 46, one through per-block
    COO row and column lists about 80."""
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


def test_neighbor_search_at_the_default_budget_holds_three_64_row_blocks():
    """At n=2000, d=100 on Fortran-ordered data (as CSV input arrives), the
    kNN build peaks below three 64 x n float64 blocks and 16 bytes per
    directed edge (3.23 MB at k=5): it takes the data as it is, with no
    copy."""
    n, d, k = 2000, 100, 5
    X = DataMatrix(values=np.asfortranarray(np.random.default_rng(2).random((d, n))))
    tracemalloc.start()
    try:
        knn_graph(X, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 64 * n * 8 + 16 * n * k


def test_default_budget_keeps_64_row_blocks_up_to_32768_samples():
    assert graph_module.BLOCK_BYTES // (8 * 32768) >= 64
    assert graph_module._row_blocks(32768)[0] == (0, 64)
