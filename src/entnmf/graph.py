"""Similarity graphs and the graph-regularized coefficient update.

The graph term lambda * ||S - V V^T||_F^2 on a degree-normalized similarity
graph softly couples the coefficient rows of neighboring samples. A k-nearest-
neighbor graph has O(n k) edges, so S is stored as three numpy CSR arrays
(`indptr`, `indices`, `data`, each row's columns ascending) and no n x n
matrix is ever formed: the neighbor search runs over blocks of rows, and the
penalty is evaluated in its expanded form

    ||S - V V^T||_F^2 = ||S||_F^2 - 2 sum((S V) o V) + ||V^T V||_F^2,

clamped at zero against cancellation when V V^T is close to S
(`graph_penalty`).

`knn_graph` ranks half squared distances (sq_i + sq_j) / 2 - p_i.p_j, one
block of rows at a time, and partitions each row at index k, which leaves
its k-th smallest distance as the largest of slots 0..k-1 and its (k+1)-th
in slot k. Where the two differ, the row's k neighbors are the distances at
most the k-th: one comparison into a reused mask and one flat nonzero list
them in column order. Only rows where the two tie run the lowest-index tie
rule.

The multiplicative update `graph_coeff_step` absorbs the
orthogonality multiplier through the split

    L5 = V^T Q X^T U + 2 lambda V^T S V - V^T Q V U^T U = L5+ - L5-,
    L5- = V^T Q V U^T U,    L5+ = V^T Q X^T U + 2 lambda V^T S V,

both parts elementwise nonnegative, giving

    V_ik <- V_ik * sqrt( (Q X^T U + 2 lambda S V + V L5-)_ik
                       / (Q V U^T U + V L5+)_ik ).

The fit loop advances a stack of problems at once; `GraphStack` places the
members' graphs on the diagonal of one CSR operator, so one product applies
each member's own graph to its own V. The product sums each row's terms
data_jj * V[indices_jj] left to right from zero, the order of scipy's CSR
product, so it gives scipy's bits without importing it.
"""

from __future__ import annotations

import numpy as np

from .core import DELTA, DataMatrix
from .errors import InputError

# Bytes of one block of float64 distance rows in the neighbor search. A block
# has min(64, BLOCK_BYTES // (8 n)) rows (at least two), so its size is
# bounded for any n, and every n <= 32768 gets the full 64 rows. The search
# holds two float64 blocks and a boolean one, 64 * 17 n bytes (2.2 MB at
# n = 2000). On a 2-vCPU Xeon with OpenBLAS, against 256-row blocks (fewer
# above n = 8192), the search measured faster up to n = 12000, where its
# elementwise passes stay closer to the cache, and 8% slower at n = 20000,
# where they do not and each block's Gram product, which reads all of the
# data, counts more. A one-row remainder joins the block before it
# (`_row_blocks`).
BLOCK_BYTES = 16 * 2**20


class SimilarityGraph:
    """Symmetric nonnegative n x n affinity in CSR arrays.

    S may be given as a dense array or any scipy sparse matrix (converted by
    its own `tocsr()`, so the package needs no scipy). Its entries (see
    `_entries`) are stored as the numpy CSR arrays `indptr`, `indices` and
    `data`, the columns of each row ascending. A graph built here is taken
    as unnormalized: a fit regularizes with its degree normalization
    (`normalize_graph`), the only maker of a graph marked `normalized`.
    """

    def __init__(self, S):
        n, rows, cols, data = _entries(S)
        # S is symmetric exactly when S^T lists the same nonzero entries row
        # by row: their keys, sorted, are S's keys, carrying the same values
        nonzero = data != 0
        r, c, v = rows[nonzero], cols[nonzero], data[nonzero]
        order = np.argsort(c * n + r, kind="stable")
        if not (np.array_equal(c[order], r) and np.array_equal(r[order], c)
                and np.array_equal(v[order], v)):
            raise InputError("similarity graph must be exactly symmetric")
        if data.size and data.min() < 0:
            raise InputError("similarity graph must be nonnegative")
        self._set(np.searchsorted(rows, np.arange(n + 1)), cols, data, normalized=False)

    @classmethod
    def _of(cls, indptr, indices, data, normalized):
        """The graph on CSR arrays that are symmetric and nonnegative by
        construction, the columns of each row ascending; unchecked."""
        graph = cls.__new__(cls)
        graph._set(indptr, indices, data, normalized)
        return graph

    def _set(self, indptr, indices, data, normalized):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.normalized = normalized
        self.sq_norm = float(data @ data)  # ||S||_F^2

    @property
    def n(self) -> int:
        return len(self.indptr) - 1


def _entries(S):
    """The size n of the square matrix S, and the rows, columns and values of
    its entries in row-major order: the nonzero ones of a dense S, the stored
    ones of a scipy sparse S (duplicates summed, explicit zeros kept)."""
    sparse = hasattr(S, "tocsr")
    if not sparse:
        S = np.asarray(S, dtype=float)
    if len(S.shape) != 2 or S.shape[0] != S.shape[1]:
        raise InputError(f"similarity graph must be square, got shape {S.shape}")
    n = S.shape[0]
    if not sparse:
        rows, cols = np.nonzero(S)
        return n, rows, cols, S[rows, cols]
    S = S.tocsr().astype(float)  # a copy, so summing duplicates leaves the caller's alone
    S.sum_duplicates()
    rows = np.repeat(np.arange(n), np.diff(S.indptr))
    return n, rows, S.indices.astype(np.intp), S.data


def graph_penalty(sq_norm, SV: np.ndarray, V: np.ndarray):
    """||S - V V^T||_F^2 from ||S||_F^2 and S V, for one V or a stack (..., n, c)."""
    G = V.swapaxes(-1, -2) @ V
    value = sq_norm - 2.0 * np.sum(SV * V, axis=(-2, -1)) + np.sum(G * G, axis=(-2, -1))
    return np.where(value < 0.0, 0.0, value)


class GraphStack:
    """Same-size graphs as one block-diagonal operator on a stack of V.

    Graph b's edges take rows and columns [b n, (b + 1) n), in each graph's
    own order, so one product S V computes every member's S_b V_b exactly as
    a product on its own graph would.
    """

    def __init__(self, graphs):
        n = graphs[0].n
        self.size = len(graphs) * n
        counts = np.concatenate([np.diff(g.indptr) for g in graphs])
        # The entries slot by slot: every row's first entry, then every row's
        # second, and so on. Each row's entries keep their order, and the
        # adds of a row no longer follow one another (bincount took 1.6x as
        # long on the entries row by row, at n = 2100). The slots are sorted
        # in the smallest unsigned type, which numpy's stable sort takes by
        # radix (six times as fast as on int64).
        slot = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        slot = slot.astype(np.min_scalar_type(slot.max(initial=0)))
        order = np.argsort(slot, kind="stable")
        self.rows = np.repeat(np.arange(self.size), counts)[order]
        self.indices = np.concatenate([g.indices + b * n for b, g in enumerate(graphs)])[order]
        self.data = np.concatenate([g.data for g in graphs])[order]
        self.sq_norm = np.array([g.sq_norm for g in graphs])  # for graph_penalty

    def product(self, V: np.ndarray) -> np.ndarray:
        """S_b V_b for every member b of the stack V (B, n, c), C-ordered.

        Column j of row i sums data * V[indices, j] over the row's entries, in
        stored order from zero: `np.bincount` adds its weights one after
        another, as scipy's CSR product does, so the bits match."""
        flat = V.reshape(self.size, V.shape[-1])
        SV = np.empty(flat.shape)
        for j in range(flat.shape[1]):
            terms = flat[:, j].take(self.indices)
            terms *= self.data
            SV[:, j] = np.bincount(self.rows, terms, minlength=self.size)
        return SV.reshape(V.shape)


def _row_blocks(n: int) -> list:
    """(start, stop) of each block of rows the neighbor search takes: blocks
    of min(64, BLOCK_BYTES // (8 n)) rows.

    No block has one row: numpy sends a one-row Gram product to BLAS gemv,
    which on C-ordered data can round the entries of two identical samples
    apart and so break their tie. Blocks have at least two rows, and a
    one-row remainder joins the block before it."""
    block = min(64, max(2, BLOCK_BYTES // (8 * n)))
    starts = list(range(0, n, block))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def knn_graph(X: DataMatrix, k: int) -> SimilarityGraph:
    """0-1 weighted k-nearest-neighbor graph on the samples (columns) of X.

    S_ij = 1 if j is among the k Euclidean nearest neighbors of i or vice
    versa. The diagonal is excluded from the search and left zero; ties of
    the computed distances are broken toward the lower sample index for
    determinism. The graph does not depend on the memory order of X. A
    sample whose squared norm, doubled, overflows raises InputError.
    """
    n = X.n
    if not 1 <= k < n:
        raise InputError(f"neighbor count {k} outside [1, {n - 1}]")
    # The search runs on C-ordered data, a copy only of data in another
    # order (CSV input is Fortran-ordered), so every order computes the same
    # floating-point operations. On Fortran-ordered operands in more than
    # one block, BLAS rounded the Gram entries of two identical samples
    # apart, breaking their tie, far more often than on C-ordered ones.
    P = np.ascontiguousarray(X.values)
    # An overflowed squared norm makes distances NaN (inf - inf), which no
    # comparison selects, so a row could lose its neighbors to the diagonal.
    # Nonnegative data keeps every squared distance within 2 max(sq), so a
    # finite 2 sq keeps them all finite.
    with np.errstate(over="ignore"):  # reported below
        sq = np.sum(P * P, axis=0)
        bad = np.flatnonzero(~np.isfinite(2.0 * sq))
    if bad.size:
        raise InputError(f"sample {bad[0]} is too large for squared distances "
                         f"(squared norm {sq[bad[0]]:.3g})")
    # The search ranks half distances (sq_i + sq_j) / 2 - p_i.p_j. Halving is
    # exact barring subnormal values, so each is exactly half of the squared
    # distance as the dense formula rounded it, with the same order and the
    # same ties, and no pass doubles the Gram rows.
    half = 0.5 * sq
    blocks = _row_blocks(n)
    # Three buffers serve every block of rows: the Gram rows (then the
    # partition scratch), the distance rows and the neighbor mask. Fresh ones
    # per block are page-faulted in anew each time, unless malloc happens to
    # serve them from its heap.
    most = max(stop - start for start, stop in blocks)
    gram = np.empty((most, n))
    dist = np.empty((most, n))
    mask = np.empty((most, n), dtype=bool)
    # A single block would compute P^T P, which numpy sends to the symmetric
    # product; its entries for two identical samples can differ in the last
    # bit, breaking their tie. A copy as the right operand takes the general
    # product, as every block of a larger search does. The left operand stays
    # a view of P: BLAS picks its kernel by the operands' strides.
    right = P.copy() if len(blocks) == 1 else P
    # every row keeps exactly k neighbors, listed in column order
    cols = []
    for start, stop in blocks:
        rows = stop - start
        G, d2, keep = gram[:rows], dist[:rows], mask[:rows]
        np.matmul(P[:, start:stop].T, right, out=G)
        np.add.outer(half[start:stop], half, out=d2)
        d2 -= G
        d2[np.arange(rows), np.arange(start, stop)] = np.inf
        # Partitioned at index k, a row holds its k smallest distances in
        # slots 0..k-1 and its (k+1)-th smallest in slot k. Where the k-th
        # smallest (their max) is below the (k+1)-th, exactly k distances are
        # at most the k-th, and they are the row's neighbors.
        np.copyto(G, d2)
        G.partition(k, axis=1)
        kth = np.max(G[:, :k], axis=1)
        np.less_equal(d2, kth[:, None], out=keep)
        # Where the two are equal, more distances tie at the k-th than the row
        # has room for: keep every distance below it, then the lowest-index
        # ties until the row has k neighbors.
        over = np.flatnonzero(kth == G[:, k])
        if over.size:
            below = d2[over] < kth[over, None]
            tied = d2[over] == kth[over, None]
            room = k - np.sum(below, axis=1, keepdims=True)
            keep[over] = below | (tied & (np.cumsum(tied, axis=1) <= room))
        # k flat indices of the n x n matrix per row, in row-major order
        flat = np.flatnonzero(keep)
        flat += n * start
        cols.append(flat)
    del P, right, gram, dist, mask, G, d2, keep
    # Symmetrize: the edge i -> j has key i n + j; each edge and its reverse,
    # sorted with duplicates dropped, list the entries of S row by row.
    keys = np.concatenate(cols)
    del cols
    keys = np.concatenate((keys, (keys % n) * n + keys // n))
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    indptr = np.searchsorted(keys, n * np.arange(n + 1))
    return SimilarityGraph._of(indptr, keys % n, np.ones(keys.size), normalized=False)


def normalize_graph(graph: SimilarityGraph) -> SimilarityGraph:
    """Degree normalization S <- D^{-1/2} S D^{-1/2}.

    Each stored entry S_ij is scaled by the product d_i^{-1/2} d_j^{-1/2},
    which is the same for S_ji, so the result stays exactly symmetric.
    Isolated vertices (zero degree) keep their zero row and column instead of
    dividing by zero. The normalized flag guards against double application:
    an already-normalized graph is returned unchanged.
    """
    if graph.normalized:
        return graph
    indptr, indices = graph.indptr, graph.indices
    # each non-empty row's degree by one reduceat over the row segments, the
    # sum scipy's S.sum(axis=1) takes, so weighted graphs keep their bits
    deg = np.zeros(graph.n)
    nonempty = np.flatnonzero(np.diff(indptr))
    deg[nonempty] = np.add.reduceat(graph.data, indptr[nonempty])
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    rows = np.repeat(np.arange(graph.n), np.diff(indptr))
    data = graph.data * (inv_sqrt[rows] * inv_sqrt[indices])
    return SimilarityGraph._of(indptr, indices, data, normalized=True)


def graph_coeff_step(A: np.ndarray, G: np.ndarray, V: np.ndarray, Q: np.ndarray,
                     SV: np.ndarray, lam: float) -> np.ndarray:
    """Graph-regularized multiplicative step on V, given A = X^T U, G = U^T U,
    SV = S V and the diagonal weights Q broadcastable to V's shape.

    Raw arrays, one problem or a stack (..., n, c), like the kernels in
    `entnmf.core`; no checks, no silenced warnings. A and G are left as they
    are, for the residual norms; the elementwise work runs in place on the
    n x c products, which gives the same bits as fresh arrays would."""
    A = A * Q                                          # Q X^T U
    B = V @ G                                          # Q V U^T U
    B *= Q
    Vt = V.swapaxes(-1, -2)
    minus = Vt @ B                                     # L5-
    plus = Vt @ A + 2.0 * lam * (Vt @ SV)              # L5+
    numer = 2.0 * lam * SV
    numer += A
    numer += V @ minus
    denom = V @ plus
    denom += B
    denom += DELTA
    numer /= denom
    np.sqrt(numer, out=numer)
    numer *= V
    return numer
