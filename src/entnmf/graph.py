"""Similarity graphs and the graph-regularized coefficient update.

The graph term lambda * ||S - V V^T||_F^2 on a degree-normalized similarity
graph softly couples the coefficient rows of neighboring samples. A k-nearest-
neighbor graph has O(n k) edges, so S is stored as a scipy CSR array and no
n x n matrix is ever formed: the neighbor search runs over blocks of rows, and
the penalty is evaluated in its expanded form

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
members' graphs on the diagonal of one CSR operator, so a single sparse
product applies each member's own graph to its own V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array, issparse

from .core import DELTA, DataMatrix
from .errors import InputError

# Bytes of one block of float64 distance rows in the neighbor search. A block
# has min(256, BLOCK_BYTES // (8 n)) rows (at least two), so its size is
# bounded for any n, and every n <= 8192 gets the full 256 rows. A one-row
# remainder joins the block before it (`_row_blocks`).
BLOCK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric nonnegative n x n affinity in CSR form, optionally degree-normalized.

    S may be given as a dense array or any scipy sparse matrix; it is stored
    as a float `scipy.sparse.csr_array`.
    """

    S: csr_array
    normalized: bool = False
    sq_norm: float = field(init=False, repr=False)  # ||S||_F^2

    def __post_init__(self):
        S = self.S if issparse(self.S) else np.asarray(self.S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise InputError(f"similarity graph must be square, got shape {S.shape}")
        S = csr_array(S, dtype=float)
        S.sum_duplicates()
        object.__setattr__(self, "S", S)
        if (S != S.T).nnz:
            raise InputError("similarity graph must be exactly symmetric")
        if S.nnz and S.data.min() < 0:
            raise InputError("similarity graph must be nonnegative")
        object.__setattr__(self, "sq_norm", float(S.data @ S.data))

    @property
    def n(self) -> int:
        return self.S.shape[0]


def graph_penalty(sq_norm, SV: np.ndarray, V: np.ndarray):
    """||S - V V^T||_F^2 from ||S||_F^2 and S V, for one V or a stack (..., n, c)."""
    G = V.swapaxes(-1, -2) @ V
    value = sq_norm - 2.0 * np.sum(SV * V, axis=(-2, -1)) + np.sum(G * G, axis=(-2, -1))
    return np.where(value < 0.0, 0.0, value)


class GraphStack:
    """Same-size graphs as one block-diagonal operator on a stack of V.

    `S` holds graph b's edges in rows and columns [b n, (b + 1) n), in each
    graph's own order, so one sparse product S V computes every member's
    S_b V_b exactly as a product on its own graph would.
    """

    def __init__(self, graphs):
        n = graphs[0].n
        offsets = np.cumsum([0] + [g.S.nnz for g in graphs])
        self.S = csr_array(
            (
                np.concatenate([g.S.data for g in graphs]),
                np.concatenate([g.S.indices + b * n for b, g in enumerate(graphs)]),
                np.concatenate([[0]] + [g.S.indptr[1:] + off for g, off in zip(graphs, offsets)]),
            ),
            shape=(len(graphs) * n,) * 2,
        )
        self.sq_norm = np.array([g.sq_norm for g in graphs])  # for graph_penalty

    def product(self, V: np.ndarray) -> np.ndarray:
        """S_b V_b for every member b of the stack V (B, n, c)."""
        return (self.S @ V.reshape(-1, V.shape[-1])).reshape(V.shape)


def _row_blocks(n: int) -> list:
    """(start, stop) of each block of rows the neighbor search takes.

    No block has one row: numpy sends a one-row Gram product to BLAS gemv,
    which on C-ordered data can round the entries of two identical samples
    apart and so break their tie. Blocks have at least two rows, and a
    one-row remainder joins the block before it."""
    block = min(256, max(2, BLOCK_BYTES // (8 * n)))
    starts = list(range(0, n, block))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def knn_graph(X: DataMatrix, k: int) -> SimilarityGraph:
    """0-1 weighted k-nearest-neighbor graph on the samples (columns) of X.

    S_ij = 1 if j is among the k Euclidean nearest neighbors of i or vice
    versa. The diagonal is excluded from the search and left zero; distance
    ties are broken toward the lower sample index for determinism. A sample
    whose squared norm, doubled, overflows raises InputError.
    """
    n = X.n
    if not 1 <= k < n:
        raise InputError(f"neighbor count {k} outside [1, {n - 1}]")
    P = X.values
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
    # every row keeps exactly k neighbors, listed in column order, so the
    # directed graph is a CSR matrix with k entries per row
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
        # k flat indices per row, in row-major order: subtracting each row's
        # offset leaves its columns
        flat = np.flatnonzero(keep).reshape(rows, k)
        flat -= n * np.arange(rows)[:, None]
        cols.append(flat.ravel())
    del gram, dist, mask, G, d2, keep
    cols = np.concatenate(cols)
    A = csr_array((np.ones(n * k), cols, k * np.arange(n + 1)), shape=(n, n))
    del cols
    S = A.maximum(A.T)
    del A
    return SimilarityGraph(S=S, normalized=False)


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
    S = graph.S
    deg = S.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    rows = np.repeat(np.arange(graph.n), np.diff(S.indptr))
    data = S.data * (inv_sqrt[rows] * inv_sqrt[S.indices])
    scaled = csr_array((data, S.indices, S.indptr), shape=S.shape)
    return SimilarityGraph(S=scaled, normalized=True)


def graph_coeff_step(A: np.ndarray, G: np.ndarray, V: np.ndarray, q: np.ndarray,
                     SV: np.ndarray, lam: float) -> np.ndarray:
    """Graph-regularized multiplicative step on V, given A = X^T U, G = U^T U
    and SV = S V.

    Raw arrays, one problem or a stack (..., n, c), like the kernels in
    `entnmf.core`; no checks, no silenced warnings. A and G are left as they
    are, for the residual norms; the elementwise work runs in place on the
    n x c products, which gives the same bits as fresh arrays would."""
    q = q[..., :, None]
    A = A * q                                          # Q X^T U
    B = V @ G                                          # Q V U^T U
    B *= q
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
