"""Similarity graphs and the graph-regularized coefficient update.

The graph term lambda * ||S - V V^T||_F^2 on a degree-normalized similarity
graph softly couples the coefficient rows of neighboring samples. A k-nearest-
neighbor graph has O(n k) edges, so S is stored as a scipy CSR array and no
n x n matrix is ever formed: the neighbor search runs over blocks of rows, and
the penalty is evaluated in its expanded form

    ||S - V V^T||_F^2 = ||S||_F^2 - 2 sum((S V) o V) + ||V^T V||_F^2,

clamped at zero against cancellation when V V^T is close to S
(`graph_penalty`). The multiplicative update `graph_coeff_step` absorbs the
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
# has min(256, BLOCK_BYTES // (8 n)) rows (at least one), so its size is
# bounded for any n, and every n <= 8192 gets the full 256 rows.
BLOCK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric nonnegative n x n affinity in CSR form, optionally degree-normalized.

    S may be given as a dense array or any scipy sparse matrix; it is stored
    as a float `scipy.sparse.csr_array`.
    """

    S: csr_array
    normalized: bool = False
    k: int = 0
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


def knn_graph(X: DataMatrix, k: int) -> SimilarityGraph:
    """0-1 weighted k-nearest-neighbor graph on the samples (columns) of X.

    S_ij = 1 if j is among the k Euclidean nearest neighbors of i or vice
    versa. The diagonal is excluded from the search and left zero; distance
    ties are broken toward the lower sample index for determinism.
    """
    n = X.n
    if not 1 <= k < n:
        raise InputError(f"neighbor count {k} outside [1, {n - 1}]")
    P = X.values
    sq = np.sum(P * P, axis=0)
    block = min(256, max(1, BLOCK_BYTES // (8 * n)))
    # every row keeps exactly k neighbors, listed in column order, so the
    # directed graph is a CSR matrix with k entries per row
    cols = []
    for start in range(0, n, block):
        stop = min(start + block, n)
        # (sq_i + sq_j) - 2 p_i.p_j, rounded as the dense formula was
        G = P[:, start:stop].T @ P
        G *= 2.0
        d2 = np.add.outer(sq[start:stop], sq)
        d2 -= G
        del G
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # keep every distance below the k-th smallest, then the lowest-index
        # ties at it until the row has k neighbors
        kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
        below = d2 < kth
        tied = d2 == kth
        del d2
        room = k - np.sum(below, axis=1, keepdims=True)
        keep = below | (tied & (np.cumsum(tied, axis=1) <= room))
        cols.append(np.nonzero(keep)[1])
    cols = np.concatenate(cols)
    A = csr_array((np.ones(n * k), cols, k * np.arange(n + 1)), shape=(n, n))
    del cols
    S = A.maximum(A.T)
    del A
    return SimilarityGraph(S=S, normalized=False, k=k)


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
    return SimilarityGraph(S=scaled, normalized=True, k=graph.k)


def graph_coeff_step(X: np.ndarray, U: np.ndarray, V: np.ndarray, q: np.ndarray,
                     SV: np.ndarray, lam: float) -> np.ndarray:
    """Graph-regularized multiplicative step on V, given SV = S V.

    Raw arrays, one problem or a stack (..., d, n), like the kernels in
    `entnmf.core`; no checks, no silenced warnings."""
    A = q[..., :, None] * (X.swapaxes(-1, -2) @ U)      # Q X^T U
    B = q[..., :, None] * (V @ (U.swapaxes(-1, -2) @ U))  # Q V U^T U
    Vt = V.swapaxes(-1, -2)
    minus = Vt @ B                                     # L5-
    plus = Vt @ A + 2.0 * lam * (Vt @ SV)              # L5+
    numer = A + 2.0 * lam * SV + V @ minus
    denom = B + V @ plus
    return V * np.sqrt(numer / (denom + DELTA))

