"""Similarity graphs and the graph-regularized coefficient update.

The graph term lambda * ||S - V V^T||_F^2 on a degree-normalized similarity
graph softly couples the coefficient rows of neighboring samples. A k-nearest-
neighbor graph has O(n k) edges, so S is stored as a scipy CSR array and no
n x n matrix is ever formed: the neighbor search runs over blocks of rows, and
the penalty is evaluated in its expanded form

    ||S - V V^T||_F^2 = ||S||_F^2 - 2 sum((S V) o V) + ||V^T V||_F^2,

clamped at zero against cancellation when V V^T is close to S. The
multiplicative update absorbs the orthogonality multiplier through the split

    L5 = V^T Q X^T U + 2 lambda V^T S V - V^T Q V U^T U = L5+ - L5-,
    L5- = V^T Q V U^T U,    L5+ = V^T Q X^T U + 2 lambda V^T S V,

both parts elementwise nonnegative, giving

    V_ik <- V_ik * sqrt( (Q X^T U + 2 lambda S V + V L5-)_ik
                       / (Q V U^T U + V L5+)_ik ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array, issparse

from .core import DELTA, DataMatrix, _check_finite
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

    def penalty(self, V: np.ndarray) -> float:
        """||S - V V^T||_F^2 in the expanded form, without an n x n temporary."""
        G = V.T @ V
        value = self.sq_norm - 2.0 * float(np.sum((self.S @ V) * V)) + float(np.sum(G * G))
        return max(value, 0.0)


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
    rows, cols = [], []
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
        r, c = np.nonzero(keep)
        rows.append(r + start)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    A = csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return SimilarityGraph(S=A.maximum(A.T), normalized=False, k=k)


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


def gemmf_update_coeff(
    X: DataMatrix,
    U: np.ndarray,
    V: np.ndarray,
    q: np.ndarray,
    graph: SimilarityGraph,
    lam: float,
) -> np.ndarray:
    """Graph-regularized multiplicative step on V, Q = diag(q); zeros stay zero."""
    if not graph.normalized:
        raise InputError("graph must be normalized before the coefficient update")
    if graph.n != X.n or V.shape[0] != X.n or U.shape[0] != X.d or q.shape[0] != X.n:
        raise InputError("shapes of data, factors and graph disagree")
    if lam < 0:
        raise InputError(f"graph weight must be nonnegative, got {lam}")
    A = q[:, None] * (X.values.T @ U)          # Q X^T U
    B = q[:, None] * (V @ (U.T @ U))           # Q V U^T U
    SV = graph.S @ V
    minus = V.T @ B                            # L5-
    plus = V.T @ A + 2.0 * lam * (V.T @ SV)    # L5+
    numer = A + 2.0 * lam * SV + V @ minus
    denom = B + V @ plus
    with np.errstate(invalid="ignore", divide="ignore"):
        return _check_finite(V * np.sqrt(numer / (denom + DELTA)), "V")
