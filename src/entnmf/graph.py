"""Similarity graphs and the operator behind G-EMMF's graph term.

The graph term lambda * ||S - V V^T||_F^2 on a degree-normalized similarity
graph softly couples the coefficient rows of neighboring samples; the fit
is given the raw graph, and its operator (`GraphStack`) normalizes it. A
kNN graph has O(n k) edges, so S is stored as three numpy CSR arrays
(`indptr`, `indices`, `data`, each row's columns ascending) and no n x n
matrix is ever formed: the neighbor search runs over blocks of rows, and the
penalty is evaluated in its expanded form

    ||S - V V^T||_F^2 = ||S||_F^2 - 2 sum((S V) o V) + ||V^T V||_F^2,

clamped at zero against cancellation when V V^T is close to S
(`graph_penalty`).

`knn_graph` ranks h_j - p_i.p_j (h = sq / 2), the half squared distance
less the row's own h_i, one block of rows at a time. A partitioned copy of
the block gives each row's k-th smallest value, and every row keeps the
samples within the rounding bound of its k-th: one comparison into a reused
mask and one flat nonzero list them in column order. A row that keeps
exactly k is done. A row that keeps more settles them exactly, on squared
differences summed feature by feature, lowest index first on ties; the
samples bitwise equal to its own take the sum 0 with no per-feature pass.

The graph term enters G-EMMF's V update as an addend of the one weighted V
step, `core.coeff_step`, given S V. The fit loop advances a stack of
problems at once; `GraphStack` places the members' graphs on the diagonal of
one CSR operator, so one product applies each member's own graph to its own
V. The product sums each row's terms data_jj * V[indices_jj] left to right
from zero, the order of scipy's CSR product, so it gives scipy's bits
without importing it.
"""

from __future__ import annotations

import numpy as np

from .core import DataMatrix
from .errors import InputError

# Bytes of one block of float64 distance rows in the neighbor search. A block
# has min(64, BLOCK_BYTES // (8 n)) rows (at least one), so its size is
# bounded for any n, and every n <= 32768 gets the full 64 rows. The search
# holds two float64 blocks and a boolean one, 64 * 17 n bytes (2.2 MB at
# n = 2000), and no copy of the data. On a 2-vCPU Xeon with OpenBLAS,
# against 256-row blocks (fewer above n = 8192), the search measured faster
# up to n = 12000, where its elementwise passes stay closer to the cache,
# and 8% slower at n = 20000, where they do not and each
# block's Gram product, which reads all of the data, counts more. The graph
# does not depend on the block size.
BLOCK_BYTES = 16 * 2**20


class SimilarityGraph:
    """Symmetric nonnegative n x n affinity in CSR arrays.

    S may be given as a dense array or any scipy sparse matrix (converted by
    its own `tocsr()`, so the package needs no scipy). Its entries (see
    `_entries`) are stored as the numpy CSR arrays `indptr`, `indices` and
    `data`, the columns of each row ascending. A fit regularizes with the
    degree normalization of the graph it is given, which its operator
    (`GraphStack`) forms, so callers pass the raw graph. A row's weights must
    sum to a finite degree.
    """

    def __init__(self, S):
        n, rows, cols, data = _entries(S)
        bad = np.flatnonzero(~((data >= 0) & (data < np.inf)))  # NaN fails both
        if bad.size:
            i, j, w = rows[bad[0]], cols[bad[0]], data[bad[0]]
            raise InputError(f"graph weights must be finite and >= 0, entry ({i}, {j}) = {w}")
        # S is symmetric exactly when S^T lists the same nonzero entries row
        # by row: their keys, sorted, are S's keys, carrying the same values
        nonzero = data != 0
        r, c, v = rows[nonzero], cols[nonzero], data[nonzero]
        order = np.argsort(c * n + r, kind="stable")
        if not (np.array_equal(c[order], r) and np.array_equal(r[order], c)
                and np.array_equal(v[order], v)):
            raise InputError("similarity graph must be exactly symmetric")
        self.indptr, self.indices, self.data = np.searchsorted(rows, np.arange(n + 1)), cols, data
        bad = np.flatnonzero(_degrees(self.indptr, data) == np.inf)  # it would zero the row
        if bad.size:
            raise InputError(f"weighted degree of graph row {bad[0]} overflows float64")

    @classmethod
    def _of(cls, indptr, indices, data):
        """The graph on symmetric nonnegative CSR arrays, rows' columns ascending; unchecked."""
        graph = cls.__new__(cls)
        graph.indptr, graph.indices, graph.data = indptr, indices, data
        return graph

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


def _degrees(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Each row's weighted degree, inf where it overflows: one reduceat over the non-empty
    rows' segments, the sum scipy's S.sum(axis=1) takes, so weighted graphs keep their bits."""
    deg = np.zeros(len(indptr) - 1)
    nonempty = np.flatnonzero(np.diff(indptr))
    with np.errstate(over="ignore"):
        deg[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return deg


def graph_penalty(sq_norm, SV: np.ndarray, V: np.ndarray):
    """||S - V V^T||_F^2 from ||S||_F^2 and S V, for one V or a stack (..., n, c)."""
    G = V.swapaxes(-1, -2) @ V
    value = sq_norm - 2.0 * np.sum(SV * V, axis=(-2, -1)) + np.sum(G * G, axis=(-2, -1))
    return np.where(value < 0.0, 0.0, value)


class GraphStack:
    """The degree normalizations of same-size raw graphs as one block-diagonal
    operator on a stack of V, with each member's ||S_b||_F^2 (`sq_norm`).

    Graph b's edges take rows and columns [b n, (b + 1) n), in each graph's
    own order, so one product S V computes every member's S_b V_b exactly as
    a product on its own graph would.
    """

    def __init__(self, graphs):
        B, n = len(graphs), graphs[0].n
        self.size = B * n
        counts = np.concatenate([np.diff(g.indptr) for g in graphs])
        ends = np.cumsum(counts)
        rows = np.repeat(np.arange(self.size), counts)
        indices = np.concatenate([g.indices + b * n for b, g in enumerate(graphs)])
        data = np.concatenate([g.data for g in graphs])
        # D^-1/2 S D^-1/2: each entry S_ij times d_i^-1/2 d_j^-1/2, the same
        # product for S_ji, so the result stays exactly symmetric. An
        # isolated vertex (zero degree) keeps its zero row and column.
        deg = _degrees(np.concatenate(([0], ends)), data)
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        data *= inv_sqrt[rows] * inv_sqrt[indices]
        # each member's squares added one after another from zero, with no
        # BLAS dot, whose threads would split the sum by the thread count
        self.sq_norm = np.bincount(rows // n, data * data, minlength=B)  # for graph_penalty
        # The entries slot by slot: every row's first entry, then every row's
        # second, and so on. Each row's entries keep their order, and the
        # adds of a row no longer follow one another (bincount took 1.6x as
        # long on the entries row by row, at n = 2100). The slots are sorted
        # in the smallest unsigned type, which numpy's stable sort takes by
        # radix (six times as fast as on int64).
        slot = np.arange(data.size) - np.repeat(ends - counts, counts)
        slot = slot.astype(np.min_scalar_type(slot.max(initial=0)))
        order = np.argsort(slot, kind="stable")
        self.rows, self.indices, self.data = rows[order], indices[order], data[order]

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


def _block_rows(n: int) -> int:
    """The rows of a block of the neighbor search among n samples:
    min(64, n, BLOCK_BYTES // (8 n)), at least one."""
    return min(64, n, max(1, BLOCK_BYTES // (8 * n)))


def _row_blocks(n: int) -> list:
    """(start, stop) of each block of rows the neighbor search takes."""
    block = _block_rows(n)
    return [(start, min(start + block, n)) for start in range(0, n, block)]


def _duplicate_groups(P: np.ndarray) -> np.ndarray:
    """A label per column of P, shared only by bitwise-equal columns.

    The columns are sorted by a hash of their bits, and each takes the label
    of the one before it when the two are equal bit for bit: d passes over
    the n columns. Equal columns kept apart by a colliding one get two
    labels, which costs their rows the feature-by-feature sums, no more."""
    bits = P.view(np.uint64)
    key = np.zeros(P.shape[1], dtype=np.uint64)
    for x in bits:
        key *= np.uint64(0x9E3779B97F4A7C15)
        key ^= x
    order = np.argsort(key, kind="stable")
    key = key[order]
    same = np.flatnonzero(key[1:] == key[:-1])  # order[same] hashes as order[same + 1]
    for x in bits:
        same = same[x[order[same]] == x[order[same + 1]]]
    first = np.ones(P.shape[1], dtype=bool)
    first[same + 1] = False
    groups = np.empty(P.shape[1], dtype=np.intp)
    groups[order] = np.cumsum(first)
    return groups


def _settle(P, groups, flat, count, k, start):
    """The flat indices `flat` of a block of rows from row `start`, `count`
    in each row, less all but the nearest k of each row that holds more.

    Such a row ranks its candidates by their squared differences summed
    feature by feature, from zero in feature order, lowest index first on
    ties. Its own and its candidates' values are gathered one feature at a
    time; a candidate bitwise equal to the row's sample (`groups`, see
    `_duplicate_groups`) sums to 0 with no pass."""
    n = P.shape[1]
    crowded = count > k
    held = np.repeat(crowded, count)  # the entries of crowded rows
    near = np.flatnonzero(held)
    count = count[crowded]
    row = np.repeat(np.flatnonzero(crowded), count)
    col = flat[near] - n * row
    row += start
    dist2 = np.zeros(near.size)
    other = groups[col] != groups[row]
    if other.any():
        i, j = row[other], col[other]
        dist2[other] = sum((x[j] - x[i]) ** 2 for x in P)
    # each crowded row's entries, ranked; the first k of each stay
    order = np.lexsort((dist2, row))
    first = np.cumsum(count) - count
    held[near[order[(first[:, None] + np.arange(k)).ravel()]]] = False
    return flat[~held]


def knn_graph(X: DataMatrix, k: int) -> SimilarityGraph:
    """0-1 weighted k-nearest-neighbor graph on the samples (columns) of X.

    S_ij = 1 if j is among the k Euclidean nearest neighbors of i or vice
    versa. The diagonal is excluded from the search and left zero. The
    distances are the squared differences summed feature by feature, in
    feature order, and their ties go to the lower sample index, so the graph
    does not depend on the block size or the BLAS thread count. A sample
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
    # The blocks rank E_ij = h_j - p_i.p_j, h = sq / 2: the half distance
    # D_ij = h_i + E_ij less the row's own h_i, so a row ranks alike on both.
    # Barring underflow, with u = eps / 2 and E*, D* the exact values, a
    # blocked E_ij (its Gram entry summed in any order: Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 3.1) is off by at most
    # (d + 1) u (h_i + 2 h_j) + u |E*_ij|. As E* lies in [-h_i, D*] and
    # h_j <= 2 h_i + 2 D*, D = h_i + E is within (d + 2) u (5 h_i + 4 D*) of
    # D*, a bound relative to the row's own h_i (one relative to the largest
    # h would settle every row of data with one large sample). Half the
    # feature-by-feature sum is within (d + 3) u D* of D*. With
    # c = 2 (d + 4) eps, a sample whose D exceeds (D_k + 2.5 c h_i) / (1 - 2.5 c),
    # D_k = h_i + kth and kth the row's k-th smallest E, sums to more than
    # each of the k samples at most the k-th; that is, its E exceeds
    # (kth + 5 c h_i) / (1 - 2.5 c). The bound below, (kth + 6 c h_i) / (1 - 3 c),
    # exceeds that by more than its own rounding, and the rounding of h.
    c = 2 * (P.shape[0] + 4) * np.finfo(float).eps
    half = 0.5 * sq
    blocks = _row_blocks(n)
    # Three buffers serve every block of rows: the ranked rows, their
    # partitioned copy and the neighbor mask. Fresh ones per block are
    # page-faulted in anew each time, unless malloc happens to serve them
    # from its heap. The first block is the largest.
    most = blocks[0][1]
    ranked = np.empty((most, n))
    scratch = np.empty((most, n))
    mask = np.empty((most, n), dtype=bool)
    groups = None  # a label per sample, shared only by bitwise-equal columns
    # every row keeps exactly k neighbors, listed in column order
    cols = []
    for start, stop in blocks:
        E, part, keep = ranked[:stop - start], scratch[:stop - start], mask[:stop - start]
        np.matmul(P[:, start:stop].T, P, out=E)
        np.subtract(half, E, out=E)
        np.fill_diagonal(E[:, start:], np.inf)  # E[i, start + i]: row i's own sample
        # Partitioned at k - 1, a row holds its k-th smallest value there.
        # Every row keeps the samples up to the bound of its k-th, in column
        # order, as flat indices of the block; a row that keeps more than k
        # settles them exactly.
        np.copyto(part, E)
        part.partition(k - 1, axis=1)
        bound = (part[:, k - 1] + 6 * c * half[start:stop]) / (1 - 3 * c)
        np.less_equal(E, bound[:, None], out=keep)
        flat = np.flatnonzero(keep)
        count = np.diff(np.searchsorted(flat, n * np.arange(stop - start + 1)))
        if np.any(count > k):
            if groups is None:
                groups = _duplicate_groups(P)
            flat = _settle(P, groups, flat, count, k, start)
        # flat indices of the n x n matrix, in row-major order
        flat += n * start
        cols.append(flat)
    del P, ranked, scratch, mask, E, part, keep
    # Symmetrize: the edge i -> j has key i n + j; each edge and its reverse,
    # sorted with duplicates dropped, list the entries of S row by row.
    keys = np.concatenate(cols)
    del cols
    keys = np.concatenate((keys, (keys % n) * n + keys // n))
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    indptr = np.searchsorted(keys, n * np.arange(n + 1))
    return SimilarityGraph._of(indptr, keys % n, np.ones(keys.size))
