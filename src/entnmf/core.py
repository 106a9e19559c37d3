"""Core domain types and the shared weighted multiplicative-update engine.

The data matrix X (d features x n samples, columns are samples) is
approximated as X ~ U V^T with U (d x c) and V (n x c) elementwise
nonnegative. The engine minimizes the weighted quadratic

    Tr(M Q M^T) = sum_i Q_ii ||m_i||_2^2,    M = X - U V^T,

for a caller-supplied diagonal weight Q >= 0, via the multiplicative rules

    U_ik <- U_ik * sqrt( (X Q V)_ik / (U V^T Q V)_ik ),
    V_ik <- V_ik * sqrt( (Q X^T U)_ik / (Q V U^T U)_ik ).

Different choices of Q realize different losses behind one kernel:
Q_ii = 1/(2||m_i||) gives the l2,1 objective and the entropy weights (see
`entnmf.losses`) the entropy objective; Q = I would give the Frobenius one,
but NMF_FRO runs its own unweighted rules, with no square root. G-EMMF's
graph term is an optional addend of the V step (`coeff_step`).
Every denominator carries an additive guard `DELTA` against 0/0; exact zeros
in a factor are preserved by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Additive guard on multiplicative-rule denominators. Keeps fixed points
# within ~DELTA of exact.
DELTA = 1e-12


@dataclass(frozen=True)
class DataMatrix:
    """Nonnegative d x n sample matrix, columns are samples, held as a
    C-ordered float64 array: one in that layout is kept as it is, any other
    is copied into it. Every sum over the features, and so every fit, graph
    and k-means start, then depends only on the values, not on where they
    came from."""

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float, order="C")
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InputError(f"data matrix must be 2-D and non-empty, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InputError("data matrix contains non-finite entries")
        if values.min() < 0:
            i, j = np.unravel_index(int(np.argmin(values)), values.shape)
            raise InputError(f"data matrix must be nonnegative, entry ({i},{j}) = {values[i, j]}")
        if self.labels is not None:
            try:
                given = np.asarray(self.labels)
            except ValueError:  # ragged, as [[1], 2]
                raise InputError(f"labels must be one integer per sample ({values.shape[1]}), "
                                 "got a ragged sequence") from None
            with np.errstate(invalid="ignore"):  # NaN, inf and huge values cast to garbage
                try:
                    labels = given.astype(int)
                    bad = np.flatnonzero(labels != given)
                except (TypeError, ValueError, OverflowError):  # None, a string: cast each
                    bad = [i for i, x in enumerate(given.flat) if not _casts_exactly(x)]
            if len(bad):
                raise InputError(f"label {bad[0]} is not an integer: {given.flat[bad[0]]}")
            object.__setattr__(self, "labels", labels)
            if labels.shape != (values.shape[1],):
                raise InputError(
                    f"labels must have one entry per sample ({values.shape[1]}), got {labels.shape}"
                )

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def _casts_exactly(label) -> bool:
    """Whether one label casts to an equal int, as `DataMatrix` casts them all."""
    try:
        return bool(np.asarray(label).astype(int) == label)
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class FactorPair:
    """Nonnegative basis U (d x c) and coefficients V (n x c), held
    C-ordered float64 as `DataMatrix` holds its values."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float, order="C")
        V = np.asarray(self.V, dtype=float, order="C")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
            raise InputError(f"factor shapes disagree: U {U.shape}, V {V.shape}")
        c = U.shape[1]
        if not 1 <= c <= min(U.shape[0], V.shape[0]):
            raise InputError(f"centroid count {c} outside [1, min(d, n)] for U {U.shape}, V {V.shape}")
        if U.min() < 0 or V.min() < 0:
            raise InputError("factors must be elementwise nonnegative")

    @property
    def c(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class ResidualWeights:
    """Per-sample residual norms (n,), guarded below by epsilon > 0, and the
    diagonal q (n,) >= 0 of the weights Q they induce, as a fit leaves them
    (`FitResult.final_q`)."""

    norms: np.ndarray
    q: np.ndarray
    epsilon: float


@dataclass
class ConvergenceTrace:
    """Objective values of one fit, objective[0] at the starting factors and
    one more per iteration; iterations, derived, is their count less one."""

    objective: list[float]
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.objective) - 1


def column_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of M, or of each matrix in a stack (..., d, n)."""
    return np.sqrt(np.sum(M * M, axis=-2))


# Ratio of a squared residual norm r_i to the sample's squared norm ||x_i||^2
# at or below which `residual_sq_norms` takes the exact residual. The Gram
# form cancels: its r_i is off by up to about 4e-15 ||x_i||^2 (at most 3.4e-15
# measured over the fits of the benchmark configs, d = 10 and 100), so above
# TAU ||x_i||^2 its relative error is below about 4e-12, and so is that of
# NMF_FRO's objective, their sum; that of a norm, the square root, is below
# about 2e-12.
TAU = 1e-3


# The kernels below take raw arrays and work on one problem or on a stack of
# same-shape problems alike: X (..., d, n), U (..., d, c), V (..., n, c),
# and the diagonal weights Q as any array that broadcasts to V's shape. The
# fit loop passes a full (..., n, c) array: a multiply by the weights
# broadcast over V's columns, q[..., :, None], takes longer and allocates an
# iterator buffer. A stacked call computes exactly what the per-problem calls
# would, slice by slice. The V steps take the Gram products A = X^T U and
# G = U^T U at the U they update against (`gram_products`), and
# `residual_sq_norms` takes the same two at the same U, so an iteration forms
# them once and the squared residual norms need no d x n intermediate. Given a
# workspace of X's shape, `residual` writes U V^T and then X - U V^T into it
# instead of allocating one. `basis_step` forms no d x n intermediate: it
# weights V, not X. They neither check their inputs or outputs nor silence
# floating-point warnings: `solvers.fit_stack` validates shapes once at
# entry, runs them under `np.errstate`, and turns a non-finite objective into
# a NumericalError naming the factor and the iteration.


def residual(X: np.ndarray, U: np.ndarray, V: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """M = X - U V^T, written into (and returned as) `out` when given."""
    if out is None:
        return X - U @ V.swapaxes(-1, -2)
    np.matmul(U, V.swapaxes(-1, -2), out=out)
    return np.subtract(X, out, out=out)


def gram_products(X: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, G) = (X^T U, U^T U), shared by the V step and the residual norms."""
    return X.swapaxes(-1, -2) @ U, U.swapaxes(-1, -2) @ U


def sample_sq_norms(X: np.ndarray) -> np.ndarray:
    """||x_i||^2 of every column of X, with no temporary of X's size."""
    return np.einsum("...ij,...ij->...j", X, X)


def residual_sq_norms(X: np.ndarray, sq: np.ndarray, U: np.ndarray, V: np.ndarray,
                      A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """||x_i - U v_i||^2 for every column, given sq = ||x_i||^2 and (A, G) at U.

    The squares come from r = sq + sum_k V o (V G - A - A), formed in place
    on V G and its c columns added one by one. A problem with some
    r_i <= TAU sq_i (r_i <= 0 included) takes all its squares from its exact
    residual instead, as its column sums of squares, so the choice is its own
    and a stacked problem computes what it would alone. NaN fails the
    comparison and carries through."""
    T = V @ G
    T -= A
    T -= A
    T *= V
    r = sq + T[..., 0]
    for k in range(1, T.shape[-1]):
        r += T[..., k]
    low = r <= TAU * sq
    if low.any():
        for b in np.ndindex(low.shape[:-1]):
            if low[b].any():
                M = residual(X[b], U[b], V[b])
                r[b] = np.sum(M * M, axis=-2)
    return r


def basis_step(X: np.ndarray, U: np.ndarray, V: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """U_ik <- U_ik * sqrt( (X (Q V))_ik / (U (V^T Q V))_ik ), the diagonal
    weights given broadcastable to V's shape."""
    Vq = V * Q
    numer = X @ Vq
    denom = U @ (Vq.swapaxes(-1, -2) @ V)
    return U * np.sqrt(numer / (denom + DELTA))


def coeff_step(A: np.ndarray, G: np.ndarray, V: np.ndarray, Q: np.ndarray,
               SV: np.ndarray | None = None, lam: float = 0.0) -> np.ndarray:
    """V_ik <- V_ik * sqrt( (Q X^T U)_ik / (Q V (U^T U))_ik ), given A = X^T U,
    G = U^T U and the diagonal weights broadcastable to V's shape.

    Q being diagonal, the only shape-consistent reading of the denominator is
    Q (V (U^T U)). Given SV = S V, the step adds the graph term
    lambda ||S - V V^T||_F^2 (G-EMMF), absorbing the orthogonality
    multiplier through the split

        L5 = V^T Q X^T U + 2 lambda V^T S V - V^T Q V U^T U = L5+ - L5-,
        L5- = V^T Q V U^T U,    L5+ = V^T Q X^T U + 2 lambda V^T S V,

    both parts elementwise nonnegative, so that

        V_ik <- V_ik * sqrt( (Q X^T U + 2 lambda S V + V L5-)_ik
                           / (Q V U^T U + V L5+)_ik ).

    At lambda = 0 the split remains, so G-EMMF's step is not EMMF's. A and
    G are left as they are, for the residual norms; the sums run in place on
    the n x c products, which gives the same bits as fresh arrays would."""
    numer = Q * A
    denom = V @ G
    denom *= Q
    if SV is not None:
        Vt = V.swapaxes(-1, -2)
        plus = Vt @ numer + 2.0 * lam * (Vt @ SV)    # L5+
        numer += 2.0 * lam * SV
        numer += V @ (Vt @ denom)                    # V L5-
        denom += V @ plus
    denom += DELTA
    numer /= denom
    np.sqrt(numer, out=numer)
    numer *= V
    return numer


def residual_matrix(X: DataMatrix, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Residual M = X - U V^T; may contain negative entries."""
    if U.shape[0] != X.d or V.shape[0] != X.n:
        raise InputError(
            f"factor shapes U {U.shape}, V {V.shape} do not match data {X.values.shape}"
        )
    return residual(X.values, U, V)
