"""Entropy loss, its diagonal reweighting, and outlier-influence analysis.

With residual M = X - U V^T and per-sample shares p_i = ||m_i|| / ||M||_{2,1},
the entropy loss is the Shannon entropy of the residue distribution scaled by
the total residue,

    L = H(M) * ||M||_{2,1} = - sum_i ||m_i|| * log( ||m_i|| / ||M||_{2,1} ).

Minimizing L concentrates residual mass on few samples (the outliers) while
shrinking the total. Its linearization yields the diagonal weights

    Q_ii = - log( ||m_i|| / ||M||_{2,1} ) / ||m_i||,

which plug into the weighted engine in `entnmf.core`. `entropy_terms`, the
one evaluation of both, takes the residual norms the fit loop has floored at
a guard epsilon; natural log throughout (the base only rescales the loss).
`influence_ratios` and `influence_upper_bound` measure one sample's share of
each objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, FactorPair, column_norms, residual_matrix
from .errors import InputError, NumericalError

# Grid points whose denominator is closer to zero than this are removable
# singularities of the single-outlier share formula and are skipped.
_DENOM_CUTOFF = 1e-14


@dataclass(frozen=True)
class InfluenceReport:
    """Share of each method's objective contributed by one probed sample."""

    phi_nmf: float
    phi_l21: float
    phi_emmf: float
    sample_index: int


def default_epsilon(values: np.ndarray) -> float:
    """Guard scaled with data magnitude: 1e-10 * max(1, ||X||_F)."""
    return 1e-10 * max(1.0, float(np.linalg.norm(values)))


def entropy_terms(norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy loss and diagonal weights from guarded norms, along the last axis.

    Returns (-sum_i ||m_i|| log(||m_i|| / ||M||_{2,1}), q) with
    q_i = -log(||m_i|| / ||M||_{2,1}) / ||m_i||; a stack of norm vectors
    (..., n) gives one loss per vector. Each guarded norm is at most the
    total, so every weight is nonnegative; a weight is zero exactly when its
    sample carries the entire residual mass (in particular for a single
    sample). A non-finite norm gives a non-finite loss; callers check it.
    """
    # A rounded sum of nonnegative terms is never below any of them, so every
    # share is at most 1 and the loss is nonnegative (-0.0 when one sample
    # carries all the mass).
    log_share = np.log(norms / np.sum(norms, axis=-1, keepdims=True))
    return -np.sum(norms * log_share, axis=-1), np.maximum(-log_share / norms, 0.0)


def influence_ratios(X: DataMatrix, F: FactorPair, i: int) -> InfluenceReport:
    """Sample i's share of the squared-Frobenius, l2,1 and entropy objectives.

    For the entropy share, numerator and denominator are both negative for
    interior residue distributions, so the quotient is reported positive as is.
    The shares of each method over all samples sum to one.
    """
    M = residual_matrix(X, F.U, F.V)
    if not 0 <= i < X.n:
        raise InputError(f"sample index {i} outside [0, {X.n})")
    raw = column_norms(M)
    if float(np.sum(raw)) == 0.0:
        raise NumericalError("influence is undefined for an all-zero residual matrix")
    norms = np.maximum(raw, default_epsilon(X.values))
    total = float(np.sum(norms))
    weighted = norms * np.log(norms / total)
    denom = float(np.sum(weighted))
    if abs(denom) < _DENOM_CUTOFF:
        raise NumericalError("entropy share is undefined: residue distribution is degenerate")
    return InfluenceReport(
        phi_nmf=float(norms[i] ** 2 / np.sum(norms**2)),
        phi_l21=float(norms[i] / total),
        phi_emmf=float(weighted[i] / denom),
        sample_index=i,
    )


def _share_terms(p, n: int):
    """Numerator p log p and denominator of the single-outlier share."""
    numer = p * np.log(p)
    return numer, numer + (1.0 - p) * (np.log1p(-p) - np.log(n - 1))


def influence_upper_bound(n: int, p_step: float) -> tuple[float, float]:
    """Maximum of the single-outlier entropy share over a p grid.

    Sweeps p in {p_step, 2 p_step, ...} inside (0, 1), skipping removable
    singularities where the denominator vanishes, and returns (bound, argmax p).
    """
    if n < 2:
        raise InputError(f"need at least 2 samples, got {n}")
    if not 0.0 < p_step < 1.0:
        raise InputError(f"p_step must lie in (0, 1), got {p_step}")
    best, best_p = -np.inf, None
    k = 1
    while k * p_step < 1.0 - 1e-12:
        p = k * p_step
        k += 1
        numer, denom = _share_terms(p, n)
        if abs(denom) < _DENOM_CUTOFF:
            continue
        value = numer / denom
        if value > best:
            best, best_p = value, p
    if best_p is None:
        raise InputError(f"p_step {p_step} leaves no usable point of the p grid in (0, 1)")
    return float(best), float(best_p)
