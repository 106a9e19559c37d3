"""One fitting loop over a table of methods, with k-means initialization.

The loop fits a stack of B same-shape problems at once: the data X (B, d, n),
the factors U (B, d, c) and V (B, n, c), the per-sample weights q (B, n) and
the guards eps (B,). Every array operation works on the whole stack
(`swapaxes(-1, -2)` transposes, reductions over `axis=-2`/`axis=-1`,
`[..., None, :]` broadcasts), and computes for each member exactly what it
would compute for that member alone, so one Python iteration advances all B
fits. `fit` is the stack of one; the experiment harness stacks the
repetitions of a sweep point.

Every method is two functions on the raw stacked arrays:

  measure(U, V, grams) -> (objective, norms, carry)
  step(U, V, *carry) -> (U, V, grams)

measure records the loss at (U, V), one value per member, and hands the next
step the carry: the stacked arrays it formed on the way that the step reads.
That is () for NMF_FRO, (UV^T,) for NMF_DIV, (q,) for EMMF and L21_NMF, and
(q, S V) for GEMMF, q being the per-sample weights. norms are the guarded
residual norms behind the entropy weights, reported with q as `final_q`,
and None for the other methods. step makes one U update, then one V update,
and hands on grams, the Gram products (X^T U, U^T U) its V update formed at
the new U, or None under NMF_DIV. Members that leave take their rows of the
carry with them, so the members that stay need nothing formed again.

EMMF, GEMMF, L21_NMF and NMF_FRO take each sample's squared residual norm
from them, ||x_i - U v_i||^2 = ||x_i||^2 - 2 v_i.(X^T U)_i + v_i^T (U^T U) v_i
(`core.residual_sq_norms`), with ||x_i||^2 computed once per (measure, step)
pair. So an iteration forms no residual X - U V^T and nothing of the data's
size: the U step forms X (Q V) (X V under NMF_FRO), weighting V rather than
X, and the V step and the measure share their products. The first measure of
a stack forms the Gram products itself. A member whose squares fall to
`core.TAU` ||x_i||^2 or below, where the identity cancels, takes that
iteration's squares from its exact residual instead. NMF_FRO records their
sum and steps by its own unweighted rules. The other three take the norms,
the squares' roots, and are one measure and one step: L21_NMF differs from
EMMF only in its objective and weights, and GEMMF is EMMF with the graph as
an optional term. Its measure forms S V once, adds the penalty from it and
carries it to the step, whose V update is then the graph-regularized one.

NMF_DIV holds U V^T in one workspace, because it carries over into the next
step, writes its ratios and loss terms into a second, and keeps the zero
pattern of X, which its loss reads every iteration. Everything a pair holds
is built with it and so rebuilt only when members leave; it is local to the
`fit_stack` call.

  EMMF     weights q from the entropy linearization (`entnmf.losses`),
           shared weighted engine for U and V; records the entropy loss.
  GEMMF    EMMF with the graph-regularized V step on the normalized graph;
           records entropy + lambda ||S - VV^T||_F^2. The members' graphs
           act as one block-diagonal sparse operator.
  NMF_FRO  classic multiplicative rules for the squared Frobenius loss;
           records ||X - UV^T||_F^2 as the sum of the squared norms.
  NMF_DIV  divergence formulation with its classical multiplicative rules;
           records DIV(X || UV^T). The product UV^T is shared between the
           loss and the next U step.
  L21_NMF  weighted engine with Q_ii = 1/(2 ||m_i||); records ||X - UV^T||_{2,1}.

All fits are deterministic given the seed. Each iteration makes one pass
over the members' objectives, as Python floats, and there settles each
member: it fails, leaves or stays. A non-finite factor entry makes the
residual norms (through the Gram products or V) or U V^T, and so the
objective, non-finite (`np.maximum` keeps NaN, and inf * 0 is NaN), so the
objective is the only check. A member whose objective turns non-finite
leaves the stack with a NumericalError that names the factor (its U and V
are checked then, and only then) and carries its iteration and its
objective trace; a member whose relative objective change falls below `tol`
leaves with its result; the rest leave after `max_iter` iterations.
Departures shrink the stack and change nothing for the members that stay.
Inputs are validated once, at entry; `FactorPair` and `ResidualWeights` are
built once per member, for the result, and only `FactorPair` checks itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DELTA,
    ConvergenceTrace,
    DataMatrix,
    FactorPair,
    ResidualWeights,
    basis_step,
    coeff_step,
    gram_products,
    residual_sq_norms,
    sample_sq_norms,
)
from .errors import InputError, NumericalError
from .graph import (GraphStack, SimilarityGraph, graph_coeff_step, graph_penalty,
                    normalize_graph)
from .losses import default_epsilon, entropy_terms

METHODS = ("EMMF", "GEMMF", "NMF_FRO", "NMF_DIV", "L21_NMF")
INITS = ("KMEANS", "RANDOM")

# Strictly-positive one-hot offset for the k-means coefficient init;
# multiplicative rules cannot revive exact zeros.
V_INIT_OFFSET = 0.2


@dataclass
class SolverConfig:
    method: str = "EMMF"
    c: int = 2
    max_iter: int = 500
    tol: float = 1e-6
    lam: float = 0.0
    epsilon: float | None = None
    seed: int = 0
    init: str = "KMEANS"

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.init not in INITS:
            raise InputError(f"unknown init {self.init!r}, expected one of {INITS}")
        if self.c < 1:
            raise InputError(f"cluster count must be >= 1, got {self.c}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 <= self.tol < math.inf:
            raise InputError(f"tol must be finite and >= 0, got {self.tol}")
        if not 0 <= self.lam < math.inf:
            raise InputError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise InputError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FitResult:
    factors: FactorPair
    trace: ConvergenceTrace
    final_q: ResidualWeights | None = None

    @property
    def assignments(self) -> np.ndarray:
        """Each sample's cluster, the argmax of its row of V; ties resolve
        toward the lowest column."""
        return np.argmax(self.factors.V, axis=1)


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, c) squared Euclidean distance of each sample (row of points) to each
    center (row of centers), one center at a time: nothing n x c x d is formed."""
    return np.stack([np.sum((points - center) ** 2, axis=1) for center in centers], axis=1)


def _start_rows(labels: np.ndarray, c: int) -> np.ndarray:
    """V's starting rows for cluster labels: one-hot plus V_INIT_OFFSET."""
    V = np.full((len(labels), c), V_INIT_OFFSET)
    V[np.arange(len(labels)), labels] += 1.0
    return V


def _kmeans(points: np.ndarray, c: int, rng: np.random.Generator):
    """Lloyd's algorithm with k-means++ seeding on points (rows are samples).

    An emptied cluster is re-seeded at the point farthest from its assigned
    centroid. Returns (centroids c x d, labels n)."""
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    d2 = np.zeros(n)  # squared distance to the nearest center so far
    for j in range(c):
        # the first center, and any drawn when all points coincide, uniformly
        total = d2.sum()
        centers[j] = points[rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)]
        dist = _sq_distances(points, centers[j : j + 1])[:, 0]
        d2 = np.minimum(d2, dist) if j else dist

    labels = np.zeros(n, dtype=int)
    for _ in range(100):  # at most 100 rounds
        dist = _sq_distances(points, centers)
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
            break
        labels = new_labels
    return centers, labels


def check_cluster_count(X: DataMatrix, c: int) -> None:
    """Raise InputError unless X can be factored with c clusters."""
    if not 1 <= c <= min(X.d, X.n):
        raise InputError(f"cluster count {c} outside [1, min(d, n)] for data {X.values.shape}")


def init_factors(X: DataMatrix, c: int, seed: int, strategy: str = "KMEANS") -> FactorPair:
    """Strictly positive starting factors.

    KMEANS: Lloyd on the samples; U is the centroids as columns and V the
    one-hot assignment shifted by V_INIT_OFFSET. RANDOM: i.i.d. uniform (0, 1].
    """
    if strategy not in INITS:
        raise InputError(f"unknown init {strategy!r}, expected one of {INITS}")
    check_cluster_count(X, c)
    rng = np.random.default_rng(seed)
    if strategy == "RANDOM":
        return FactorPair(U=1.0 - rng.random((X.d, c)), V=1.0 - rng.random((X.n, c)))
    centers, labels = _kmeans(X.values.T, c, rng)
    # Centroids of nonnegative data can still contain exact zeros; floor them
    # so the multiplicative rules can move every entry.
    floor = 1e-8 * max(1.0, float(X.values.max()))
    return FactorPair(U=np.maximum(centers.T, floor), V=_start_rows(labels, c))


def extend_factors(F: FactorPair, X: DataMatrix) -> FactorPair:
    """Grow V to cover columns appended to the matrix F was built for.

    Each new column gets a one-hot row (nearest basis column, Euclidean)
    plus the usual strictly positive offset. U is kept as-is, so a fit
    started from the result isolates how the new columns move the basis."""
    n0 = F.V.shape[0]
    if X.n < n0:
        raise InputError(f"factors cover {n0} samples but data has only {X.n}")
    nearest = np.argmin(_sq_distances(X.values[:, n0:].T, F.U.T), axis=1)
    # C-ordered whatever U's order: the fits started from it round by it
    return FactorPair(U=F.U.copy(), V=np.vstack([F.V, _start_rows(nearest, F.c)]))


def _divergence(X: np.ndarray, B: np.ndarray, zero: np.ndarray, out: np.ndarray) -> np.ndarray:
    """DIV(X || B) = sum_ij X_ij log(X_ij / B_ij) - X_ij + B_ij, with 0 log 0 = 0.

    Formed in `out`; `zero` marks the entries where X_ij = 0. Their log term
    is computed from 0 / B_ij and then replaced by 0, so it never counts."""
    np.add(B, 1e-12, out=out)
    np.divide(X, out, out=out)
    np.log(out, out=out)
    out *= X
    np.copyto(out, 0.0, where=zero)
    out -= X
    out += B
    return np.sum(out, axis=(-2, -1))


def _method(X: np.ndarray, eps: np.ndarray, cfg: SolverConfig, graphs):
    """(measure, step) of cfg.method on the stack X (B, d, n); see the module
    docstring. eps is (B, 1); graphs are the members' graphs as `fit_stack`
    normalized them, read only by GEMMF."""
    if cfg.method == "NMF_DIV":
        # UV^T has a workspace of its own, because the next step's first
        # ratio reuses it; every other d x n quantity goes to M
        M = np.empty(X.shape)
        UVt = np.empty(X.shape)
        zero = ~(X > 0)

        def measure(U, V, _):
            B = np.matmul(U, V.swapaxes(-1, -2), out=UVt)
            return _divergence(X, B, zero, M), None, (B,)

        def step(U, V, B):
            np.add(B, DELTA, out=M)
            ratio = np.divide(X, M, out=M)
            U = U * (ratio @ V) / (np.sum(V, axis=-2)[..., None, :] + DELTA)
            np.matmul(U, V.swapaxes(-1, -2), out=M)
            np.add(M, DELTA, out=M)
            ratio = np.divide(X, M, out=M)
            V = V * (ratio.swapaxes(-1, -2) @ U) / (np.sum(U, axis=-2)[..., None, :] + DELTA)
            return U, V, None

        return measure, step

    # EMMF, GEMMF, L21_NMF and NMF_FRO: squared residual norms from the Gram
    # products; one weighted engine for the first three, and for GEMMF the
    # graph term on the same S V
    sq = sample_sq_norms(X)
    S = GraphStack(graphs) if cfg.method == "GEMMF" else None

    def measure(U, V, grams):
        A, G = gram_products(X, U) if grams is None else grams
        r = residual_sq_norms(X, sq, U, V, A, G)
        if cfg.method == "NMF_FRO":
            return np.sum(r, axis=-1), None, ()
        norms = np.sqrt(r)
        if cfg.method == "L21_NMF":
            return np.sum(norms, axis=-1), None, (0.5 / np.maximum(norms, eps),)
        norms = np.maximum(norms, eps)
        value, q = entropy_terms(norms)
        if S is None:
            return value, norms, (q,)
        SV = S.product(V)
        return value + cfg.lam * graph_penalty(S.sq_norm, SV, V), norms, (q, SV)

    def fro_step(U, V):
        # the classic rules: unweighted, with no square root
        U = U * (X @ V) / (U @ (V.swapaxes(-1, -2) @ V) + DELTA)
        A, G = gram_products(X, U)
        return U, V * A / (V @ G + DELTA), (A, G)

    def step(U, V, q, SV=None):
        # the weights as a full array of V's shape, for the kernels'
        # multiplies (see `entnmf.core`)
        Q = np.repeat(q[..., :, None], V.shape[-1], axis=-1)
        U = basis_step(X, U, V, Q)
        A, G = gram_products(X, U)
        V = coeff_step(A, G, V, Q) if SV is None else graph_coeff_step(A, G, V, Q, SV, cfg.lam)
        return U, V, (A, G)

    return measure, fro_step if cfg.method == "NMF_FRO" else step


def _stacked(arrays) -> np.ndarray:
    """The same-shape arrays as one stack (B, ...).

    BLAS can round a product of Fortran-ordered operands (k-means gives a
    Fortran-ordered U, CSV input a Fortran-ordered X) differently from the
    same product in C order; np.stack keeps the members' common memory
    order in every slice, so each member computes what it would alone. One
    C- or Fortran-ordered array is its own stack, a view with no copy: the
    fit loop never writes its operands. Any other layout is copied, because
    numpy can take a product of strided operands outside BLAS."""
    first = arrays[0]
    if len(arrays) == 1 and (first.flags.c_contiguous or first.flags.f_contiguous):
        return first[None]
    return np.stack(arrays)


def fit_stack(Xs, cfg: SolverConfig, initials, graphs=None) -> list:
    """Fit the same-shape problems (Xs[b], initials[b], graphs[b]) in one loop.

    All members share cfg (its seed is not used: the members start from
    their `initials`); GEMMF needs one raw similarity graph per member and
    regularizes with its degree normalization, formed once per call. Returns
    one entry per member, in order: its FitResult, or the NumericalError
    that stopped it, carrying the iteration and the member's objective trace
    so far. Each result is bit for bit what `fit` gives for that member alone,
    provided the members' arrays share their memory order (C or Fortran).
    """
    B = len(Xs)
    if B < 1 or len(initials) != B or (graphs is not None and len(graphs) != B):
        raise InputError(f"a stack needs one initial (and graph) per data matrix, got {B} "
                         f"data matrices and {len(initials)} initials")
    d, n = Xs[0].values.shape
    if any(X.values.shape != (d, n) for X in Xs):
        raise InputError("stacked data matrices must share one shape")
    eps = np.array([cfg.epsilon if cfg.epsilon is not None else default_epsilon(X.values)
                    for X in Xs])
    if cfg.method == "GEMMF":
        if graphs is None or any(g is None for g in graphs):
            raise InputError("GEMMF requires a similarity graph")
        for g in graphs:
            if g.n != n:
                raise InputError(f"graph has {g.n} vertices but data has {n} samples")
        graphs = [normalize_graph(g) for g in graphs]
    for F in initials:
        if F.U.shape != (d, cfg.c) or F.V.shape != (n, cfg.c):
            raise InputError(
                f"initial factors {F.U.shape}/{F.V.shape} do not fit "
                f"data {(d, n)} with c={cfg.c}"
            )
    X = _stacked([M.values for M in Xs])
    U = _stacked([F.U for F in initials])
    V = _stacked([F.V for F in initials])
    members = list(range(B))  # member index of each stack slice
    measure, step = _method(X, eps[:, None], cfg, graphs)
    objective = [[] for _ in range(B)]
    results = [None] * B
    with np.errstate(all="ignore"):  # non-finite values become NumericalErrors below
        value, norms, carry = measure(U, V, None)
        t = 0
        while True:
            # One pass settles each member: it fails, leaves or stays. On a few
            # members, Python floats are much cheaper than numpy calls on (B,)
            # arrays, and round exactly like them.
            values = value.tolist()
            stay = []
            for j, (b, v) in enumerate(zip(members, values)):
                if not math.isfinite(v):
                    # a non-finite factor entry shows in the objective
                    failure = ("non-finite entries produced while updating U"
                               if not np.isfinite(U[j]).all()
                               else "non-finite entries produced while updating V"
                               if not np.isfinite(V[j]).all()
                               else "objective became non-finite")
                    results[b] = NumericalError(failure, iteration=t, objective=objective[b])
                    continue
                p = objective[b][-1] if t else math.inf  # the member's last objective
                objective[b].append(v)
                converged = t > 0 and abs(v - p) / max(p, 1e-30) < cfg.tol
                if not converged and t < cfg.max_iter:
                    stay.append(j)
                    continue
                final_q = None
                if norms is not None:  # only EMMF and GEMMF; their carry starts with q
                    final_q = ResidualWeights(norms=norms[j], q=carry[0][j], epsilon=float(eps[b]))
                trace = ConvergenceTrace(objective=objective[b], converged=converged)
                results[b] = FitResult(FactorPair(U=U[j], V=V[j]), trace, final_q)
            if len(stay) < len(members):  # some member leaves the stack
                if not stay:
                    return results
                # indexing keeps each slice's memory order; the next measure
                # replaces norms
                members = [members[j] for j in stay]
                X, U, V = X[stay], U[stay], V[stay]
                carry = tuple(A[stay] for A in carry)
                measure, step = _method(X, eps[members][:, None], cfg,
                                        graphs and [graphs[b] for b in members])
            t += 1
            U, V, grams = step(U, V, *carry)
            value, norms, carry = measure(U, V, grams)


def fit(X: DataMatrix, cfg: SolverConfig, graph: SimilarityGraph | None = None,
        initial: FactorPair | None = None) -> FitResult:
    """Fit X ~ U V^T with cfg.method; GEMMF requires a similarity graph.

    Starts from `initial` when given, else from `init_factors`. This is
    `fit_stack` on a stack of one: a non-finite factor or objective raises
    NumericalError carrying the iteration and the objective trace so far.
    """
    if initial is None:
        initial = init_factors(X, cfg.c, cfg.seed, cfg.init)
    (result,) = fit_stack([X], cfg, [initial], [graph])
    if isinstance(result, NumericalError):
        raise result
    return result
