"""Invariants of `fit`, of its kernels and of graph construction over
generated shapes, seeds and data scales.

Examples are derandomized and no example database is kept, so the suite
stays deterministic.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from entnmf import DataMatrix, InputError, SimilarityGraph, SolverConfig, core, fit, knn_graph
from entnmf import solvers
from entnmf.core import (basis_step, coeff_step, gram_products, residual, residual_sq_norms,
                         sample_sq_norms)
from entnmf.graph import graph_coeff_step, normalize_graph
from entnmf.losses import entropy_terms
from conftest import csr

METHODS = ("EMMF", "GEMMF", "NMF_FRO", "NMF_DIV", "L21_NMF")
# methods whose recorded objective the update rules never increase
MONOTONE = ("EMMF", "L21_NMF", "NMF_FRO", "NMF_DIV")

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def problems(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(2, 12))
    c = draw(st.integers(1, min(d, n)))
    seed = draw(st.integers(0, 2**31 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    values = scale * np.random.default_rng(seed).random((d, n))
    return DataMatrix(values=values), c, seed


def run(X, c, seed, method, init="KMEANS"):
    graph = knn_graph(X, min(3, X.n - 1)) if method == "GEMMF" else None
    cfg = SolverConfig(method=method, c=c, seed=seed, max_iter=30, tol=0.0, lam=1.0, init=init)
    return fit(X, cfg, graph)


@PROPERTY
@given(problems(), st.sampled_from(["KMEANS", "RANDOM"]))
def test_factors_stay_nonnegative_and_finite(problem, init):
    X, c, seed = problem
    for method in METHODS:
        r = run(X, c, seed, method, init)
        for A in (r.factors.U, r.factors.V):
            assert np.all(np.isfinite(A)) and A.min() >= 0, method
        assert np.all(np.isfinite(r.trace.objective)), method
        if method in ("EMMF", "GEMMF"):
            # the invariants of the weights the fit returns
            w = r.final_q
            assert w.norms.shape == w.q.shape == (X.n,), method
            assert w.epsilon > 0 and w.norms.min() >= w.epsilon and w.q.min() >= 0, method


@PROPERTY
@given(problems())
def test_objective_never_increases(problem):
    X, c, seed = problem
    for method in MONOTONE:
        obj = np.asarray(run(X, c, seed, method).trace.objective)
        slack = 1e-8 * np.maximum(1.0, np.abs(obj[:-1]))
        assert np.all(np.diff(obj) <= slack), method


@PROPERTY
@given(problems())
def test_same_seed_gives_the_same_fit(problem):
    X, c, seed = problem
    for method in METHODS:
        a, b = run(X, c, seed, method), run(X, c, seed, method)
        assert np.array_equal(a.trace.objective, b.trace.objective), method
        assert np.array_equal(a.factors.U, b.factors.U), method
        assert np.array_equal(a.factors.V, b.factors.V), method


@st.composite
def stacks(draw):
    """A stack (B, d, n) of data with factors, each array in C or Fortran
    order in every slice, as `fit_stack` holds them."""
    B = draw(st.integers(1, 4))
    d = draw(st.integers(1, 12))
    n = draw(st.integers(2, 12))
    c = draw(st.integers(1, min(d, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def stack(shape):
        order = draw(st.sampled_from("CF"))
        return np.stack([np.asarray(rng.random(shape), order=order) for _ in range(B)])

    return stack((d, n)), stack((d, c)), stack((n, c))


@PROPERTY
@given(stacks())
def test_the_workspace_forms_equal_the_allocating_forms(stack):
    # the fit loop's one workspace: the residual and its squares in a
    # C-ordered block. Pre-filled with NaN, so stale contents would show.
    X, U, V = stack
    M = np.full(X.shape, np.nan)
    assert residual(X, U, V, out=M) is M
    assert np.array_equal(M, residual(X, U, V))
    work = np.full_like(X, np.nan)
    assert np.array_equal(residual(X, U, V, out=work), residual(X, U, V))


@st.composite
def near_products(draw):
    """A stack (B, d, n) of data X = s U V^T + s e E with its factors s U and
    V, each array in C or Fortran order in every slice. A member with e = 0
    or 1e-4 has residual norms far below its samples' and takes the exact
    residual; e = 0.1 puts it near the switch, e = 1 well above it."""
    B = draw(st.integers(1, 4))
    d = draw(st.integers(1, 12))
    n = draw(st.integers(2, 12))
    c = draw(st.integers(1, min(d, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    noise = np.array([draw(st.sampled_from([0.0, 1e-4, 0.1, 1.0])) for _ in range(B)])

    def stack(A):
        order = draw(st.sampled_from("CF"))
        return np.stack([np.asarray(a, order=order) for a in A])

    U = scale * rng.random((B, d, c))
    V = rng.random((B, n, c))
    X = U @ V.swapaxes(-1, -2) + scale * noise[:, None, None] * rng.random((B, d, n))
    return stack(X), stack(U), stack(V)


@PROPERTY
@given(near_products())
def test_gram_residual_norms_are_exact_or_within_their_bound(stack):
    X, U, V = stack
    sq = sample_sq_norms(X)
    A, G = gram_products(X, U)
    squares = residual_sq_norms(X, sq, U, V, A, G)
    for b in range(X.shape[0]):
        M = residual(X[b], U[b], V[b])
        exact = np.sum(M * M, axis=0)
        with mock.patch.object(core, "residual", wraps=core.residual) as formed:
            alone = residual_sq_norms(X[b:b + 1], sq[b:b + 1], U[b:b + 1], V[b:b + 1],
                                      A[b:b + 1], G[b:b + 1])[0]
        # a stacked member computes what it would alone
        assert np.array_equal(squares[b], alone)
        if formed.called:  # the fallback: the exact squares, bit for bit
            assert np.array_equal(alone, exact)
        else:  # every square above TAU ||x||^2: within the bound TAU implies
            assert np.all(alone > core.TAU * sq[b])
            assert np.all(np.abs(alone - exact) <= 4e-12 * exact)


@st.composite
def exact_products(draw):
    """Strictly positive U (d x c) and V (n x c), and a positive norm vector
    (n,) to draw weights from. Every factor entry is at least 2 and the data
    scale at least 1, so the guard DELTA, which moves a fixed point by about
    DELTA over the update's denominator, stays below the 1e-12 tolerance."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(2, 12))
    c = draw(st.integers(1, min(d, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    scale = draw(st.sampled_from([1.0, 1e3]))
    U = scale * (2.0 + rng.random((d, c)))
    V = 2.0 + rng.random((n, c))
    return U, V, 0.1 + 0.1 * rng.random(n)


def assert_fixed(after, before, what):
    assert np.all(np.abs(after - before) <= 1e-12 * before), what


@PROPERTY
@given(exact_products())
def test_exact_products_are_fixed_points_of_the_weighted_kernels(problem):
    U, V, norms = problem
    X = U @ V.T
    weights = {"unit": np.ones(len(norms)), "l2,1": 0.5 / norms,
               "entropy": entropy_terms(norms)[1]}
    # the weights broadcast over V's columns, which the kernels accept too
    for name, q in weights.items():
        assert_fixed(basis_step(X, U, V, q[:, None]), U, name)
        assert_fixed(coeff_step(*gram_products(X, U), V, q[:, None]), V, name)
    graph = normalize_graph(knn_graph(DataMatrix(values=X), min(3, X.shape[1] - 1)))
    q = weights["entropy"][:, None]
    assert_fixed(graph_coeff_step(*gram_products(X, U), V, q, csr(graph) @ V, 0.0), V, "graph")


@PROPERTY
@given(exact_products())
def test_exact_products_are_fixed_points_of_the_classic_steps(problem):
    U, V, _ = problem
    X = (U @ V.T)[None]
    for method in ("NMF_FRO", "NMF_DIV"):
        measure, step = solvers._method(X, np.ones((1, 1)), SolverConfig(method=method), None)
        U1, V1, _ = step(U[None], V[None], *measure(U[None], V[None], None)[2])
        assert_fixed(U1[0], U, method)
        assert_fixed(V1[0], V, method)


@PROPERTY
@given(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=40),
       st.sampled_from([1e-3, 1e3]))
def test_entropy_terms_scale_with_the_norms(norms, alpha):
    # L is homogeneous of degree 1 in the norms, q of degree -1
    norms = np.array(norms)
    loss, q = entropy_terms(norms)
    scaled_loss, scaled_q = entropy_terms(alpha * norms)
    assert abs(scaled_loss - alpha * loss) <= 1e-12 * alpha * loss
    assert np.all(np.abs(scaled_q - q / alpha) <= 1e-12 * q / alpha)


@st.composite
def weighted_graphs(draw):
    """A symmetric nonnegative S (n x n, diagonal included) as numpy sums
    it, and S as given: dense, or a scipy COO in shuffled order that lists
    some weights as two parts, both ways, and holds unmirrored explicit
    zeros. Two parts sum to the same bits in either order, and a zero adds
    nothing, so S is exactly symmetric however the duplicates are summed."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e307]))
    W = np.triu(scale * rng.random((n, n)) * (rng.random((n, n)) < density))
    if draw(st.booleans()):
        S = W + np.triu(W, 1).T
        return S, S
    rows, cols, vals = [], [], []
    for i, j in zip(*np.nonzero(W)):
        a = W[i, j] * rng.random() if rng.random() < 0.5 else W[i, j]
        parts = [a, W[i, j] - a] if a != W[i, j] else [a]
        for r, c in {(i, j), (j, i)}:
            rows += [r] * len(parts)
            cols += [c] * len(parts)
            vals += parts
    zeros = int(rng.integers(0, n + 1))
    rows += rng.integers(0, n, zeros).tolist()
    cols += rng.integers(0, n, zeros).tolist()
    vals += [0.0] * zeros
    order = rng.permutation(len(vals))
    rows, cols, vals = (np.array(a, dtype=t)[order] for a, t in
                        ((rows, np.intp), (cols, np.intp), (vals, float)))
    S = np.zeros((n, n))
    np.add.at(S, (rows, cols), vals)
    return S, sparse.coo_array((vals, (rows, cols)), shape=(n, n))


@PROPERTY
@given(weighted_graphs())
def test_a_graph_holds_scipys_csr_arrays_and_normalizes_by_its_row_sums(graph):
    S, given = graph
    M = sparse.csr_array(given)
    M.sum_duplicates()
    deg = M.sum(axis=1)
    try:
        g = SimilarityGraph(S=given)
    except InputError as err:
        # rejected only for a row whose weights sum past the largest float
        assert "degree" in str(err) and np.isinf(deg).any()
        return
    assert np.array_equal(g.indptr, M.indptr)
    assert np.array_equal(g.indices, M.indices)
    assert np.array_equal(g.data, M.data)
    assert np.array_equal(csr(g).toarray(), S)
    with np.errstate(over="ignore"):  # both are inf at scale 1e307
        got, sq_norm = g.sq_norm, np.sum(S * S)
    assert got == sq_norm or abs(got - sq_norm) <= 1e-12 * sq_norm
    # D^-1/2 S D^-1/2 on each stored entry, from the degrees scipy sums
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    rows = np.repeat(np.arange(g.n), np.diff(M.indptr))
    h = normalize_graph(g)
    assert np.array_equal(h.indptr, g.indptr) and np.array_equal(h.indices, g.indices)
    assert np.array_equal(h.data, M.data * (inv_sqrt[rows] * inv_sqrt[M.indices]))
    # S_ij <= d_i, d_j bounds each weight by 1, up to the rounding of the
    # square roots, their reciprocals and two products (a lone weight
    # of 6.4e-4 normalizes to 1 + 2^-52)
    assert np.all(np.isfinite(h.data)) and h.data.min(initial=0.0) >= 0
    assert h.data.max(initial=0.0) <= 1.0 + 4 * np.finfo(float).eps
