"""Core types and the shared weighted multiplicative-update engine."""

import tracemalloc

import numpy as np
import pytest

from entnmf import (
    ConvergenceTrace,
    DataMatrix,
    FactorPair,
    InputError,
    NumericalError,
    ResidualWeights,
    column_norms,
    residual_matrix,
)
from entnmf.core import basis_step, coeff_step
from conftest import entropy_weights

EPS = 1e-10


class TestDataMatrix:
    def test_casts_to_float_and_exposes_shape(self):
        X = DataMatrix(values=[[1, 2, 3], [4, 5, 6]])
        assert X.values.dtype == float
        assert (X.d, X.n) == (2, 3)

    def test_rejects_negative_entries_and_names_the_offender(self):
        with pytest.raises(InputError, match=r"\(1,2\)"):
            DataMatrix(values=[[1.0, 2.0, 3.0], [4.0, 5.0, -7.0]])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InputError, match="non-finite"):
            DataMatrix(values=[[1.0, np.nan]])

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(InputError):
            DataMatrix(values=[1.0, 2.0])
        with pytest.raises(InputError):
            DataMatrix(values=np.empty((0, 3)))

    def test_labels_must_cover_every_sample(self):
        with pytest.raises(InputError, match="labels"):
            DataMatrix(values=[[1.0, 2.0, 3.0]], labels=[0, 1])

    def test_labels_cast_to_int(self):
        X = DataMatrix(values=[[1.0, 2.0]], labels=[0.0, 1.0])
        assert X.labels.dtype == int


class TestFactorPair:
    def test_rejects_mismatched_component_counts(self):
        with pytest.raises(InputError):
            FactorPair(U=np.ones((3, 2)), V=np.ones((4, 3)))

    def test_rejects_component_count_above_min_dimension(self):
        with pytest.raises(InputError):
            FactorPair(U=np.ones((2, 3)), V=np.ones((5, 3)))

    def test_rejects_negative_factors(self):
        with pytest.raises(InputError):
            FactorPair(U=np.array([[1.0], [-0.1]]), V=np.ones((3, 1)))

    def test_exposes_component_count(self):
        F = FactorPair(U=np.ones((4, 2)), V=np.ones((5, 2)))
        assert F.c == 2


class TestResidualWeights:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InputError):
            ResidualWeights(norms=np.ones(2), q=np.ones(2), epsilon=0.0)

    def test_rejects_norms_below_the_guard(self):
        with pytest.raises(InputError):
            ResidualWeights(norms=np.array([1.0, 1e-12]), q=np.ones(2), epsilon=1e-10)

    def test_total_is_the_sum_of_the_norms(self):
        norms = np.array([0.1, 0.2, 0.3])
        w = ResidualWeights(norms=norms, q=np.ones(3), epsilon=EPS)
        assert w.total == float(np.sum(norms)) and isinstance(w.total, float)

    def test_rejects_negative_weights(self):
        with pytest.raises(InputError):
            ResidualWeights(norms=np.ones(2), q=np.array([1.0, -1.0]), epsilon=EPS)


def test_convergence_trace_counts_the_values_after_the_first():
    assert ConvergenceTrace(objective=[3.0, 2.0, 1.0]).iterations == 2
    assert ConvergenceTrace(objective=[3.0]).iterations == 0


def test_column_norms_hand_value():
    M = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert np.array_equal(column_norms(M), [5.0, 0.0])


def test_residual_matrix_hand_value():
    X = DataMatrix(values=[[1.0, 2.0], [3.0, 4.0]])
    F = FactorPair(U=np.array([[1.0], [3.0]]), V=np.array([[1.0], [1.0]]))
    # U V^T = [[1, 1], [3, 3]]
    assert np.array_equal(residual_matrix(X, F.U, F.V), [[0.0, 1.0], [0.0, 1.0]])


def test_residual_matrix_rejects_mismatched_shapes():
    X = DataMatrix(values=np.ones((2, 3)))
    with pytest.raises(InputError):
        residual_matrix(X, np.ones((3, 1)), np.ones((3, 1)))


def test_single_entry_updates_solve_in_one_step(kernel, ones_weights):
    # x = 4, u = v = 1, q = 1: both rules scale by sqrt(4/1) = 2.
    X = DataMatrix(values=[[4.0]])
    F = FactorPair(U=np.array([[1.0]]), V=np.array([[1.0]]))
    w = ones_weights(residual_matrix(X, F.U, F.V))
    assert kernel(basis_step, X, F.U, F.V, w.q)[0, 0] == pytest.approx(2.0, abs=1e-9)
    assert kernel(coeff_step, X, F.U, F.V, w.q)[0, 0] == pytest.approx(2.0, abs=1e-9)


def test_updates_preserve_exact_zeros(kernel, make_instance, ones_weights):
    for seed in range(50):
        X, F = make_instance(seed)
        U = F.U.copy()
        V = F.V.copy()
        U[0, 0] = 0.0
        V[-1, -1] = 0.0
        F = FactorPair(U=U, V=V)
        w = ones_weights(residual_matrix(X, F.U, F.V))
        assert kernel(basis_step, X, F.U, F.V, w.q)[0, 0] == 0.0
        assert kernel(coeff_step, X, F.U, F.V, w.q)[-1, -1] == 0.0


def test_updates_stay_nonnegative_and_finite(kernel, make_instance):
    for seed in range(100):
        X, F = make_instance(seed)
        w = entropy_weights(residual_matrix(X, F.U, F.V), EPS)
        U = kernel(basis_step, X, F.U, F.V, w.q)
        assert np.all(U >= 0) and np.all(np.isfinite(U))
        V = kernel(coeff_step, X, U, F.V, w.q)
        assert np.all(V >= 0) and np.all(np.isfinite(V))


def test_exact_factorization_is_an_engine_fixed_point(kernel, make_instance, ones_weights):
    for seed in range(30):
        _, F = make_instance(seed)
        U = F.U + 0.5
        V = F.V + 0.5
        F = FactorPair(U=U, V=V)
        X = DataMatrix(values=U @ V.T)
        for w in (ones_weights(residual_matrix(X, F.U, F.V)),
                  entropy_weights(residual_matrix(X, F.U, F.V), EPS)):
            U1 = kernel(basis_step, X, F.U, F.V, w.q)
            V1 = kernel(coeff_step, X, F.U, F.V, w.q)
            assert np.max(np.abs(U1 - U)) <= 1e-12 * (1 + U.max())
            assert np.max(np.abs(V1 - V)) <= 1e-12 * (1 + V.max())


def test_engine_step_never_increases_the_weighted_objective(kernel, make_instance,
                                                            ones_weights, trace_objective):
    # For a fixed diagonal weight the paired sqrt rules descend the quadratic.
    for seed in range(60):
        X, F = make_instance(seed)
        M = residual_matrix(X, F.U, F.V)
        for w in (ones_weights(M), entropy_weights(M, EPS)):
            before = trace_objective(X, F, w)
            U = kernel(basis_step, X, F.U, F.V, w.q)
            G = FactorPair(U=U, V=kernel(coeff_step, X, U, F.V, w.q))
            after = trace_objective(X, G, w)
            assert after <= before + 1e-10 * max(1.0, abs(before))


def test_basis_step_allocates_nothing_of_the_data_size():
    # at the emmf_2k benchmark's size; weighting V, not X, needs only n x c
    # and smaller temporaries
    rng = np.random.default_rng(0)
    d, n, c = 100, 2000, 5
    X, U, V, Q = rng.random((d, n)), rng.random((d, c)), rng.random((n, c)), rng.random((n, c))
    tracemalloc.start()
    try:
        basis_step(X, U, V, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 4


def test_trace_objective_matches_hand_sum(ones_weights, trace_objective):
    X = DataMatrix(values=[[1.0, 2.0], [3.0, 4.0]])
    F = FactorPair(U=np.array([[1.0], [3.0]]), V=np.array([[1.0], [1.0]]))
    # residual columns (0, 0) and (1, 1): norms^2 are 0 and 2
    M = residual_matrix(X, F.U, F.V)
    w = ones_weights(M)
    assert trace_objective(X, F, w) == pytest.approx(2.0, abs=1e-12)
    weights = ResidualWeights(
        norms=w.norms, q=np.array([5.0, 0.5]), epsilon=w.epsilon
    )
    assert trace_objective(X, F, weights) == pytest.approx(1.0, abs=1e-12)


def test_non_finite_weights_raise_a_numerical_error(trace_objective):
    X = DataMatrix(values=[[1.0]])
    F = FactorPair(U=np.array([[1.0]]), V=np.array([[1.0]]))
    w = ResidualWeights(norms=np.ones(1), q=np.array([np.inf]), epsilon=EPS)
    with pytest.raises(InputError):
        trace_objective(X, F, w)


def test_numerical_error_carries_iteration_context():
    err = NumericalError("overflow", iteration=7, objective=[3.0, 2.0])
    assert err.iteration == 7
    assert err.objective == [3.0, 2.0]
