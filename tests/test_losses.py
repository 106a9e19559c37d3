"""Entropy loss, its diagonal weights, and the outlier-influence analysis."""

import math

import numpy as np
import pytest

from entnmf import (
    DataMatrix,
    FactorPair,
    InputError,
    NumericalError,
    influence_ratios,
    influence_upper_bound,
    residual_matrix,
)
from entnmf.losses import default_epsilon
from conftest import entropy_objective, entropy_weights, single_outlier_share

EPS = 1e-10


def residual_only(columns):
    """X and zero factors so the residual equals X itself."""
    X = DataMatrix(values=np.asarray(columns, dtype=float))
    F = FactorPair(U=np.zeros((X.d, 1)), V=np.zeros((X.n, 1)))
    return X, F


def test_default_epsilon_scales_with_data_magnitude():
    assert default_epsilon(np.array([[0.1, 0.2]])) == 1e-10
    big = np.array([[3000.0], [4000.0]])
    assert default_epsilon(big) == pytest.approx(1e-10 * 5000.0, rel=1e-15)


def test_entropy_weights_hand_values():
    # column norms 1 and 3, total 4: q = (ln 4, ln(4/3) / 3)
    w = entropy_weights(np.array([[1.0, 3.0]]), EPS)
    assert np.array_equal(w.norms, [1.0, 3.0])
    assert w.total == 4.0
    assert w.q[0] == pytest.approx(1.3862943611198906, abs=1e-12)
    assert w.q[1] == pytest.approx(0.09589402415059363, abs=1e-12)


def test_uniform_residue_gives_equal_weights():
    for n in (2, 3, 7, 16):
        for r in (0.25, 1.0, 8.0):
            M = np.tile([[0.6 * r], [0.8 * r]], (1, n))
            w = entropy_weights(M, EPS)
            assert np.max(np.abs(w.q - math.log(n) / r)) <= 1e-12 * max(1.0, math.log(n) / r)


def test_single_sample_carries_all_mass_and_gets_zero_weight():
    w = entropy_weights(np.array([[5.0]]), EPS)
    assert w.q[0] == 0.0


def test_norms_are_floored_at_epsilon_and_epsilon_must_be_positive():
    M = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert np.array_equal(entropy_weights(M, 0.5).norms, [5.0, 0.5])
    X, F = residual_only(M)
    expected = -(5.0 * math.log(5.0 / 5.5) + 0.5 * math.log(0.5 / 5.5))
    assert entropy_objective(X, F, 0.5) == pytest.approx(expected, rel=1e-15)
    for eps in (0.0, -1.0):
        with pytest.raises(InputError, match="epsilon must be positive"):
            entropy_weights(M, eps)
        with pytest.raises(InputError, match="epsilon must be positive"):
            entropy_objective(X, F, eps)


def test_entropy_objective_hand_value():
    # norms (1, 3): -(1 ln(1/4) + 3 ln(3/4)) = ln 4 + 3 ln(4/3)
    X, F = residual_only([[1.0, 3.0]])
    assert entropy_objective(X, F, EPS) == pytest.approx(2.249340578475233, abs=1e-12)


def test_entropy_objective_is_zero_when_one_sample_has_everything():
    X, F = residual_only([[5.0]])
    assert entropy_objective(X, F, EPS) == 0.0


def test_weights_are_tangent_to_the_objective(make_instance, trace_objective):
    # At the linearization point the weighted quadratic equals the entropy loss.
    for seed in range(100):
        X, F = make_instance(seed)
        w = entropy_weights(residual_matrix(X, F.U, F.V), EPS)
        surrogate = trace_objective(X, F, w)
        objective = entropy_objective(X, F, EPS)
        assert surrogate == pytest.approx(objective, rel=1e-10)


def test_objective_scales_linearly_and_shape_is_invariant(make_instance):
    for seed in range(20):
        X, F = make_instance(seed)
        base = entropy_objective(X, F, EPS)
        total = float(np.sum(np.maximum(
            np.linalg.norm(residual_matrix(X, F.U, F.V), axis=0), EPS)))
        for rho in (0.1, 2.0, 100.0):
            Xs = DataMatrix(values=rho * X.values)
            Fs = FactorPair(U=rho * F.U, V=F.V)
            scaled = entropy_objective(Xs, Fs, rho * EPS)
            assert scaled == pytest.approx(rho * base, rel=1e-10)
            # the entropy itself, objective / total residue, does not move
            assert scaled / (rho * total) == pytest.approx(base / total, rel=1e-10)


def test_influence_ratios_hand_values():
    # residual column norms (3, 4, 5), probed sample 2
    X, F = residual_only([[3.0, 4.0, 5.0]])
    report = influence_ratios(X, F, 2)
    assert report.phi_nmf == pytest.approx(0.5, abs=1e-12)
    assert report.phi_l21 == pytest.approx(5.0 / 12.0, abs=1e-12)
    assert report.phi_emmf == pytest.approx(0.33852396519918654, abs=1e-12)


def test_influence_shares_sum_to_one(make_instance):
    for seed in range(30):
        X, F = make_instance(seed)
        reports = [influence_ratios(X, F, i) for i in range(X.n)]
        for attr in ("phi_nmf", "phi_l21", "phi_emmf"):
            assert sum(getattr(r, attr) for r in reports) == pytest.approx(1.0, rel=1e-10)


def test_influence_ratios_rejects_bad_sample_index():
    X, F = residual_only([[3.0, 4.0]])
    with pytest.raises(InputError):
        influence_ratios(X, F, 2)
    with pytest.raises(InputError):
        influence_ratios(X, F, -1)


def test_influence_is_undefined_for_zero_residual():
    U = np.array([[1.0], [2.0]])
    V = np.array([[1.0], [3.0]])
    X = DataMatrix(values=U @ V.T)
    with pytest.raises(NumericalError):
        influence_ratios(X, FactorPair(U=U, V=V), 0)


def test_influence_is_undefined_for_a_single_sample():
    # one sample holds all residue, so the entropy denominator vanishes
    X, F = residual_only([[2.0]])
    with pytest.raises(NumericalError):
        influence_ratios(X, F, 0)


def test_single_outlier_share_hand_values():
    assert single_outlier_share(0.5, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert single_outlier_share(0.9, 10) == pytest.approx(0.17405198016514445, abs=1e-12)


def test_upper_bound_is_attained_on_the_grid():
    bound, argmax_p = influence_upper_bound(10, 0.01)
    assert 0.0 < bound <= 1.0
    assert bound == pytest.approx(single_outlier_share(argmax_p, 10), abs=1e-14)
    # argmax_p sits on the sweep grid
    assert argmax_p == pytest.approx(round(argmax_p / 0.01) * 0.01, abs=1e-12)


def test_upper_bound_shrinks_as_samples_are_added():
    bounds = [influence_upper_bound(n, 0.01)[0] for n in range(3, 31)]
    assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_upper_bound_validates_inputs():
    with pytest.raises(InputError):
        influence_upper_bound(1, 0.01)
    with pytest.raises(InputError):
        influence_upper_bound(10, 0.0)
    with pytest.raises(InputError):
        influence_upper_bound(10, 1.0)
    # a grid whose only point lies within 1e-12 of 1 has nothing to maximize
    with pytest.raises(InputError, match="no usable point"):
        influence_upper_bound(10, 0.9999999999999)
