"""Label-matched accuracy, normalized mutual information, and run summaries."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from entnmf import InputError, accuracy, nmi, summarize
from entnmf.metrics import _match


def best_match(pred, truth):
    """{predicted id: true label} of the best one-to-one match that
    `accuracy` scores, rebuilt from the matched cells of `_match`."""
    pred_ids, truth_ids, _, rows, cols = _match(pred, truth)
    return {pred_ids[r]: truth_ids[c] for r, c in zip(rows, cols)}


def brute_force_accuracy(pred, truth, k):
    """Best fraction of agreement over all one-to-one relabelings of 0..k-1."""
    best = 0.0
    for perm in itertools.permutations(range(k)):
        table = np.asarray(perm)
        best = max(best, float(np.mean(table[pred] == truth)))
    return best


def test_accuracy_hand_value():
    # best map sends 0->0 and 1->1: samples 0, 2, 3 agree
    assert accuracy([0, 1, 1, 1], [0, 0, 1, 1]) == 0.75


def test_accuracy_is_invariant_to_label_names():
    truth = [0, 0, 1, 1, 2, 2]
    relabeled = [5, 5, 3, 3, 9, 9]
    assert accuracy(relabeled, truth) == 1.0


def test_hungarian_match_hand_case():
    mapping = best_match([0, 0, 1, 1, 1], [7, 7, 9, 9, 7])
    assert mapping == {0: 7, 1: 9}


def test_hungarian_handles_more_clusters_than_labels():
    # three predicted clusters compete for two true labels; one goes unmatched
    pred = [0, 0, 1, 1, 2, 2]
    truth = [0, 0, 1, 1, 1, 1]
    mapping = best_match(pred, truth)
    assert len(mapping) == 2
    assert mapping[0] == 0
    assert accuracy(pred, truth) == pytest.approx(4.0 / 6.0)


def test_hungarian_equals_exhaustive_search_on_small_problems():
    rng = np.random.default_rng(11)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 25))
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        assert accuracy(pred, truth) == pytest.approx(brute_force_accuracy(pred, truth, k))


def random_table(rng):
    """A contingency table with 1-12 labels on each side, no empty row or
    column, and often many ties: 0/1 or small counts, repeated rows."""
    p, m = (int(x) for x in rng.integers(1, 13, 2))
    table = rng.integers(0, int(rng.choice([2, 3, 5, 50])), (p, m))
    if rng.random() < 0.5:
        table[rng.integers(0, p, max(1, p // 2))] = table[0]
    for i in np.flatnonzero(table.sum(axis=1) == 0):
        table[i, i % m] = 1
    for j in np.flatnonzero(table.sum(axis=0) == 0):
        table[j % p, j] = 1
    return table


def labels_of(table, pred_ids, truth_ids, rng):
    """Shuffled label arrays whose contingency table is `table`."""
    cells = np.repeat(np.arange(table.size), table.ravel())
    rng.shuffle(cells)
    rows, cols = np.divmod(cells, table.shape[1])
    return pred_ids[rows], truth_ids[cols]


def test_hungarian_reaches_the_optimal_overlap_of_a_reference_solver():
    rng = np.random.default_rng(20)
    for _ in range(600):
        table = random_table(rng)
        p, m = table.shape
        pred_ids = np.sort(rng.choice(1000, p, replace=False)) - 500
        truth_ids = np.sort(rng.choice(1000, m, replace=False))
        pred, truth = labels_of(table, pred_ids, truth_ids, rng)
        mapping = best_match(pred, truth)
        assert set(mapping) <= set(pred_ids.tolist())
        assert set(mapping.values()) <= set(truth_ids.tolist())
        assert len(set(mapping.values())) == len(mapping) == min(p, m)
        overlap = sum(int(table[np.searchsorted(pred_ids, a), np.searchsorted(truth_ids, b)])
                      for a, b in mapping.items())
        rows, cols = linear_sum_assignment(table, maximize=True)
        assert overlap == int(table[rows, cols].sum())


def test_accuracy_equals_the_per_sample_formula_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 200))
        pred = rng.integers(0, int(rng.integers(1, 9)), n) * 3  # often more clusters than labels
        truth = rng.integers(0, int(rng.integers(1, 6)), n) - 2
        mapping = best_match(pred, truth)
        expected = float(np.array([mapping.get(p, None) == t for p, t in zip(pred, truth)]).mean())
        assert accuracy(pred, truth) == expected


def test_nmi_hand_value():
    assert nmi([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.3455920299442113, abs=1e-12)


def test_nmi_perfect_agreement_is_one():
    assert nmi([4, 4, 2, 2], [0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-12)


def test_nmi_single_cluster_conventions():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0  # trivially identical partitions
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0  # one side carries no information
    assert nmi([0, 1, 2], [5, 5, 5]) == 0.0


def test_nmi_is_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 3, n)
        v = nmi(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(nmi(b, a), abs=1e-12)


def test_metric_input_validation():
    with pytest.raises(InputError):
        accuracy([0, 1], [0, 1, 1])
    with pytest.raises(InputError):
        nmi([], [])
    with pytest.raises(InputError):
        best_match(np.zeros((2, 2)), np.zeros(4))


def test_summarize_hand_values():
    s = summarize([0.0, 1.0], [0.5, 0.5])
    assert s.acc_mean == 0.5
    assert s.acc_std == 0.5  # population deviation
    assert s.nmi_mean == 0.5
    assert s.nmi_std == 0.0
    assert s.runs == 2


def test_summarize_validation():
    with pytest.raises(InputError):
        summarize([], [])
    with pytest.raises(InputError):
        summarize([1.0], [1.0, 0.5])
