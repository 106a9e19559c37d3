"""Clustering quality measures: label-matched accuracy and normalized mutual
information, plus a small aggregate for repeated runs.

Accuracy matches predicted clusters to true classes one-to-one so that the
total overlap is largest. The match is an exact linear assignment on the
contingency table, solved by shortest augmenting paths with row and column
potentials (the Hungarian method of Kuhn and Munkres in the form of Jonker
and Volgenant), O(k^3) for k labels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class MetricSummary:
    acc_mean: float
    acc_std: float
    nmi_mean: float
    nmi_std: float
    runs: int


def _as_labels(a, name):
    arr = np.asarray(a)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a non-empty 1-D label array, got shape {arr.shape}")
    return arr


def _contingency(pred, truth):
    """Validate the label arrays; return the sorted predicted ids, the sorted
    true ids, and the count of samples in each (predicted, true) pair."""
    pred = _as_labels(pred, "pred")
    truth = _as_labels(truth, "truth")
    if pred.size != truth.size:
        raise InputError(f"label arrays differ in length: {pred.size} vs {truth.size}")
    pred_ids, pred_idx = np.unique(pred, return_inverse=True)
    truth_ids, truth_idx = np.unique(truth, return_inverse=True)
    table = np.zeros((pred_ids.size, truth_ids.size), dtype=np.int64)
    np.add.at(table, (pred_idx, truth_idx), 1)
    return pred_ids, truth_ids, table


def _assignment(cost: list) -> list:
    """Column of each row in a minimum-cost perfect matching of the square
    integer matrix cost, given as a list of rows.

    Rows join the matching one at a time, each along a shortest augmenting
    path in the reduced costs cost[i][j] - u[i] - v[j], which the row and
    column potentials u, v keep nonnegative (Jonker and Volgenant's form of
    the Hungarian method). Integer costs keep every sum exact. O(k^3)."""
    k = len(cost)
    u, v = [0] * k, [0] * k
    col_of, row_of, path = [-1] * k, [-1] * k, [0] * k
    for start in range(k):
        dist = [math.inf] * k  # shortest reduced path length to each column
        todo = list(range(k))  # columns whose shortest path is not yet final
        rows, cols = [start], []  # the rows and columns the search reached
        i, low = start, 0
        while True:
            cost_i, u_i = cost[i], u[i]
            best, nearest = math.inf, 0
            for pos, j in enumerate(todo):
                r = low + cost_i[j] - u_i - v[j]
                if r < dist[j]:
                    dist[j], path[j] = r, i
                # among equally near columns a free one ends the path soonest
                if dist[j] < best or (dist[j] == best and row_of[j] < 0):
                    best, nearest = dist[j], pos
            low = best
            j = todo.pop(nearest)
            cols.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
            rows.append(i)
        u[start] += low
        for r in rows[1:]:
            u[r] += low - dist[col_of[r]]
        for c in cols:
            v[c] -= low - dist[c]
        while True:  # flip the matching along the path back to the start row
            i = path[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of


def _match(pred, truth):
    """The sorted ids of pred and truth, their contingency table, and the
    (rows, cols) cells of the table that a best one-to-one match pairs."""
    pred_ids, truth_ids, table = _contingency(pred, truth)
    size = max(pred_ids.size, truth_ids.size)
    cost = np.zeros((size, size), dtype=np.int64)
    cost[: pred_ids.size, : truth_ids.size] = -table
    cols = np.array(_assignment(cost.tolist())[: pred_ids.size])
    rows = np.flatnonzero(cols < truth_ids.size)  # rows matched to a real column
    return pred_ids, truth_ids, table, rows, cols[rows]


def hungarian_match(pred, truth):
    """Best one-to-one map from predicted cluster ids to true labels.

    Maximizes total overlap; the cost matrix is zero-padded to square so the
    label sets may differ in size. When several maps reach the largest
    overlap, any one of them may be returned. Returns {pred id: truth
    label}."""
    pred_ids, truth_ids, _, rows, cols = _match(pred, truth)
    return {pred_ids[r]: truth_ids[c] for r, c in zip(rows, cols)}


def accuracy(pred, truth) -> float:
    """Fraction of samples whose matched predicted label equals the truth."""
    _, _, table, rows, cols = _match(pred, truth)
    return float(table[rows, cols].sum() / table.sum())


def nmi(pred, truth) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Natural logarithms throughout. If both partitions are single-cluster the
    score is 1.0 (they agree trivially); if exactly one is single-cluster the
    score is 0.0. The result is clipped to [0, 1] to absorb rounding."""
    table = _contingency(pred, truth)[2]
    joint = table / table.sum()
    p_pred = joint.sum(axis=1)
    p_truth = joint.sum(axis=0)
    h_pred = float(-np.sum(p_pred * np.log(p_pred, where=p_pred > 0, out=np.zeros_like(p_pred))))
    h_truth = float(-np.sum(p_truth * np.log(p_truth, where=p_truth > 0, out=np.zeros_like(p_truth))))
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    outer = np.outer(p_pred, p_truth)
    mask = joint > 0
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    return float(np.clip(mi / np.sqrt(h_pred * h_truth), 0.0, 1.0))


def summarize(acc_values, nmi_values) -> MetricSummary:
    """Means and population standard deviations over repeated runs."""
    acc_values = np.asarray(acc_values, dtype=float)
    nmi_values = np.asarray(nmi_values, dtype=float)
    if acc_values.size == 0 or acc_values.size != nmi_values.size:
        raise InputError("need equal, nonzero counts of accuracy and NMI values")
    return MetricSummary(
        acc_mean=float(acc_values.mean()),
        acc_std=float(acc_values.std()),
        nmi_mean=float(nmi_values.mean()),
        nmi_std=float(nmi_values.std()),
        runs=int(acc_values.size),
    )
