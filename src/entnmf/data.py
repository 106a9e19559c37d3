"""Dataset ingestion, normalization, synthetic generators, and corruption
injectors.

CSV files are samples-as-rows on disk and transposed to features-by-samples
in memory. All generators are deterministic under a fixed seed and emit
nonnegative matrices. Injectors return a fresh matrix plus a boolean mask
that is True exactly on the columns they added or overwrote; untouched
columns are byte-identical to the input.
"""

from __future__ import annotations

import array
import csv
import os

import numpy as np

from .core import DataMatrix, column_norms
from .errors import InputError


def load_csv(path: str | os.PathLike, has_labels: bool = False) -> DataMatrix:
    """Read a rectangular numeric CSV; optional integer label column last.

    A non-numeric first row is treated as a header and skipped; a leading
    byte order mark (Excel's "CSV UTF-8") is dropped. Each row is parsed to
    float64 as it is read, so no cell is held as a string. Ragged rows and
    non-numeric cells raise as their row is read, then non-finite cells,
    fractional labels and negative cells, each with its 1-based line number.
    """
    cells = array.array("d")  # the values of every data row, row after row
    lines = array.array("q")  # the line number of each data row
    width = None
    header = True  # whether a non-numeric row would be the header
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for lineno, record in enumerate(csv.reader(fh), start=1):
                if not record or all(cell.strip() == "" for cell in record):
                    continue
                if width is not None and len(record) != width:
                    raise InputError(
                        f"{path}: line {lineno} has {len(record)} cells, expected {width}"
                    )
                try:
                    row = [float(cell) for cell in record]
                except ValueError:
                    if header:
                        header = False
                        continue
                    for c, cell in enumerate(record):
                        try:
                            float(cell)
                        except ValueError:
                            raise InputError(f"{path}: line {lineno}, column {c + 1}: "
                                             f"not a number: {cell.strip()!r}") from None
                header = False
                if width is None:
                    width = len(record)
                    if has_labels and width < 2:
                        raise InputError(
                            f"{path}: need at least one feature column besides the labels"
                        )
                cells.extend(row)
                lines.append(lineno)
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from None
    if width is None:
        raise InputError(f"{path}: no data rows")

    parsed = np.frombuffer(cells).reshape(-1, width)
    bad = np.argwhere(~np.isfinite(parsed))
    if bad.size:
        r, c = bad[0]
        raise InputError(
            f"{path}: line {lines[r]}, column {c + 1}: non-finite value {parsed[r, c]}"
        )

    labels = None
    if has_labels:
        raw = parsed[:, -1]
        if not np.all(raw == np.round(raw)):
            bad = int(np.argmax(raw != np.round(raw)))
            raise InputError(
                f"{path}: line {lines[bad]}: label {raw[bad]!r} is not an integer"
            )
        labels = raw.astype(int)
        parsed = parsed[:, :-1]
    neg = np.argwhere(parsed < 0)
    if neg.size:
        r, c = neg[0]
        raise InputError(
            f"{path}: line {lines[r]}, column {c + 1}: negative value {parsed[r, c]}"
        )
    # samples-as-rows on disk, features-by-samples in memory
    return DataMatrix(values=parsed.T.copy(), labels=labels)


def unit_normalize(X: DataMatrix) -> DataMatrix:
    """Scale every sample to unit Euclidean length."""
    norms = column_norms(X.values)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise InputError(f"sample {int(zero[0])} is all zeros, cannot normalize")
    return DataMatrix(values=X.values / norms[None, :], labels=X.labels)


def synth_outliers(seed: int = 0) -> DataMatrix:
    """13 two-dimensional samples: 10 tight inliers and 3 far outliers.

    Inliers are a Gaussian cluster near (5, 5). Outliers sit in the positive
    quadrant at angles well off the cluster's direction from the origin, at
    least 10x the largest inlier distance away from the inlier mean, so a
    rank-1 fit cannot serve both groups. Labels: 0 inlier, 1 outlier.
    """
    rng = np.random.default_rng(seed)
    inliers = np.maximum(rng.normal(5.0, 0.5, size=(2, 10)), 0.0)
    mean = inliers.mean(axis=1)
    max_dist = float(np.max(np.linalg.norm(inliers - mean[:, None], axis=0)))

    # Alternate between near-horizontal and near-vertical directions, both at
    # least 25 degrees away from the cluster ray (about 45 degrees).
    angles = np.deg2rad(np.array([12.0, 78.0, 8.0]) + rng.uniform(-4.0, 4.0, size=3))
    # Every outlier sits r - |mean| >= 10.5 max_dist from the mean: r >= 12 max_dist
    # covers |mean| <= 1.5 max_dist, and r >= 8 |mean| leaves 7 |mean| beyond that.
    radius = max(12.0 * max_dist, 8.0 * float(np.linalg.norm(mean)))
    outliers = radius * np.vstack([np.cos(angles), np.sin(angles)])
    values = np.hstack([inliers, outliers])
    labels = np.array([0] * 10 + [1] * 3)
    return DataMatrix(values=values, labels=labels)


def synth_blobs(c: int, per_cluster: int, d: int, separation: float, seed: int = 0) -> DataMatrix:
    """c unit-spread Gaussian clusters with centers `separation` apart.

    Centers are placed on axis-aligned lattice points in the positive
    quadrant; negative draws are clipped to zero. Labeled 0..c-1."""
    if separation <= 0:
        raise InputError(f"separation must be positive, got {separation}")
    if c < 1 or per_cluster < 1 or d < 1:
        raise InputError("c, per_cluster, and d must all be >= 1")
    rng = np.random.default_rng(seed)
    blocks = []
    for j in range(c):
        center = np.full(d, 2.0)
        center[j % d] += separation * (1 + j // d)
        blocks.append(center[:, None] + rng.normal(size=(d, per_cluster)))
    values = np.maximum(np.hstack(blocks), 0.0)
    labels = np.repeat(np.arange(c), per_cluster)
    return DataMatrix(values=values, labels=labels)


def synth_random(d: int, n: int, seed: int = 0) -> DataMatrix:
    """Uniform [0, 1) matrix, unlabeled."""
    if d < 1 or n < 1:
        raise InputError("d and n must be >= 1")
    rng = np.random.default_rng(seed)
    return DataMatrix(values=rng.random((d, n)))


def inject_outlier_vectors(X: DataMatrix, count: int, seed: int = 0):
    """Append `count` columns with entries i.i.d. uniform[0, 10 max(X)].

    Returns (augmented matrix, mask) where the mask is True on the appended
    columns. Appended samples get label -1 when X is labeled; downstream
    metrics should score original samples only."""
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    high = 10.0 * float(X.values.max())
    extra = rng.uniform(0.0, high, size=(X.d, count))
    values = np.hstack([X.values, extra])
    labels = None
    if X.labels is not None:
        labels = np.concatenate([X.labels, np.full(count, -1, dtype=int)])
    mask = np.concatenate([np.zeros(X.n, dtype=bool), np.ones(count, dtype=bool)])
    return DataMatrix(values=values, labels=labels), mask


def check_block_noise(X: DataMatrix, block_side: int, samples_per_class: int) -> list:
    """Raise InputError unless `inject_block_noise` can corrupt X with these
    arguments, and so with any smaller block_side. Returns the classes to
    corrupt, ascending: none when block_side or samples_per_class is 0."""
    if X.labels is None:
        raise InputError("block noise requires labeled data")
    if block_side < 0:
        raise InputError(f"block_side must be >= 0, got {block_side}")
    run = block_side * block_side
    if run > X.d:
        raise InputError(f"block of side {block_side} needs {run} features, data has {X.d}")
    if samples_per_class < 0:
        raise InputError(f"samples_per_class must be >= 0, got {samples_per_class}")
    if block_side == 0 or samples_per_class == 0:
        return []
    # np.unique would import numpy.ma here
    classes = sorted(set(X.labels.tolist()))
    for cls in classes:
        size = int(np.sum(X.labels == cls))
        if size < samples_per_class:
            raise InputError(f"class {cls} has {size} samples, need {samples_per_class}")
    return classes


def inject_block_noise(X: DataMatrix, block_side: int, samples_per_class: int, seed: int = 0):
    """Overwrite a contiguous feature run on chosen samples with uniform noise.

    A square block of side k becomes a run of k*k consecutive features filled
    with uniform[0, max(X)]. From every class exactly `samples_per_class`
    samples are picked without replacement. Returns (corrupted matrix, mask)
    with the mask True on corrupted columns."""
    classes = check_block_noise(X, block_side, samples_per_class)
    run = block_side * block_side
    mask = np.zeros(X.n, dtype=bool)
    values = X.values.copy()
    rng = np.random.default_rng(seed)
    high = float(X.values.max())
    for cls in classes:
        members = np.flatnonzero(X.labels == cls)
        chosen = rng.choice(members, size=samples_per_class, replace=False)
        for col in chosen:
            start = int(rng.integers(0, X.d - run + 1))
            values[start : start + run, col] = rng.uniform(0.0, high, size=run)
            mask[col] = True
    return DataMatrix(values=values, labels=X.labels), mask
