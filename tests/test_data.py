"""CSV ingestion, normalization, synthetic generators, and corruption injectors."""

import tracemalloc

import numpy as np
import pytest

from entnmf import (
    InputError,
    column_norms,
    inject_block_noise,
    inject_outlier_vectors,
    load_csv,
    synth_blobs,
    synth_outliers,
    synth_random,
    unit_normalize,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_rows_become_samples(self, tmp_path):
        X = load_csv(write(tmp_path, "1,2,3\n4,5,6\n"))
        # two samples with three features each, stored features-by-samples
        assert X.values.shape == (3, 2)
        assert np.array_equal(X.values[:, 0], [1.0, 2.0, 3.0])
        assert X.labels is None

    def test_header_row_is_skipped(self, tmp_path):
        X = load_csv(write(tmp_path, "f1,f2\n1,2\n3,4\n"))
        assert X.values.shape == (2, 2)

    def test_blank_lines_are_ignored(self, tmp_path):
        X = load_csv(write(tmp_path, "\n1,2\n\n3,4\n\n"))
        assert X.n == 2

    def test_label_column(self, tmp_path):
        X = load_csv(write(tmp_path, "1,2,0\n3,4,1\n"), has_labels=True)
        assert X.values.shape == (2, 2)
        assert np.array_equal(X.labels, [0, 1])

    def test_labelled_and_unlabelled_values_are_c_ordered(self, tmp_path):
        # the layout `DataMatrix` holds, built directly, so it copies neither
        text = "1,2,3,0\n4,5,6,1\n7,8,9,1\n"
        labelled = load_csv(write(tmp_path, text), has_labels=True)
        unlabelled = load_csv(write(tmp_path, text, "plain.csv"))
        assert labelled.values.flags.c_contiguous and unlabelled.values.flags.c_contiguous
        assert np.array_equal(labelled.values, unlabelled.values[:-1])

    def test_ragged_row_names_its_line(self, tmp_path):
        path = write(tmp_path, "1,2\n3\n")
        with pytest.raises(InputError, match="line 2"):
            load_csv(path)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write(tmp_path, "1,2\n3,oops\n")
        with pytest.raises(InputError, match="line 2, column 2"):
            load_csv(path)

    def test_line_numbers_account_for_header_and_blanks(self, tmp_path):
        path = write(tmp_path, "a,b\n\n1,2\n3,x\n")
        with pytest.raises(InputError, match="line 4"):
            load_csv(path)

    def test_negative_value_is_rejected_with_location(self, tmp_path):
        path = write(tmp_path, "1,2\n3,-4\n")
        with pytest.raises(InputError, match="line 2, column 2"):
            load_csv(path)

    def test_byte_order_mark_is_not_part_of_the_first_row(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM; it must not turn
        # the first data row into a header
        X = load_csv(write(tmp_path, "\ufeff1,2\n3,4\n5,6\n"))
        assert X.values.shape == (2, 3)
        assert np.array_equal(X.values[:, 0], [1.0, 2.0])

    @pytest.mark.parametrize("text, has_labels, where", [
        ("f1,f2\n1,2\n3,nan\n", False, "line 3, column 2: non-finite value nan"),
        ("1,2\n3,4\ninf,5\n", False, "line 3, column 1: non-finite value inf"),
        ("1,-inf\n", False, "line 1, column 2: non-finite value -inf"),
        ("1,1e400\n", False, "line 1, column 2: non-finite value inf"),
        ("1,2,0\n3,4,inf\n", True, "line 2, column 3: non-finite value inf"),  # a label
    ])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, text, has_labels, where):
        with pytest.raises(InputError, match=r"data\.csv: " + where):
            load_csv(write(tmp_path, text), has_labels=has_labels)

    def test_fractional_label_is_rejected(self, tmp_path):
        path = write(tmp_path, "1,2,0.5\n")
        with pytest.raises(InputError, match="not an integer"):
            load_csv(path, has_labels=True)

    def test_empty_file_is_rejected(self, tmp_path):
        with pytest.raises(InputError, match="no data rows"):
            load_csv(write(tmp_path, "\n\n"))

    def test_labels_need_a_feature_column(self, tmp_path):
        with pytest.raises(InputError):
            load_csv(write(tmp_path, "1\n2\n"), has_labels=True)

    def test_missing_file_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError):
            load_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("text, where", [
        ("1,nan\n3\n", "line 2 has 1 cells"),  # a ragged row before a non-finite cell
        ("-1,2\n3,x\n", "line 2, column 2: not a number"),  # ... a non-numeric one, a negative
        ("1,-2\n3,inf\n", "line 2, column 2: non-finite"),  # a non-finite cell, a negative
    ])
    def test_defects_are_reported_in_their_order(self, tmp_path, text, where):
        # ragged and non-numeric cells as their rows are read, then the
        # non-finite, label and negative checks on the parsed values
        with pytest.raises(InputError, match=where):
            load_csv(write(tmp_path, text))

    def test_peak_memory_stays_below_three_times_the_data(self, tmp_path):
        # each row is parsed to float64 as it is read; holding every cell as
        # a string until the end peaked at about 10.8 times the data
        rng = np.random.default_rng(0)
        values = rng.random((2000, 51))
        values[:, -1] = rng.integers(0, 3, len(values))
        path = tmp_path / "large.csv"
        np.savetxt(path, values, delimiter=",", fmt="%.17g")
        tracemalloc.start()
        try:
            X = load_csv(path, has_labels=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * values.nbytes
        assert np.array_equal(X.values, values[:, :-1].T)
        assert np.array_equal(X.labels, values[:, -1])


class TestUnitNormalize:
    def test_hand_value(self):
        from entnmf import DataMatrix

        X = unit_normalize(DataMatrix(values=[[3.0], [4.0]], labels=[1]))
        assert np.allclose(X.values[:, 0], [0.6, 0.8], atol=1e-15)
        assert np.array_equal(X.labels, [1])

    def test_every_column_lands_on_the_unit_sphere(self):
        X = unit_normalize(synth_random(6, 20, seed=1))
        assert np.allclose(column_norms(X.values), 1.0, atol=1e-12)

    def test_zero_sample_is_rejected_by_index(self):
        from entnmf import DataMatrix

        with pytest.raises(InputError, match="sample 1"):
            unit_normalize(DataMatrix(values=[[1.0, 0.0], [1.0, 0.0]]))


class TestSynthOutliers:
    def test_shape_labels_and_name(self):
        X = synth_outliers(seed=0)
        assert X.values.shape == (2, 13)
        assert np.array_equal(X.labels, [0] * 10 + [1] * 3)
        assert X.values.min() >= 0

    def test_outliers_sit_far_from_the_inlier_cloud(self):
        for seed in range(1000):
            X = synth_outliers(seed=seed)
            inliers = X.values[:, :10]
            mean = inliers.mean(axis=1, keepdims=True)
            spread = np.max(np.linalg.norm(inliers - mean, axis=0))
            gaps = np.linalg.norm(X.values[:, 10:] - mean, axis=0)
            assert np.all(gaps >= 10.0 * spread)

    def test_deterministic_per_seed(self):
        assert np.array_equal(synth_outliers(3).values, synth_outliers(3).values)


class TestSynthBlobs:
    def test_shape_and_labels(self):
        X = synth_blobs(3, 5, 4, 10.0, seed=0)
        assert X.values.shape == (4, 15)
        assert np.array_equal(X.labels, np.repeat([0, 1, 2], 5))
        assert X.values.min() >= 0

    def test_clusters_are_separated(self):
        X = synth_blobs(2, 20, 3, 12.0, seed=2)
        a = X.values[:, :20].mean(axis=1)
        b = X.values[:, 20:].mean(axis=1)
        assert np.linalg.norm(a - b) > 6.0

    def test_validation(self):
        with pytest.raises(InputError):
            synth_blobs(2, 5, 3, 0.0)
        with pytest.raises(InputError):
            synth_blobs(0, 5, 3, 1.0)


class TestSynthRandom:
    def test_shape_range_and_no_labels(self):
        X = synth_random(4, 7, seed=5)
        assert X.values.shape == (4, 7)
        assert X.labels is None
        assert X.values.min() >= 0 and X.values.max() < 1.0

    def test_validation(self):
        with pytest.raises(InputError):
            synth_random(0, 5)


class TestInjectOutlierVectors:
    def test_appends_marked_columns(self):
        X = synth_blobs(2, 4, 3, 8.0, seed=0)
        Y, mask = inject_outlier_vectors(X, 3, seed=9)
        assert Y.values.shape == (3, 11)
        assert np.array_equal(mask, [False] * 8 + [True] * 3)
        assert np.array_equal(Y.labels, list(X.labels) + [-1, -1, -1])

    def test_original_columns_are_untouched(self):
        X = synth_blobs(2, 4, 3, 8.0, seed=0)
        Y, _ = inject_outlier_vectors(X, 2, seed=1)
        assert np.array_equal(Y.values[:, :8], X.values)

    def test_injected_entries_cover_a_wider_range(self):
        X = synth_random(5, 10, seed=0)
        Y, mask = inject_outlier_vectors(X, 4, seed=2)
        new = Y.values[:, mask]
        assert new.min() >= 0.0
        assert new.max() <= 10.0 * X.values.max()
        assert new.max() > X.values.max()  # the point of the exercise

    def test_zero_count_is_an_identity_with_a_fresh_copy(self):
        X = synth_random(3, 5, seed=0)
        Y, mask = inject_outlier_vectors(X, 0)
        assert not mask.any()
        assert np.array_equal(Y.values, X.values)
        assert Y.values is not X.values

    def test_negative_count_is_rejected(self):
        with pytest.raises(InputError):
            inject_outlier_vectors(synth_random(3, 5), -1)

    def test_deterministic_per_seed(self):
        X = synth_random(3, 5, seed=0)
        A, _ = inject_outlier_vectors(X, 2, seed=7)
        B, _ = inject_outlier_vectors(X, 2, seed=7)
        assert np.array_equal(A.values, B.values)


class TestInjectBlockNoise:
    def test_corrupts_a_contiguous_run_per_chosen_sample(self):
        X = synth_blobs(2, 10, 30, 9.0, seed=1)
        Y, mask = inject_block_noise(X, 4, 2, seed=3)
        assert mask.sum() == 4  # 2 samples from each of 2 classes
        for col in np.flatnonzero(mask):
            changed = np.flatnonzero(Y.values[:, col] != X.values[:, col])
            assert changed.size > 0
            # touched features form one run of at most block_side^2 entries
            assert changed[-1] - changed[0] + 1 <= 16
        assert Y.values[:, ~mask] == pytest.approx(X.values[:, ~mask], abs=0)

    def test_noise_respects_the_data_range(self):
        X = synth_blobs(2, 8, 20, 9.0, seed=0)
        Y, mask = inject_block_noise(X, 3, 3, seed=5)
        assert mask.any()
        assert Y.values.min() >= 0
        assert Y.values.max() <= X.values.max()

    def test_each_class_contributes_the_requested_count(self):
        X = synth_blobs(3, 6, 16, 9.0, seed=2)
        _, mask = inject_block_noise(X, 2, 2, seed=1)
        for cls in (0, 1, 2):
            assert mask[X.labels == cls].sum() == 2

    def test_zero_side_is_an_identity(self):
        X = synth_blobs(2, 4, 9, 9.0, seed=0)
        Y, mask = inject_block_noise(X, 0, 2, seed=0)
        assert not mask.any()
        assert np.array_equal(Y.values, X.values)

    def test_rejects_blocks_larger_than_the_feature_count(self):
        X = synth_blobs(2, 4, 8, 9.0, seed=0)
        with pytest.raises(InputError, match="needs 9 features"):
            inject_block_noise(X, 3, 1)

    def test_rejects_unlabeled_data_and_small_classes(self):
        with pytest.raises(InputError):
            inject_block_noise(synth_random(9, 5), 2, 1)
        X = synth_blobs(2, 2, 9, 9.0, seed=0)
        with pytest.raises(InputError, match="class 0"):
            inject_block_noise(X, 2, 3)

    def test_rejects_a_negative_sample_count_at_any_side(self):
        X = synth_blobs(2, 4, 9, 9.0, seed=0)
        for side in (0, 2):
            with pytest.raises(InputError, match="samples_per_class must be >= 0"):
                inject_block_noise(X, side, -2)
