"""Tests for LibSVM-format IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    SyntheticSpec,
    load_libsvm,
    make_sparse_classification,
    save_libsvm,
)
from repro.errors import DataError


class TestParsing:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:0.5 3:2.0\n0 2:1.5\n")
        data = load_libsvm(path)
        assert data.n_instances == 2
        assert data.n_features == 3  # 1-based max index 3 -> 0-based cols 0..2
        np.testing.assert_array_equal(data.y, [1.0, 0.0])
        idx, val = data.X.row(0)
        assert idx.tolist() == [0, 2]
        np.testing.assert_allclose(val, [0.5, 2.0])

    def test_zero_based(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 0:0.5\n")
        data = load_libsvm(path, one_based=False)
        assert data.n_features == 1

    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header\n\n1 1:1.0\n")
        data = load_libsvm(path)
        assert data.n_instances == 1

    def test_trailing_comment_token(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:1.0 # trailing\n")
        data = load_libsvm(path)
        assert data.X.nnz == 1

    def test_explicit_n_features(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:1.0\n")
        data = load_libsvm(path, n_features=10)
        assert data.n_features == 10

    def test_index_beyond_n_features(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 11:1.0\n")
        with pytest.raises(DataError, match="beyond"):
            load_libsvm(path, n_features=5)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("spam 1:1.0\n")
        with pytest.raises(DataError, match="bad label"):
            load_libsvm(path)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1-1.0\n")
        with pytest.raises(DataError, match="bad feature token"):
            load_libsvm(path)

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:1.0 1:2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_libsvm(path)

    def test_negative_index(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 0:1.0\n")
        with pytest.raises(DataError, match="below range"):
            load_libsvm(path)  # one_based: 0 becomes -1

    @pytest.mark.parametrize("index", ["2147483649", "99999999999999999999"])
    def test_index_past_int32_names_the_line(self, tmp_path, index):
        # Used to escape as a raw OverflowError from np.asarray, after
        # the whole file had been parsed.
        path = tmp_path / "data.txt"
        path.write_text(f"1 1:1.0\n0 {index}:1.0\n")
        with pytest.raises(DataError, match="line 2: .* does not fit int32"):
            load_libsvm(path)

    def test_largest_int32_index_loads(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 2147483647:1.0\n")
        data = load_libsvm(path, one_based=False)
        assert data.X.row(0)[0].tolist() == [2**31 - 1]
        assert data.n_features == 2**31

    @pytest.mark.parametrize("label", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_label_names_the_line(self, tmp_path, label):
        path = tmp_path / "data.txt"
        path.write_text(f"1 1:1.0\n\n{label} 2:1.0\n")
        with pytest.raises(DataError, match="line 3: label .* not finite"):
            load_libsvm(path)

    def test_unsorted_indices_accepted(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 5:5.0 2:2.0\n")
        data = load_libsvm(path)
        idx, val = data.X.row(0)
        assert idx.tolist() == [1, 4]
        np.testing.assert_allclose(val, [2.0, 5.0])


class TestRoundTrip:
    def test_synthetic_roundtrip(self, tmp_path):
        spec = SyntheticSpec(n_instances=50, n_features=30, avg_nnz=5)
        data = make_sparse_classification(spec, seed=0)
        path = tmp_path / "round.txt"
        save_libsvm(data, path)
        loaded = load_libsvm(path, n_features=30)
        np.testing.assert_array_equal(loaded.y, data.y)
        np.testing.assert_array_equal(loaded.X.indices, data.X.indices)
        np.testing.assert_allclose(loaded.X.data, data.X.data, rtol=1e-5)

    def test_zero_based_roundtrip(self, tmp_path):
        spec = SyntheticSpec(n_instances=20, n_features=10, avg_nnz=3)
        data = make_sparse_classification(spec, seed=1)
        path = tmp_path / "round0.txt"
        save_libsvm(data, path, one_based=False)
        loaded = load_libsvm(path, n_features=10, one_based=False)
        np.testing.assert_array_equal(loaded.X.indices, data.X.indices)

    def test_regression_labels_preserved(self, tmp_path):
        from repro.datasets import make_sparse_regression

        spec = SyntheticSpec(n_instances=20, n_features=10, avg_nnz=3)
        data = make_sparse_regression(spec, seed=2)
        path = tmp_path / "reg.txt"
        save_libsvm(data, path)
        loaded = load_libsvm(path, n_features=10)
        np.testing.assert_allclose(loaded.y, data.y, rtol=1e-4)
