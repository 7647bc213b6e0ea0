"""Tests for LibSVM-format IO."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import (
    SyntheticSpec,
    load_libsvm,
    make_sparse_classification,
    rcv1_like,
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1 1:nan", "value 'nan' is not finite"),
            ("1 1:inf", "value 'inf' is not finite"),
            ("1 1:-Infinity", "value '-Infinity' is not finite"),
            ("1 1:1e300", "value '1e300' is not finite in float32"),
            ("1 1:3.4028236e38", "not finite in float32"),
            ("1e300 1:1", "label '1e300' is not finite in float32"),
            ("1 1_0:1.0", "bad feature token '1_0:1.0'"),
            ("1 1:1_0", "bad feature token '1:1_0'"),
            ("1_0 1:1", "bad label"),
            ("1 +1:1.0", "bad feature token"),
            ("1 -1:1.0", "bad feature token"),
        ],
    )
    def test_hostile_number_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "data.txt"
        path.write_text(f"1 1:1.0\n{line}\n")
        with pytest.raises(DataError, match=f"line 2: .*{message}"):
            load_libsvm(path)

    def test_float32_largest_value_loads(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:3.4028235e38 2:-3.4028235e38\n")
        data = load_libsvm(path)
        assert data.X.data.tolist() == [
            float(np.finfo(np.float32).max),
            -float(np.finfo(np.float32).max),
        ]

    @pytest.mark.parametrize("raw", [b"\xff", b"\xc3", b"\xed\xa0\x80", b"# \xfe"])
    def test_non_utf8_byte_names_the_line(self, tmp_path, raw):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1 1:1.0\n# ok\n0 2:" + raw + b"\n")
        with pytest.raises(DataError, match="line 3: not valid UTF-8"):
            load_libsvm(path)

    def test_utf8_comment_is_accepted(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes("# caf\u00e9\n1 1:1.0 # na\u00efve\n".encode("utf-8"))
        assert load_libsvm(path).X.nnz == 1

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

    def test_generated_values_and_labels_round_trip_bit_for_bit(self, tmp_path):
        """What ``repro generate`` writes is what ``repro train`` reads:
        with six significant digits 97 % of these float32 values moved."""
        data = rcv1_like(scale=0.01, seed=0)
        path = tmp_path / "rcv1.txt"
        save_libsvm(data, path)
        loaded = load_libsvm(path, n_features=data.n_features)
        assert loaded.X.data.tobytes() == data.X.data.astype(np.float32).tobytes()
        assert loaded.y.tobytes() == data.y.astype(np.float32).tobytes()
        assert loaded.X.indptr.tobytes() == data.X.indptr.tobytes()
        assert loaded.X.indices.tobytes() == data.X.indices.tobytes()

    def test_regression_labels_preserved(self, tmp_path):
        from repro.datasets import make_sparse_regression

        spec = SyntheticSpec(n_instances=20, n_features=10, avg_nnz=3)
        data = make_sparse_regression(spec, seed=2)
        path = tmp_path / "reg.txt"
        save_libsvm(data, path)
        loaded = load_libsvm(path, n_features=10)
        np.testing.assert_allclose(loaded.y, data.y, rtol=1e-4)


# ----------------------------------------------------------------------
# fuzz: a LibSVM file is outside input
# ----------------------------------------------------------------------

#: Six significant digits, as LibSVM files often carry them.
_values = st.builds(
    lambda mantissa, exponent: f"{mantissa}e{exponent}",
    st.integers(-999_999, 999_999),
    st.integers(-20, 20),
)


@st.composite
def libsvm_lines(draw):
    """Well-formed 1-based lines: an integer or decimal label and up to six
    distinct indices in any order."""
    label = draw(st.one_of(st.integers(-3, 3).map(str), _values))
    indices = draw(st.lists(st.integers(1, 50), max_size=6, unique=True))
    tokens = [f"{index}:{draw(_values)}" for index in indices]
    return " ".join([label, *tokens])


#: Bytes a mutation splices in: separators, signs, number spellings Python
#: accepts and LibSVM does not, and bytes that are not UTF-8.
_SPLICES = [
    b" ", b":", b"::", b"#", b"-", b"+", b"_", b".", b"e", b"e999", b"nan",
    b"inf", b"0", b"9" * 12, b"\t", b"\r", b"\x00", b"\xff", b"\xc3",
    b"\xed\xa0\x80", "\u0663".encode(), b"1e-400", b"2147483648",
]


@st.composite
def mutated_files(draw):
    drawn = draw(st.lists(libsvm_lines(), min_size=1, max_size=5))
    lines = [line.encode() for line in drawn]
    for _ in range(draw(st.integers(1, 4))):
        which = draw(st.integers(0, len(lines) - 1))
        line = lines[which]
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, min(3, len(line) - at)))
        splice = draw(st.one_of(st.sampled_from(_SPLICES), st.binary(max_size=3)))
        lines[which] = line[:at] + splice + line[at + cut :]
    return b"\n".join(lines) + b"\n"


class TestFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutated_files())
    def test_mutated_lines_raise_only_data_error(self, tmp_path, raw):
        path = tmp_path / "fuzz.txt"
        path.write_bytes(raw)
        try:
            data = load_libsvm(path)
        except DataError as exc:
            assert str(exc)
            return
        assert np.isfinite(data.y).all() and np.isfinite(data.X.data).all()
        assert (data.X.indices >= 0).all()

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(libsvm_lines(), min_size=1, max_size=8))
    def test_well_formed_files_round_trip(self, tmp_path, lines):
        path = tmp_path / "in.txt"
        path.write_text("\n".join(lines) + "\n")
        first = load_libsvm(path, n_features=50)
        for line, label in zip(lines, first.y):
            assert label == np.float32(float(line.split()[0]))
        again_path = tmp_path / "out.txt"
        save_libsvm(first, again_path)
        again = load_libsvm(again_path, n_features=50)
        assert again.y.tobytes() == first.y.tobytes()
        assert again.X.indptr.tobytes() == first.X.indptr.tobytes()
        assert again.X.indices.tobytes() == first.X.indices.tobytes()
        assert again.X.data.tobytes() == first.X.data.tobytes()
