import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alamp.dataset import (
    Dataset,
    DatasetError,
    imbalance_ratio,
    induce_imbalance,
    load_dataset,
    make_synthetic,
    train_test_split,
    write_dataset,
)


def write_lines(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


class TestLoadDataset:
    def test_basic_parse(self, tmp_path):
        path = write_lines(tmp_path, ["0,1.0,2.0", "1,0.5,0.5", "2,-1.0,0.0"])
        d = load_dataset(path)
        assert d.n_samples == 3
        assert d.dim == 2
        assert d.n_classes == 3
        assert list(d.sample_ids) == [0, 1, 2]
        assert d.features[2, 0] == -1.0

    def test_row_width_mismatch_names_line(self, tmp_path):
        path = write_lines(tmp_path, ["0,1.0,2.0", "1,0.5"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = write_lines(tmp_path, [])
        with pytest.raises(DatasetError, match="no samples"):
            load_dataset(path)

    def test_bad_label(self, tmp_path):
        path = write_lines(tmp_path, ["x,1.0"])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)
        # a label int64 cannot hold
        path = write_lines(tmp_path, ["0,1.0", "99999999999999999999,2.0", "1,3.0"])
        with pytest.raises(DatasetError,
                           match="^line 2: label '99999999999999999999' out of range$"):
            load_dataset(path)

    def test_negative_label(self, tmp_path):
        path = write_lines(tmp_path, ["-1,1.0"])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_non_finite_value(self, tmp_path):
        path = write_lines(tmp_path, ["0,1.0", "1,nan"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_non_finite_value_after_blank_line_names_its_line(self, tmp_path):
        path = write_lines(tmp_path, ["0,1.0", "", "1,2.0", "", "", "1,inf"])
        with pytest.raises(DatasetError, match="^line 6: non-finite"):
            load_dataset(path)

    def test_earliest_fault_is_reported(self, tmp_path):
        path = write_lines(tmp_path, ["0,1.0", "1,nan", "x,2.0"])
        with pytest.raises(DatasetError, match="^line 2: non-finite"):
            load_dataset(path)
        path = write_lines(tmp_path, ["0,1.0", "1,nan,2.0"])
        with pytest.raises(DatasetError, match="^line 2: non-finite"):
            load_dataset(path)
        path = write_lines(tmp_path, ["0,1.0", "1,nan", "99999999999999999999,2.0"])
        with pytest.raises(DatasetError, match="^line 2: non-finite"):
            load_dataset(path)
        # row 3 fails mid-parse after two values: only whole rows are checked
        path = write_lines(tmp_path, ["0,1.0,2.0,3.0", "1,nan,2.0,3.0", "1,4.0,5.0,x"])
        with pytest.raises(DatasetError, match="^line 2: non-finite"):
            load_dataset(path)
        # the first row fails mid-parse, before any whole row
        path = write_lines(tmp_path, ["0,1.0,x", "1,nan,2.0"])
        with pytest.raises(DatasetError, match="^line 1: non-numeric"):
            load_dataset(path)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"0,1.0,2.0\n\n1,0.5,\xff\n")
        with pytest.raises(DatasetError, match="^line 3: non-numeric feature value$"):
            load_dataset(path)
        path.write_bytes(b"0,1.0,2.0\n\n\xff1,0.5,0.5\n")
        with pytest.raises(DatasetError, match="^line 3: label .* is not an integer$"):
            load_dataset(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_a_pipe(self):
        # the file is read in one pass, so a pipe loads as a file does
        read_end, write_end = os.pipe()
        os.write(write_end, b"0,1.0,2.0\n\n1,0.5,0.5\n")
        os.close(write_end)
        try:
            d = load_dataset(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert d.features.tolist() == [[1.0, 2.0], [0.5, 0.5]]
        assert d.labels.tolist() == [0, 1]

    def test_peak_memory_within_twice_the_array(self, tmp_path):
        d = make_synthetic(10, 100, 64, 1.0, 3)
        path = tmp_path / "big.csv"
        write_dataset(d, path)
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.features, d.features)
        assert peak <= 2 * d.features.nbytes

    def test_non_numeric_feature(self, tmp_path):
        path = write_lines(tmp_path, ["0,abc"])
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize("row, message", [
        ("0,1_000,2", "non-numeric feature value"),
        ("1,\u0661,3", "non-numeric feature value"),
        ("1,2.0,\u00a03", "non-numeric feature value"),
        ("\u0661,1,2", "label '\u0661' is not an integer"),
        ("1_0,1,2", "label '1_0' is not an integer"),
    ])
    def test_only_ascii_numbers_without_separators(self, tmp_path, row, message):
        # int() and float() would read these as 1000, 1, 3, 1 and 10
        path = write_lines(tmp_path, ["0,1.0,2.0", row, "x,1.0,2.0"])
        with pytest.raises(DatasetError, match=f"^line 2: {message}$"):
            load_dataset(path)
        path = write_lines(tmp_path, ["0,1.0,2.0", "1,nan,2.0", row])
        with pytest.raises(DatasetError, match="^line 2: non-finite"):
            load_dataset(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        d = make_synthetic(3, 4, 5, 0.3, 11)
        path = tmp_path / "rt.csv"
        write_dataset(d, path)
        d2 = load_dataset(path)
        assert np.array_equal(d.features, d2.features)
        assert np.array_equal(d.labels, d2.labels)
        assert d.n_classes == d2.n_classes


class TestMakeSynthetic:
    def test_counts(self):
        d = make_synthetic(2, 5, 3, 0.1, 7)
        assert d.n_samples == 10
        assert list(np.bincount(d.labels)) == [5, 5]
        assert d.dim == 3

    def test_deterministic(self):
        a = make_synthetic(2, 5, 3, 0.1, 7)
        b = make_synthetic(2, 5, 3, 0.1, 7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_std_rejected(self):
        with pytest.raises(DatasetError):
            make_synthetic(2, 5, 3, 0.0, 7)

    def test_bad_params(self):
        with pytest.raises(DatasetError):
            make_synthetic(1, 5, 3, 0.1, 7)
        with pytest.raises(DatasetError):
            make_synthetic(2, 0, 3, 0.1, 7)
        with pytest.raises(DatasetError):
            make_synthetic(2, 5, 0, 0.1, 7)


class TestImbalanceRatio:
    def test_uniform_counts(self):
        assert imbalance_ratio([500] * 100) == 0.0

    def test_hand_computed(self):
        # counts [100, 200]: population sigma = 50, mu = 150
        assert imbalance_ratio([100, 200]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_food101_aggregate(self):
        # 101 classes, mean 227.28, std 180.31 -> ratio 0.793
        assert 180.31 / 227.28 == pytest.approx(0.793, abs=1e-3)

    def test_zero_mean_rejected(self):
        with pytest.raises(DatasetError):
            imbalance_ratio([0, 0, 0])

    @given(st.integers(1, 20), st.integers(1, 1000))
    def test_constant_counts_always_zero(self, n, value):
        assert imbalance_ratio([value] * n) == 0.0

    @given(st.lists(st.integers(1, 500), min_size=2, max_size=30),
           st.integers(2, 9))
    def test_scale_invariance(self, counts, k):
        base = imbalance_ratio(counts)
        scaled = imbalance_ratio([k * c for c in counts])
        assert scaled == pytest.approx(base, abs=1e-12)


@pytest.fixture(scope="module")
def balanced():
    return make_synthetic(20, 50, 4, 0.5, 3)


class TestInduceImbalance:

    def test_zero_target_balanced(self, balanced):
        out = induce_imbalance(balanced, 0.0, 1, 0)
        assert imbalance_ratio(out.class_counts()) == 0.0

    def test_hits_cifar_like_target(self):
        data = make_synthetic(100, 40, 2, 0.5, 5)
        out = induce_imbalance(data, 0.74, 1, 0)
        assert 0.72 <= imbalance_ratio(out.class_counts()) <= 0.76

    def test_deterministic(self, balanced):
        a = induce_imbalance(balanced, 0.5, 1, 9)
        b = induce_imbalance(balanced, 0.5, 1, 9)
        assert np.array_equal(a.sample_ids, b.sample_ids)

    def test_output_is_subset(self, balanced):
        out = induce_imbalance(balanced, 0.5, 1, 2)
        assert set(out.sample_ids) <= set(balanced.sample_ids)
        rows = balanced.rows_for(out.sample_ids)
        assert np.array_equal(balanced.features[rows], out.features)

    def test_achieved_within_tolerance(self, balanced):
        for target in (0.2, 0.4, 0.6):
            out = induce_imbalance(balanced, target, 1, 1)
            assert imbalance_ratio(out.class_counts()) == pytest.approx(target, abs=0.02)

    @pytest.mark.parametrize("target", [float("nan"), -0.1, float("-inf")])
    def test_target_not_non_negative_rejected(self, balanced, target):
        with pytest.raises(DatasetError, match="^target_ir must be non-negative$"):
            induce_imbalance(balanced, target, 1, 0)

    def test_unattainable_target(self, balanced):
        # min_per_class equal to the class size forbids any skew
        with pytest.raises(DatasetError):
            induce_imbalance(balanced, 0.5, 50, 0)


class TestDatasetInvariants:
    def test_subset_preserves_ids(self):
        d = make_synthetic(3, 10, 2, 0.2, 0)
        sub = d.subset([5, 17, 22])
        assert list(sub.sample_ids) == [5, 17, 22]

    def test_unknown_id_rejected(self):
        d = make_synthetic(3, 10, 2, 0.2, 0)
        with pytest.raises(DatasetError):
            d.subset([999])

    def test_rows_for_non_ascending_ids(self):
        sub = make_synthetic(3, 10, 2, 0.2, 0).subset([17, 5, 22])
        assert list(sub.rows_for([22, 17])) == [2, 0]
        assert list(sub.rows_for([5, 22, 17])) == [1, 2, 0]

    @pytest.mark.parametrize("unknown", [4, 23, 10])  # below min, above max, in a gap
    def test_rows_for_unknown_id_rejected(self, unknown):
        sub = make_synthetic(3, 10, 2, 0.2, 0).subset([17, 5, 22])
        with pytest.raises(DatasetError, match=f"unknown sample_id {unknown}$"):
            sub.rows_for([22, unknown, 5])

    def test_invalid_label_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(features=np.zeros((2, 1)), labels=np.array([0, 5]),
                    n_classes=2, sample_ids=np.array([0, 1]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]),
                    n_classes=2, sample_ids=np.array([0, 0]))


class TestTrainTestSplit:
    def test_stratified_and_disjoint(self):
        d = make_synthetic(4, 25, 3, 0.3, 1)
        train, test = train_test_split(d, 0.2, 0)
        assert set(train.sample_ids).isdisjoint(test.sample_ids)
        assert len(train.sample_ids) + len(test.sample_ids) == d.n_samples
        assert list(test.class_counts()) == [5, 5, 5, 5]

    def test_deterministic(self):
        d = make_synthetic(4, 25, 3, 0.3, 1)
        a, _ = train_test_split(d, 0.2, 7)
        b, _ = train_test_split(d, 0.2, 7)
        assert np.array_equal(a.sample_ids, b.sample_ids)
