import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alamp.acquisition import random_select
from alamp.dataset import (
    Dataset,
    DatasetError,
    imbalance_ratio,
    induce_imbalance,
    load_dataset,
    make_synthetic,
    standardize,
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
        # rows come back in request order
        sub = make_synthetic(3, 10, 2, 0.2, 0).subset([17, 5, 22])
        assert list(sub.sample_ids) == [5, 17, 22]
        assert list(sub.rows_for([22, 17])) == [2, 1]
        assert list(sub.rows_for([5, 22, 17])) == [0, 2, 1]

    @pytest.mark.parametrize("unknown", [4, 23, 10])  # below min, above max, in a gap
    def test_rows_for_unknown_id_rejected(self, unknown):
        sub = make_synthetic(3, 10, 2, 0.2, 0).subset([5, 17, 22])
        with pytest.raises(DatasetError, match=f"unknown sample_id {unknown}$"):
            sub.rows_for([22, unknown, 5])

    def test_invalid_label_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(features=np.zeros((2, 1)), labels=np.array([0, 5]),
                    n_classes=2, sample_ids=np.array([0, 1]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatasetError, match="^sample_ids must be strictly ascending$"):
            Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]),
                    n_classes=2, sample_ids=np.array([0, 0]))


def ascending_ids():
    """At least two strictly ascending ids, with gaps, some negative."""
    return st.lists(st.integers(-1000, 1000), min_size=2, max_size=40, unique=True).map(sorted)


def dataset_of(ids):
    n = len(ids)
    return Dataset(features=np.arange(2.0 * n).reshape(n, 2), labels=np.arange(n) % 2,
                   n_classes=2, sample_ids=np.array(ids))


class TestAscendingIds:
    @given(ids=ascending_ids(), data=st.data())
    def test_rows_for_is_a_lookup_in_request_order(self, ids, data):
        wanted = data.draw(st.lists(st.sampled_from(ids), max_size=60))
        row_of = {i: row for row, i in enumerate(ids)}
        assert dataset_of(ids).rows_for(wanted).tolist() == [row_of[i] for i in wanted]

    @given(ids=ascending_ids(), data=st.data())
    def test_rows_for_names_the_first_unknown_id(self, ids, data):
        # unknown ids below the smallest, above the largest and in the gaps
        known = st.sampled_from(ids)
        unknown = st.integers(-1100, 1100).filter(lambda i: i not in ids)
        first = data.draw(unknown)
        wanted = (data.draw(st.lists(known, max_size=20)) + [first]
                  + data.draw(st.lists(known | unknown, max_size=20)))
        with pytest.raises(DatasetError, match=f"^unknown sample_id {first}$"):
            dataset_of(ids).rows_for(wanted)

    @given(ids=ascending_ids(), data=st.data())
    def test_random_rows_are_the_rows_of_random_ids(self, ids, data):
        # the engine draws rows, not ids: the draw picks positions in the
        # sorted pool, so over ascending ids it picks the same samples
        batch = data.draw(st.integers(1, len(ids)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rows = random_select(np.arange(len(ids)), batch, seed)
        assert rows.tolist() == dataset_of(ids).rows_for(random_select(ids, batch, seed)).tolist()

    @given(ids=ascending_ids(), data=st.data())
    def test_subset_ignores_request_order(self, ids, data):
        d = dataset_of(ids)
        picked = data.draw(st.lists(st.sampled_from(ids), min_size=2, unique=True))
        a, b = d.subset(sorted(picked)), d.subset(picked)
        assert a.sample_ids.tolist() == sorted(picked)
        for field in ("features", "labels", "sample_ids"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    @given(ids=ascending_ids(), data=st.data())
    def test_descending_or_repeated_ids_rejected(self, ids, data):
        i = data.draw(st.integers(0, len(ids) - 2))
        swapped = ids[:i] + [ids[i + 1], ids[i]] + ids[i + 2:]
        repeated = ids[:i] + [ids[i], ids[i]] + ids[i + 2:]
        for bad in (swapped, repeated):
            with pytest.raises(DatasetError, match="strictly ascending"):
                dataset_of(bad)


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

    # a class with no sample, and one with a single sample, cannot give a
    # sample to both sides
    @pytest.mark.parametrize("count", [0, 1])
    def test_class_below_two_samples_rejected(self, count):
        labels = np.array([0, 0, 0] + [1] * count + [2, 2, 2])
        d = Dataset(features=np.arange(len(labels), dtype=np.float64)[:, None], labels=labels,
                    n_classes=3, sample_ids=np.arange(len(labels)))
        with pytest.raises(DatasetError, match=rf"class 1 has {count} sample\(s\)"):
            train_test_split(d, 0.3, 0)


class TestIdsNeverSteerDerivations:
    # the same rows under ids 0..n-1 and under 1000 + 3 * row: splits and
    # imbalanced draws pick rows, so both keep the same rows
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_rows_under_other_ids(self, seed):
        plain = make_synthetic(6, 30, 3, 0.5, seed)
        gapped = Dataset(features=plain.features, labels=plain.labels,
                         n_classes=plain.n_classes, sample_ids=1000 + 3 * plain.sample_ids)
        derived = [
            (train_test_split(plain, 0.25, seed), train_test_split(gapped, 0.25, seed)),
            ((induce_imbalance(plain, 0.5, 2, seed),), (induce_imbalance(gapped, 0.5, 2, seed),)),
        ]
        for by_plain, by_gapped in derived:
            for a, b in zip(by_plain, by_gapped, strict=True):
                assert np.array_equal(b.sample_ids, 1000 + 3 * a.sample_ids)
                assert np.array_equal(a.features, b.features)
                assert np.array_equal(a.labels, b.labels)


class TestStandardize:
    @pytest.fixture
    def pools(self):
        # dim 2 is constant on the pool (0.1, whose mean over the pool rounds
        # away from 0.1) and differs on the test set (4.0)
        train, test = train_test_split(make_synthetic(3, 40, 4, 0.5, 0), 0.25, 0)
        constant = []
        for d, value in ((train, 0.1), (test, 4.0)):
            features = d.features.copy()
            features[:, 2] = value
            constant.append(Dataset(features=features, labels=d.labels, n_classes=3,
                                    sample_ids=d.sample_ids))
        return tuple(constant)

    def test_pool_has_mean_zero_and_unit_std(self, pools):
        space, _ = standardize(*pools)
        assert np.allclose(space.features.mean(axis=0), 0.0, rtol=0, atol=1e-12)
        assert np.allclose(space.features.std(axis=0)[[0, 1, 3]], 1.0, rtol=1e-12)

    def test_constant_dimension_has_scale_one(self, pools):
        space, space_test = standardize(*pools)
        assert np.all(space.features[:, 2] == 0.0)
        assert np.all(space_test.features[:, 2] == 4.0 - 0.1)  # scale 1

    def test_test_set_scaled_by_pool_statistics(self, pools):
        train, test = pools
        _, space_test = standardize(train, test)
        mean, std = train.features.mean(axis=0), train.features.std(axis=0)
        scale = np.where(np.ptp(train.features, axis=0) > 0, std, 1.0)
        assert np.allclose(space_test.features, (test.features - mean) / scale,
                           rtol=1e-12, atol=1e-12)

    def test_rows_come_back_in_id_order(self, pools):
        # the rows of each set stay where they were: ids and labels unchanged
        for before, after in zip(pools, standardize(*pools)):
            assert np.array_equal(after.sample_ids, before.sample_ids)
            assert np.array_equal(after.labels, before.labels)
            assert after.n_classes == before.n_classes
