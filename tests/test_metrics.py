import dataclasses
import json

import pytest

from alamp.metrics import (
    IterationRecord,
    Report,
    RunMeta,
    aggregate,
    average_accuracy,
    imbalance_profile,
    read_report,
    samples_to_accuracy,
    write_aggregate,
    write_report,
)

META = RunMeta(af="margin", seed=0, total_budget=120, iterations=4,
               dataset="toy", cost_sensitive=True)


def make_report(accs, counts=None, base=30):
    """One record per accuracy; by default iteration k has (k + 1) * base
    labels, split evenly over two classes."""
    counts = counts or [((k + 1) * base // 2,) * 2 for k in range(len(accs))]
    records = (IterationRecord(iteration=k, accuracy=acc, class_counts=tuple(cc),
                               selected_ids=tuple(range(k * base, (k + 1) * base)))
               for k, (acc, cc) in enumerate(zip(accs, counts)))
    return Report(meta=META, records=tuple(records))


class TestIterationRecord:
    def test_labeled_count_and_ir_derive_from_class_counts(self):
        [record] = make_report([0.5], counts=[(10, 30)]).records
        assert record.labeled_count == 40
        assert record.ir == 0.5


class TestAverageAccuracy:
    def test_constant_curve(self):
        assert average_accuracy(make_report([0.5, 0.5, 0.5])) == 0.5

    def test_two_point_mean(self):
        assert average_accuracy(make_report([0.2, 0.4])) == pytest.approx(0.3)

    def test_gain_convention(self):
        # gain in points = 100 * (avg(a) - avg(b))
        a = average_accuracy(make_report([0.50, 0.60]))
        b = average_accuracy(make_report([0.48, 0.58]))
        assert 100 * (a - b) == pytest.approx(2.0)

    def test_invariant_to_record_order(self):
        rep = make_report([0.1, 0.9, 0.5])
        shuffled = Report(meta=rep.meta, records=rep.records[::-1])
        assert average_accuracy(shuffled) == average_accuracy(rep)


class TestSamplesToAccuracy:
    def test_first_reaching_count(self):
        rep = make_report([0.3, 0.45, 0.52, 0.58], base=400)
        assert samples_to_accuracy(rep, 0.5) == 1200

    def test_never_reached(self):
        assert samples_to_accuracy(make_report([0.1, 0.2]), 0.9) is None

    def test_threshold_zero_rejected(self):
        with pytest.raises(ValueError):
            samples_to_accuracy(make_report([0.5]), 0.0)

    def test_threshold_met_at_first_record(self):
        rep = make_report([0.5, 0.6], base=30)
        assert samples_to_accuracy(rep, 0.5) == 30

    def test_monotone_in_threshold(self):
        rep = make_report([0.2, 0.5, 0.4, 0.8], base=10)
        prev = 0
        for th in (0.1, 0.2, 0.4, 0.5, 0.7, 0.8):
            got = samples_to_accuracy(rep, th)
            assert got is not None and got >= prev
            prev = got


class TestImbalanceProfile:
    def test_balanced_all_zero(self):
        assert imbalance_profile(make_report([0.5, 0.6])) == [0.0, 0.0]

    def test_length_equals_iterations(self):
        assert len(imbalance_profile(make_report([0.1] * 7))) == 7

    def test_hand_value(self):
        rep = make_report([0.5], counts=[(10, 30)])
        assert imbalance_profile(rep)[0] == pytest.approx(0.5)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        rep = make_report([0.25, 0.5, 0.75])
        path = tmp_path / "r.json"
        write_report(rep, path, format="json")
        assert read_report(path) == rep

    def test_json_schema_keys(self, tmp_path):
        rep = make_report([0.5])
        path = tmp_path / "r.json"
        write_report(rep, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"meta", "records"}
        assert set(payload["meta"]) == {"af", "seed", "plan", "dataset", "cost_sensitive"}
        assert set(payload["meta"]["plan"]) == {"b", "t"}
        assert set(payload["records"][0]) == {"k", "labeled", "acc", "ir",
                                              "class_counts", "selected"}

    def test_csv_shape_and_precision(self, tmp_path):
        rep = make_report([1 / 3, 2 / 3])
        path = tmp_path / "r.csv"
        write_report(rep, path, format="csv")
        lines = path.read_bytes().decode().split("\n")
        assert lines[0] == "iteration,labeled_count,accuracy,ir"
        assert len([l for l in lines if l]) == 3  # header + t rows
        assert lines[1] == "0,30,0.333333,0.000000"
        assert b"\r" not in path.read_bytes()

    def test_csv_and_json_curves_agree(self, tmp_path):
        rep = make_report([0.111111, 0.222222])
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        write_report(rep, jp, format="json")
        write_report(rep, cp, format="csv")
        json_accs = [r.accuracy for r in read_report(jp).records]
        csv_accs = [float(line.split(",")[2])
                    for line in cp.read_text().splitlines()[1:]]
        assert csv_accs == pytest.approx(json_accs, abs=1e-6)

    def test_byte_identical_rewrites(self, tmp_path):
        rep = make_report([0.4, 0.6])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(rep, p1)
        write_report(rep, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("key, value", [("labeled", 31), ("ir", 0.25)])
    def test_derived_value_disagreeing_with_class_counts_rejected(self, tmp_path, key, value):
        path = tmp_path / "r.json"
        write_report(make_report([0.5, 0.6]), path)
        payload = json.loads(path.read_text())
        payload["records"][1][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="k=1: labeled .* disagree with class_counts"):
            read_report(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(make_report([0.5]), tmp_path / "r.xml", format="xml")


def mutated_report_file(tmp_path, keys, key, value):
    """A written two-record report whose json has `value` at `key` of the
    object that `keys` lead to."""
    path = tmp_path / "r.json"
    write_report(make_report([0.5, 0.6]), path)
    payload = json.loads(path.read_text())
    target = payload
    for step in keys:
        target = target[step]
    target[key] = value
    path.write_text(json.dumps(payload))
    return path


class TestReportTypes:
    # each value is of another JSON type than write_report writes (true/false
    # is no number), out of range, or under an unknown key; read_report names
    # the key, where it used to build a report from it
    @pytest.mark.parametrize("keys, key, value, match", [
        (("records", 0), "k", 0.0, "record 0 key 'k' must be a JSON integer, got 0.0"),
        (("records", 1), "k", True, "record 1 key 'k' must be a JSON integer, got True"),
        (("meta",), "seed", "1", "meta key 'seed' must be a JSON integer, got '1'"),
        (("meta",), "cost_sensitive", 1, "meta key 'cost_sensitive' must be a JSON boolean"),
        (("meta", "plan"), "b", 20.0, "meta plan key 'b' must be a JSON integer, got 20.0"),
        (("records", 0), "acc", "0.5", "record 0 key 'acc' must be a JSON number, got '0.5'"),
        (("records", 0), "acc", True, "record 0 key 'acc' must be a JSON number, got True"),
        (("records", 1), "acc", 1.5, r"record k=1: acc 1.5 is outside \[0, 1\]"),
        (("meta",), "note", "x", "unknown key 'note' in meta"),
        (("records", 1), "class_counts", [30.0, 30], "record k=1: class_counts must hold integers"),
        (("records", 0), "selected", [True] + list(range(1, 30)),
         "record k=0: selected must hold integers"),
    ], ids=["k 0.0", "k true", "seed string", "cost_sensitive 1", "b 20.0", "acc string",
            "acc true", "acc 1.5", "unknown meta key", "class_counts float", "selected true"])
    def test_mistyped_or_unknown_value_rejected(self, tmp_path, keys, key, value, match):
        with pytest.raises(ValueError, match=match):
            read_report(mutated_report_file(tmp_path, keys, key, value))


class TestNonFiniteNumbers:
    # json has no NaN or Infinity: a report or aggregate holding one fails
    # loudly, in either format, and leaves no file behind
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_report_with_non_finite_accuracy_not_written(self, tmp_path, format, value):
        path = tmp_path / f"r.{format}"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report(make_report([0.5, value]), path, format=format)
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_aggregate_with_non_finite_mean_not_written(self, tmp_path, format, value):
        agg = aggregate([make_report([0.5, 0.6])])
        agg["rows"][1]["acc_mean"] = value
        path = tmp_path / f"agg.{format}"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_aggregate(agg, path, format=format)
        assert not path.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_read_report_rejects_non_finite_token(self, tmp_path, token):
        path = tmp_path / "r.json"
        write_report(make_report([0.5, 0.6]), path)
        text = path.read_text()
        assert text.count('"acc": 0.6') == 1
        path.write_text(text.replace('"acc": 0.6', f'"acc": {token}'))
        with pytest.raises(ValueError, match=f"non-finite number {token}"):
            read_report(path)


class TestAggregate:
    def test_mean_and_population_std(self, tmp_path):
        reps = [make_report([0.4, 0.6]), make_report([0.6, 0.8])]
        agg = aggregate(reps)
        assert agg["rows"][0]["acc_mean"] == pytest.approx(0.5)
        assert agg["rows"][0]["acc_std"] == pytest.approx(0.1)
        path = tmp_path / "agg.csv"
        write_aggregate(agg, path, format="csv")
        assert path.read_text().splitlines()[0] == \
            "iteration,labeled_count,acc_mean,acc_std,ir_mean,ir_std"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.parametrize("other", [[0.6, 0.8, 0.9], [0.6]])
    def test_differing_iterations_rejected(self, other):
        with pytest.raises(ValueError):
            aggregate([make_report([0.4, 0.6]), make_report(other)])

    @pytest.mark.parametrize("field, value", [
        ("total_budget", 60), ("iterations", 2), ("af", "random"),
        ("dataset", "other"), ("cost_sensitive", False)])
    def test_differing_meta_rejected(self, field, value):
        other = Report(meta=dataclasses.replace(META, seed=1, **{field: value}),
                       records=make_report([0.6, 0.8]).records)
        with pytest.raises(ValueError, match="more than the seed"):
            aggregate([make_report([0.4, 0.6]), other])

    def test_shuffled_records_give_the_same_rows(self):
        reps = [make_report([0.4, 0.6, 0.5]), make_report([0.6, 0.8, 0.7])]
        shuffled = [reps[0], Report(meta=META, records=reps[1].records[::-1])]
        assert aggregate(shuffled) == aggregate(reps)


class TestRecordOrder:
    def test_report_stores_records_by_iteration(self):
        rep = make_report([0.1, 0.9, 0.5, 0.7])
        shuffled = Report(meta=META, records=tuple(rep.records[i] for i in (2, 0, 3, 1)))
        assert [r.iteration for r in shuffled.records] == [0, 1, 2, 3]
        assert shuffled == rep

    def test_read_report_orders_records(self, tmp_path):
        rep = make_report([0.25, 0.5, 0.75])
        path = tmp_path / "r.json"
        write_report(rep, path)
        payload = json.loads(path.read_text())
        payload["records"].reverse()
        path.write_text(json.dumps(payload))
        read = read_report(path)
        assert [r.iteration for r in read.records] == [0, 1, 2]
        assert read == rep
        assert samples_to_accuracy(read, 0.5) == 60
        assert imbalance_profile(read) == [0.0, 0.0, 0.0]

    # a repeated k, a gap, and a first k other than 0
    @pytest.mark.parametrize("ks", [[0, 0, 2], [0, 1, 3], [1, 2, 3]])
    def test_read_report_rejects_repeated_or_missing_iterations(self, tmp_path, ks):
        path = tmp_path / "r.json"
        write_report(make_report([0.25, 0.5, 0.75]), path)
        payload = json.loads(path.read_text())
        for record, k in zip(payload["records"], ks):
            record["k"] = k
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"iterations \[.*\] are not 0\.\.2, each once"):
            read_report(path)
