import json

import pytest

from alamp.cli import main, parse_seeds
from alamp.engine import AF_NAMES, BudgetPlan, EngineError
from alamp.dataset import (DatasetError, induce_imbalance, load_dataset, make_synthetic,
                           train_test_split, write_dataset)


def library_error(exc_type, func, *args):
    """The `error: ...` line the CLI prints for the library's own error."""
    with pytest.raises(exc_type) as exc:
        func(*args)
    return f"error: {exc.value}\n"


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    full = make_synthetic(4, 40, 3, 0.5, 0)
    train, test = train_test_split(full, 0.25, 1)
    train_path, test_path = root / "train.csv", root / "test.csv"
    write_dataset(train, train_path)
    write_dataset(test, test_path)
    return str(train_path), str(test_path)


class TestParseSeeds:
    def test_range(self):
        assert parse_seeds("0..4") == [0, 1, 2, 3, 4]

    def test_list(self):
        assert parse_seeds("3,1,2") == [3, 1, 2]

    def test_bad(self):
        from alamp.cli import CliError
        with pytest.raises(CliError):
            parse_seeds("abc")


class TestSynth:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        rc = main(["synth", "--classes", "2", "--per-class", "5", "--dim", "3",
                   "--cluster-std", "0.1", "--seed", "7", "--output", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 10

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["synth", "--classes", "2", "--per-class", "5", "--dim", "3",
                  "--cluster-std", "0.1", "--seed", "7", "--output", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_exit_2(self, tmp_path, capsys):
        rc = main(["synth", "--classes", "1", "--per-class", "5", "--dim", "3",
                   "--cluster-std", "0.1", "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == library_error(DatasetError, make_synthetic,
                                                        1, 5, 3, 0.1, 0)

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["synth", "--classes", "2", "--per-class", "5", "--dim", "3",
                   "--cluster-std", "0.1", "--seed", "-1", "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seeds must be non-negative, got '-1'\n"
        assert not out.exists()

    def test_config_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--classes", "2", "--per-class", "5", "--dim", "3",
                  "--cluster-std", "0.1", "--output", str(tmp_path / "x.csv"),
                  "--config", str(tmp_path / "cfg.json")])
        assert exc.value.code == 2


class TestImbalance:
    def test_hits_target_and_prints_ir(self, tmp_path, capsys):
        src = tmp_path / "balanced.csv"
        write_dataset(make_synthetic(30, 40, 2, 0.5, 0), src)
        out = tmp_path / "skewed.csv"
        rc = main(["imbalance", "--input", str(src), "--target-ir", "0.5",
                   "--seed", "0", "--output", str(out)])
        assert rc == 0
        assert "achieved ir" in capsys.readouterr().out
        from alamp.dataset import imbalance_ratio
        skewed = load_dataset(out)
        assert imbalance_ratio(skewed.class_counts()) == pytest.approx(0.5, abs=0.02)

    def test_zero_target_balanced(self, tmp_path):
        src = tmp_path / "balanced.csv"
        write_dataset(make_synthetic(5, 10, 2, 0.5, 0), src)
        out = tmp_path / "flat.csv"
        assert main(["imbalance", "--input", str(src), "--target-ir", "0",
                     "--output", str(out)]) == 0
        from alamp.dataset import imbalance_ratio
        assert imbalance_ratio(load_dataset(out).class_counts()) == 0.0

    def test_infeasible_exit_2(self, tmp_path, capsys):
        src = tmp_path / "balanced.csv"
        write_dataset(make_synthetic(5, 10, 2, 0.5, 0), src)
        rc = main(["imbalance", "--input", str(src), "--target-ir", "0.9",
                   "--min-per-class", "10", "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == library_error(
            DatasetError, induce_imbalance, load_dataset(src), 0.9, 10, 0)

    @pytest.mark.parametrize("target", ["nan", "-0.5"])
    def test_target_not_non_negative_exit_2(self, tmp_path, capsys, target):
        src = tmp_path / "balanced.csv"
        write_dataset(make_synthetic(5, 10, 2, 0.5, 0), src)
        out = tmp_path / "x.csv"
        rc = main(["imbalance", "--input", str(src), "--target-ir", target,
                   "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: target_ir must be non-negative\n"
        assert not out.exists()

    def test_undecodable_byte_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_bytes(b"0,1.0,\xff\n")
        out = tmp_path / "x.csv"
        rc = main(["imbalance", "--input", str(src), "--target-ir", "0.5",
                   "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: line 1: non-numeric feature value\n"
        assert not out.exists()

    def test_label_out_of_range_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_bytes(b"0,1.0\n99999999999999999999,2.0\n1,3.0\n")
        out = tmp_path / "x.csv"
        rc = main(["imbalance", "--input", str(src), "--target-ir", "0.5",
                   "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 2: label '99999999999999999999' out of range\n")
        assert not out.exists()

    def test_directory_input_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["imbalance", "--input", str(tmp_path), "--target-ir", "0.5",
                   "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        # the seed is checked before any read, so a missing input gives the same error
        src = tmp_path / "balanced.csv"
        write_dataset(make_synthetic(5, 10, 2, 0.5, 0), src)
        out = tmp_path / "x.csv"
        for path in (src, tmp_path / "missing.csv"):
            rc = main(["imbalance", "--input", str(path), "--target-ir", "0.5",
                       "--seed", "-1", "--output", str(out)])
            assert rc == 2
            assert capsys.readouterr().err == "error: seeds must be non-negative, got '-1'\n"
            assert not out.exists()

    def test_config_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["imbalance", "--input", str(tmp_path / "in.csv"), "--target-ir", "0.5",
                  "--output", str(tmp_path / "out.csv"), "--config", str(tmp_path / "cfg.json")])
        assert exc.value.code == 2


class TestRun:
    def test_writes_reports_and_aggregate(self, csv_pair, tmp_path):
        train, test = csv_pair
        rc = main(["run", "--train", train, "--test", test, "--af", "margin",
                   "--budget", "40", "--iters", "2", "--seeds", "0,1",
                   "--out", str(tmp_path)])
        assert rc == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["train_margin_aggregate.json", "train_margin_seed0.json",
                         "train_margin_seed1.json"]

    def test_unknown_af_exit_2(self, csv_pair, tmp_path):
        train, test = csv_pair
        rc = main(["run", "--train", train, "--test", test, "--af", "entropy",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_indivisible_budget_exit_2(self, csv_pair, tmp_path, capsys):
        train, test = csv_pair
        rc = main(["run", "--train", train, "--test", test, "--af", "random",
                   "--budget", "3201", "--iters", "16", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "divisible" in err
        assert err == library_error(EngineError, BudgetPlan, 3201, 16)

    def test_byte_identical_reruns(self, csv_pair, tmp_path):
        train, test = csv_pair
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            main(["run", "--train", train, "--test", test, "--af", "alamp",
                  "--budget", "40", "--iters", "2", "--seeds", "0",
                  "--out", str(out)])
            outs.append((out / "train_alamp_seed0.json").read_bytes())
        assert outs[0] == outs[1]

    def test_csv_format(self, csv_pair, tmp_path):
        train, test = csv_pair
        rc = main(["run", "--train", train, "--test", test, "--af", "random",
                   "--budget", "40", "--iters", "2", "--seeds", "0",
                   "--format", "csv", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "train_random_seed0.csv").read_text().splitlines()
        assert lines[0] == "iteration,labeled_count,accuracy,ir"
        assert len(lines) == 3

    def test_synth_source(self, tmp_path):
        rc = main(["run", "--synth", "3,30,4,0.5,0", "--af", "random",
                   "--budget", "20", "--iters", "2", "--seeds", "0",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_config_file_with_flag_override(self, csv_pair, tmp_path):
        train, test = csv_pair
        config = {"train": train, "test": test, "af": "random", "budget": 40,
                  "iters": 2, "seeds": "0", "out": str(tmp_path / "cfg")}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        # flag overrides the config's af
        rc = main(["run", "--config", str(cfg_path), "--af", "margin"])
        assert rc == 0
        names = {p.name for p in (tmp_path / "cfg").iterdir()}
        assert "train_margin_seed0.json" in names

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["run", "--af", "random", "--out", str(tmp_path)]) == 2

    def test_missing_train_file_exit_2(self, csv_pair, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        out = tmp_path / "out"
        rc = main(["run", "--af", "random", "--train", missing, "--test", csv_pair[1],
                   "--budget", "8", "--iters", "2", "--seeds", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {missing}: [Errno 2] ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestSettings:
    """Seed and data-source faults are usage errors found before any data loads."""

    SYNTH_RUN = ["run", "--af", "random", "--budget", "20", "--iters", "2"]

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        # the CSVs do not exist: the seed check must come before any load
        missing = str(tmp_path / "missing.csv")
        rc = main(["run", "--train", missing, "--test", missing, "--af", "random",
                   "--seeds", "-1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "seeds must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_in_range_exit_2(self, tmp_path, capsys):
        rc = main(self.SYNTH_RUN + ["--synth", "3,30,4,0.5,0", "--seeds=-1..1",
                                    "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "seeds must be non-negative" in capsys.readouterr().err

    def test_negative_synth_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_data(*args):
            raise AssertionError("data generated")
        monkeypatch.setattr("alamp.dataset.make_synthetic", no_data)
        rc = main(self.SYNTH_RUN + ["--synth", "3,30,4,0.5,-1", "--seeds", "0",
                                    "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "--synth seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", ["0,0", "2,1,2"])
    def test_repeated_seed_exit_2(self, tmp_path, capsys, seeds):
        rc = main(self.SYNTH_RUN + ["--synth", "3,30,4,0.5,0", "--seeds", seeds,
                                    "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "seeds must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sources", [
        ["--train", "T", "--synth", "3,30,4,0.5,0"],
        ["--test", "T", "--synth", "3,30,4,0.5,0"],
        ["--train", "T", "--test", "T", "--synth", "3,30,4,0.5,0"],
    ])
    def test_synth_excludes_csvs(self, csv_pair, tmp_path, capsys, sources):
        train, test = csv_pair
        argv = [{"T": train}.get(a, a) for a in sources]
        rc = main(self.SYNTH_RUN + argv + ["--seeds", "0", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "--synth excludes --train and --test" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synth_in_config_excludes_train_flag(self, csv_pair, tmp_path, capsys):
        # the sources conflict only once flags and config are merged
        train, test = csv_pair
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"synth": "3,30,4,0.5,0", "seeds": "0"}))
        rc = main(self.SYNTH_RUN + ["--config", str(cfg_path), "--train", train,
                                    "--test", test, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "--synth excludes --train and --test" in capsys.readouterr().err

    def test_unknown_af_in_compare_exit_2_before_loading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        rc = main(["compare", "--train", missing, "--test", missing,
                   "--afs", "margin,entropy", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown acquisition function 'entropy'" in capsys.readouterr().err


class TestCompare:
    def test_gain_table(self, csv_pair, tmp_path, capsys):
        train, test = csv_pair
        rc = main(["compare", "--train", train, "--test", test,
                   "--afs", "margin,random", "--budget", "40", "--iters", "2",
                   "--seeds", "0,1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gain_vs_random" in out
        assert "margin" in out

    def test_random_added_as_baseline(self, csv_pair, tmp_path, capsys):
        train, test = csv_pair
        rc = main(["compare", "--train", train, "--test", test,
                   "--afs", "margin", "--budget", "40", "--iters", "2",
                   "--seeds", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert "random" in capsys.readouterr().out

    def test_reports_match_single_strategy_runs(self, csv_pair, tmp_path):
        # compare steps every strategy from the seed's shared initial model;
        # each report must equal the one a run of that strategy alone writes
        train, test = csv_pair
        common = ["--train", train, "--test", test, "--budget", "40",
                  "--iters", "4", "--seeds", "0,3"]
        assert main(["compare", "--out", str(tmp_path / "cmp")] + common) == 0
        for af in AF_NAMES:
            assert main(["run", "--af", af, "--out", str(tmp_path / af)] + common) == 0
            for seed in (0, 3):
                name = f"train_{af}_seed{seed}.json"
                assert ((tmp_path / "cmp" / name).read_bytes()
                        == (tmp_path / af / name).read_bytes())


class TestStrictConfig:
    """Config faults are usage errors (exit 2) raised before any run starts."""

    def run_with_config(self, csv_pair, tmp_path, capsys, **overrides):
        train, test = csv_pair
        config = {"train": train, "test": test, "af": "random", "budget": 40,
                  "iters": 2, "seeds": "0", "out": str(tmp_path / "out")}
        config.update(overrides)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["run", "--config", str(cfg_path)])
        return rc, capsys.readouterr().err

    def test_valid_config_runs(self, csv_pair, tmp_path, capsys):
        rc, _ = self.run_with_config(csv_pair, tmp_path, capsys, cost_sensitive=False)
        assert rc == 0

    def test_unknown_key_rejected(self, csv_pair, tmp_path, capsys):
        rc, err = self.run_with_config(csv_pair, tmp_path, capsys, budgte=40)
        assert rc == 2
        assert "unknown config key 'budgte'" in err
        assert not (tmp_path / "out").exists()

    def test_other_subcommand_key_rejected(self, csv_pair, tmp_path, capsys):
        rc, err = self.run_with_config(csv_pair, tmp_path, capsys, afs="margin")
        assert rc == 2
        assert "unknown config key 'afs'" in err

    def test_cost_sensitive_string_rejected(self, csv_pair, tmp_path, capsys):
        rc, err = self.run_with_config(csv_pair, tmp_path, capsys, cost_sensitive="false")
        assert rc == 2
        assert "'cost_sensitive' must be a JSON boolean" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["budget", "iters"])
    @pytest.mark.parametrize("value", ["40", 40.0, 2.5, True])
    def test_non_integer_plan_rejected(self, csv_pair, tmp_path, capsys, key, value):
        rc, err = self.run_with_config(csv_pair, tmp_path, capsys, **{key: value})
        assert rc == 2
        assert f"'{key}' must be a JSON integer" in err

    @pytest.mark.parametrize("key, value", [
        ("synth", [3, 30, 4, 0.5, 0]), ("synth", ["3", "30", "4", "0.5", "0"]),
        ("seeds", 0), ("seeds", [0, 1])])
    def test_non_string_seeds_or_synth_rejected(self, csv_pair, tmp_path, capsys, key, value):
        rc, err = self.run_with_config(csv_pair, tmp_path, capsys, **{key: value})
        assert rc == 2
        assert f"config key '{key}' must be a JSON string, got {value!r}" in err
        assert not (tmp_path / "out").exists()

    def test_afs_array_rejected(self, csv_pair, tmp_path, capsys):
        train, test = csv_pair
        cfg_path = tmp_path / "compare.json"
        cfg_path.write_text(json.dumps({"train": train, "test": test, "afs": ["margin"],
                                        "budget": 40, "iters": 2, "seeds": "0",
                                        "out": str(tmp_path / "out")}))
        rc = main(["compare", "--config", str(cfg_path)])
        assert rc == 2
        assert "config key 'afs' must be a JSON string, got ['margin']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_format_rejected_before_running(self, csv_pair, tmp_path, capsys):
        rc, err = self.run_with_config(csv_pair, tmp_path, capsys, format="xml")
        assert rc == 2
        assert "unknown report format 'xml'" in err
        assert not (tmp_path / "out").exists()
