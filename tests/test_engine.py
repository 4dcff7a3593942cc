import dataclasses
import tracemalloc

import numpy as np
import pytest

from alamp import acquisition, classifier
from alamp.dataset import Dataset, induce_imbalance, make_synthetic, train_test_split
from alamp.engine import (
    AF_NAMES,
    BudgetPlan,
    EngineError,
    PoolState,
    init_pool,
    run_experiment,
    run_strategies,
    step,
)
from alamp.metrics import write_report


@pytest.fixture(scope="module")
def pools():
    full = make_synthetic(5, 60, 4, 0.6, 0)
    return train_test_split(full, 0.2, 1)


PLAN = BudgetPlan(120, 4)  # batch 30 on a 240-sample train pool


class TestBudgetPlan:
    def test_paper_scale_batch(self):
        assert BudgetPlan(3200, 16).batch == 200

    def test_indivisible_rejected(self):
        with pytest.raises(EngineError):
            BudgetPlan(3201, 16)

    def test_degenerate_rejected(self):
        with pytest.raises(EngineError):
            BudgetPlan(3, 0)


class TestInitPool:
    def test_sizes_and_partition(self, pools):
        train, _ = pools
        state, model, record = init_pool(train, PLAN, 0)
        assert len(state.labeled_ids) == 30
        assert len(state.unlabeled_ids) == train.n_samples - 30
        assert set(state.labeled_ids).isdisjoint(state.unlabeled_ids)
        assert state.prev_margins is None and state.prev_pseudo is None
        assert model.n_classes == train.n_classes
        # iteration 0's record describes the seed batch; accuracy is the caller's
        assert (record.iteration, record.labeled_count) == (0, 30)
        assert record.selected_ids == tuple(state.labeled_ids.tolist())
        assert record.class_counts == tuple(train.subset(state.labeled_ids).class_counts().tolist())
        assert np.isnan(record.accuracy)

    def test_deterministic(self, pools):
        train, _ = pools
        a, _, _ = init_pool(train, PLAN, 3)
        b, _, _ = init_pool(train, PLAN, 3)
        assert np.array_equal(a.labeled_ids, b.labeled_ids)

    def test_budget_must_fit_pool(self, pools):
        train, _ = pools
        with pytest.raises(EngineError):
            init_pool(train, BudgetPlan(train.n_samples, 2), 0)


class TestStep:
    def test_pool_conservation_and_no_relabel(self, pools):
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        seen = set(state.labeled_ids.tolist())
        for _ in range(3):
            state, model, record = step(state, model, "margin", train, 0, PLAN.batch)
            union = set(state.labeled_ids.tolist()) | set(state.unlabeled_ids.tolist())
            assert union == set(train.sample_ids.tolist())
            assert seen.isdisjoint(record.selected_ids)
            seen.update(record.selected_ids)
            assert len(state.labeled_ids) == (state.iteration + 1) * PLAN.batch

    def test_random_delegates_to_random_select(self, pools):
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        new_state, _, record = step(state, model, "random", train, 7, PLAN.batch)
        from alamp.engine import _step_seed
        expected = acquisition.random_select(state.unlabeled_ids, PLAN.batch,
                                             _step_seed(7, 1))
        assert sorted(record.selected_ids) == sorted(expected.tolist())
        assert new_state.iteration == 1

    def test_alamp_uses_injected_probability_history(self, pools):
        """`step` ranks by the shift from a hand-built previous model and
        alamp-div spreads over that model's pseudo classes."""
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        ids = state.unlabeled_ids
        # previous model: pseudo class c and a margin near m per id, as the
        # two-hot row p[c] = (1 + m) / 2, p[c + 1] = (1 - m) / 2
        m = np.random.default_rng(11).uniform(0.05, 0.95, size=len(ids))
        prev_class = np.arange(len(ids)) % 3
        rows = np.zeros((len(ids), train.n_classes))
        rows[np.arange(len(ids)), prev_class] = (1 + m) / 2
        rows[np.arange(len(ids)), prev_class + 1] = (1 - m) / 2
        prev = classifier.ProbMatrix(probs=rows)
        state = dataclasses.replace(state, prev_margins=acquisition.margin_scores(prev),
                                    prev_pseudo=acquisition.pseudo_classes(prev))
        curr = classifier.predict_proba(model, train.features[train.rows_for(ids)])

        def margin(probs):
            top2 = np.sort(probs, axis=1)[:, -2:]
            return top2[:, 1] - top2[:, 0]

        prev_m, curr_m = margin(rows), margin(curr.probs)
        shift_order = ids[np.lexsort((ids, -(prev_m - curr_m) / (prev_m + curr_m)))]

        def picks(af):
            return np.array(step(state, model, af, train, 0, PLAN.batch)[2].selected_ids)

        alamp = picks("alamp")
        assert alamp.tolist() == shift_order[:PLAN.batch].tolist()
        assert set(alamp.tolist()) != set(picks("margin").tolist())

        spread = picks("alamp-div")
        curr_class = np.argmax(curr.probs, axis=1)
        ranked = np.searchsorted(ids, shift_order)
        assert spread.tolist() == shift_order[acquisition.diversify(
            prev_class[ranked], PLAN.batch)].tolist()
        assert spread.tolist() != shift_order[acquisition.diversify(
            curr_class[ranked], PLAN.batch)].tolist()
        # one pick per previous pseudo class per pass: 30 picks, 10 per class
        taken = np.bincount(prev_class[np.searchsorted(ids, spread)], minlength=3)
        assert taken.tolist() == [10, 10, 10]

    def test_alamp_precondition_maintained(self, pools):
        # the kept margins and pseudo classes are the picking model's, one
        # per id still unlabeled, in the order of `unlabeled_ids`
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        for _ in range(3):
            picker = model
            state, model, _ = step(state, model, "alamp", train, 0, PLAN.batch)
            ids = state.unlabeled_ids
            probs = classifier.predict_proba(picker, train.features, rows=train.rows_for(ids))
            assert state.prev_margins.shape == state.prev_pseudo.shape == (len(ids),)
            np.testing.assert_allclose(state.prev_margins, acquisition.margin_scores(probs),
                                       rtol=0, atol=1e-12)
            assert np.array_equal(state.prev_pseudo, acquisition.pseudo_classes(probs))

    def test_pool_exhaustion(self, pools):
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        with pytest.raises(EngineError):
            step(state, model, "margin", train, 0, len(state.unlabeled_ids) + 1)

    def test_unknown_af(self, pools, monkeypatch):
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        calls = count_calls(monkeypatch, classifier, "predict_proba")
        with pytest.raises(EngineError):
            step(state, model, "entropy", train, 0, PLAN.batch)
        assert len(calls) == 0

    @pytest.mark.parametrize("af", ["margin", "coreset", "random"])
    @pytest.mark.parametrize("batch", [0, -3])
    def test_batch_below_one_rejected(self, pools, af, batch):
        # a negative batch would slice `order[:-3]`, all but three samples
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        with pytest.raises(EngineError, match="batch size must be >= 1"):
            step(state, model, af, train, 0, batch)


class TestPoolStateChecks:
    @pytest.mark.parametrize("ids", [[1, 3, 2], [1, 2, 2]])
    def test_unlabeled_not_strictly_ascending_rejected(self, ids):
        with pytest.raises(EngineError, match="strictly ascending"):
            PoolState(labeled_ids=np.array([0]), unlabeled_ids=np.array(ids), iteration=0)

    @pytest.mark.parametrize("field", ["prev_margins", "prev_pseudo"])
    def test_one_previous_array_alone_rejected(self, field):
        with pytest.raises(EngineError, match="set together"):
            PoolState(labeled_ids=np.array([0]), unlabeled_ids=np.array([1, 2, 3]),
                      iteration=1, **{field: np.zeros(3)})

    @pytest.mark.parametrize("field", ["prev_margins", "prev_pseudo"])
    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_previous_array_not_aligned_rejected(self, field, shape):
        arrays = {"prev_margins": np.zeros(3), "prev_pseudo": np.zeros(3, dtype=np.int64)}
        arrays[field] = np.zeros(shape)
        with pytest.raises(EngineError, match=f"{field} must hold one entry"):
            PoolState(labeled_ids=np.array([0]), unlabeled_ids=np.array([1, 2, 3]),
                      iteration=1, **arrays)


class TestTieRule:
    @pytest.mark.parametrize("af", ["margin", "alamp", "marg-div"])
    def test_tied_margins_pick_lowest_ids(self, af):
        # every feature row appears twice, as ids i and i + 120, so twins
        # score exactly alike; alamp's first step selects as margin, so
        # alamp is checked on its second step
        base = make_synthetic(4, 30, 4, 1.0, 0)
        twins = Dataset(features=np.vstack([base.features] * 2),
                        labels=np.tile(base.labels, 2), n_classes=4,
                        sample_ids=np.arange(240))
        plan = BudgetPlan(40, 4)
        state, model, _ = init_pool(twins, plan, 0)
        if af == "alamp":
            state, model, _ = step(state, model, af, twins, 0, plan.batch)
        ids = state.unlabeled_ids
        key = acquisition.margin_scores(
            classifier.predict_proba(model, twins.features, rows=twins.rows_for(ids)))
        if af == "alamp":
            key = acquisition.alamp_scores(state.prev_margins, key)
        picks = step(state, model, af, twins, 0, plan.batch)[2].selected_ids

        tied = 0
        for pick in picks:
            twin = (pick + 120) % 240
            if twin not in ids:
                continue
            assert key[np.searchsorted(ids, pick)] == key[np.searchsorted(ids, twin)]
            tied += 1
            # of two tied samples, the lower id is picked, or picked first
            if twin in picks:
                assert (picks.index(pick) < picks.index(twin)) == (pick < twin)
            else:
                assert pick < twin
        assert tied >= 2


def count_calls(monkeypatch, module, name):
    """Patch `module.name` to record one entry per call in the returned list."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestStepScoresOnlyWhatItReads:
    @pytest.mark.parametrize("af, expected", [("random", 0), ("coreset", 0), ("margin", 1)])
    def test_predict_proba_calls(self, pools, monkeypatch, af, expected):
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        calls = count_calls(monkeypatch, classifier, "predict_proba")
        step(state, model, af, train, 0, PLAN.batch)
        assert len(calls) == expected

    def test_second_alamp_step_scores_margins_once(self, pools, monkeypatch):
        # the previous model's margins come from the state, not a re-score
        train, _ = pools
        state, model, _ = init_pool(train, PLAN, 0)
        state, model, _ = step(state, model, "alamp", train, 0, PLAN.batch)
        calls = count_calls(monkeypatch, acquisition, "margin_scores")
        step(state, model, "alamp", train, 0, PLAN.batch)
        assert len(calls) == 1


def relu_dataset(n_classes, per_class, dim, rank, separation, seed):
    """Embedding-like features: ReLU of a random map of a rank-`rank` latent."""
    rng = np.random.default_rng(seed)
    latent = np.repeat(rng.normal(0.0, separation, size=(n_classes, rank)), per_class, axis=0)
    latent += rng.normal(size=latent.shape)
    features = np.maximum(latent @ rng.normal(0.0, rank ** -0.5, size=(rank, dim)), 0.0)
    return Dataset(features=features, labels=np.repeat(np.arange(n_classes), per_class),
                   n_classes=n_classes, sample_ids=np.arange(n_classes * per_class))


class TestStepMemory:
    @pytest.mark.parametrize("af", ["margin", "coreset"])
    def test_step_holds_one_pool_sized_array(self, af):
        # the unlabeled rows are gathered and standardized once, in place, for
        # scoring and again for coreset; no other temporary is pool-sized
        train, _ = train_test_split(relu_dataset(10, 600, 256, 8, 3.0, 0), 0.1, 0)
        state, model, _ = init_pool(train, BudgetPlan(40, 2), 0)
        pool_bytes = len(state.unlabeled_ids) * train.dim * 8
        tracemalloc.start()
        try:
            step(state, model, af, train, 0, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * pool_bytes


class TestRunExperiment:
    def test_record_count_and_labeled_progression(self, pools):
        train, test = pools
        report = run_experiment(train, test, "margin", PLAN, 0)
        assert len(report.records) == PLAN.iterations
        assert [r.labeled_count for r in report.records] == [30, 60, 90, 120]

    def test_all_afs_run(self, pools):
        train, test = pools
        small = BudgetPlan(60, 2)
        for af in AF_NAMES:
            report = run_experiment(train, test, af, small, 0)
            assert len(report.records) == 2
            assert all(0.0 <= r.accuracy <= 1.0 for r in report.records)

    def test_first_step_alamp_equals_margin(self, pools):
        train, test = pools
        alamp_rep = run_experiment(train, test, "alamp", PLAN, 4)
        marg_rep = run_experiment(train, test, "margin", PLAN, 4)
        assert alamp_rep.records[1].selected_ids == marg_rep.records[1].selected_ids

    def test_shared_seed_shares_initial_model(self, pools):
        train, test = pools
        a = run_experiment(train, test, "random", PLAN, 2)
        b = run_experiment(train, test, "coreset", PLAN, 2)
        assert a.records[0].accuracy == b.records[0].accuracy
        assert a.records[0].selected_ids == b.records[0].selected_ids

    def test_deterministic_repeat(self, pools):
        train, test = pools
        a = run_experiment(train, test, "alamp-div", PLAN, 1)
        b = run_experiment(train, test, "alamp-div", PLAN, 1)
        assert a == b

    def test_random_improves_on_average(self, pools):
        train, test = pools
        first, last = [], []
        for seed in range(5):
            report = run_experiment(train, test, "random", PLAN, seed)
            first.append(report.records[0].accuracy)
            last.append(report.records[-1].accuracy)
        assert np.mean(last) >= np.mean(first)

    def test_mismatched_test_rejected(self, pools):
        train, _ = pools
        other = make_synthetic(5, 10, 9, 0.5, 0)
        with pytest.raises(EngineError):
            run_experiment(train, other, "random", PLAN, 0)


class TestSharedFirstSteps:
    def test_each_rule_fits_its_first_step_once(self, pools, monkeypatch, tmp_path):
        # with no previous model alamp selects as margin and alamp-div as
        # marg-div, so 1 initial fit + 7 strategies x 2 steps - 2 shared = 13
        train, test = pools
        plan = BudgetPlan(90, 3)
        calls = count_calls(monkeypatch, classifier, "fit")
        reports = run_strategies(train, test, AF_NAMES, plan, 5)
        assert len(calls) == 13
        monkeypatch.undo()
        for af, report in zip(AF_NAMES, reports):
            write_report(report, tmp_path / "shared.json")
            write_report(run_experiment(train, test, af, plan, 5), tmp_path / "alone.json")
            assert ((tmp_path / "shared.json").read_bytes()
                    == (tmp_path / "alone.json").read_bytes()), af

    def test_shared_first_step_in_any_order(self, pools):
        train, test = pools
        afs = ("alamp-div", "alamp", "random", "marg-div", "margin")
        reports = run_strategies(train, test, afs, PLAN, 6)
        for af, report in zip(afs, reports):
            assert report == run_experiment(train, test, af, PLAN, 6), af


class TestCostSensitivity:
    def test_unweighted_run_cross_validates_unweighted(self, monkeypatch):
        # CV must score the objective the run fits: under cost_sensitive=False
        # the folds train with unit weights, as the final model does
        pool = induce_imbalance(make_synthetic(6, 60, 8, 1.6, 0), 0.9, 3, 0)
        labels = pool.labels
        n_classes = int(labels.max()) + 1
        assignment = classifier._stratified_folds(labels, 3, 11)

        def oracle():  # unit-weight CV, one `train` per candidate and fold
            best_reg, best_acc = None, -1.0
            for reg in classifier.DEFAULT_REG_GRID:
                accs = []
                for f in range(3):
                    tr = assignment != f
                    model = classifier.train(pool.features[tr], labels[tr],
                                             np.ones(n_classes), reg)
                    accs.append(np.mean(classifier.predict(model, pool.features[~tr])
                                        == labels[~tr]))
                if np.mean(accs) > best_acc:
                    best_reg, best_acc = reg, np.mean(accs)
            return best_reg

        chosen = []
        select = classifier.select_reg_param

        def recording_select(*args, **kwargs):
            chosen.append(select(*args, **kwargs))
            return chosen[-1]

        monkeypatch.setattr(classifier, "select_reg_param", recording_select)
        model = classifier.fit(pool, False, 11)
        weighted = select(pool.features, labels, seed=11)
        assert chosen == [oracle()] == [model.reg_param]
        assert weighted != chosen[0]  # the fixture tells the two weightings apart
