import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from alamp import acquisition
from alamp.acquisition import (
    AcquisitionError,
    alamp_scores,
    coreset_select,
    margin_scores,
    pseudo_classes,
    random_select,
)
from alamp.dataset import standardize, train_test_split
from test_engine import relu_dataset


def probs_of(rows):
    return np.asarray(rows, dtype=np.float64)


def diversify(ordered, pseudo, batch):
    """`acquisition.diversify` on a ranking of ids and a {sample id: pseudo
    class} fixture, its picks mapped back to ids."""
    ranks = acquisition.diversify([pseudo[i] for i in ordered], batch)
    return np.asarray(ordered, dtype=np.int64)[ranks]


class TestMarginScores:
    def test_top2_gap(self):
        margins = margin_scores(probs_of([[0.6, 0.3, 0.1]]))
        assert margins[0] == pytest.approx(0.3, abs=1e-12)

    def test_uniform_row_zero(self):
        margins = margin_scores(probs_of([[0.25] * 4]))
        assert margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_ascending_order(self):
        # one margin per row, in row order: the uncertain row scores lower,
        # so it ranks first in the engine's ascending order
        margins = margin_scores(probs_of([[0.9, 0.1], [0.55, 0.45]]))
        assert margins.tolist() == pytest.approx([0.8, 0.1], abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(AcquisitionError):
            margin_scores(probs_of([[1.0]]))

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(0)
        raw = rng.dirichlet(np.ones(5), size=100)
        margins = margin_scores(probs_of(raw))
        assert np.all(margins >= 0) and np.all(margins <= 1)


class TestAlampScores:
    def test_shift_arithmetic(self):
        assert alamp_scores([0.8], [0.2])[0] == pytest.approx(0.6, abs=1e-12)

    def test_no_shift_zero(self):
        assert alamp_scores([0.5], [0.5])[0] == pytest.approx(0.0, abs=1e-12)

    def test_both_zero_defined_as_zero(self):
        assert alamp_scores([0.0], [0.0])[0] == 0.0

    def test_equal_shift_prefers_lower_certainty_sum(self):
        # a: 0.4 -> 0.2 scores 1/3; b: 0.8 -> 0.6 scores 1/7
        scores = alamp_scores([0.4, 0.8], [0.2, 0.6])
        assert scores[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert scores[1] == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert scores[0] > scores[1]

    def test_missing_previous_margin_rejected(self):
        with pytest.raises(AcquisitionError):
            alamp_scores([0.5], [0.5, 0.2])

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.1, 10.0))
    def test_scale_invariance(self, prev, curr, k):
        base = alamp_scores([prev], [curr])[0]
        scaled = alamp_scores([k * prev], [k * curr])[0]
        assert scaled == pytest.approx(base, abs=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_range(self, prev, curr):
        score = alamp_scores([prev], [curr])[0]
        assert -1.0 <= score <= 1.0


class TestRandomSelect:
    def test_whole_pool(self):
        sel = random_select([3, 1, 2], 3, 0)
        assert sorted(sel) == [1, 2, 3]

    def test_deterministic(self):
        a = random_select(range(100), 10, 42)
        b = random_select(range(100), 10, 42)
        assert np.array_equal(a, b)

    def test_batch_too_large(self):
        with pytest.raises(AcquisitionError):
            random_select([1, 2], 3, 0)

    def test_no_duplicates(self):
        sel = random_select(range(50), 25, 7)
        assert len(set(sel.tolist())) == 25

    def test_repeated_pool_id_rejected(self):
        # seed 1 would draw id 1 twice from this pool
        with pytest.raises(AcquisitionError, match="^pool ids must be distinct$"):
            random_select([1, 1, 2], 2, 1)


SELECTIONS = {
    "random_select": lambda batch: random_select([0, 1, 2, 3], batch, 0),
    "coreset_select": lambda batch: coreset_select(np.arange(4.0)[:, None], [0], batch),
    "diversify": lambda batch: acquisition.diversify([0, 0, 1, 1], batch),
}


@pytest.mark.parametrize("name", sorted(SELECTIONS))
@pytest.mark.parametrize("batch", [0, -1, -2])
def test_batch_below_one_rejected(name, batch):
    with pytest.raises(AcquisitionError, match="batch size must be >= 1"):
        SELECTIONS[name](batch)


def coreset_rows(features, labeled, unlabeled, batch):
    """`coreset_select` over rows of one feature matrix: `labeled` and
    `unlabeled` are rows of `features`, and so are the picks (the space is
    their rows in ascending order, so ties go to the lowest row)."""
    features = np.asarray(features, dtype=np.float64)
    rows = np.union1d(labeled, unlabeled).astype(np.int64)
    return rows[coreset_select(features[rows], np.searchsorted(rows, labeled), batch)]


def rows_api_coreset(features, labeled_ids, unlabeled_ids, batch):
    """The earlier rows-API `coreset_select`, kept as an oracle: it gathers and
    squares the unlabeled rows itself and returns rows of `features`."""
    features = np.asarray(features, dtype=np.float64)
    labeled = np.asarray(labeled_ids, dtype=np.int64)
    unlabeled = np.sort(np.asarray(unlabeled_ids, dtype=np.int64))
    if len(labeled) == 0:
        raise AcquisitionError("coreset needs a non-empty labeled set")
    if batch > len(unlabeled):
        raise AcquisitionError(f"batch {batch} exceeds pool size {len(unlabeled)}")

    u_feats = features[unlabeled]
    u_sq = (u_feats ** 2).sum(axis=1)
    tol = 2.0 * (features.shape[1] + 2) * np.finfo(np.float64).eps

    def nearest(centres):
        norms = u_sq[:, None] + (centres ** 2).sum(axis=1)
        sq = u_feats @ centres.T
        sq *= -2.0
        sq += norms
        norms *= tol
        sq[sq <= norms] = 0.0
        return np.sqrt(sq.min(axis=1))

    min_dist = np.full(len(unlabeled), np.inf)
    for start in range(0, len(labeled), 2048):
        min_dist = np.minimum(min_dist, nearest(features[labeled[start:start + 2048]]))

    picks = []
    for _ in range(batch):
        pick = int(np.argmax(min_dist))  # argmax returns the first (lowest row) max
        picks.append(pick)
        min_dist = np.minimum(min_dist, nearest(u_feats[pick:pick + 1]))
        min_dist[pick] = -np.inf
    return unlabeled[picks]


def exhaustive_minmax(features, labeled_ids, unlabeled_ids):
    """Independent O(|U| * |L|) oracle for the single minmax pick."""
    best_id, best_dist = None, -1.0
    for u in sorted(unlabeled_ids):
        nearest = min(np.linalg.norm(features[u] - features[l])
                      for l in labeled_ids)
        if nearest > best_dist:
            best_id, best_dist = u, nearest
    return best_id


def greedy_minmax(features, labeled_ids, unlabeled_ids, batch):
    """Independent greedy k-center over exact norms; ties to the lowest id."""
    unlabeled = sorted(unlabeled_ids)
    points = features[unlabeled]
    nearest = np.min([np.linalg.norm(points - features[l], axis=1) for l in labeled_ids],
                     axis=0)
    picks = []
    for _ in range(batch):
        # max() keeps the first of equal keys, i.e. the lowest id
        best = max((j for j in range(len(unlabeled)) if unlabeled[j] not in picks),
                   key=lambda j: nearest[j])
        picks.append(unlabeled[best])
        nearest = np.minimum(nearest, np.linalg.norm(points - points[best], axis=1))
    return picks


class TestCoresetSelect:
    def test_hand_example_1d(self):
        # labeled {0.0}; unlabeled {1.0, 3.0, 2.9}; after 3.0 is covered,
        # 1.0's min-dist 1.0 beats 2.9's 0.1
        feats = np.array([[0.0], [1.0], [3.0], [2.9]])
        sel = coreset_rows(feats, [0], [1, 2, 3], 2)
        assert list(sel) == [2, 1]

    def test_coincident_point_never_first(self):
        feats = np.array([[0.0], [0.0], [5.0]])
        sel = coreset_rows(feats, [0], [1, 2], 1)
        assert sel[0] == 2

    @pytest.mark.parametrize("trial", range(100))
    def test_batch_one_matches_exhaustive_oracle(self, trial):
        rng = np.random.default_rng(trial)
        n_l = int(rng.integers(1, 51))
        n_u = int(rng.integers(1, 201))
        dim = int(rng.integers(1, 17))
        feats = rng.normal(size=(n_l + n_u, dim))
        labeled = list(range(n_l))
        unlabeled = list(range(n_l, n_l + n_u))
        got = coreset_rows(feats, labeled, unlabeled, 1)[0]
        assert got == exhaustive_minmax(feats, labeled, unlabeled)
        batch = int(rng.integers(1, n_u + 1))
        got = coreset_rows(feats, labeled, unlabeled, batch)
        assert got.tolist() == greedy_minmax(feats, labeled, unlabeled, batch)

    def test_coincident_twins_come_last(self):
        rng = np.random.default_rng(2)
        distinct = rng.normal(size=(12, 4))
        # row 0 labeled; rows 1-12 and their twins 13-24 unlabeled
        feats = np.vstack([rng.normal(size=(1, 4)), distinct, distinct])
        sel = coreset_rows(feats, [0], list(range(1, 25)), 24).tolist()
        assert sorted(sel) == list(range(1, 25))
        locations = [(i - 1) % 12 for i in sel]
        assert sorted(locations[:12]) == list(range(12))

    def test_coincident_twins_tie_to_lowest_id(self):
        rng = np.random.default_rng(2)
        labeled = 10.0 * rng.normal(size=(1, 4))
        distinct = 10.0 * rng.normal(size=(12, 4))
        # row 0 labeled; rows 1-12 distinct, 13-24 their twins, 25-27 twins of row 0
        feats = np.vstack([labeled, distinct, distinct, labeled, labeled, labeled])
        sel = coreset_rows(feats, [0], list(range(1, 28)), 27).tolist()
        assert sorted(sel[:12]) == list(range(1, 13))
        assert sel[12:] == list(range(13, 28))

    def test_empty_labeled_rejected(self):
        with pytest.raises(AcquisitionError):
            coreset_rows(np.zeros((2, 1)), [], [0, 1], 1)

    def test_no_duplicates_full_batch(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(30, 3))
        sel = coreset_rows(feats, [0, 1], list(range(2, 30)), 28)
        assert len(set(sel.tolist())) == 28

    @staticmethod
    def assert_matches_rows_api(feats, labeled, unlabeled):
        n_u = len(unlabeled)
        for batch in sorted({b for b in (1, 2, n_u // 2, n_u) if 1 <= b <= n_u}):
            assert np.array_equal(coreset_rows(feats, labeled, unlabeled, batch),
                                  rows_api_coreset(feats, labeled, unlabeled, batch))

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_rows_api_on_random_features(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n_l, n_u, dim = (int(rng.integers(1, 61)), int(rng.integers(1, 301)),
                         int(rng.integers(1, 33)))
        feats = rng.normal(size=(n_l + n_u, dim))
        order = rng.permutation(n_l + n_u)
        self.assert_matches_rows_api(feats, order[:n_l], order[n_l:])

    def test_matches_rows_api_on_relu_features(self):
        # non-negative, correlated rows; the pool and the labeled set both
        # span more than one 2048-row block
        rng = np.random.default_rng(7)
        latent = np.repeat(rng.normal(0.0, 3.0, size=(10, 8)), 460, axis=0)
        latent += rng.normal(size=latent.shape)
        feats = np.maximum(latent @ rng.normal(0.0, 8 ** -0.5, size=(8, 64)), 0.0)
        order = rng.permutation(len(feats))
        self.assert_matches_rows_api(feats, order[:2100], order[2100:])

    def test_matches_rows_api_on_exact_duplicates(self):
        rng = np.random.default_rng(3)
        base = 10.0 * rng.normal(size=(8, 5))
        # every point appears three times, shuffled; rows 0-3 are labeled
        feats = np.vstack([base, base, base])[rng.permutation(24)]
        self.assert_matches_rows_api(feats, np.arange(4), np.arange(4, 24))

    def test_picks_are_pool_positions(self):
        space = np.array([[1.0], [0.0], [3.0], [2.9]])
        assert coreset_select(space, [1], 2).tolist() == [2, 0]
        # equal distances tie to the lowest position
        assert coreset_select(np.array([[0.0], [2.0], [-2.0]]), [0], 1).tolist() == [1]

    def test_labeled_row_never_picked(self):
        # every unlabeled row coincides with a labeled one, and the batch
        # takes them all: they tie at distance 0 and the labeled rows stay out
        rng = np.random.default_rng(4)
        base = rng.normal(size=(5, 3))
        space = np.vstack([base, base, base[:2]])
        labeled = np.array([0, 1, 2, 3, 4])
        picks = coreset_select(space, labeled, len(space) - len(labeled))
        assert picks.tolist() == list(range(5, 12))
        assert not np.isin(picks, labeled).any()

    def test_batch_above_unlabeled_count_rejected(self):
        space = np.arange(5.0)[:, None]
        assert len(coreset_select(space, [0, 2], 3)) == 3
        with pytest.raises(AcquisitionError, match="batch 4 exceeds pool size 3"):
            coreset_select(space, [0, 2], 4)
        # a repeated labeled row is counted once
        with pytest.raises(AcquisitionError, match="batch 4 exceeds pool size 3"):
            coreset_select(space, [0, 2, 2], 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 30])  # a labeled row and an unlabeled one
    def test_non_finite_features_rejected(self, bad, row):
        # with one NaN row the picks once included labeled row 0
        space = np.random.default_rng(0).normal(size=(100, 4))
        space[row, 2] = bad
        with pytest.raises(AcquisitionError, match="finite"):
            coreset_select(space, [0], 5)

    @pytest.mark.parametrize("labeled", [[-1], [5], [0, 7]])
    def test_labeled_row_outside_space_rejected(self, labeled):
        with pytest.raises(AcquisitionError, match=r"labeled rows must lie in \[0, 5\)"):
            coreset_select(np.arange(5.0)[:, None], labeled, 1)


def relu_space(per_class, dim, seed):
    """A standardized ReLU training space, as a run builds it."""
    return standardize(*train_test_split(relu_dataset(10, per_class, dim, 8, 1.0, seed),
                                         0.1, seed + 1))[0].features


def count_measured_rows(monkeypatch):
    """Rows `coreset_select` measures against its picks, as a list that fills
    while the patch is in place; the labeled pass measures whole-space slices."""
    measured = []
    nearest = acquisition._nearest

    def counting(features, u_sq, rows, centres):
        if not isinstance(rows, slice):
            measured.append(len(rows))
        return nearest(features, u_sq, rows, centres)

    monkeypatch.setattr(acquisition, "_nearest", counting)
    return measured


class TestLazyCoreset:
    """The lazy picks are the eager rule's: the whole-space pass per pick of
    `rows_api_coreset`."""

    # points on a small integer grid: many exact duplicates and exact ties
    # in distance, all computed without rounding
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(2, 120), st.integers(1, 3)),
                  elements=st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])), st.data())
    def test_matches_rows_api_with_duplicates_and_ties(self, feats, data):
        n = len(feats)
        labeled = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                                     unique=True))
        unlabeled = np.setdiff1d(np.arange(n), labeled)
        batch = data.draw(st.integers(1, len(unlabeled)))
        assert np.array_equal(coreset_select(feats, labeled, batch),
                              rows_api_coreset(feats, labeled, unlabeled, batch))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_eager_picks_on_relu_features(self, seed):
        features = relu_space(300, 256, seed)
        rng = np.random.default_rng(seed)
        for n_labeled in (20, 60, 200):
            labeled = rng.choice(len(features), n_labeled, replace=False)
            unlabeled = np.setdiff1d(np.arange(len(features)), labeled)
            assert np.array_equal(coreset_select(features, labeled, 60),
                                  rows_api_coreset(features, labeled, unlabeled, 60))

    def test_measures_few_rows_per_pick_of_a_pool_sized_space(self, monkeypatch):
        # the pool workload's shape: 18k ReLU rows in 512 dims, 20 labeled, 20 picks
        features = relu_space(2000, 512, 3)
        assert features.shape == (18000, 512)
        labeled = np.random.default_rng(3).choice(len(features), 20, replace=False)
        measured = count_measured_rows(monkeypatch)
        picks = coreset_select(features, labeled, 20)
        assert sum(measured) < 0.05 * len(features) * 20
        monkeypatch.undo()
        unlabeled = np.setdiff1d(np.arange(len(features)), labeled)
        assert np.array_equal(picks, rows_api_coreset(features, labeled, unlabeled, 20))


def reference_diversify(ordered, pseudo, batch):
    """The pass-by-pass loop: each pass takes the first not-yet-chosen id of
    every pseudo class, in ranking order, until the batch is filled."""
    selected, chosen = [], set()
    while len(selected) < batch:
        seen_classes = set()
        for sid in ordered:
            if pseudo[sid] not in seen_classes and sid not in chosen:
                selected.append(sid)
                chosen.add(sid)
                seen_classes.add(pseudo[sid])
    return selected[:batch]


class TestDiversify:
    def test_two_classes_one_pass(self):
        # ordered [a0, b0, c1, d1], batch 2 -> [a, c]
        got = diversify([0, 1, 2, 3], {0: 0, 1: 0, 2: 1, 3: 1}, 2)
        assert list(got) == [0, 2]

    def test_single_class_multi_pass(self):
        got = diversify([4, 5, 6, 7], {i: 0 for i in range(4, 8)}, 3)
        assert list(got) == [4, 5, 6]

    def test_batch_equals_pool(self):
        ordered = [9, 3, 7, 1]
        got = diversify(ordered, {9: 0, 3: 0, 7: 1, 1: 2}, 4)
        assert sorted(got) == sorted(ordered)

    def test_hand_traces(self):
        # fixtures hand-simulated pass by pass
        cases = [
            # (ordered, pseudo, batch, expected)
            ([0, 1, 2], {0: 0, 1: 1, 2: 2}, 3, [0, 1, 2]),
            ([0, 1, 2, 3], {0: 0, 1: 0, 2: 0, 3: 1}, 3, [0, 3, 1]),
            ([5, 4, 3, 2, 1], {5: 1, 4: 1, 3: 1, 2: 2, 1: 2}, 4, [5, 2, 4, 1]),
            ([7, 8, 9], {7: 0, 8: 1, 9: 0}, 2, [7, 8]),
            ([1, 2, 3, 4, 5, 6], {1: 0, 2: 1, 3: 0, 4: 1, 5: 2, 6: 2}, 5,
             [1, 2, 5, 3, 4]),
            ([10, 11], {10: 3, 11: 3}, 2, [10, 11]),
            ([2, 4, 6, 8], {2: 0, 4: 1, 6: 2, 8: 0}, 4, [2, 4, 6, 8]),
            ([9, 8, 7, 6], {9: 1, 8: 1, 7: 1, 6: 1}, 2, [9, 8]),
        ]
        for ordered, pseudo, batch, expected in cases:
            assert list(diversify(ordered, pseudo, batch)) == expected

    def test_batch_too_large(self):
        with pytest.raises(AcquisitionError):
            diversify([0], {0: 0}, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.integers(5, 40), st.integers(0, 2 ** 31))
    def test_per_class_counts_balanced(self, n_classes, pool, seed):
        rng = np.random.default_rng(seed)
        ordered = list(rng.permutation(pool))
        pseudo = {i: int(rng.integers(0, n_classes)) for i in range(pool)}
        batch = int(rng.integers(1, pool + 1))
        got = diversify(ordered, pseudo, batch)
        assert len(set(got.tolist())) == batch
        # non-exhausted classes never differ by more than 1 selection
        available = {c: sum(1 for i in ordered if pseudo[i] == c)
                     for c in range(n_classes)}
        taken = {c: sum(1 for i in got if pseudo[i] == c) for c in range(n_classes)}
        active = [c for c in range(n_classes)
                  if available[c] > 0 and taken[c] < available[c]]
        if len(active) > 1:
            counts = [taken[c] for c in active]
            assert max(counts) - min(counts) <= 1


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60),
           st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    @example([0] * 40, 0, 1.0)   # one class, batch == pool
    @example([3] * 40, 1, 0.5)   # one class, several passes
    @example([0, 1, 2] * 10, 2, 1.0)
    def test_matches_pass_loop_reference(self, classes, seed, batch_frac):
        # ids are sparse and ranked in random order
        ids = [3 * i + 1 for i in range(len(classes))]
        pseudo = dict(zip(ids, classes))
        ordered = np.random.default_rng(seed).permutation(ids).tolist()
        batch = 1 + int(batch_frac * (len(ids) - 1))
        got = diversify(ordered, pseudo, batch)
        assert got.tolist() == reference_diversify(ordered, pseudo, batch)


class TestPseudoClasses:
    def test_argmax(self):
        assert pseudo_classes(probs_of([[0.7, 0.2, 0.1]])).tolist() == [0]

    def test_tie_to_lowest(self):
        assert pseudo_classes(probs_of([[0.5, 0.5]])).tolist() == [0]

    def test_covers_exactly_scored_ids(self):
        # one class per scored row, in row order
        assert pseudo_classes(probs_of([[0.6, 0.4], [0.2, 0.8]])).tolist() == [0, 1]
