import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glasscreen import numeric_core
from glasscreen.baseline_knn import KnnConfig, knn_evaluate, knn_scores
from glasscreen.data_pipeline import Samples, fit_normalization, normalize
from glasscreen.evaluation import Report
from glasscreen.numeric_core import RandomSource, row_blocks
from sample_tables import concat, labeled


def line_point(t, y, tg=500.0):
    return labeled([t, 1.0 - t], y, tg)


class TestKnnScore:
    def test_exact_match_single_target(self):
        train = line_point(0.3, 1)
        stats = fit_normalization(concat([train, line_point(0.9, 0)]))
        assert knn_scores(train, stats, np.array([[0.3, 0.7]]), KnnConfig(1))[0] == 1.0

    def test_k_equals_train_size_gives_base_rate(self):
        train = concat([line_point(0.1, 1), line_point(0.5, 0), line_point(0.9, 0)])
        stats = fit_normalization(train)
        got = knn_scores(train, stats, np.array([[0.2, 0.8]]), KnnConfig(3))[0]
        assert got == pytest.approx(1 / 3)

    def test_hand_instance_two_neighbors(self):
        # points on the simplex edge at t = 0.0 (y=1), 0.5 (y=0), 1.0 (y=1);
        # query at t = 0.4 has neighbors {0.5, 0.0} for k = 2
        train = concat([line_point(0.0, 1), line_point(0.5, 0), line_point(1.0, 1)])
        stats = fit_normalization(train)
        got = knn_scores(train, stats, np.array([[0.4, 0.6]]), KnnConfig(2))[0]
        assert got == 0.5

    def test_scores_are_multiples_of_inverse_k(self):
        rng = RandomSource(0)
        train = concat(line_point(float(rng.uniform()), int(rng.uniform() > 0.5))
                       for _ in range(20))
        stats = fit_normalization(train)
        for _ in range(10):
            s = knn_scores(train, stats, np.array([[rng.uniform(), rng.uniform()]]),
                           KnnConfig(4))[0]
            assert s in {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_k_larger_than_train_rejected(self):
        train = line_point(0.5, 1)
        stats = fit_normalization(concat([train, line_point(0.1, 0)]))
        with pytest.raises(ValueError):
            knn_scores(train, stats, np.array([[0.5, 0.5]]), KnnConfig(2))

    def test_empty_train_rejected(self):
        train = concat([line_point(0.5, 1), line_point(0.1, 0)])
        stats = fit_normalization(train)
        with pytest.raises(ValueError):
            knn_scores(train[:0], stats, np.array([[0.5, 0.5]]), KnnConfig(1))

    def test_config_validates(self):
        with pytest.raises(ValueError):
            KnnConfig(0)


def make_sets(seed=1, n_train=40, n_val=20):
    rng = RandomSource(seed)
    def sample():
        t = float(rng.uniform())
        return line_point(t, int(t > 0.6), tg=400.0 + 300.0 * t)
    train = concat(sample() for _ in range(n_train))
    val = concat(sample() for _ in range(n_val))
    return train, val


class TestKnnEvaluate:
    def test_report_schema_matches_encoder_report(self):
        train, val = make_sets()
        stats = fit_normalization(train)
        report = knn_evaluate(train, val, stats, KnnConfig(5), k_rank=5)
        assert isinstance(report, Report)
        assert 0.0 <= report.auc <= 1.0
        fpr, tpr = report.roc
        assert (fpr[0], tpr[0]) == (0.0, 0.0) and (fpr[-1], tpr[-1]) == (1.0, 1.0)
        assert report.scores.shape == (len(val),)
        assert report.k == 5

    def test_deterministic(self):
        train, val = make_sets()
        stats = fit_normalization(train)
        r1 = knn_evaluate(train, val, stats, KnnConfig(5), k_rank=5)
        r2 = knn_evaluate(train, val, stats, KnnConfig(5), k_rank=5)
        assert r1.scores.tolist() == r2.scores.tolist()
        assert r1.auc == r2.auc

    def test_matches_scalar_scoring(self):
        train, val = make_sets()
        stats = fit_normalization(train)
        report = knn_evaluate(train, val, stats, KnnConfig(3), k_rank=5)
        for got, sample in zip(report.scores, val):
            assert got == knn_scores(train, stats, sample.fractions[None], KnnConfig(3))[0]

    def test_train_order_permutation_without_ties(self):
        train, val = make_sets(seed=2)
        stats = fit_normalization(train)
        before = knn_evaluate(train, val, stats, KnnConfig(5), k_rank=5)
        shuffled = train[::-1]
        after = knn_evaluate(shuffled, val, stats, KnnConfig(5), k_rank=5)
        assert before.scores.tolist() == after.scores.tolist()

    def test_empty_validation_rejected(self):
        train, _ = make_sets()
        stats = fit_normalization(train)
        with pytest.raises(ValueError, match="non-empty validation set"):
            knn_evaluate(train, train[:0], stats, KnnConfig(5), k_rank=5)


def sorted_knn_scores(train, stats, queries, k):
    """Reference scorer: a full stable argsort of each block's distances, the
    first k columns as the neighbours and the mean of their labels."""
    x = normalize(train.fractions, stats)
    labels = train.y.astype(np.float64)
    q_all = normalize(queries, stats)
    train_sq = np.sum(x ** 2, axis=1)
    scores = []
    for q in row_blocks(q_all, 8 * len(train)):
        d2 = np.sum(q ** 2, axis=1)[:, None] + train_sq[None, :] - 2.0 * (q @ x.T)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        scores.append(labels[nearest].mean(axis=1))
    return np.concatenate(scores)


def block_budget(rows, train):
    """The BLOCK_BYTES that gives knn_scores blocks of ``rows`` query rows."""
    return rows * 8 * len(train)


@st.composite
def tied_knn_problems(draw):
    """(train, stats, queries, k, rows): training rows on a coarse grid with
    exact duplicates, so distances tie; queries that repeat training rows or
    lie on the grid, tiled past a block boundary of ``rows`` query rows; k
    from 1 to the training size."""
    n = draw(st.integers(2, 4))
    grid = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    distinct = draw(st.lists(grid, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=20))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(picks), max_size=len(picks)))
    train = concat(labeled(np.array(distinct[i], dtype=np.float64) / 4, y)
                   for i, y in zip(picks, labels))
    k = draw(st.integers(1, len(train)))
    rows = draw(st.lists(st.one_of(st.integers(0, len(train) - 1).map(
        lambda i: train.fractions[i]), grid.map(lambda g: np.array(g, dtype=np.float64) / 4)),
        min_size=1, max_size=6))
    block = draw(st.integers(2, 4))
    size = draw(st.sampled_from([1, block, block + 1, 2 * block + 3]))
    queries = np.resize(np.array(rows), (size, n))
    return train, fit_normalization(train), queries, k, block


class TestKnnSelection:
    @settings(max_examples=150, deadline=None)
    @given(tied_knn_problems())
    def test_matches_full_stable_sort(self, problem):
        train, stats, queries, k, rows = problem
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numeric_core, "BLOCK_BYTES", block_budget(rows, train))
            expected = sorted_knn_scores(train, stats, queries, k)
            got = knn_scores(train, stats, queries, KnnConfig(k))
        assert got.tobytes() == expected.tobytes()

    def test_nan_query_matches_full_stable_sort(self):
        train, _ = make_sets(seed=3)
        stats = fit_normalization(train)
        queries = np.array([[np.nan, 0.5], [0.2, 0.8], [np.inf, 0.0]])
        for k in (1, 3, len(train)):
            with np.errstate(invalid="ignore"):  # inf - inf in the distance
                expected = sorted_knn_scores(train, stats, queries, k)
                got = knn_scores(train, stats, queries, KnnConfig(k))
            assert got.tobytes() == expected.tobytes()


class TestKnnBlocks:
    @staticmethod
    def block_rows(train, queries, monkeypatch):
        """The query rows of each distance block knn_scores selects from."""
        rows = []
        partition = np.partition

        def recording(d2, *args, **kwargs):
            rows.append(d2.shape[0])
            return partition(d2, *args, **kwargs)

        monkeypatch.setattr(np, "partition", recording)
        knn_scores(train, fit_normalization(train), queries, KnnConfig(3))
        return rows

    def test_no_one_row_block(self, monkeypatch):
        # a one-row block's distances come from numpy's vector-matrix product,
        # whose last bits differ from the same row's inside a block
        train, val = make_sets(n_train=40, n_val=257)
        assert self.block_rows(train, val.fractions, monkeypatch) == [257]
        monkeypatch.setattr(numeric_core, "BLOCK_BYTES", block_budget(3, train))
        assert self.block_rows(train, val.fractions[:7], monkeypatch) == [4, 3]

    def test_memory_does_not_grow_with_the_training_table(self):
        # 500 queries against 20,000 training rows: a 256-row block of
        # distances alone would be 41 MB
        rng = RandomSource(5)
        n_train = 20_000
        train = Samples(rng.uniform((n_train, 8)), np.full(n_train, 500.0),
                        np.ones(n_train, dtype=bool), (rng.uniform(n_train) > 0.5).astype(np.int64))
        stats = fit_normalization(train)
        queries = rng.uniform((500, 8))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            knn_scores(train, stats, queries, KnnConfig(5))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16e6
