import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from glasscreen import evaluation
from glasscreen.data_pipeline import EmptyClassError, fit_normalization, write_table
from glasscreen.deepglassnet import ArchConfig, init_params
from glasscreen.evaluation import (
    Report,
    auc,
    class_center,
    evaluate,
    precision_at_k,
    roc_points,
    score,
    top_k,
)
from glasscreen.numeric_core import NumericFailure, RandomSource
from sample_tables import table


def records_from(pos_scores, neg_scores):
    """(scores, labels) arrays: the targets first, then the non-targets."""
    scores = np.array(list(pos_scores) + list(neg_scores), dtype=np.float64)
    labels = np.array([1] * len(pos_scores) + [0] * len(neg_scores))
    return scores, labels


def auc_bruteforce(scores, labels):
    """Quadratic pair-count oracle (strict inequality, ties count zero)."""
    pos = [float(s) for s, y in zip(scores, labels) if y == 1]
    neg = [float(s) for s, y in zip(scores, labels) if y != 1]
    wins = sum(1 for sp in pos for sn in neg if sp > sn)
    return wins / (len(pos) * len(neg))


def trapezoid_area(roc):
    points = list(zip(*roc))
    area = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        area += (x2 - x1) * (y1 + y2) / 2.0
    return area


class TestAuc:
    def test_hand_enumeration(self):
        assert auc(*records_from([0.9, 0.4], [0.5, 0.1])) == 0.75

    def test_perfect_separation(self):
        assert auc(*records_from([0.9, 0.8], [0.2, 0.1])) == 1.0

    def test_all_ties_score_zero(self):
        # strict-inequality convention: equal scores earn nothing
        assert auc(*records_from([0.5, 0.5], [0.5, 0.5])) == 0.0

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = 200
            scores = np.round(rng.normal(size=m), 1)  # rounding forces ties
            labels = rng.integers(0, 2, size=m)
            if labels.sum() in (0, m):
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == auc_bruteforce(scores, labels)

    @pytest.mark.parametrize("transform", [
        lambda s: 2.0 * s + 5.0,
        lambda s: math.exp(s),
        lambda s: s ** 3,
    ])
    def test_invariant_under_increasing_transforms(self, transform):
        rng = np.random.default_rng(1)
        scores, labels = records_from(rng.normal(size=40), rng.normal(size=60))
        mapped = np.array([transform(float(s)) for s in scores])
        assert auc(mapped, labels) == auc(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(EmptyClassError):
            auc(*records_from([0.5], []))


class TestRocPoints:
    def test_endpoints(self):
        fpr, tpr = roc_points(*records_from([0.9, 0.4], [0.5, 0.1]))
        assert fpr.dtype == tpr.dtype == np.float64 and fpr.shape == tpr.shape
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)

    def test_perfect_separation_passes_ideal_corner(self):
        fpr, tpr = roc_points(*records_from([0.9, 0.8], [0.2, 0.1]))
        assert (0.0, 1.0) in zip(fpr.tolist(), tpr.tolist())

    def test_monotone_staircase(self):
        rng = np.random.default_rng(2)
        fpr, tpr = roc_points(*records_from(rng.normal(size=50), rng.normal(size=70)))
        assert fpr.tolist() == sorted(fpr.tolist())
        assert tpr.tolist() == sorted(tpr.tolist())

    def test_rates_are_the_count_quotients(self):
        # each rate is the double Python's int division gives, at the last
        # row of each run of tied scores in descending order
        rng = np.random.default_rng(5)
        scores, labels = records_from(np.round(rng.normal(size=37), 1),
                                      np.round(rng.normal(size=53), 1))
        order = sorted(range(scores.size), key=lambda i: -scores[i])  # stable
        expected, tp, fp = [(0.0, 0.0)], 0, 0
        for pos, i in enumerate(order):
            tp, fp = tp + int(labels[i] == 1), fp + int(labels[i] != 1)
            if pos == len(order) - 1 or scores[order[pos + 1]] != scores[i]:
                expected.append((fp / 53, tp / 37))
        fpr, tpr = roc_points(scores, labels)
        assert list(zip(fpr.tolist(), tpr.tolist())) == expected

    def test_random_labels_give_half_area(self):
        rng = np.random.default_rng(3)
        m = 10_000
        scores = np.empty(m)
        labels = np.empty(m, dtype=np.int64)
        for i in range(m):  # same interleaved draw order as one record at a time
            scores[i] = rng.normal()
            labels[i] = rng.integers(0, 2)
        assert abs(trapezoid_area(roc_points(scores, labels)) - 0.5) < 0.05

    def test_area_equals_auc_when_tie_free(self):
        rng = np.random.default_rng(4)
        scores = rng.permutation(np.linspace(-3, 3, 120))  # all distinct
        labels = rng.integers(0, 2, size=120)
        labels[0], labels[1] = 0, 1
        assert abs(trapezoid_area(roc_points(scores, labels)) - auc(scores, labels)) < 1e-12


class TestTopK:
    # heavy ties, -0.0 beside 0.0, values far apart, and nan and +-inf, which
    # pin the nan rule (nan ranks last) at every k
    SCORES = (st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, math.nan, math.inf, -math.inf])
              | st.floats(-1e3, 1e3))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_full_lexsort(self, data):
        m = data.draw(st.integers(1, 60), label="m")
        scores = data.draw(arrays(np.float64, m, elements=self.SCORES), label="scores")
        k = data.draw(st.sampled_from([1, m]) | st.integers(1, m), label="k")
        before = scores.tobytes()
        expected = np.lexsort((np.arange(m), -scores))[:k]
        assert np.array_equal(top_k(scores, k), expected)
        assert scores.tobytes() == before


class TestPrecisionAtK:
    def test_all_targets_on_top(self):
        assert precision_at_k(*records_from([0.9, 0.8], [0.2, 0.1]), 2) == 1.0

    def test_k_equals_count_gives_base_rate(self):
        assert precision_at_k(*records_from([0.9, 0.8, 0.7], [0.2, 0.1]), 5) == 3 / 5

    def test_hand_case(self):
        assert precision_at_k(*records_from([0.9], [0.5, 0.1]), 1) == 1.0

    def test_tie_break_by_index(self):
        scores, labels = np.array([0.5, 0.5, 0.5]), np.array([1, 0, 1])
        assert precision_at_k(scores, labels, 1) == 1.0  # index 0 wins the tie
        assert precision_at_k(scores, labels, 2) == 0.5

    def test_k_out_of_range(self):
        scores, labels = records_from([0.9], [0.1])
        with pytest.raises(ValueError):
            precision_at_k(scores, labels, 0)
        with pytest.raises(ValueError):
            precision_at_k(scores, labels, 3)

    @given(st.integers(1, 10))
    def test_invariant_under_increasing_transform(self, k):
        rng = np.random.default_rng(5)
        scores, labels = records_from(rng.normal(size=8), rng.normal(size=8))
        mapped = np.array([3.0 * float(s) + 1.0 for s in scores])
        assert precision_at_k(mapped, labels, k) == precision_at_k(scores, labels, k)


def make_dataset(n_samples=30, n=3, seed=0):
    rng = RandomSource(seed)
    fractions = []
    for _ in range(n_samples):
        x = rng.uniform(size=n)
        fractions.append(x / x.sum())
    return table(fractions, [500.0 + i for i in range(n_samples)],
                 [int(i % 3 == 0) for i in range(n_samples)])


ARCH = ArchConfig(n_components=3, embed_dim=4, adjacency_rank=2,
                  attention_dim=4, hidden_dim=6, feature_dim=4)


class TestClassCenterAndScore:
    def setup_method(self):
        self.samples = make_dataset()
        self.stats = fit_normalization(self.samples)
        self.params = init_params(ARCH, seed=1)
        self.params.b_out += 0.4  # keep clear of the zero-norm guard

    def test_single_target_center_is_its_feature(self):
        target = self.samples[self.samples.y == 1][:1]
        center = class_center(target, self.params, self.stats)
        scores = score(target.fractions, self.params, self.stats, center.vector)
        assert abs(scores[0] - 1.0) < 1e-12  # <f, f> = 1 for unit f

    def test_center_norm_at_most_one(self):
        targets = self.samples[self.samples.y == 1]
        center = class_center(targets, self.params, self.stats)
        assert np.linalg.norm(center.vector) <= 1.0 + 1e-12

    def test_antipodal_features_warn(self, monkeypatch, caplog):
        monkeypatch.setattr(
            evaluation, "eval_features",
            lambda x, params: np.array([[1.0, 0.0], [-1.0, 0.0]]),
        )
        center = class_center(self.samples[:2], self.params, self.stats)
        assert np.array_equal(center.vector, [0.0, 0.0])
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("glasscreen.evaluation", logging.WARNING,
             "class center has near-zero norm; scores will be ~0")]

    def test_zero_center_scores_zero(self):
        scores = score(self.samples.fractions, self.params, self.stats,
                       np.zeros(ARCH.feature_dim))
        assert np.all(scores == 0.0)

    def test_scores_bounded_by_center_norm(self):
        targets = self.samples[self.samples.y == 1]
        center = class_center(targets, self.params, self.stats)
        bound = np.linalg.norm(center.vector) + 1e-12
        scores = score(self.samples.fractions, self.params, self.stats, center.vector)
        assert np.all(np.abs(scores) <= bound)

    def test_order_preserved(self):
        targets = self.samples[self.samples.y == 1]
        center = class_center(targets, self.params, self.stats)
        scores = score(self.samples.fractions, self.params, self.stats, center.vector)
        one_by_one = [score(self.samples.fractions[i:i + 1], self.params, self.stats,
                            center.vector)[0]
                      for i in range(len(self.samples))]
        assert scores.shape == (len(self.samples),)
        np.testing.assert_allclose(scores, one_by_one, rtol=0.0, atol=1e-12)
        report = evaluate(self.samples, self.params, self.stats, center.vector, k=5)
        assert report.labels.tolist() == self.samples.y.tolist()
        assert report.tg.tolist() == self.samples.tg.tolist()

    def test_empty_target_list_rejected(self):
        with pytest.raises(EmptyClassError):
            class_center(self.samples[:0], self.params, self.stats)
        with pytest.raises(EmptyClassError):
            class_center([], self.params, self.stats)

    def test_row_list_matches_sub_table(self):
        targets = self.samples[self.samples.y == 1]
        from_rows = class_center([s for s in self.samples if s.y == 1], self.params, self.stats)
        assert from_rows.vector.tobytes() == \
            class_center(targets, self.params, self.stats).vector.tobytes()


class TestEvaluate:
    def setup_method(self):
        self.samples = make_dataset(40)
        self.stats = fit_normalization(self.samples)
        self.params = init_params(ARCH, seed=2)
        self.params.b_out += 0.4
        self.center = class_center(self.samples[self.samples.y == 1],
                                   self.params, self.stats).vector

    def test_matches_individual_operations(self):
        report = evaluate(self.samples, self.params, self.stats, self.center, k=5)
        scores = score(self.samples.fractions, self.params, self.stats, self.center)
        labels = self.samples.y
        assert np.array_equal(report.scores, scores)
        assert report.auc == auc(scores, labels)
        assert np.array_equal(np.array(report.roc), np.array(roc_points(scores, labels)))
        assert report.precision_at_k == precision_at_k(scores, labels, 5)
        assert report.k == 5

    def test_roc_endpoints(self):
        report = evaluate(self.samples, self.params, self.stats, self.center, k=5)
        fpr, tpr = report.roc
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)

    def test_deterministic(self):
        r1 = evaluate(self.samples, self.params, self.stats, self.center, k=5)
        r2 = evaluate(self.samples, self.params, self.stats, self.center, k=5)
        assert r1.auc == r2.auc
        assert r1.scores.tolist() == r2.scores.tolist()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow, scored as nan
    def test_overflowing_weights_are_numeric_failure(self):
        # finite weights whose attention scores overflow: every score is nan
        self.params.embeddings[...] *= 1e200
        m = len(self.samples)
        with pytest.raises(NumericFailure, match=f"^{m} of {m} scores are not finite$"):
            evaluate(self.samples, self.params, self.stats, self.center, k=5)

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            evaluate(self.samples[:0], self.params, self.stats, self.center, k=1)

    def test_scores_csv_rows(self, tmp_path):
        report = evaluate(self.samples, self.params, self.stats, self.center, k=5)
        path = tmp_path / "scores.csv"
        write_table(path, ("index", "score", "label", "tg"),
                    (np.arange(report.scores.size, dtype=np.int64), report.scores,
                     report.labels, report.tg))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "index,score,label,tg"
        assert lines[1:] == [f"{i},{float(report.scores[i])!r},{y},{tg!r}" for i, (y, tg)
                             in enumerate(zip(self.samples.y.tolist(), self.samples.tg.tolist()))]
