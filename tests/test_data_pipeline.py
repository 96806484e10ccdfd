import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glasscreen.data_pipeline import (
    AugmentationConfig,
    CandidateCapError,
    ComponentSchema,
    DataFormatError,
    EmptyClassError,
    GridConfig,
    LabeledSample,
    RawSample,
    TgBand,
    TripletIndexSampler,
    augment,
    clean_with_counts,
    enumerate_candidates,
    fit_normalization,
    load_dataset,
    normalize,
    schema_from_csv,
    split,
    transform_labels,
)
from glasscreen.numeric_core import RandomSource

SCHEMA3 = ComponentSchema(("A", "B", "C"))


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def labeled(fracs, y, tg):
    return LabeledSample(fractions=np.array(fracs, dtype=float), y=y, tg=tg)


class TestSchema:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            ComponentSchema(("A", "A"))

    def test_rejects_single_component(self):
        with pytest.raises(ValueError):
            ComponentSchema(("A",))

    def test_schema_from_csv(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C,Tg\n0.5,0.3,0.2,400\n")
        assert schema_from_csv(p).names == ("A", "B", "C")

    def test_schema_requires_tg_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C\n0.5,0.3,0.2\n")
        with pytest.raises(DataFormatError, match="Tg"):
            schema_from_csv(p)


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        p = write_csv(tmp_path / "d.csv",
                      "A,B,C,Tg\n0.5,0.3,0.2,400\n0.6,0.2,0.2,500\n0.1,0.1,0.8,\n")
        samples = load_dataset(p, SCHEMA3)
        assert len(samples) == 3
        assert samples[0].tg == 400.0
        assert samples[2].tg is None
        assert np.array_equal(samples[1].fractions, [0.6, 0.2, 0.2])

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C,Tg\n0.5,0.3,0.2,400\n0.5,oops,0.2,400\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_dataset(p, SCHEMA3)

    def test_wrong_column_count_names_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C,Tg\n0.5,0.3,400\n")
        with pytest.raises(DataFormatError, match="row 1"):
            load_dataset(p, SCHEMA3)

    def test_header_only_gives_empty_list(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C,Tg\n")
        assert load_dataset(p, SCHEMA3) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.csv", SCHEMA3)


def kept_rows(raw, min_sum, max_sum):
    return clean_with_counts(raw, min_sum, max_sum)[0]


class TestClean:
    def sample(self, total, tg=450.0):
        return RawSample(fractions=np.array([total / 2, total / 2]), tg=tg)

    def test_in_band_kept(self):
        assert kept_rows([self.sample(0.97)], 0.95, 1.05) != []

    def test_below_threshold_removed(self):
        assert kept_rows([self.sample(0.90)], 0.95, 1.05) == []

    def test_missing_tg_removed(self):
        assert kept_rows([self.sample(1.00, tg=None)], 0.95, 1.05) == []

    def test_negative_fraction_removed(self):
        bad = RawSample(fractions=np.array([1.2, -0.2]), tg=400.0)
        kept, counts = clean_with_counts([bad], 0.95, 1.05)
        assert kept == [] and counts.dropped_negative == 1

    def test_non_finite_rows_removed_and_counted(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "A,B,C,Tg\n"
                         "0.5,0.3,0.2,nan\n"
                         "0.5,0.3,0.2,inf\n"
                         "nan,0.5,0.5,500\n"
                         "0.5,0.3,0.2,-inf\n"
                         "0.5,0.3,0.2,520\n"
                         "0.5,0.3,0.2,\n")
        kept, counts = clean_with_counts(load_dataset(path, SCHEMA3), 0.95, 1.05)
        assert [s.tg for s in kept] == [520.0]
        assert counts.dropped_non_finite == 4
        assert (counts.dropped_sum, counts.dropped_missing_tg, counts.dropped_negative) == (0, 1, 0)

    def test_order_preserved_and_idempotent(self):
        rows = [self.sample(0.97), self.sample(0.90), self.sample(1.04), self.sample(1.2)]
        once = kept_rows(rows, 0.95, 1.05)
        assert once == [rows[0], rows[2]]
        assert kept_rows(once, 0.95, 1.05) == once

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            kept_rows([], 1.05, 0.95)


class TestTransformLabels:
    BAND = TgBand(500.0, 600.0)

    @pytest.mark.parametrize("tg,expected", [(550.0, 1), (600.0, 0), (499.999, 0), (500.0, 1)])
    def test_half_open_band(self, tg, expected):
        sample = RawSample(fractions=np.array([0.5, 0.5]), tg=tg)
        assert transform_labels([sample], self.BAND)[0].y == expected

    def test_fractions_copied_unchanged(self):
        fr = np.array([0.4, 0.6])
        out = transform_labels([RawSample(fractions=fr, tg=550.0)], self.BAND)
        assert np.array_equal(out[0].fractions, fr)
        assert out[0].fractions is not fr

    def test_band_validates(self):
        with pytest.raises(ValueError):
            TgBand(600.0, 500.0)

    @given(st.floats(-100, 1200), st.floats(0, 1000), st.floats(1, 500))
    def test_label_matches_band_predicate(self, tg, low, width):
        band = TgBand(low, low + width)
        sample = RawSample(fractions=np.array([0.5, 0.5]), tg=tg)
        out = transform_labels([sample], band)[0]
        assert out.y in (0, 1)
        assert out.y == int(band.low <= tg < band.high)


class TestSplit:
    def make(self, n):
        return [labeled([1.0, 0.0], 0, float(i)) for i in range(n)]

    def test_ceiling_on_train_side(self):
        train, val = split(self.make(10), 0.8, seed=0)
        assert (len(train), len(val)) == (8, 2)
        train, val = split(self.make(35176), 0.8, seed=0)
        assert (len(train), len(val)) == (28141, 7035)
        train, val = split(self.make(11), 0.8, seed=0)
        assert (len(train), len(val)) == (9, 2)  # ceil(8.8)

    def test_deterministic(self):
        data = self.make(10)
        first = split(data, 0.8, seed=7)
        second = split(data, 0.8, seed=7)
        assert [s.tg for s in first[0]] == [s.tg for s in second[0]]
        assert [s.tg for s in first[1]] == [s.tg for s in second[1]]

    def test_minimal_case(self):
        train, val = split(self.make(2), 0.5, seed=0)
        assert len(train) == 1 and len(val) == 1

    @given(st.integers(2, 40), st.floats(0.05, 0.95), st.integers(0, 10))
    def test_partition(self, n, fraction, seed):
        data = self.make(n)
        train, val = split(data, fraction, seed)
        assert len(train) + len(val) == n
        assert sorted(s.tg for s in train + val) == [float(i) for i in range(n)]
        assert not set(id(s) for s in train) & set(id(s) for s in val)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            split(self.make(1), 0.5, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split(self.make(5), 1.0, seed=0)


class TestNormalization:
    def test_constant_column_guard(self):
        data = [labeled([0.3, v], 0, 0.0) for v in (0.0, 1.0)]
        stats = fit_normalization(data)
        assert stats.mean[0] == pytest.approx(0.3)
        assert stats.std[0] == 1.0
        assert stats.mean[1] == 0.5 and stats.std[1] == 0.5  # two-point population std

    def test_train_only_fit(self):
        train = [labeled([0.2, 0.8], 0, 0.0), labeled([0.4, 0.6], 1, 0.0)]
        stats1 = fit_normalization(train)
        stats2 = fit_normalization(train)  # validation set plays no role
        assert np.array_equal(stats1.mean, stats2.mean)

    def test_centered_and_unit_points(self):
        stats = fit_normalization([labeled([0.0, 0.0], 0, 0.0), labeled([1.0, 2.0], 0, 0.0)])
        assert np.allclose(normalize(stats.mean, stats), [0.0, 0.0])
        assert np.allclose(normalize(stats.mean + stats.std, stats), [1.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        data = [labeled(rng.random(4), 0, 0.0) for _ in range(20)]
        stats = fit_normalization(data)
        x = rng.random(4)
        back = normalize(x, stats) * stats.std + stats.mean
        assert np.max(np.abs(back - x)) < 1e-12

    def test_self_normalization_is_standard(self):
        rng = np.random.default_rng(1)
        data = [labeled(rng.random(5), 0, 0.0) for _ in range(50)]
        stats = fit_normalization(data)
        z = normalize(np.stack([s.fractions for s in data]), stats)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9

    def test_dimension_mismatch(self):
        stats = fit_normalization([labeled([0.1, 0.9], 0, 0.0), labeled([0.3, 0.7], 0, 0.0)])
        with pytest.raises(ValueError):
            normalize(np.ones(3), stats)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            fit_normalization([])


class TestAugment:
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=6), st.integers(0, 100))
    def test_sigma_zero_is_identity(self, values, seed):
        x = np.array(values)
        out = augment(x, AugmentationConfig(sigma=0.0), RandomSource(seed))
        assert np.array_equal(out, x)

    def test_zero_entry_stays_zero(self):
        out = augment(np.array([0.0, 0.5]), AugmentationConfig(sigma=0.3), RandomSource(1))
        assert out[0] == 0.0

    def test_monte_carlo_moments(self):
        # ratio x'/x over 1e5 draws should recover the (1, sigma) moments
        rng = RandomSource(77)
        x = np.ones(100_000)
        ratio = augment(x, AugmentationConfig(sigma=0.05), rng) / x
        assert 0.999 <= ratio.mean() <= 1.001
        assert 0.049 <= ratio.std() <= 0.051

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            AugmentationConfig(sigma=-0.1)


def draw_triplets(train, anchors, rng):
    """[(anchor, positive, negative)] samples, one triplet per anchor index."""
    sampler = TripletIndexSampler(np.array([s.y for s in train]))
    positives, negatives = sampler.draw(np.array(anchors), rng)
    return [(train[a], train[p], train[n]) for a, p, n in zip(anchors, positives, negatives)]


def scalar_draws(labels, anchors, seed):
    """Reference triplet draw: one scalar PCG64 call for the positive, then
    one for the negative, per anchor in anchor order. Returns the positives,
    the negatives and the generator afterwards."""
    gen = np.random.Generator(np.random.PCG64(seed))
    positives, negatives = [], []
    for a in anchors:
        same = np.flatnonzero(labels == labels[a])
        other = np.flatnonzero(labels != labels[a])
        r = int(gen.integers(0, same.size - 1))
        if r >= int(np.flatnonzero(same == a)[0]):
            r += 1
        positives.append(int(same[r]))
        negatives.append(int(other[int(gen.integers(0, other.size))]))
    return positives, negatives, gen


class TestSampleTriplet:
    def test_forced_choices(self):
        train = [labeled([1, 0], 1, 550.0), labeled([0, 1], 1, 560.0), labeled([0.5, 0.5], 0, 700.0)]
        [(anchor, positive, negative)] = draw_triplets(train, [0], RandomSource(0))
        assert anchor is train[0]
        assert positive is train[1]
        assert negative is train[2]

    def test_single_member_class_always_chosen(self):
        train = [labeled([1, 0], 0, 700.0), labeled([0, 1], 0, 710.0), labeled([0.5, 0.5], 1, 550.0)]
        for seed in range(5):
            [(_, positive, negative)] = draw_triplets(train, [0], RandomSource(seed))
            assert positive is train[1]
            assert negative is train[2]

    def test_all_one_class_errors(self):
        train = [labeled([1, 0], 1, 550.0), labeled([0, 1], 1, 560.0)]
        with pytest.raises(EmptyClassError, match="widen"):
            draw_triplets(train, [0], RandomSource(0))

    def test_positive_never_anchor(self):
        train = [labeled([1, 0], 1, 500.0 + i) for i in range(4)] + [labeled([0, 1], 0, 900.0)]
        for _, positive, negative in draw_triplets(train, [2] * 200, RandomSource(3)):
            assert positive is not train[2]
            assert positive.y == 1 and negative.y == 0

    def test_anchor_class_without_positive_errors(self):
        train = [labeled([1, 0], 1, 550.0), labeled([0, 1], 1, 560.0), labeled([0.5, 0.5], 0, 700.0)]
        with pytest.raises(EmptyClassError, match="widen"):
            draw_triplets(train, [0, 2], RandomSource(0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=3, max_size=40), st.data(),
           st.integers(0, 2**32 - 1))
    def test_batched_draw_matches_scalar_stream(self, label_list, data, seed):
        labels = np.array(label_list)
        counts = np.bincount(labels, minlength=2)
        assume(counts.min() >= 1 and counts.max() >= 2)
        # anchors from classes with a positive to draw
        eligible = [i for i, y in enumerate(label_list) if counts[y] >= 2]
        anchors = data.draw(st.lists(st.sampled_from(eligible), max_size=60), label="anchors")
        rng = RandomSource(seed)
        positives, negatives = TripletIndexSampler(labels).draw(np.array(anchors, dtype=np.int64), rng)
        ref_pos, ref_neg, ref_gen = scalar_draws(labels, anchors, seed)
        assert positives.tolist() == ref_pos
        assert negatives.tolist() == ref_neg
        assert rng.uniform() == ref_gen.random()


def brute_force_grid(n, ticks, max_nonzero, lo=None, hi=None):
    """Independent enumeration oracle: filter the full cartesian tick grid."""
    lo = lo or [0] * n
    hi = hi or [ticks] * n
    found = []
    for combo in itertools.product(range(ticks + 1), repeat=n):
        if sum(combo) != ticks:
            continue
        if sum(1 for t in combo if t > 0) > max_nonzero:
            continue
        if any(t < lo[i] or t > hi[i] for i, t in enumerate(combo)):
            continue
        found.append(combo)
    return found


class TestEnumerateCandidates:
    def test_three_components_half_step(self):
        got = enumerate_candidates(SCHEMA3, GridConfig(step=0.5, max_nonzero=3))
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 1.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0],
        ])
        assert got.shape == (6, 3)
        assert np.max(np.abs(got - expected)) < 1e-12  # exact order required

    def test_two_components_unit_step(self):
        got = enumerate_candidates(ComponentSchema(("A", "B")), GridConfig(step=1.0, max_nonzero=2))
        assert np.array_equal(got, [[1.0, 0.0], [0.0, 1.0]])

    def test_count_matches_stars_and_bars(self):
        schema = ComponentSchema(("A", "B", "C", "D"))
        got = enumerate_candidates(schema, GridConfig(step=0.25, max_nonzero=4))
        assert got.shape[0] == 35  # C(7,3)
        assert len(brute_force_grid(4, 4, 4)) == 35

    @pytest.mark.parametrize("n,step,max_nonzero", [(3, 0.25, 2), (4, 0.2, 3), (5, 0.5, 2)])
    def test_matches_brute_force(self, n, step, max_nonzero):
        schema = ComponentSchema(tuple(f"C{i}" for i in range(n)))
        got = enumerate_candidates(schema, GridConfig(step=step, max_nonzero=max_nonzero))
        ticks = round(1.0 / step)
        oracle = brute_force_grid(n, ticks, max_nonzero)
        assert got.shape[0] == len(oracle)
        got_set = {tuple(np.round(row / step).astype(int)) for row in got}
        assert got_set == set(oracle)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_order_matches_sorted_brute_force(self, data):
        n = data.draw(st.integers(2, 4), label="n")
        m = data.draw(st.integers(1, 6), label="ticks")
        max_nonzero = data.draw(st.integers(1, n), label="max_nonzero")
        tick_bounds = data.draw(st.none() | st.lists(
            st.tuples(st.integers(0, m), st.integers(0, m)).map(sorted),
            min_size=n, max_size=n), label="tick_bounds")
        grid = GridConfig(step=1.0 / m, max_nonzero=max_nonzero,
                          bounds=None if tick_bounds is None
                          else [(lo / m, hi / m) for lo, hi in tick_bounds])
        got = enumerate_candidates(ComponentSchema(tuple(f"C{i}" for i in range(n))), grid)
        lo, hi = (None, None) if tick_bounds is None else map(list, zip(*tick_bounds))
        oracle = sorted(brute_force_grid(n, m, max_nonzero, lo, hi), reverse=True)
        expected = np.array(oracle, dtype=np.int64).reshape(len(oracle), n) * grid.step
        assert np.array_equal(got, expected)  # same rows in descending lexicographic order

    def test_bounds_respected(self):
        grid = GridConfig(step=0.25, max_nonzero=3,
                          bounds=[(0.25, 1.0), (0.0, 0.5), (0.0, 1.0)])
        got = enumerate_candidates(SCHEMA3, grid)
        oracle = brute_force_grid(3, 4, 3, lo=[1, 0, 0], hi=[4, 2, 4])
        assert got.shape[0] == len(oracle)
        assert np.all(got[:, 0] >= 0.25 - 1e-12)
        assert np.all(got[:, 1] <= 0.5 + 1e-12)

    def test_sums_and_uniqueness(self):
        schema = ComponentSchema(tuple(f"C{i}" for i in range(5)))
        got = enumerate_candidates(schema, GridConfig(step=0.2, max_nonzero=5))
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-9
        assert len({tuple(row) for row in got}) == got.shape[0]

    def test_cap_errors(self):
        schema = ComponentSchema(tuple(f"C{i}" for i in range(5)))
        with pytest.raises(CandidateCapError, match="coarser"):
            enumerate_candidates(schema, GridConfig(step=0.2, max_nonzero=5, cap=10))

    def test_step_must_divide_one(self):
        with pytest.raises(ValueError, match="divide"):
            GridConfig(step=0.3, max_nonzero=2)

    def test_max_nonzero_bounded_by_n(self):
        with pytest.raises(ValueError):
            enumerate_candidates(SCHEMA3, GridConfig(step=0.5, max_nonzero=4))
