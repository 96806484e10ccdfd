import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from glasscreen.deepglassnet import ArchConfig, forward_batch, init_params
from glasscreen.numeric_core import (
    BatchNormState,
    RandomSource,
    batchnorm_fold,
    batchnorm_train_cached,
    softmax_leading,
)
from glasscreen.training import triplet_losses
from oracles import concatenated_normal, grad_check, scalar_normal


class TestInnerProduct:
    """The inner-product similarity, checked through triplet_losses (its only
    user): a triplet whose negative is zero has loss softplus(-s_pos)."""

    def loss(self, u, v):
        return float(triplet_losses(np.stack([u, v, np.zeros_like(u)]))[0])

    def test_zero_vector(self):
        assert self.loss(np.array([1.0, 2.0]), np.zeros(2)) == math.log(2.0)

    def test_basis(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert self.loss(e1, e1) == np.logaddexp(0.0, -1.0)

    def test_hand_arithmetic(self):
        loss = self.loss(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert loss == np.logaddexp(0.0, -32.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="triplets"):
            triplet_losses(np.ones((4, 2)))


class TestSoftmax:
    """The softmax over the leading axis, in place: a 1-d array is one
    softmax row, and an (n, c) array holds one in each column."""

    def test_uniform(self):
        out = softmax_leading(np.full(7, 3.25))
        assert np.allclose(out, 1.0 / 7, atol=1e-15)

    def test_closed_form(self):
        out = softmax_leading(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-14)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    def test_shift_invariance(self, values, shift):
        row = np.array(values)
        assert np.max(np.abs(softmax_leading(row + shift) - softmax_leading(row.copy()))) < 1e-12

    @given(st.lists(st.floats(-300, 300), min_size=1, max_size=12))
    def test_sums_to_one_and_nonnegative(self, values):
        out = softmax_leading(np.array(values))
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0.0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_formula(self, data):
        shape = data.draw(st.one_of(
            st.tuples(st.integers(1, 4), st.integers(1, 9)).map(lambda t: (t[1], t[0] * t[1])),
            st.tuples(st.integers(1, 12))), label="shape")
        scores = data.draw(arrays(np.float64, shape, elements=TIED_OR_LARGE), label="scores")
        if len(shape) == 2 and data.draw(st.booleans(), label="-inf column"):
            scores[:, 0] = -np.inf
        work = scores.copy()
        with np.errstate(invalid="ignore"):  # -inf - -inf
            expected = softmax_formula(scores)
            got = softmax_leading(work)
        assert got is work
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        finite = ~np.isnan(expected)
        assert got[finite].tobytes() == expected[finite].tobytes()

    @pytest.mark.parametrize("n", [2, 8, 24])
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_rows_sum_to_one_and_match_exact_sums(self, n, scale):
        scores = np.random.default_rng(n).normal(0.0, scale, size=(n, 256 * n))
        got = softmax_leading(scores.copy()).T
        # the reference divides the same exponentials by their correctly rounded sum
        shifted = np.exp(scores - scores.max(axis=0)).T
        expected = np.array([row / math.fsum(row) for row in shifted])
        sums = np.array([math.fsum(row) for row in got])
        assert np.max(np.abs(sums - 1.0)) <= 4 * np.spacing(1.0)
        assert np.max(np.abs(got - expected) / expected.max(axis=1, keepdims=True)) <= 1e-15

    def test_neg_inf_row_is_nan_like_the_formula(self):
        scores = np.array([[0.0, 1.0], [-np.inf, -np.inf], [-np.inf, 2.0]]).T
        with np.errstate(invalid="ignore"):
            got = softmax_leading(scores)
        assert np.array_equal(np.isnan(got), [[False, True, False], [False, True, False]])
        assert got[:, 2].tolist() == [0.0, 1.0]


# values of either sign up to 700 (exp(700) is finite) and a few repeated
# ones, so rows have ties, a repeated maximum and exp underflowing to 0
TIED_OR_LARGE = st.sampled_from([0.0, -0.0, 1.5, -700.0, 700.0]) | st.floats(-700, 700)


def softmax_formula(scores):
    """The softmax over the leading axis in one expression, with
    softmax_leading's sum: an einsum, which adds in another order than
    numpy's pairwise sum."""
    e = np.exp(scores - scores.max(axis=0))
    return e / np.einsum("i...->...", e)


def head_params(feature_dim=2):
    """Params for probing the projection head: with gamma 0 the batch norm
    outputs beta exactly, whatever the input."""
    params = init_params(ArchConfig(n_components=2, embed_dim=2, adjacency_rank=2,
                                    attention_dim=2, hidden_dim=3,
                                    feature_dim=feature_dim), seed=0)
    params.bn.gamma[:] = 0.0
    params.b_out[:] = 1.0  # away from the zero-norm guard
    return params


class TestRelu:
    @pytest.mark.parametrize("value,expected", [(-1.0, 0.0), (2.0, 2.0), (0.0, 0.0)])
    def test_pointwise(self, value, expected):
        params = head_params()
        params.bn.beta[:] = value
        _, trace = forward_batch(np.zeros((1, 2)), params)
        assert np.all(trace.post_relu == expected)


class TestL2Normalize:
    """The feature normalization at the end of forward_batch: with the batch
    norm's gamma and beta zero the hidden layer is zero, so the head output
    equals b_out."""

    def features(self, b_out):
        params = head_params(len(b_out))
        params.b_out[...] = np.array(b_out, dtype=float)
        features, _ = forward_batch(np.zeros((1, 2)), params)
        return features[0]

    def test_three_four_five(self):
        assert np.allclose(self.features([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_idempotent_on_unit_vector(self):
        v = np.array([0.6, 0.8])
        assert np.max(np.abs(self.features(v) - v)) < 1e-12

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    def test_unit_norm_property(self, values):
        v = np.array(values)
        if np.linalg.norm(v) <= 1e-12:
            return
        assert abs(np.linalg.norm(self.features(v)) - 1.0) < 1e-12

    def test_zero_guard_warns(self, caplog):
        out = self.features([0.0, 0.0, 0.0])
        assert np.array_equal(out, np.zeros(3))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("glasscreen.deepglassnet", logging.WARNING,
             "feature vector with near-zero norm left unnormalized (1 of 1 rows)")]


# ArchConfig's default batch-norm momentum and epsilon
MOMENTUM, EPSILON = 0.1, 1e-5


def neutral_state(width):
    """Batch norm at identity with neutral running statistics."""
    return BatchNormState(gamma=np.ones(width), beta=np.zeros(width),
                          running_mean=np.zeros(width), running_var=np.ones(width))


class TestBatchNorm:
    """batchnorm_train_cached normalizes the product p @ w; with w the
    identity, whose product with finite p is p bit for bit, it normalizes p."""

    def test_train_mode_whitens(self):
        rng = np.random.default_rng(2)
        x = rng.normal(2.0, 3.0, size=(64, 5))
        # tiny epsilon so the whitening check is tight
        state = neutral_state(5)
        out, _, _ = batchnorm_train_cached(x, np.eye(5), state, MOMENTUM, 1e-12)
        assert np.max(np.abs(out.mean(axis=0))) < 1e-9
        assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-9

    def test_train_updates_running_stats(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 2.0, size=(128, 4))
        state = neutral_state(4)
        batchnorm_train_cached(x, np.eye(4), state, 0.1, EPSILON)
        expected_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=0)
        expected_var = 0.9 * 1.0 + 0.1 * x.var(axis=0)
        assert np.allclose(state.running_mean, expected_mean)
        assert np.allclose(state.running_var, expected_var)

    def test_eval_neutral_stats_is_identity(self):
        state = neutral_state(3)
        x = np.array([[1.0, -2.0, 0.5], [0.0, 4.0, -1.0]])
        scale, shift = batchnorm_fold(state, 1e-12)
        assert np.max(np.abs(x * scale + shift - x)) < 1e-9

    def test_eval_is_pure(self):
        rng = np.random.default_rng(4)
        state = BatchNormState(
            gamma=rng.normal(size=6), beta=rng.normal(size=6),
            running_mean=rng.normal(size=6), running_var=rng.random(6) + 0.5,
        )
        before = [v.copy() for v in (state.gamma, state.beta, state.running_mean,
                                     state.running_var)]
        first = batchnorm_fold(state, EPSILON)
        second = batchnorm_fold(state, EPSILON)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        after = (state.gamma, state.beta, state.running_mean, state.running_var)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_eval_bitwise_equal_to_formula(self, data):
        h = data.draw(st.integers(1, 8), label="h")
        vector = arrays(np.float64, (h,), elements=TIED_OR_LARGE)
        state = BatchNormState(
            gamma=data.draw(vector), beta=data.draw(vector), running_mean=data.draw(vector),
            running_var=data.draw(arrays(np.float64, (h,), elements=st.floats(0, 700))))
        before = [v.tobytes() for v in (state.gamma, state.beta, state.running_mean,
                                        state.running_var)]
        scale = state.gamma / np.sqrt(state.running_var + EPSILON)
        got_scale, got_shift = batchnorm_fold(state, EPSILON)
        assert got_scale.tobytes() == scale.tobytes()
        assert got_shift.tobytes() == (state.beta - state.running_mean * scale).tobytes()
        assert [v.tobytes() for v in (state.gamma, state.beta, state.running_mean,
                                      state.running_var)] == before

    @pytest.mark.parametrize("rows", [2, 9, 768])
    def test_train_bitwise_equal_to_mean_and_var(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(2.0, 3.0, size=(rows, 64))
        gamma, beta = rng.normal(size=64), rng.normal(size=64)
        running_mean, running_var = rng.normal(size=64), rng.random(64) + 0.5
        state = BatchNormState(gamma=gamma, beta=beta, running_mean=running_mean.copy(),
                               running_var=running_var.copy())
        out, centred, inv_std = batchnorm_train_cached(x, np.eye(64), state, MOMENTUM, EPSILON)
        mean, var = x.mean(axis=0), x.var(axis=0)
        expected_inv_std = 1.0 / np.sqrt(var + EPSILON)
        assert inv_std.tobytes() == expected_inv_std.tobytes()
        assert centred.tobytes() == (x - mean).tobytes()
        assert out.tobytes() == ((x - mean) * (gamma * expected_inv_std) + beta).tobytes()
        assert state.running_mean.tobytes() == (0.9 * running_mean + 0.1 * mean).tobytes()
        assert state.running_var.tobytes() == (0.9 * running_var + 0.1 * var).tobytes()

    def test_train_rejects_single_row(self):
        state = neutral_state(3)
        with pytest.raises(ValueError, match=">= 2"):
            batchnorm_train_cached(np.ones((1, 3)), np.eye(3), state, MOMENTUM, EPSILON)

    def test_train_leaves_its_inputs_unchanged(self):
        # the product is centred in place; the factors and gamma, beta are read only
        rng = np.random.default_rng(5)
        p, w = rng.normal(size=(32, 6)), rng.normal(size=(6, 4))
        state = BatchNormState(gamma=rng.normal(size=4), beta=rng.normal(size=4),
                               running_mean=np.zeros(4), running_var=np.ones(4))
        held = {"p": p, "w": w, "gamma": state.gamma, "beta": state.beta}
        before = {name: a.copy() for name, a in held.items()}
        out, centred, inv_std = batchnorm_train_cached(p, w, state, MOMENTUM, EPSILON)
        assert [name for name, a in held.items() if a.tobytes() != before[name].tobytes()] == []
        assert not any(np.shares_memory(result, a)
                       for result in (out, centred, inv_std) for a in held.values())
        pre = p @ w
        assert np.max(np.abs(centred - (pre - pre.mean(axis=0)))) <= 1e-12 * np.max(np.abs(pre))


class TestGaussian:
    def test_zero_std_is_degenerate(self):
        rng = RandomSource(0)
        assert scalar_normal(rng, 2.5, 0.0) == 2.5
        assert np.all(rng.normal(2.5, 0.0, size=5) == 2.5)

    def test_same_seed_same_sequence(self):
        rng1, rng2 = RandomSource(9), RandomSource(9)
        seq1 = [scalar_normal(rng1, 0.0, 1.0) for _ in range(100)]
        seq2 = [scalar_normal(rng2, 0.0, 1.0) for _ in range(100)]
        assert seq1 == seq2
        assert np.array_equal(rng1.normal(0.0, 1.0, size=7), rng2.normal(0.0, 1.0, size=7))

    @pytest.mark.parametrize("mean, std", [(0.0, 1.0), (2.5, 0.3), (-1.0, 0.0)])
    @pytest.mark.parametrize("size", [1, 6, 7, (3, 5), (4, 6), (2, 3, 3)])
    def test_bytes_match_concatenated_form(self, size, mean, std):
        rng, reference = RandomSource(31), RandomSource(31)
        for _ in range(3):  # later draws start mid-stream
            got = rng.normal(mean, std, size=size)
            expected = concatenated_normal(reference, mean, std, size=size)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        assert rng.uniform(4).tobytes() == reference.uniform(4).tobytes()

    def test_moments_monte_carlo(self):
        draws = RandomSource(123).normal(0.0, 1.0, size=1_000_000)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.std() - 1.0) < 0.005


class TestGradCheck:
    def test_quadratic_is_exact(self):
        params = {"theta": np.array([3.0])}

        def f(p):
            return float(p["theta"][0] ** 2)

        err = grad_check(f, params, {"theta": np.array([6.0])}, h=1e-5)
        assert err < 1e-8
        assert params["theta"][0] == 3.0  # restored

    def test_wrong_gradient_reports_one_third(self):
        params = {"theta": np.array([3.0])}

        def f(p):
            return float(p["theta"][0] ** 2)

        err = grad_check(f, params, {"theta": np.array([12.0])}, h=1e-5)
        assert abs(err - 1.0 / 3.0) < 1e-6

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: 0.0, {}, {}, h=0.0)
