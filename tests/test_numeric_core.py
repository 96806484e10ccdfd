import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glasscreen.deepglassnet import ArchConfig, forward_batch, init_params
from glasscreen.numeric_core import (
    BatchNormState,
    NumericsWarning,
    RandomSource,
    batchnorm_eval,
    batchnorm_train_cached,
    grad_check,
    softmax_rows,
)
from glasscreen.training import triplet_losses


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
    def test_uniform(self):
        out = softmax_rows(np.full(7, 3.25))
        assert np.allclose(out, 1.0 / 7, atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-14)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    def test_shift_invariance(self, values, shift):
        row = np.array(values)
        assert np.max(np.abs(softmax_rows(row + shift) - softmax_rows(row))) < 1e-12

    @given(st.lists(st.floats(-300, 300), min_size=1, max_size=12))
    def test_sums_to_one_and_nonnegative(self, values):
        out = softmax_rows(np.array(values))
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0.0)


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
        params.b_out = np.array(b_out, dtype=float)
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

    def test_zero_guard_warns(self):
        with pytest.warns(NumericsWarning):
            out = self.features([0.0, 0.0, 0.0])
        assert np.array_equal(out, np.zeros(3))


def neutral_state(width, momentum=0.1, epsilon=1e-5):
    """Batch norm at identity with neutral running statistics."""
    return BatchNormState(gamma=np.ones(width), beta=np.zeros(width),
                          running_mean=np.zeros(width), running_var=np.ones(width),
                          momentum=momentum, epsilon=epsilon)


class TestBatchNorm:
    def test_train_mode_whitens(self):
        rng = np.random.default_rng(2)
        x = rng.normal(2.0, 3.0, size=(64, 5))
        # tiny epsilon so the whitening check is tight
        state = neutral_state(5, epsilon=1e-12)
        out, _, _ = batchnorm_train_cached(x, state)
        assert np.max(np.abs(out.mean(axis=0))) < 1e-9
        assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-9

    def test_train_updates_running_stats(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 2.0, size=(128, 4))
        state = neutral_state(4, momentum=0.1)
        batchnorm_train_cached(x, state)
        expected_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=0)
        expected_var = 0.9 * 1.0 + 0.1 * x.var(axis=0)
        assert np.allclose(state.running_mean, expected_mean)
        assert np.allclose(state.running_var, expected_var)

    def test_eval_neutral_stats_is_identity(self):
        state = neutral_state(3, epsilon=1e-12)
        x = np.array([[1.0, -2.0, 0.5], [0.0, 4.0, -1.0]])
        out = batchnorm_eval(x, state)
        assert np.max(np.abs(out - x)) < 1e-9

    def test_eval_is_pure(self):
        rng = np.random.default_rng(4)
        state = BatchNormState(
            gamma=rng.normal(size=6), beta=rng.normal(size=6),
            running_mean=rng.normal(size=6), running_var=rng.random(6) + 0.5,
        )
        x = rng.normal(size=(10, 6))
        before_mean, before_var = state.running_mean.copy(), state.running_var.copy()
        first = batchnorm_eval(x, state)
        second = batchnorm_eval(x, state)
        assert np.array_equal(first, second)
        assert np.array_equal(state.running_mean, before_mean)
        assert np.array_equal(state.running_var, before_var)

    def test_bias_only_shifts_running_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(5.0, 2.0, size=(32, 4))
        bias = rng.normal(size=4)
        plain, biased = neutral_state(4), neutral_state(4)
        out, x_hat, inv_std = batchnorm_train_cached(x, plain)
        out_b, x_hat_b, inv_std_b = batchnorm_train_cached(x, biased, bias=bias)
        assert np.array_equal(out, out_b)
        assert np.array_equal(x_hat, x_hat_b) and np.array_equal(inv_std, inv_std_b)
        assert np.array_equal(plain.running_var, biased.running_var)
        assert np.allclose(biased.running_mean, 0.1 * (x + bias).mean(axis=0), rtol=0, atol=1e-12)

    def test_train_rejects_single_row(self):
        state = neutral_state(3)
        with pytest.raises(ValueError, match=">= 2"):
            batchnorm_train_cached(np.ones((1, 3)), state)


class TestGaussian:
    def test_zero_std_is_degenerate(self):
        rng = RandomSource(0)
        assert rng.normal(2.5, 0.0) == 2.5
        assert np.all(rng.normal(2.5, 0.0, size=5) == 2.5)

    def test_same_seed_same_sequence(self):
        rng1, rng2 = RandomSource(9), RandomSource(9)
        seq1 = [rng1.normal(0.0, 1.0) for _ in range(100)]
        seq2 = [rng2.normal(0.0, 1.0) for _ in range(100)]
        assert seq1 == seq2
        assert np.array_equal(rng1.normal(0.0, 1.0, size=7), rng2.normal(0.0, 1.0, size=7))

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
