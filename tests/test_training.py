import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glasscreen.data_pipeline import LabeledSample
from glasscreen.deepglassnet import ArchConfig, forward_batch, init_params
from glasscreen.numeric_core import RandomSource, grad_check
from glasscreen.training import (
    AdamState,
    NumericFailure,
    TrainConfig,
    adam_step,
    backward,
    train,
    triplet_losses,
)

TINY = ArchConfig(n_components=4, embed_dim=3, adjacency_rank=2,
                  attention_dim=3, hidden_dim=5, feature_dim=2)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_unit(rng, k=4):
    return unit(rng.normal(size=k))


def triplet_loss(f, fp, fn):
    """One triplet's loss through the batched triplet_losses."""
    return float(triplet_losses(np.stack([f, fp, fn]))[0])


class TestContrastiveLoss:
    def test_equal_similarities_give_ln2(self):
        f = np.array([1.0, 0.0])
        fp = np.array([0.0, 1.0])
        fn = np.array([0.0, 1.0])
        assert abs(triplet_loss(f, fp, fn) - math.log(2.0)) < 1e-12

    def test_perfect_separation_closed_form(self):
        f = np.array([1.0, 0.0])
        assert abs(triplet_loss(f, f, -f) - math.log(1.0 + math.exp(-2.0))) < 1e-12

    def test_swap_sum_bounded_below_by_two_ln2(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f, fp, fn = (random_unit(rng) for _ in range(3))
            total = triplet_loss(f, fp, fn) + triplet_loss(f, fn, fp)
            assert total >= 2.0 * math.log(2.0) - 1e-12

    def test_nonnegative_and_bounded_for_unit_inputs(self):
        rng = np.random.default_rng(1)
        bound = math.log(1.0 + math.exp(2.0))
        for _ in range(200):
            loss = triplet_loss(*(random_unit(rng) for _ in range(3)))
            assert 0.0 <= loss <= bound + 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite(self):
        params = init_params(TINY, seed=0)
        batch = np.ones((3, 4))
        batch[0, 0] = np.nan
        _, trace = forward_batch(batch, params, mode="train", update_running=False)
        with pytest.raises(NumericFailure, match="contrastive loss"):
            backward(trace, params)

    def test_triplet_losses_matches_scalar_form(self):
        rng = np.random.default_rng(2)
        feats = np.stack([random_unit(rng) for _ in range(9)])
        batch = triplet_losses(feats)
        for i in range(3):
            s_pos = float(np.dot(feats[i], feats[3 + i]))
            s_neg = float(np.dot(feats[i], feats[6 + i]))
            scalar = -math.log(math.exp(s_pos) / (math.exp(s_pos) + math.exp(s_neg)))
            assert abs(batch[i] - scalar) < 1e-15


def _healthy_tiny_params(seed=3):
    """Tiny model nudged away from ReLU kinks and the zero-norm guard so the
    finite-difference sweep stays on one smooth branch."""
    params = init_params(TINY, seed=seed)
    params.b_hidden += 0.3
    params.b_out += 0.5
    return params


def einsum_backward(trace, params):
    """Reference gradients through the unfused front end: the (B, n, d)
    modulated and mixed embeddings rebuilt stage by stage, one einsum per
    weight gradient, three batched matmuls into d_mixed and the (B, n, d)
    adjacency contraction. backward must agree with it to rounding."""
    features = trace.features
    t = features.shape[0] // 3
    n = trace.adjacency.shape[0]
    fa, fp, fn = features[:t], features[t:2 * t], features[2 * t:]
    gate = 1.0 / (1.0 + np.exp(np.sum(fa * fp, axis=1) - np.sum(fa * fn, axis=1))) / t
    d_features = np.concatenate([gate[:, None] * (fn - fp), -gate[:, None] * fa,
                                 gate[:, None] * fa])
    dots = np.sum(features * d_features, axis=1)
    d_head = (d_features - dots[:, None] * features) / trace.out_divisor[:, None]
    guarded = trace.out_norms <= 1e-12
    d_head[guarded] = d_features[guarded]

    grads = {"w_out": trace.post_relu.T @ d_head, "b_out": d_head.sum(axis=0)}
    d_post = d_head @ params.w_out.T
    if trace.dropout_mask is not None:
        d_post = d_post * trace.dropout_mask
    d_bn_out = d_post * (trace.bn_out > 0.0)
    x_hat, inv_std = trace.bn_x_hat, trace.bn_inv_std
    grads["bn_gamma"] = np.sum(d_bn_out * x_hat, axis=0)
    grads["bn_beta"] = d_bn_out.sum(axis=0)
    d_x_hat = d_bn_out * params.bn.gamma
    d_pre = inv_std * (d_x_hat - d_x_hat.mean(axis=0)
                       - x_hat * np.mean(d_x_hat * x_hat, axis=0))
    grads["w_hidden"] = trace.flat.T @ d_pre
    grads["b_hidden"] = d_pre.sum(axis=0)
    d_attended = (d_pre @ params.w_hidden.T).reshape(trace.attended.shape)

    alpha, value = trace.attention, trace.value
    dk = params.w_query.shape[1]
    d_alpha = np.matmul(d_attended, np.swapaxes(value, -1, -2))
    d_value = np.matmul(np.swapaxes(alpha, -1, -2), d_attended)
    d_scores = alpha * (d_alpha - np.sum(d_alpha * alpha, axis=-1, keepdims=True))
    d_scores /= np.sqrt(dk)
    d_query = np.matmul(d_scores, trace.key)
    d_key = np.matmul(np.swapaxes(d_scores, -1, -2), trace.query)
    d_mixed = (np.matmul(d_query, params.w_query.T) + np.matmul(d_key, params.w_key.T)
               + np.matmul(d_value, params.w_value.T))
    adj = trace.adjacency
    masked = adj - np.diag(np.diag(adj))
    modulated = trace.inputs[:, :, None] * params.embeddings
    mixed = modulated + np.matmul(masked, modulated) / (n - 1)
    grads["w_query"] = np.einsum("bnd,bnm->dm", mixed, d_query)
    grads["w_key"] = np.einsum("bnd,bnm->dm", mixed, d_key)
    grads["w_value"] = np.einsum("bnd,bnm->dm", mixed, d_value)

    d_modulated = d_mixed + np.matmul(masked.T, d_mixed) / (n - 1)
    d_masked = np.einsum("bnd,bmd->nm", d_mixed, modulated) / (n - 1)
    np.fill_diagonal(d_masked, 0.0)
    vhat = trace.unit_factors
    d_vhat = (d_masked + d_masked.T) @ vhat
    vdots = np.sum(vhat * d_vhat, axis=1)
    grads["interaction_factors"] = (d_vhat - vdots[:, None] * vhat) / trace.factor_norms[:, None]
    grads["embeddings"] = np.einsum("bn,bnd->nd", trace.inputs, d_modulated)
    return grads


class TestBackward:
    def test_gradients_match_finite_differences(self):
        params = _healthy_tiny_params()
        rng = RandomSource(11)
        batch = rng.normal(0.0, 1.0, size=(9, 4))  # 3 triplets

        _, trace = forward_batch(batch, params, mode="train", update_running=False)
        grads = backward(trace, params)

        def loss_fn(_tensors):
            feats, _ = forward_batch(batch, params, mode="train", update_running=False)
            return float(triplet_losses(feats).mean())

        err = grad_check(loss_fn, params.trainable(), grads, h=1e-5)
        assert err < 1e-4

    def test_gradients_match_finite_differences_with_dropout(self):
        class FixedUniform:
            """Replayable stand-in for the rng so the dropout mask is frozen."""

            def __init__(self, values):
                self.values = values

            def uniform(self, size=None):
                assert size == self.values.shape
                return self.values

        params = _healthy_tiny_params(seed=5)
        batch = RandomSource(12).normal(0.0, 1.0, size=(6, 4))
        mask_source = RandomSource(13).uniform(size=(6, 5))

        def run():
            return forward_batch(batch, params, mode="train", dropout=0.4,
                                 rng=FixedUniform(mask_source), update_running=False)

        _, trace = run()
        grads = backward(trace, params)

        def loss_fn(_tensors):
            feats, _ = run()
            return float(triplet_losses(feats).mean())

        err = grad_check(loss_fn, params.trainable(), grads, h=1e-5)
        assert err < 1e-4

    def test_identical_positive_negative_gives_zero_gradients(self):
        params = _healthy_tiny_params()
        rng = RandomSource(4)
        anchor = rng.normal(0, 1, size=(1, 4))
        shared = rng.normal(0, 1, size=(1, 4))
        batch = np.concatenate([anchor, shared, shared])
        _, trace = forward_batch(batch, params, mode="train", update_running=False)
        grads = backward(trace, params)
        for name, g in grads.items():
            assert np.max(np.abs(g)) < 1e-12, name

    @pytest.mark.parametrize("arch, rows", [(ArchConfig(n_components=8), 768), (TINY, 9)],
                             ids=["default-768", "tiny-9"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_einsum_reference(self, arch, rows, seed):
        params = init_params(arch, seed=seed)
        batch = RandomSource(100 + seed).normal(0.0, 1.0, size=(rows, arch.n_components))
        _, trace = forward_batch(batch, params, mode="train", update_running=False)
        grads = backward(trace, params)
        reference = einsum_backward(trace, params)
        assert grads.keys() == reference.keys()
        # relative to the largest gradient entry: b_hidden's gradient is zero
        # up to rounding (batch norm removes the bias), so it has no own scale
        scale = max(np.max(np.abs(g)) for g in reference.values())
        for name, expected in reference.items():
            assert grads[name].shape == expected.shape, name
            assert np.max(np.abs(grads[name] - expected)) <= 1e-12 * scale, name

    def test_output_bias_gradient_shape(self):
        params = _healthy_tiny_params()
        batch = RandomSource(5).normal(0, 1, size=(6, 4))
        _, trace = forward_batch(batch, params, mode="train", update_running=False)
        grads = backward(trace, params)
        assert grads["b_out"].shape == (TINY.feature_dim,)
        assert grads["b_hidden"].shape == (TINY.hidden_dim,)

    def test_rejects_eval_trace(self):
        params = _healthy_tiny_params()
        batch = RandomSource(6).normal(0, 1, size=(6, 4))
        _, trace = forward_batch(batch, params, mode="eval")
        with pytest.raises(ValueError, match="train-mode"):
            backward(trace, params)

    def test_rejects_non_triplet_batch(self):
        params = _healthy_tiny_params()
        batch = RandomSource(7).normal(0, 1, size=(4, 4))
        _, trace = forward_batch(batch, params, mode="train", update_running=False)
        with pytest.raises(ValueError, match="triplet"):
            backward(trace, params)


class TestAdam:
    def constant_grads(self, params, value):
        return {name: np.full_like(t, value) for name, t in params.trainable().items()}

    def test_first_step_is_signed_lr(self):
        params = init_params(TINY, seed=0)
        before = {n: t.copy() for n, t in params.trainable().items()}
        state = AdamState.initial(params, lr=0.01, eps=1e-12)
        adam_step(params, self.constant_grads(params, 0.5), state)
        for name, tensor in params.trainable().items():
            delta = tensor - before[name]
            assert np.max(np.abs(delta + 0.01)) < 1e-9, name
        assert state.t == 1

    def test_zero_gradient_is_fixed_point(self):
        params = init_params(TINY, seed=1)
        before = {n: t.copy() for n, t in params.trainable().items()}
        state = AdamState.initial(params, lr=0.1, weight_decay=0.0)
        adam_step(params, self.constant_grads(params, 0.0), state)
        for name, tensor in params.trainable().items():
            assert np.array_equal(tensor, before[name]), name

    def test_weight_decay_skips_biases_and_bn(self):
        params = init_params(TINY, seed=2)
        before = {n: t.copy() for n, t in params.trainable().items()}
        state = AdamState.initial(params, lr=0.1, weight_decay=0.5)
        adam_step(params, self.constant_grads(params, 0.0), state)
        for name in ("b_hidden", "b_out", "bn_gamma", "bn_beta"):
            assert np.array_equal(params.trainable()[name], before[name]), name
        assert not np.array_equal(params.w_hidden, before["w_hidden"])

    @pytest.mark.filterwarnings("ignore::glasscreen.numeric_core.NumericsWarning")
    def test_two_identical_runs_are_bitwise_identical(self):
        trajectories = []
        for _ in range(2):
            params = init_params(TINY, seed=3)
            state = AdamState.initial(params, lr=0.005)
            rng = RandomSource(8)
            for _step in range(5):
                batch = rng.normal(0, 1, size=(6, 4))
                _, trace = forward_batch(batch, params, mode="train")
                grads = backward(trace, params)
                adam_step(params, grads, state)
            trajectories.append({n: t.copy() for n, t in params.trainable().items()})
        for name in trajectories[0]:
            assert np.array_equal(trajectories[0][name], trajectories[1][name]), name


def tiny_dataset(n=60, seed=0):
    """Small labeled set with a linearly separable flavor for loop tests."""
    rng = RandomSource(seed)
    samples = []
    for _ in range(n):
        x = rng.uniform(size=3)
        x = x / x.sum()
        tg = 400.0 + 400.0 * x[0] + rng.normal(0, 10.0)
        samples.append(LabeledSample(fractions=x, y=int(500.0 <= tg < 600.0), tg=tg))
    return samples


SMALL_ARCH = ArchConfig(n_components=3, embed_dim=4, adjacency_rank=2,
                        attention_dim=4, hidden_dim=8, feature_dim=4)


class TestTrainLoop:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_single_epoch_single_record(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=16, seed=1, precision_k=5)
        _, _, history = train(data[:40], data[40:], SMALL_ARCH, cfg)
        assert len(history.records) == 1
        assert history.records[0].epoch == 1

    def test_one_record_per_epoch(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=4, batch_size=16, seed=1, precision_k=5, eval_every=2)
        _, _, history = train(data[:40], data[40:], SMALL_ARCH, cfg)
        assert [r.epoch for r in history.records] == [1, 2, 3, 4]
        assert all(np.isfinite(r.mean_loss) for r in history.records)

    def test_deterministic_given_seed(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=16, seed=9, precision_k=5)
        p1, s1, h1 = train(data[:40], data[40:], SMALL_ARCH, cfg)
        p2, s2, h2 = train(data[:40], data[40:], SMALL_ARCH, cfg)
        for name, tensor in p1.trainable().items():
            assert np.array_equal(tensor, p2.trainable()[name]), name
        assert [r.mean_loss for r in h1.records] == [r.mean_loss for r in h2.records]
        assert [r.val_auc for r in h1.records] == [r.val_auc for r in h2.records]

    @pytest.mark.filterwarnings("ignore::glasscreen.numeric_core.NumericsWarning")
    def test_validation_never_augmented(self):
        # evaluation is structurally unable to perturb samples: nothing in its
        # surface accepts a random source, and scoring a fixed model is pure
        import inspect

        from glasscreen import evaluation
        for fn in (evaluation.class_center, evaluation.score, evaluation.evaluate):
            assert "rng" not in inspect.signature(fn).parameters
        data = tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=16, seed=2, sigma=0.5, precision_k=5)
        _, _, h1 = train(data[:40], data[40:], SMALL_ARCH, cfg)
        _, _, h2 = train(data[:40], data[40:], SMALL_ARCH, cfg)
        assert h1.records[0].val_auc == h2.records[0].val_auc

    def test_single_class_data_rejected(self):
        data = tiny_dataset()
        for sample in data:
            sample.y = 0
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0, precision_k=2)
        with pytest.raises(Exception, match="widen|class"):
            train(data[:40], data[40:], SMALL_ARCH, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_raises_numeric_failure(self):
        data = tiny_dataset()
        data[3].fractions = np.array([np.nan, 0.5, 0.5])
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0, precision_k=5)
        with pytest.raises((NumericFailure, ValueError)):
            train(data[:40], data[40:], SMALL_ARCH, cfg)

    @pytest.mark.filterwarnings("ignore::glasscreen.numeric_core.NumericsWarning")
    def test_train_with_dropout_smoke(self):
        data = tiny_dataset()
        arch = ArchConfig(n_components=3, embed_dim=4, adjacency_rank=2,
                          attention_dim=4, hidden_dim=8, feature_dim=4, dropout=0.3)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=4, precision_k=5)
        _, _, history = train(data[:40], data[40:], arch, cfg)
        assert all(np.isfinite(r.mean_loss) for r in history.records)

    def test_precision_k_validated_against_val_size(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0, precision_k=500)
        with pytest.raises(ValueError, match="precision_k"):
            train(data[:40], data[40:], SMALL_ARCH, cfg)
