import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glasscreen.deepglassnet import TENSORS, ArchConfig, forward_batch, init_params, tensor_views
from glasscreen.numeric_core import RandomSource, batchnorm_backward
from oracles import (
    adam_loop,
    batchnorm_backward_mean_form,
    grad_check,
    scalar_normal,
    unfolded_forward,
)
from sample_tables import table
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
        _, trace = forward_batch(batch, params, mode="train")
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


def _healthy_tiny_params(seed=3, arch=TINY):
    """Tiny model nudged away from the zero-norm guard so the
    finite-difference sweep stays on one smooth branch."""
    params = init_params(arch, seed=seed)
    params.b_out += 0.5
    return params


def named_gradients(trace, params):
    """backward's gradient vector as its TENSORS-named views."""
    return tensor_views(params.arch, backward(trace, params))


def head_output(trace, params):
    """The head's output before the L2 normalization, rebuilt from a trace."""
    return trace.post_relu @ params.w_out + params.b_out


def head_gradients(trace, params):
    """(d_head, d_bn_out) rebuilt from a train-mode trace: the gradients of
    the batch-mean triplet loss at the head's output (through the L2
    normalization, guarded rows passed through) and at the batch norm's
    output (through the second head layer, dropout and ReLU). The zero-norm
    guard and the ReLU mask are rebuilt from the head output and from the
    batch norm's centred rows, inv_std, gamma and beta (in forward's order of
    operations, so the mask is forward's bit for bit), not read from the
    trace's masks."""
    features = trace.features
    t = features.shape[0] // 3
    fa, fp, fn = features[:t], features[t:2 * t], features[2 * t:]
    gate = 1.0 / (1.0 + np.exp(np.sum(fa * fp, axis=1) - np.sum(fa * fn, axis=1))) / t
    d_features = np.concatenate([gate[:, None] * (fn - fp), -gate[:, None] * fa,
                                 gate[:, None] * fa])
    dots = np.sum(features * d_features, axis=1)
    d_head = (d_features - dots[:, None] * features) / trace.out_divisor[:, None]
    guarded = np.linalg.norm(head_output(trace, params), axis=1) <= 1e-12
    d_head[guarded] = d_features[guarded]
    d_post = d_head @ params.w_out.T
    if trace.dropout_mask is not None:
        d_post = d_post * trace.dropout_mask
    bn_out = trace.bn_centred * (params.bn.gamma * trace.bn_inv_std) + params.bn.beta
    return d_head, d_post * (bn_out > 0.0)


def trace_arrays(trace):
    """Every array a trace holds, by name: its own fields', its encoder
    constants' (the projections' tuple item by item) and the parameter vector."""
    found = {"params.vector": trace.constants.params.vector}
    for owner, holder in (("trace", trace), ("constants", trace.constants)):
        for spec in fields(holder):
            value = getattr(holder, spec.name)
            if isinstance(value, np.ndarray):
                found[f"{owner}.{spec.name}"] = value
            elif isinstance(value, tuple):
                found.update((f"{owner}.{spec.name}[{i}]", item) for i, item in enumerate(value))
    return found


def einsum_backward(trace, params):
    """Reference gradients through the unfolded encoder: the modulated and
    mixed embeddings, query, key, value, attention and attended rows rebuilt
    stage by stage from ``trace.inputs`` and ``params`` by unfolded_forward,
    one einsum per weight gradient, three batched matmuls into d_mixed and
    the (B, n, d) adjacency contraction. backward must agree with it to
    rounding."""
    stages = unfolded_forward(trace.inputs, params, mode="train")
    constants = trace.constants
    n = constants.A.shape[0]
    d_head, d_bn_out = head_gradients(trace, params)
    grads = {"w_out": trace.post_relu.T @ d_head, "b_out": d_head.sum(axis=0)}
    inv_std = trace.bn_inv_std
    x_hat = trace.bn_centred * inv_std
    grads["bn_gamma"] = np.sum(d_bn_out * x_hat, axis=0)
    grads["bn_beta"] = d_bn_out.sum(axis=0)
    d_pre = batchnorm_backward_mean_form(d_bn_out, x_hat, inv_std, params.bn.gamma)
    grads["w_hidden"] = stages["flat"].T @ d_pre
    d_attended = (d_pre @ params.w_hidden.T).reshape(stages["attended"].shape)

    alpha, value = stages["attention"], stages["value"]
    dk = params.w_query.shape[1]
    d_alpha = np.matmul(d_attended, np.swapaxes(value, -1, -2))
    d_value = np.matmul(np.swapaxes(alpha, -1, -2), d_attended)
    d_scores = alpha * (d_alpha - np.sum(d_alpha * alpha, axis=-1, keepdims=True))
    d_scores /= np.sqrt(dk)
    d_query = np.matmul(d_scores, stages["key"])
    d_key = np.matmul(np.swapaxes(d_scores, -1, -2), stages["query"])
    d_mixed = (np.matmul(d_query, params.w_query.T) + np.matmul(d_key, params.w_key.T)
               + np.matmul(d_value, params.w_value.T))
    masked, modulated, mixed = stages["masked"], stages["modulated"], stages["mixed"]
    grads["w_query"] = np.einsum("bnd,bnm->dm", mixed, d_query)
    grads["w_key"] = np.einsum("bnd,bnm->dm", mixed, d_key)
    grads["w_value"] = np.einsum("bnd,bnm->dm", mixed, d_value)

    d_modulated = d_mixed + np.matmul(masked.T, d_mixed) / (n - 1)
    d_masked = np.einsum("bnd,bmd->nm", d_mixed, modulated) / (n - 1)
    np.fill_diagonal(d_masked, 0.0)
    vhat = constants.unit_factors
    d_vhat = (d_masked + d_masked.T) @ vhat
    vdots = np.sum(vhat * d_vhat, axis=1)
    grads["interaction_factors"] = (d_vhat - vdots[:, None] * vhat) / constants.factor_norms[:, None]
    grads["embeddings"] = np.einsum("bn,bnd->nd", trace.inputs, d_modulated)
    return grads


class TestBackward:
    def test_gradients_match_finite_differences(self):
        params = _healthy_tiny_params()
        rng = RandomSource(11)
        batch = rng.normal(0.0, 1.0, size=(9, 4))  # 3 triplets

        _, trace = forward_batch(batch, params, mode="train")
        grads = named_gradients(trace, params)

        def loss_fn(_tensors):
            feats, _ = forward_batch(batch, params, mode="train")
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
            return forward_batch(batch, params, mode="train", rng=FixedUniform(mask_source),
                                 dropout=0.4)

        _, trace = run()
        grads = named_gradients(trace, params)

        def loss_fn(_tensors):
            feats, _ = run()
            return float(triplet_losses(feats).mean())

        err = grad_check(loss_fn, params.trainable(), grads, h=1e-5)
        assert err < 1e-4

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_backward_leaves_the_trace_unchanged(self, dropout):
        # backward reads forward's arrays (G_b M diag(x_b), P, the centred
        # batch-norm input, the ReLU output) instead of its own copies, so it
        # must never write into them
        params = _healthy_tiny_params()
        batch = RandomSource(14).normal(0.0, 1.0, size=(9, 4))
        _, trace = forward_batch(batch, params, mode="train", rng=RandomSource(15),
                                 dropout=dropout)
        arrays = trace_arrays(trace)
        assert {"trace.GMX", "trace.P", "trace.bn_centred", "trace.bn_inv_std",
                "trace.post_relu", "trace.guarded", "constants.A", "constants.K",
                "params.vector"} <= arrays.keys()
        assert ("trace.dropout_mask" in arrays) == (dropout > 0.0)
        before = {name: (a.shape, a.dtype, a.tobytes()) for name, a in arrays.items()}
        backward(trace, params)
        after = {name: (a.shape, a.dtype, a.tobytes()) for name, a in trace_arrays(trace).items()}
        assert [name for name in before if after[name] != before[name]] == []

    def test_identical_positive_negative_gives_zero_gradients(self):
        params = _healthy_tiny_params()
        rng = RandomSource(4)
        anchor = rng.normal(0, 1, size=(1, 4))
        shared = rng.normal(0, 1, size=(1, 4))
        batch = np.concatenate([anchor, shared, shared])
        _, trace = forward_batch(batch, params, mode="train")
        grads = named_gradients(trace, params)
        for name, g in grads.items():
            assert np.max(np.abs(g)) < 1e-12, name

    @pytest.mark.parametrize("arch, rows", [(ArchConfig(n_components=8), 768), (TINY, 9)],
                             ids=["default-768", "tiny-9"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_einsum_reference(self, arch, rows, seed):
        params = init_params(arch, seed=seed)
        batch = RandomSource(100 + seed).normal(0.0, 1.0, size=(rows, arch.n_components))
        _, trace = forward_batch(batch, params, mode="train")
        grads = named_gradients(trace, params)
        reference = einsum_backward(trace, params)
        assert grads.keys() == reference.keys()
        # relative to the largest gradient entry
        scale = max(np.max(np.abs(g)) for g in reference.values())
        for name, expected in reference.items():
            assert grads[name].shape == expected.shape, name
            assert np.max(np.abs(grads[name] - expected)) <= 1e-12 * scale, name

    def test_output_bias_gradient_shape(self):
        params = _healthy_tiny_params()
        batch = RandomSource(5).normal(0, 1, size=(6, 4))
        _, trace = forward_batch(batch, params, mode="train")
        grad = backward(trace, params)
        assert grad.shape == params.vector.shape and grad.dtype == np.float64
        grads = tensor_views(TINY, grad)
        assert grads["b_out"].shape == (TINY.feature_dim,)
        assert grads["bn_beta"].shape == (TINY.hidden_dim,)

    def test_rejects_eval_trace(self):
        params = _healthy_tiny_params()
        batch = RandomSource(6).normal(0, 1, size=(6, 4))
        _, trace = forward_batch(batch, params, mode="eval")
        with pytest.raises(ValueError, match="train-mode"):
            backward(trace, params)

    def test_rejects_non_triplet_batch(self):
        params = _healthy_tiny_params()
        batch = RandomSource(7).normal(0, 1, size=(4, 4))
        _, trace = forward_batch(batch, params, mode="train")
        with pytest.raises(ValueError, match="triplet"):
            backward(trace, params)


def max_relative_gap(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


class TestFoldedAttention:
    """The folded n x n attention against the unfolded encoder, across the
    component counts where the fold is cheaper (2, 8) and where it is not (24),
    with dropout in train mode."""

    DROPOUT = 0.3

    @staticmethod
    def arch(n, **dims):
        return ArchConfig(n_components=n, adjacency_rank=min(5, n), **dims)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("n", [2, 8, 24])
    def test_features_match_unfolded(self, n, mode):
        params = _healthy_tiny_params(seed=n, arch=self.arch(n))
        params.bn.running_mean += 0.1  # non-neutral eval statistics
        params.bn.running_var *= 1.5
        batch = RandomSource(200 + n).normal(0.0, 1.0, size=(96, n))
        features, trace = forward_batch(batch, params, mode=mode, rng=RandomSource(n),
                                        dropout=self.DROPOUT)
        assert (trace.dropout_mask is not None) == (mode == "train")
        # train mode normalizes by the batch's statistics, not the running ones it moved
        expected = unfolded_forward(batch, params, mode=mode, mask=trace.dropout_mask)
        assert max_relative_gap(features, expected["features"]) <= 1e-12
        # the trace holds alpha transposed: column b*n + i is row i of alpha_b
        columns = expected["attention"].reshape(-1, n).T
        assert max_relative_gap(trace.attention, columns) <= 1e-12

    @pytest.mark.parametrize("n", [2, 8, 24])
    def test_gradients_match_unfolded(self, n):
        params = _healthy_tiny_params(seed=n, arch=self.arch(n))
        batch = RandomSource(300 + n).normal(0.0, 1.0, size=(96, n))
        _, trace = forward_batch(batch, params, mode="train", rng=RandomSource(n),
                                 dropout=self.DROPOUT)
        grads = named_gradients(trace, params)
        reference = einsum_backward(trace, params)
        assert grads.keys() == reference.keys()
        for name, expected in reference.items():
            assert max_relative_gap(grads[name], expected) <= 1e-12, name

    @pytest.mark.parametrize("n", [2, 24])
    def test_gradients_match_finite_differences(self, n):
        params = _healthy_tiny_params(arch=self.arch(n, embed_dim=3, attention_dim=3,
                                                     hidden_dim=5, feature_dim=2))
        batch = RandomSource(400 + n).normal(0.0, 1.0, size=(9, n))

        def run():
            # a fresh stream per call draws the same dropout mask every time
            return forward_batch(batch, params, mode="train", rng=RandomSource(500 + n),
                                 dropout=self.DROPOUT)

        _, trace = run()
        grads = named_gradients(trace, params)

        def loss_fn(_tensors):
            return float(triplet_losses(run()[0]).mean())

        assert grad_check(loss_fn, params.trainable(), grads, h=1e-5) < 1e-4


class TestBatchNormBackward:
    """The closed-form batch-norm backward against its mean form in oracles,
    on the output gradients of train-mode traces of the default arch."""

    @staticmethod
    def assert_matches_mean_form(trace, params):
        _, d_bn_out = head_gradients(trace, params)
        centred, inv_std, gamma = trace.bn_centred, trace.bn_inv_std, params.bn.gamma
        x_hat = centred * inv_std
        d_pre, d_gamma, d_beta = batchnorm_backward(d_bn_out, centred, inv_std, gamma)
        expected = batchnorm_backward_mean_form(d_bn_out, x_hat, inv_std, gamma)
        assert max_relative_gap(d_pre, expected) <= 1e-12
        assert max_relative_gap(d_gamma, np.sum(d_bn_out * x_hat, axis=0)) <= 1e-12
        assert max_relative_gap(d_beta, d_bn_out.sum(axis=0)) <= 1e-12

    @staticmethod
    def run(dropout, seed):
        params = init_params(ArchConfig(n_components=8), seed=seed)
        batch = RandomSource(600 + seed).normal(0.0, 1.0, size=(96, 8))
        return params, lambda: forward_batch(batch, params, mode="train",
                                             rng=RandomSource(700 + seed), dropout=dropout)[1]

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_matches_mean_form(self, seed, dropout):
        params, run = self.run(dropout, seed)
        self.assert_matches_mean_form(run(), params)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_closed_form_matches_mean_form_with_guarded_row(self, dropout):
        params, run = self.run(dropout, seed=9)
        # b_out cancels row 0's head output (the forward before it does not
        # read b_out), so the zero-norm guard passes its gradient through
        params.b_out[...] = -(run().post_relu[0] @ params.w_out)
        trace = run()
        norms = np.linalg.norm(head_output(trace, params), axis=1)
        assert norms[0] <= 1e-12 < np.min(norms[1:])
        assert trace.guarded.tolist() == [True] + [False] * (norms.size - 1)
        assert np.any(head_gradients(trace, params)[1][0] != 0.0)
        self.assert_matches_mean_form(trace, params)


class TestAdam:
    def constant_grads(self, params, value):
        return np.full_like(params.vector, value)

    def test_first_step_is_signed_lr(self):
        params = init_params(TINY, seed=0)
        before = {n: t.copy() for n, t in params.trainable().items()}
        state = AdamState.initial(params)
        adam_step(params, self.constant_grads(params, 0.5), state,
                  TrainConfig(lr=0.01, adam_eps=1e-12))
        for name, tensor in params.trainable().items():
            delta = tensor - before[name]
            assert np.max(np.abs(delta + 0.01)) < 1e-9, name
        assert state.t == 1

    def test_zero_gradient_is_fixed_point(self):
        params = init_params(TINY, seed=1)
        before = {n: t.copy() for n, t in params.trainable().items()}
        state = AdamState.initial(params)
        adam_step(params, self.constant_grads(params, 0.0), state,
                  TrainConfig(lr=0.1, weight_decay=0.0))
        for name, tensor in params.trainable().items():
            assert np.array_equal(tensor, before[name]), name

    def test_weight_decay_skips_biases_and_bn(self):
        params = init_params(TINY, seed=2)
        before = {n: t.copy() for n, t in params.trainable().items()}
        state = AdamState.initial(params)
        adam_step(params, self.constant_grads(params, 0.0), state,
                  TrainConfig(lr=0.1, weight_decay=0.5))
        for name in ("b_out", "bn_gamma", "bn_beta"):
            assert np.array_equal(params.trainable()[name], before[name]), name
        assert not np.array_equal(params.w_hidden, before["w_hidden"])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_per_tensor_loop(self, weight_decay):
        params = init_params(ArchConfig(n_components=8), seed=4)
        tensors = {n: t.copy() for n, t in params.trainable().items()}
        m = {n: np.zeros_like(t) for n, t in tensors.items()}
        v = {n: np.zeros_like(t) for n, t in tensors.items()}
        decay = {spec.name: spec.decay for spec in TENSORS}
        state = AdamState.initial(params)
        cfg = TrainConfig(lr=0.01, weight_decay=weight_decay)
        rng = RandomSource(5)
        for step in range(1, 21):
            grad = rng.normal(0.0, 1.0, size=params.vector.shape)
            adam_step(params, grad, state, cfg)
            adam_loop(tensors, tensor_views(params.arch, grad), m, v, step, decay, lr=0.01,
                      weight_decay=weight_decay)
        for name, tensor in params.trainable().items():
            assert tensor.tobytes() == tensors[name].tobytes(), name
        assert params.vector.tobytes() == np.concatenate(
            [tensors[spec.name].ravel() for spec in TENSORS]).tobytes()

    def test_rejects_gradient_of_wrong_shape(self):
        params = init_params(TINY, seed=0)
        state = AdamState.initial(params)
        before = params.vector.copy()
        # a length-1 gradient would broadcast over the vector without the check
        for grad in (self.constant_grads(params, 0.5)[1:], np.array([0.5])):
            with pytest.raises(ValueError, match="gradient shape"):
                adam_step(params, grad, state, TrainConfig())
        assert params.vector.tobytes() == before.tobytes() and state.t == 0

    def test_two_identical_runs_are_bitwise_identical(self):
        trajectories = []
        for _ in range(2):
            params = init_params(TINY, seed=3)
            state = AdamState.initial(params)
            rng = RandomSource(8)
            for _step in range(5):
                batch = rng.normal(0, 1, size=(6, 4))
                _, trace = forward_batch(batch, params, mode="train")
                grads = backward(trace, params)
                adam_step(params, grads, state, TrainConfig(lr=0.005))
            trajectories.append({n: t.copy() for n, t in params.trainable().items()})
        for name in trajectories[0]:
            assert np.array_equal(trajectories[0][name], trajectories[1][name]), name


def tiny_dataset(n=60, seed=0):
    """Small labeled set with a linearly separable flavor for loop tests."""
    rng = RandomSource(seed)
    fractions, tgs = [], []
    for _ in range(n):
        x = rng.uniform(size=3)
        x = x / x.sum()
        fractions.append(x)
        tgs.append(400.0 + 400.0 * x[0] + scalar_normal(rng, 0, 10.0))
    return table(fractions, tgs, [int(500.0 <= tg < 600.0) for tg in tgs])


SMALL_ARCH = ArchConfig(n_components=3, embed_dim=4, adjacency_rank=2,
                        attention_dim=4, hidden_dim=8, feature_dim=4)


# a 2-epoch train on the benchmark corpus at the default arch, printing the
# SHA-256 of the trained parameter vector and running statistics
BLAS_THREADS_RUN = """
import hashlib
from glasscreen import data_pipeline, synthetic, training
from glasscreen.deepglassnet import ArchConfig
labeled, _ = synthetic.benchmark_dataset(1200, 3)
train_set, val_set = data_pipeline.split(labeled, 0.8, 3)
arch = ArchConfig(n_components=len(synthetic.COMPONENT_NAMES))
params, _, _ = training.train(train_set, val_set, arch, training.TrainConfig(epochs=2, seed=3))
digest = hashlib.sha256(params.vector.tobytes())
digest.update(params.bn.running_mean.tobytes() + params.bn.running_var.tobytes())
print(digest.hexdigest())
"""


class TestTrainLoop:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [("sigma", -0.1), ("seed", -1)])
    def test_negative_sigma_or_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr", -1.0), ("lr", 0.0), ("lr", math.inf), ("lr", math.nan),
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 2.0), ("beta2", math.nan),
        ("adam_eps", 0.0), ("adam_eps", math.inf),
        ("weight_decay", -5.0), ("weight_decay", math.inf), ("sigma", math.nan),
        ("dropout", 1.0), ("dropout", -0.1), ("dropout", math.nan),
    ])
    def test_out_of_range_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_single_epoch_single_record(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=16, seed=1, precision_k=5)
        _, _, history = train(data[:40], data[40:], SMALL_ARCH, cfg)
        assert len(history.records) == 1
        assert history.records[0].epoch == 1

    def test_one_record_per_epoch(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=4, batch_size=16, seed=1, precision_k=5)
        _, _, history = train(data[:40], data[40:], SMALL_ARCH, cfg)
        assert [r.epoch for r in history.records] == [1, 2, 3, 4]
        assert all(np.isfinite(r.mean_loss) for r in history.records)

    def test_records_do_not_depend_on_the_epoch_count(self):
        # every epoch is validated, so each record is its own epoch's
        # measurement and a run's first records are a shorter run's
        data = tiny_dataset()
        runs = [train(data[:40], data[40:], SMALL_ARCH,
                      TrainConfig(epochs=epochs, batch_size=16, seed=1, precision_k=5))[2]
                for epochs in (2, 3)]
        assert runs[1].records[:2] == runs[0].records

    def test_bytes_do_not_depend_on_blas_threads(self):
        # the default arch at the default 768-row batch: its (n, n) x (n, B n)
        # attention GEMMs are wide enough for OpenBLAS to split across threads
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        digests = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert len(proc.stdout.strip()) == 64
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    def test_deterministic_given_seed(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=3, batch_size=16, seed=9, precision_k=5)
        p1, s1, h1 = train(data[:40], data[40:], SMALL_ARCH, cfg)
        p2, s2, h2 = train(data[:40], data[40:], SMALL_ARCH, cfg)
        for name, tensor in p1.trainable().items():
            assert np.array_equal(tensor, p2.trainable()[name]), name
        assert [r.mean_loss for r in h1.records] == [r.mean_loss for r in h2.records]
        assert [r.val_auc for r in h1.records] == [r.val_auc for r in h2.records]

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
        data = replace(data, y=np.zeros(len(data)))
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0, precision_k=2)
        with pytest.raises(Exception, match="widen|class"):
            train(data[:40], data[40:], SMALL_ARCH, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_raises_numeric_failure(self):
        data = tiny_dataset()
        data.fractions[3] = [np.nan, 0.5, 0.5]
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0, precision_k=5)
        with pytest.raises((NumericFailure, ValueError)):
            train(data[:40], data[40:], SMALL_ARCH, cfg)

    def test_train_with_dropout_smoke(self):
        data = tiny_dataset()
        arch = ArchConfig(n_components=3, embed_dim=4, adjacency_rank=2,
                          attention_dim=4, hidden_dim=8, feature_dim=4)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=4, precision_k=5, dropout=0.3)
        _, _, history = train(data[:40], data[40:], arch, cfg)
        assert all(np.isfinite(r.mean_loss) for r in history.records)

    def test_precision_k_validated_against_val_size(self):
        data = tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0, precision_k=500)
        with pytest.raises(ValueError, match="precision_k"):
            train(data[:40], data[40:], SMALL_ARCH, cfg)
