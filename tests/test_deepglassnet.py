import hashlib
import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glasscreen import deepglassnet
from glasscreen.data_pipeline import NormalizationStats, TgBand
from glasscreen.deepglassnet import (
    BN_EPSILON,
    CHECKPOINT_MAGIC,
    ArchConfig,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    ModelParams,
    encoder_constants,
    eval_features,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    tensor_layout,
    vector_length,
)
from glasscreen.numeric_core import RandomSource
from oracles import unfolded_forward

TINY = ArchConfig(n_components=4, embed_dim=3, adjacency_rank=2,
                  attention_dim=3, hidden_dim=5, feature_dim=2)
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def tiny_params():
    return init_params(TINY, seed=3)


def features_at_chunk(x, params, chunk):
    """eval_features with EVAL_CHUNK set to ``chunk`` for the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deepglassnet, "EVAL_CHUNK", chunk)
        return eval_features(x, params)


def trace_of(x, params):
    """Eval-mode forward trace of a single composition or a batch."""
    x = np.asarray(x, dtype=float)
    return forward_batch(x.reshape(-1, x.shape[-1]), params)[1]


def mixing_of(trace):
    """The (B, n, n) mixing matrices G_b = A diag(x_b) rebuilt from a trace:
    forward_batch multiplies by them through the shared A and never builds them."""
    return trace.constants.A * trace.inputs[:, None, :]


def rows_of(trace, index):
    """Query (0), key (1) or value (2) rows G_b (E W) rebuilt from a trace:
    forward_batch folds them into n x n forms and never builds them."""
    return np.matmul(mixing_of(trace), trace.constants.projected[index])


def blocks_of(trace, name):
    """trace.GMX (G_b M diag(x_b)) or trace.P (alpha_b G_b) as (B, n, n) blocks."""
    n = trace.inputs.shape[1]
    return getattr(trace, name).reshape(-1, n, n)


def adjacency_of(constants):
    """The interaction graph: the Gram matrix of the unit factor rows."""
    return constants.unit_factors @ constants.unit_factors.T


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    for name, tensor in a.trainable().items():
        if not np.array_equal(tensor, b.trainable()[name]):
            return False
    return (np.array_equal(a.bn.running_mean, b.bn.running_mean)
            and np.array_equal(a.bn.running_var, b.bn.running_var))


class TestInit:
    def test_same_seed_bitwise_identical(self):
        assert params_equal(init_params(TINY, seed=11), init_params(TINY, seed=11))

    def test_biases_zero(self, tiny_params):
        assert np.all(tiny_params.b_out == 0.0)
        assert np.all(tiny_params.bn.beta == 0.0)
        assert np.all(tiny_params.bn.gamma == 1.0)

    def test_hidden_weight_scale(self):
        cfg = ArchConfig(n_components=8, embed_dim=16, adjacency_rank=5,
                         attention_dim=16, hidden_dim=64, feature_dim=8)
        params = init_params(cfg, seed=0)
        target = 1.0 / math.sqrt(cfg.flat_dim)
        assert abs(params.w_hidden.std() - target) / target < 0.2

    def test_adjacency_parameter_count(self, tiny_params):
        # the interaction mechanism carries exactly n * rank parameters
        assert tiny_params.interaction_factors.size == TINY.n_components * TINY.adjacency_rank


class TestEmbedProportions:
    """Stage 1 lives in the mixing matrix G_b = A diag(x_b): column m of
    G_b scales component m's row of E @ W, and of M in G_b M."""

    def test_zero_fraction_zero_row(self, tiny_params):
        x = np.array([0.0, 0.5, 0.2, 0.3])
        assert np.all(mixing_of(trace_of(x, tiny_params))[0][:, 0] == 0.0)

    def test_unit_fraction_copies_row(self, tiny_params):
        x = np.array([0.0, 1.0, 0.0, 0.0])
        trace = trace_of(x, tiny_params)
        assert np.array_equal(mixing_of(trace)[0, 1], x)
        assert np.array_equal(rows_of(trace, 0)[0, 1],
                              (tiny_params.embeddings @ tiny_params.w_query)[1])
        assert np.array_equal(blocks_of(trace, "GMX")[0, 1], trace.constants.M[1] * x)

    def test_linearity(self, tiny_params):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        single, double = trace_of(x, tiny_params), trace_of(2 * x, tiny_params)
        assert np.array_equal(mixing_of(double), 2 * mixing_of(single))
        assert np.array_equal(double.GMX, 4 * single.GMX)  # G_b M diag(x_b) is quadratic
        for index, name in enumerate(("query", "key", "value")):
            assert np.array_equal(rows_of(double, index), 2 * rows_of(single, index)), name

    def test_dimension_mismatch(self, tiny_params):
        with pytest.raises(ValueError, match="entries"):
            trace_of(np.ones(5), tiny_params)
        with pytest.raises(ValueError, match="entries"):
            trace_of(np.ones((3, 1)), tiny_params)  # would broadcast through G


class TestAdjacency:
    def with_factors(self, factors):
        params = init_params(TINY, seed=0)
        params.interaction_factors[...] = np.array(factors, dtype=float)
        return params

    def test_parallel_factors(self):
        params = init_params(
            ArchConfig(n_components=2, embed_dim=2, adjacency_rank=2,
                       attention_dim=2, hidden_dim=3, feature_dim=2), seed=0)
        params.interaction_factors[...] = np.array([[2.0, 0.0], [5.0, 0.0]])
        assert np.allclose(adjacency_of(encoder_constants(params)),
                           [[1.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_orthogonal_factors(self):
        params = init_params(
            ArchConfig(n_components=2, embed_dim=2, adjacency_rank=2,
                       attention_dim=2, hidden_dim=3, feature_dim=2), seed=0)
        params.interaction_factors[...] = np.array([[3.0, 0.0], [0.0, 0.25]])
        a = adjacency_of(encoder_constants(params))
        assert abs(a[0, 1]) < 1e-14 and abs(a[1, 0]) < 1e-14

    def test_random_symmetry_and_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = self.with_factors(rng.normal(size=(4, 2)))
            a = adjacency_of(encoder_constants(params))
            assert np.max(np.abs(a - a.T)) < 1e-14
            assert np.max(np.abs(np.diag(a) - 1.0)) < 1e-12
            assert np.all(np.abs(a) <= 1.0 + 1e-12)

    def test_zero_row_rejected(self):
        params = self.with_factors([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="zero row"):
            trace_of(np.full(4, 0.25), params)


def convolve_oracle(h, a):
    n, d = h.shape
    z = np.zeros_like(h)
    for i in range(n):
        acc = np.zeros(d)
        for j in range(n):
            if j != i:
                acc += a[i, j] * h[j]
        z[i] = h[i] + acc / (n - 1)
    return z


class TestGraphConvolve:
    def arch(self, n, d, rank):
        return ArchConfig(n_components=n, embed_dim=d, adjacency_rank=rank,
                          attention_dim=2, hidden_dim=3, feature_dim=2)

    def test_identity_adjacency_passes_through(self):
        params = init_params(self.arch(4, 2, 4), seed=0)
        params.interaction_factors[...] = np.eye(4)  # orthogonal factors: identity adjacency
        trace = trace_of(np.arange(8.0).reshape(2, 4), params)
        assert np.array_equal(adjacency_of(trace.constants), np.eye(4))
        assert np.array_equal(mixing_of(trace), trace.inputs[:, None, :] * np.eye(4))
        assert np.array_equal(rows_of(trace, 0),
                              trace.inputs[:, :, None] * (params.embeddings @ params.w_query))
        assert np.array_equal(blocks_of(trace, "GMX"), trace.inputs[:, :, None]
                              * trace.constants.M * trace.inputs[:, None, :])

    def test_two_components_full_coupling(self):
        params = init_params(self.arch(2, 2, 2), seed=0)
        params.interaction_factors[...] = np.array([[1.0, 0.0], [1.0, 0.0]])
        params.embeddings[...] = np.array([[1.0, 2.0], [10.0, 20.0]])
        params.w_query[...] = np.eye(2)  # the query rows are then the mixed embeddings
        z = rows_of(trace_of([1.0, 1.0], params), 0)[0]
        assert np.array_equal(z[0], params.embeddings[0] + params.embeddings[1])
        assert np.array_equal(z[1], params.embeddings[1] + params.embeddings[0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            params = init_params(self.arch(n, d, 2), seed=int(rng.integers(100)))
            params.interaction_factors[...] = rng.normal(size=(n, 2))
            trace = trace_of(rng.normal(size=(2, n)), params)
            for x, q in zip(trace.inputs, rows_of(trace, 0)):
                z = convolve_oracle(x[:, None] * params.embeddings, adjacency_of(trace.constants))
                assert np.max(np.abs(q - z @ params.w_query)) < 1e-12

    def test_single_component_rejected(self):
        with pytest.raises(ValueError, match="n_components"):
            ArchConfig(n_components=1)


def attention_oracle(z, wq, wk, wv):
    n, d = z.shape
    dk = wq.shape[1]
    q = np.array([[sum(z[i, a] * wq[a, b] for a in range(d)) for b in range(dk)]
                  for i in range(n)])
    k = np.array([[sum(z[i, a] * wk[a, b] for a in range(d)) for b in range(dk)]
                  for i in range(n)])
    v = np.array([[sum(z[i, a] * wv[a, b] for a in range(d)) for b in range(dk)]
                  for i in range(n)])
    scores = np.array([[sum(q[i, c] * k[j, c] for c in range(dk)) / math.sqrt(dk)
                        for j in range(n)] for i in range(n)])
    u = np.zeros((n, dk))
    for i in range(n):
        shifted = np.exp(scores[i] - scores[i].max())
        alpha = shifted / shifted.sum()
        for c in range(dk):
            u[i, c] = sum(alpha[j] * v[j, c] for j in range(n))
    return u


class TestSelfAttention:
    def test_identical_rows_give_uniform_attention(self, tiny_params):
        trace = trace_of(np.zeros(4), tiny_params)  # zero input => identical rows
        assert np.allclose(trace.attention, 0.25, atol=1e-12)
        tiny_params.embeddings[...] = np.tile(np.array([0.3, -0.7, 1.1]), (4, 1))
        tiny_params.interaction_factors[...] = np.ones((4, 2))
        trace = trace_of(np.full(4, 0.25), tiny_params)
        # identical embeddings give identical rows of E @ W, and symmetric
        # coupling makes every row of G a permutation of the first
        for projected in trace.constants.projected:
            assert np.max(np.abs(projected - projected[0])) == 0.0
        rows = np.sort(mixing_of(trace)[0], axis=1)
        assert np.max(np.abs(rows - rows[0])) == 0.0
        # the attended rows alpha_b G_b (E W_v)
        u = blocks_of(trace, "P")[0] @ trace.constants.projected[2]
        assert np.max(np.abs(u - u[0])) < 1e-12

    def test_zero_value_matrix(self, tiny_params):
        tiny_params.w_value[...] = np.zeros_like(tiny_params.w_value)
        x = np.random.default_rng(0).normal(size=(3, 4))
        trace = trace_of(x, tiny_params)
        assert np.all(trace.constants.U == 0.0)  # no value reaches the head
        assert np.all(blocks_of(trace, "P") @ trace.constants.projected[2] == 0.0)

    def test_matches_loop_oracle(self, tiny_params):
        rng = np.random.default_rng(7)
        trace = trace_of(rng.normal(size=(10, 4)), tiny_params)
        for x, got in zip(trace.inputs, blocks_of(trace, "P") @ trace.constants.projected[2]):
            z = convolve_oracle(x[:, None] * tiny_params.embeddings, adjacency_of(trace.constants))
            want = attention_oracle(z, tiny_params.w_query,
                                    tiny_params.w_key, tiny_params.w_value)
            assert np.max(np.abs(got - want)) < 1e-12


class TestProject:
    def test_output_is_unit_norm(self, tiny_params):
        rng = np.random.default_rng(8)
        tiny_params.b_out += 0.3  # keep away from the zero-norm guard
        features, _ = forward_batch(rng.normal(size=(5, 4)), tiny_params)
        for f in features:
            assert abs(np.linalg.norm(f) - 1.0) < 1e-12

    def test_eval_is_pure(self, tiny_params):
        x = np.random.default_rng(9).normal(size=(4, 4))
        tiny_params.b_out += 0.3
        before = tiny_params.copy()
        first, _ = forward_batch(x, tiny_params)
        second, _ = forward_batch(x, tiny_params)
        assert np.array_equal(first, second)
        assert params_equal(tiny_params, before)

    def test_layer_collapse_with_neutral_stats(self):
        cfg = ArchConfig(n_components=3, embed_dim=2, adjacency_rank=2,
                         attention_dim=2, hidden_dim=4, feature_dim=4)
        params = init_params(cfg, seed=1)
        params.w_out[...] = np.eye(4)
        params.b_out[...] = np.zeros(4)
        params.bn_beta[...] = np.full(4, 0.1)
        x = np.random.default_rng(10).normal(size=(1, 3))
        features, _ = forward_batch(x, params)
        # running mean 0 and variance 1: the batch norm divides by sqrt(1 + epsilon)
        hidden = np.maximum(unfolded_forward(x, params)["flat"][0] @ params.w_hidden
                            / np.sqrt(1.0 + BN_EPSILON) + params.bn_beta, 0.0)
        expected = hidden / np.linalg.norm(hidden)
        assert np.max(np.abs(features[0] - expected)) < 1e-9

    def test_train_mode_rejected(self, tiny_params):
        before = tiny_params.copy()
        with pytest.raises(ValueError, match="batch"):
            forward_batch(np.ones((1, 4)), tiny_params, mode="train")
        assert params_equal(tiny_params, before)  # running stats untouched


class TestForward:
    def test_trace_invariants_random(self, tiny_params):
        rng = RandomSource(12)
        tiny_params.b_out += 0.2
        features, trace = forward_batch(rng.normal(0, 1, size=(50, 4)), tiny_params)
        adjacency = adjacency_of(trace.constants)
        assert np.max(np.abs(adjacency - adjacency.T)) < 1e-12
        assert np.max(np.abs(np.diag(adjacency) - 1.0)) < 1e-12
        assert np.max(np.abs(trace.attention.sum(axis=0) - 1.0)) < 1e-12  # (n, B n)
        assert np.max(np.abs(np.linalg.norm(features, axis=1) - 1.0)) < 1e-12

    def test_zero_input_propagation(self, tiny_params):
        trace = trace_of(np.zeros(4), tiny_params)
        assert np.all(mixing_of(trace) == 0.0)
        for name in ("GMX", "P"):
            assert np.all(getattr(trace, name) == 0.0), name
        assert np.allclose(trace.attention, 0.25, atol=1e-12)

    def test_swap_of_identical_components_is_noop(self, tiny_params):
        # make components 1 and 2 identical in both parameters and fractions
        tiny_params.embeddings[2] = tiny_params.embeddings[1]
        tiny_params.interaction_factors[2] = tiny_params.interaction_factors[1]
        tiny_params.b_out += 0.2
        x = np.array([0.4, 0.2, 0.2, 0.2])
        swapped = x[[0, 2, 1, 3]]
        features, _ = forward_batch(np.stack([x, swapped]), tiny_params)
        assert np.max(np.abs(features[0] - features[1])) < 1e-12

    def test_train_mode_needs_batch(self, tiny_params):
        with pytest.raises(ValueError, match="batch"):
            forward_batch(np.ones((1, 4)), tiny_params, mode="train")
        with pytest.raises(ValueError, match="batch"):
            forward_batch(np.ones(4), tiny_params)

    def test_batch_eval_matches_single(self, tiny_params):
        rng = RandomSource(13)
        tiny_params.b_out += 0.2
        x = rng.normal(0, 1, size=(6, 4))
        batch_features, _ = forward_batch(x, tiny_params, mode="eval")
        for i in range(6):
            single, _ = forward_batch(x[i:i + 1], tiny_params, mode="eval")
            assert np.max(np.abs(batch_features[i] - single[0])) < 1e-12

    def test_eval_features_chunking(self, tiny_params):
        rng = RandomSource(14)
        tiny_params.b_out += 0.2
        x = rng.normal(0, 1, size=(10, 4))
        assert np.array_equal(features_at_chunk(x, tiny_params, 3),
                              features_at_chunk(x, tiny_params, 100))

    def test_eval_features_one_row_remainder(self):
        # at chunk 4,096, fixed-size chunks of 4,097 rows would leave a one-row
        # remainder; a one-row matmul rounds differently from the same row
        # inside a chunk
        params = init_params(ArchConfig(n_components=8), seed=0)
        x = RandomSource(15).normal(0, 1, size=(4097, 8))
        assert np.array_equal(features_at_chunk(x, params, 4096),
                              features_at_chunk(x, params, 8192))

    @settings(max_examples=50, deadline=None)
    @given(rows=st.integers(0, 40), chunk=st.integers(2, 45), seed=st.integers(0, 2**32 - 1))
    def test_eval_features_bytes_do_not_depend_on_chunk(self, rows, chunk, seed):
        params = init_params(TINY, seed=3)
        params.b_out += 0.2
        x = RandomSource(seed).normal(0, 1, size=(rows, 4))
        assert np.array_equal(features_at_chunk(x, params, chunk),
                              features_at_chunk(x, params, max(rows, 2)))

    def test_eval_features_equals_forward_batch_per_chunk(self, monkeypatch):
        # 2 chunk + 1 rows split into two chunks, the first one row longer
        params = init_params(ArchConfig(n_components=8), seed=0)
        chunk = deepglassnet.EVAL_CHUNK
        x = RandomSource(16).normal(0, 1, size=(2 * chunk + 1, 8))
        expected = np.concatenate([forward_batch(x[:chunk + 1], params)[0],
                                   forward_batch(x[chunk + 1:], params)[0]])
        rows = []

        def recording(batch, *args, **kwargs):
            rows.append(batch.shape[0])
            return forward_batch(batch, *args, **kwargs)

        monkeypatch.setattr(deepglassnet, "forward_batch", recording)
        assert eval_features(x, params).tobytes() == expected.tobytes()
        assert rows == [chunk + 1, chunk]

    def test_constants_from_other_params_are_refused(self, tiny_params):
        x = RandomSource(17).normal(0, 1, size=(3, 4))
        constants = encoder_constants(tiny_params)
        forward_batch(x, tiny_params, constants=constants)
        for other in (tiny_params.copy(), init_params(TINY, seed=4)):
            with pytest.raises(ValueError, match="another ModelParams"):
                forward_batch(x, other, constants=constants)
            with pytest.raises(ValueError, match="another ModelParams"):
                forward_batch(x, other, mode="train", constants=constants)

    @pytest.mark.parametrize("arch, rows", [(ArchConfig(n_components=8), 768), (TINY, 9)],
                             ids=["default-768", "tiny-9"])
    @pytest.mark.parametrize("seed", range(3))
    def test_front_end_matches_unfused(self, arch, rows, seed):
        params = init_params(arch, seed=seed)
        x = RandomSource(100 + seed).normal(0.0, 1.0, size=(rows, arch.n_components))
        trace = trace_of(x, params)
        stages = unfolded_forward(x, params)
        folded = {name: rows_of(trace, index)
                  for index, name in enumerate(("query", "key", "value"))}
        # S_b = G_b M G_b^T = (G_b M diag(x_b)) A^T
        folded["scores"] = np.matmul(blocks_of(trace, "GMX"), trace.constants.A.T)
        folded["pre"] = trace.P @ trace.constants.U
        for name, got in folded.items():
            expected = stages[name]
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), name

    def test_train_mode_updates_running_stats(self):
        params = init_params(TINY, seed=3)
        params.b_out += 0.5
        x = RandomSource(0).normal(0.0, 1.0, size=(9, 4))
        pre = unfolded_forward(x, params, mode="train")["pre"]
        forward_batch(x, params, mode="train")
        assert np.allclose(params.bn.running_mean, 0.1 * pre.mean(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(params.bn.running_var, 0.9 + 0.1 * pre.var(axis=0), rtol=0, atol=1e-12)


class TestDropout:
    def test_train_mode_needs_rng(self, tiny_params):
        x = RandomSource(15).normal(0, 1, size=(6, 4))
        with pytest.raises(ValueError, match="rng"):
            forward_batch(x, tiny_params, mode="train", dropout=0.5)

    @pytest.mark.parametrize("rate", [1.0, -0.1, math.nan])
    def test_out_of_range_rate_rejected(self, tiny_params, rate):
        x = RandomSource(15).normal(0, 1, size=(6, 4))
        with pytest.raises(ValueError, match="dropout"):
            forward_batch(x, tiny_params, mode="train", rng=RandomSource(21), dropout=rate)

    def test_deterministic_per_seed(self, tiny_params):
        tiny_params.b_out += 0.2
        x = RandomSource(16).normal(0, 1, size=(6, 4))
        runs = []
        for _ in range(2):
            f, trace = forward_batch(x, tiny_params.copy(), mode="train", rng=RandomSource(21),
                                     dropout=0.5)
            runs.append((f, trace.dropout_mask))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        # inverted dropout: surviving units are scaled by 1/(1-rate)
        mask = runs[0][1]
        assert set(np.unique(mask)) <= {0.0, 2.0}

    def test_eval_mode_ignores_dropout(self, tiny_params):
        tiny_params.b_out += 0.2
        x = RandomSource(17).normal(0, 1, size=(6, 4))
        plain, _ = forward_batch(x, tiny_params, mode="eval")
        with_knob, trace = forward_batch(x, tiny_params, mode="eval", dropout=0.9)
        assert np.array_equal(plain, with_knob)
        assert trace.dropout_mask is None


class TestCheckpoint:
    def build(self):
        params = init_params(TINY, seed=21)
        params.bn.running_mean += 0.25  # non-trivial running stats must round-trip
        params.bn.running_var *= 1.5
        stats = NormalizationStats(mean=np.linspace(0, 1, 4), std=np.linspace(1, 2, 4))
        band = TgBand(500.0, 600.0)
        return params, stats, band

    def test_round_trip_bitwise(self, tmp_path):
        params, stats, band = self.build()
        center = np.array([0.125, -0.5])
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, stats, band, path, center=center)
        ckpt = load_checkpoint(path)
        assert params_equal(ckpt.params, params)
        for name, tensor in params.trainable().items():
            assert np.array_equal(ckpt.params.trainable()[name], tensor)
        assert np.array_equal(ckpt.stats.mean, stats.mean)
        assert np.array_equal(ckpt.stats.std, stats.std)
        assert (ckpt.band.low, ckpt.band.high) == (band.low, band.high)
        assert np.array_equal(ckpt.center, center)
        assert ckpt.params.arch == TINY

    # a config field, or a center or stats length unlike the parameters' arch
    # (which load_checkpoint would refuse, or read with another shape)
    @pytest.mark.parametrize("field, value", [
        ("embed_dim", 4), ("adjacency_rank", 3), ("attention_dim", 4), ("hidden_dim", 6),
        ("feature_dim", 3),
        pytest.param("center", np.zeros(3), id="center-3"),
        pytest.param("center", np.zeros((1, 2)), id="center-1x2"),
        pytest.param("stats", 5, id="stats-5")])
    def test_config_unlike_params_raises_before_writing(self, tmp_path, field, value):
        params, stats, band = self.build()
        cfg, center = TINY, np.zeros(TINY.feature_dim)
        if field == "center":
            center = value
        elif field == "stats":
            stats = NormalizationStats(mean=np.zeros(value), std=np.ones(value))
        else:
            cfg = replace(TINY, **{field: value})
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="does not match"):
            save_checkpoint(params, cfg, stats, band, path, center=center)
        assert not path.exists()

    @pytest.mark.parametrize("section", ["vector", "running_var", "mean", "center"])
    def test_non_finite_tensor_raises_before_writing(self, tmp_path, section):
        params, stats, band = self.build()
        center = np.zeros(TINY.feature_dim)
        {"vector": params.vector, "running_var": params.bn.running_var,
         "mean": stats.mean, "center": center}[section][0] = np.nan
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="refusing to save non-finite tensor values"):
            save_checkpoint(params, TINY, stats, band, path, center=center)
        assert not path.exists()

    def test_bad_magic_is_version_error(self, tmp_path):
        path, _ = self.saved_blob(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"DGNCKPT9"
        path.write_bytes(bytes(blob))
        message = f"{re.escape(str(path))}: not a DGNCKPT3 checkpoint"
        with pytest.raises(CheckpointVersionError, match=message):
            load_checkpoint(path)

    def test_truncation_is_corruption_error(self, tmp_path):
        path, _ = self.saved_blob(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_flipped_byte_is_corruption_error(self, tmp_path):
        path, _ = self.saved_blob(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_layout_is_tensors_table_order(self, tmp_path):
        params, stats, band = self.build()
        center = np.array([0.125, -0.5])
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, stats, band, path, center=center)

        def f8(a):
            return np.asarray(a, dtype=float).astype("<f8").tobytes()

        expected = bytearray(CHECKPOINT_MAGIC)
        expected += struct.pack("<6q", 4, 3, 2, 3, 5, 2)
        for name in ("embeddings", "interaction_factors", "w_query", "w_key", "w_value",
                     "w_hidden", "w_out", "b_out"):
            expected += f8(getattr(params, name))
        for vector in (params.bn.gamma, params.bn.beta,
                       params.bn.running_mean, params.bn.running_var):
            expected += f8(vector)
        expected += f8(stats.mean) + f8(stats.std) + f8(center)
        expected += struct.pack("<2d", 500.0, 600.0)
        expected += hashlib.sha256(bytes(expected)).digest()
        assert path.read_bytes() == bytes(expected)

    # v1_zero_bias.ckpt is a valid DGNCKPT1 file: TINY, init seed 21, running
    # mean + 0.25, running var x 1.5, b_out + 0.3, a zero hidden bias and the
    # center [0.6, 0.8]. That format, which also stored a hidden bias, is no
    # longer read.
    V1 = FIXTURES / "v1_zero_bias.ckpt"

    def test_reads_v1_with_zero_hidden_bias_to_the_same_bytes(self):
        message = (f"{re.escape(str(self.V1))}: not a DGNCKPT3 checkpoint .*DGNCKPT1.* "
                   "no longer read: retrain the model")
        with pytest.raises(CheckpointVersionError, match=message):
            load_checkpoint(self.V1)

    # v2_tiny.ckpt is the DGNCKPT2 file save_checkpoint wrote for build()'s
    # params, stats and band with the center [0.125, -0.5]: an 80-byte header
    # that also held dropout and the batch-norm constants, and a center flag
    # byte of 1 before the center. That format is no longer read either.
    V2 = FIXTURES / "v2_tiny.ckpt"

    def test_v2_is_version_error(self):
        message = (f"{re.escape(str(self.V2))}: not a DGNCKPT3 checkpoint .*DGNCKPT2.* "
                   "no longer read: retrain the model")
        with pytest.raises(CheckpointVersionError, match=message):
            load_checkpoint(self.V2)

    # under the DGNCKPT3 magic and checksummed anew, the hidden bias shifts
    # every later section: the file is still refused, not read misaligned
    def test_reads_v1_hidden_bias_into_running_mean(self, tmp_path):
        payload = CHECKPOINT_MAGIC + self.V1.read_bytes()[8:-32]
        path = tmp_path / "relabelled.ckpt"
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(CheckpointCorruptError, match=re.escape(str(path))):
            load_checkpoint(path)

    def saved_blob(self, tmp_path):
        params, stats, band = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, stats, band, path, center=np.array([0.125, -0.5]))
        return path, path.read_bytes()

    @staticmethod
    def rechecksummed(blob: bytes, offset: int, fmt: str, value) -> bytes:
        payload = bytearray(blob[:-32])
        struct.pack_into(fmt, payload, offset, value)
        return bytes(payload) + hashlib.sha256(payload).digest()

    # the <6q arch header starts at byte 8
    @pytest.mark.parametrize("offset, fmt, value", [
        (8, "<q", 1),            # n_components
        (8, "<q", 2**62),        # n_components: overflows a numpy size product
        (8 + 8, "<q", -3),       # embed_dim
        (8 + 16, "<q", 0),       # adjacency_rank
        (8 + 24, "<q", -1),      # attention_dim
        (8 + 32, "<q", 2**63 - 1),  # hidden_dim
        (8 + 40, "<q", 0),       # feature_dim
    ])
    def test_bad_header_with_valid_checksum_is_corruption_error(self, tmp_path, offset, fmt,
                                                               value):
        path, blob = self.saved_blob(tmp_path)
        path.write_bytes(self.rechecksummed(blob, offset, fmt, value))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("running_var", -1.0), ("std", 0.0), ("band_high", 400.0), ("band_low", math.nan)])
    def test_bad_value_with_valid_checksum_is_corruption_error(self, tmp_path, field, value):
        path, blob = self.saved_blob(tmp_path)
        length, h, n = vector_length(TINY), TINY.hidden_dim, TINY.n_components
        k = TINY.feature_dim
        # after the 56-byte magic and header: vector, running mean and var,
        # stats mean and std, center, band low and high
        offset = 56 + 8 * {"running_var": length + h, "std": length + 2 * h + n,
                           "band_low": length + 2 * h + 2 * n + k,
                           "band_high": length + 2 * h + 2 * n + k + 1}[field]
        path.write_bytes(self.rechecksummed(blob, offset, "<d", value))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    # one non-finite entry per section, after the 56-byte magic and header:
    # the vector (embeddings[0, 1] is its second entry), running mean and
    # var, stats mean and std, center[0]
    @pytest.mark.parametrize("field, value", [
        ("embeddings", math.nan), ("running_mean", math.nan), ("running_var", math.inf),
        ("mean", math.nan), ("std", math.inf), ("center", math.nan)])
    def test_non_finite_value_with_valid_checksum_is_corruption_error(self, tmp_path, field,
                                                                      value):
        path, blob = self.saved_blob(tmp_path)
        length, h, n = vector_length(TINY), TINY.hidden_dim, TINY.n_components
        offset = 56 + 8 * {"embeddings": 1, "running_mean": length, "running_var": length + h,
                           "mean": length + 2 * h, "std": length + 2 * h + n,
                           "center": length + 2 * h + 2 * n}[field]
        path.write_bytes(self.rechecksummed(blob, offset, "<d", value))
        with pytest.raises(CheckpointCorruptError, match="non-finite"):
            load_checkpoint(path)

    # the payload, checksummed anew, cut before the band, one byte short, or
    # with 8 more bytes: the one length check names the shortfall or the excess
    @pytest.mark.parametrize("cut, tail, message", [
        (16, b"", "truncated checkpoint"),
        (1, b"", "truncated checkpoint"),
        (0, bytes(8), "8 unexpected trailing bytes")],
        ids=["no-band", "one-byte-short", "8-extra"])
    def test_payload_length_decides(self, tmp_path, cut, tail, message):
        path, blob = self.saved_blob(tmp_path)
        payload = blob[:len(blob) - 32 - cut] + tail
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(CheckpointCorruptError, match=message):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damaged_file_always_raises_checkpoint_error(self, tmp_path_factory, data):
        path, blob = self.saved_blob(tmp_path_factory.mktemp("ckpt"))
        damage = data.draw(st.sampled_from(["flip", "truncate", "append", "int"]))
        if damage == "flip":
            at = data.draw(st.integers(0, len(blob) - 1))
            bad = bytearray(blob)
            bad[at] ^= data.draw(st.integers(1, 255))
        elif damage == "truncate":
            bad = blob[:data.draw(st.integers(0, len(blob) - 1))]
        elif damage == "append":
            bad = blob + data.draw(st.binary(min_size=1, max_size=64))
        else:
            # one arch field changes the length of every later section
            field = data.draw(st.integers(0, 5))
            (old,) = struct.unpack_from("<q", blob, 8 + 8 * field)
            value = data.draw(st.integers(-2**63, 2**63 - 1).filter(lambda v: v != old))
            bad = self.rechecksummed(blob, 8 + 8 * field, "<q", value)
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestParamVector:
    def test_tensors_are_views_of_one_vector(self, tiny_params):
        vector = tiny_params.vector
        assert vector.dtype == np.float64 and vector.flags.c_contiguous
        layout = tensor_layout(TINY)
        assert list(layout) == list(tiny_params.trainable())
        assert sum(part.stop - part.start for part, _ in layout.values()) == vector.size
        for name, (part, shape) in layout.items():
            view = tiny_params.trainable()[name]
            assert view.shape == shape and np.shares_memory(view, vector), name
            assert view.ravel().tobytes() == vector[part].tobytes(), name
        assert tiny_params.bn.gamma is tiny_params.bn_gamma
        assert tiny_params.bn.beta is tiny_params.bn_beta

    def test_assignment_writes_into_the_vector(self, tiny_params, tmp_path):
        vector = tiny_params.vector
        tiny_params.w_out[...] = np.eye(5, 2)
        tiny_params.b_out += 0.5
        tiny_params.bn_gamma[...] = np.full(5, 2.0)
        assert tiny_params.vector is vector
        layout = tensor_layout(TINY)
        assert np.array_equal(vector[layout["w_out"][0]], np.eye(5, 2).ravel())
        assert np.array_equal(vector[layout["b_out"][0]], [0.5, 0.5])
        assert np.array_equal(tiny_params.bn.gamma, np.full(5, 2.0))
        # what is copied and saved is what was assigned
        assert np.array_equal(tiny_params.copy().w_out, np.eye(5, 2))
        stats = NormalizationStats(mean=np.zeros(4), std=np.ones(4))
        save_checkpoint(tiny_params, TINY, stats, TgBand(1.0, 2.0), tmp_path / "m.ckpt",
                        center=np.array([0.6, 0.8]))
        loaded = load_checkpoint(tmp_path / "m.ckpt").params
        assert np.array_equal(loaded.w_out, np.eye(5, 2))
        assert np.array_equal(loaded.bn.gamma, np.full(5, 2.0))

    def test_bad_assignment_raises_and_changes_nothing(self, tiny_params):
        before = tiny_params.vector.copy()
        with pytest.raises(ValueError, match="shape"):
            tiny_params.w_out[...] = np.eye(4)
        with pytest.raises(AttributeError, match="rebind"):
            tiny_params.w_out = np.eye(5, 2)  # a new array would leave the view stale
        with pytest.raises(AttributeError):
            tiny_params.b_hidden = np.zeros(5)
        with pytest.raises(AttributeError):
            tiny_params.vector = np.zeros_like(before)
        assert tiny_params.vector.tobytes() == before.tobytes()

    def test_copy_shares_no_memory(self, tiny_params):
        copied = tiny_params.copy()
        copied.w_out += 1.0
        copied.bn.running_mean += 1.0
        assert not np.shares_memory(copied.vector, tiny_params.vector)
        assert not np.array_equal(copied.w_out, tiny_params.w_out)
        assert not np.array_equal(copied.bn.running_mean, tiny_params.bn.running_mean)
