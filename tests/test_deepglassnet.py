import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glasscreen.data_pipeline import NormalizationStats, TgBand
from glasscreen.deepglassnet import (
    CHECKPOINT_MAGIC,
    ArchConfig,
    CheckpointCorruptError,
    CheckpointVersionError,
    ModelParams,
    eval_features,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from glasscreen.numeric_core import RandomSource

TINY = ArchConfig(n_components=4, embed_dim=3, adjacency_rank=2,
                  attention_dim=3, hidden_dim=5, feature_dim=2)


@pytest.fixture
def tiny_params():
    return init_params(TINY, seed=3)


def trace_of(x, params):
    """Eval-mode forward trace of a single composition or a batch."""
    x = np.asarray(x, dtype=float)
    return forward_batch(x.reshape(-1, x.shape[-1]), params)[1]


def unfused_front_end(x, params):
    """Q/K/V as the encoder first computed them, stage by stage: modulated
    embeddings diag(x_b) E, residual message passing over the masked
    adjacency, then three (B, n, d) x (d, dk) projections. forward_batch's
    one-product front end must agree with it to rounding."""
    n = params.embeddings.shape[0]
    vhat = params.interaction_factors / np.linalg.norm(params.interaction_factors, axis=1)[:, None]
    adj = vhat @ vhat.T
    masked = adj - np.diag(np.diag(adj))
    modulated = x[:, :, None] * params.embeddings
    mixed = modulated + np.matmul(masked, modulated) / (n - 1)
    return mixed @ params.w_query, mixed @ params.w_key, mixed @ params.w_value


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
        assert np.all(tiny_params.b_hidden == 0.0)
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


@pytest.mark.filterwarnings("ignore::glasscreen.numeric_core.NumericsWarning")
class TestEmbedProportions:
    """Stage 1 lives in the mixing matrix G_b = A * x_b[None, :]: column m of
    G_b scales component m's row of E @ W."""

    def test_zero_fraction_zero_row(self, tiny_params):
        x = np.array([0.0, 0.5, 0.2, 0.3])
        assert np.all(trace_of(x, tiny_params).mixing[0][:, 0] == 0.0)

    def test_unit_fraction_copies_row(self, tiny_params):
        x = np.array([0.0, 1.0, 0.0, 0.0])
        trace = trace_of(x, tiny_params)
        assert np.array_equal(trace.query[0, 1], (tiny_params.embeddings @ tiny_params.w_query)[1])

    def test_linearity(self, tiny_params):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        single, double = trace_of(x, tiny_params), trace_of(2 * x, tiny_params)
        assert np.array_equal(double.mixing, 2 * single.mixing)
        for name in ("query", "key", "value"):
            assert np.array_equal(getattr(double, name), 2 * getattr(single, name)), name

    def test_dimension_mismatch(self, tiny_params):
        with pytest.raises(ValueError, match="entries"):
            trace_of(np.ones(5), tiny_params)
        with pytest.raises(ValueError, match="entries"):
            trace_of(np.ones((3, 1)), tiny_params)  # would broadcast through G


class TestAdjacency:
    def with_factors(self, factors):
        params = init_params(TINY, seed=0)
        params.interaction_factors = np.array(factors, dtype=float)
        return params

    def test_parallel_factors(self):
        params = init_params(
            ArchConfig(n_components=2, embed_dim=2, adjacency_rank=2,
                       attention_dim=2, hidden_dim=3, feature_dim=2), seed=0)
        params.interaction_factors = np.array([[2.0, 0.0], [5.0, 0.0]])
        assert np.allclose(trace_of([0.5, 0.5], params).adjacency,
                           [[1.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_orthogonal_factors(self):
        params = init_params(
            ArchConfig(n_components=2, embed_dim=2, adjacency_rank=2,
                       attention_dim=2, hidden_dim=3, feature_dim=2), seed=0)
        params.interaction_factors = np.array([[3.0, 0.0], [0.0, 0.25]])
        a = trace_of([0.5, 0.5], params).adjacency
        assert abs(a[0, 1]) < 1e-14 and abs(a[1, 0]) < 1e-14

    def test_random_symmetry_and_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = self.with_factors(rng.normal(size=(4, 2)))
            a = trace_of(np.full(4, 0.25), params).adjacency
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
        params.interaction_factors = np.eye(4)  # orthogonal factors: identity adjacency
        trace = trace_of(np.arange(8.0).reshape(2, 4), params)
        assert np.array_equal(trace.adjacency, np.eye(4))
        assert np.array_equal(trace.mixing, trace.inputs[:, None, :] * np.eye(4))
        assert np.array_equal(trace.query,
                              trace.inputs[:, :, None] * (params.embeddings @ params.w_query))

    def test_two_components_full_coupling(self):
        params = init_params(self.arch(2, 2, 2), seed=0)
        params.interaction_factors = np.array([[1.0, 0.0], [1.0, 0.0]])
        params.embeddings = np.array([[1.0, 2.0], [10.0, 20.0]])
        params.w_query = np.eye(2)  # the query rows are then the mixed embeddings
        z = trace_of([1.0, 1.0], params).query[0]
        assert np.array_equal(z[0], params.embeddings[0] + params.embeddings[1])
        assert np.array_equal(z[1], params.embeddings[1] + params.embeddings[0])

    @pytest.mark.filterwarnings("ignore::glasscreen.numeric_core.NumericsWarning")
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            params = init_params(self.arch(n, d, 2), seed=int(rng.integers(100)))
            params.interaction_factors = rng.normal(size=(n, 2))
            trace = trace_of(rng.normal(size=(2, n)), params)
            for x, q in zip(trace.inputs, trace.query):
                z = convolve_oracle(x[:, None] * params.embeddings, trace.adjacency)
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
    @pytest.mark.filterwarnings("ignore::glasscreen.numeric_core.NumericsWarning")
    def test_identical_rows_give_uniform_attention(self, tiny_params):
        trace = trace_of(np.zeros(4), tiny_params)  # zero input => identical rows
        assert np.allclose(trace.attention, 0.25, atol=1e-12)
        tiny_params.embeddings = np.tile(np.array([0.3, -0.7, 1.1]), (4, 1))
        tiny_params.interaction_factors = np.ones((4, 2))
        trace = trace_of(np.full(4, 0.25), tiny_params)
        # identical embeddings give identical rows of E @ W, and symmetric
        # coupling makes every row of G a permutation of the first
        for projected in trace.projected:
            assert np.max(np.abs(projected - projected[0])) == 0.0
        rows = np.sort(trace.mixing[0], axis=1)
        assert np.max(np.abs(rows - rows[0])) == 0.0
        u = trace.attended[0]
        assert np.max(np.abs(u - u[0])) < 1e-12

    @pytest.mark.filterwarnings("ignore::glasscreen.numeric_core.NumericsWarning")
    def test_zero_value_matrix(self, tiny_params):
        tiny_params.w_value = np.zeros_like(tiny_params.w_value)
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.all(trace_of(x, tiny_params).attended == 0.0)

    def test_matches_loop_oracle(self, tiny_params):
        rng = np.random.default_rng(7)
        trace = trace_of(rng.normal(size=(10, 4)), tiny_params)
        for x, got in zip(trace.inputs, trace.attended):
            z = convolve_oracle(x[:, None] * tiny_params.embeddings, trace.adjacency)
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
                         attention_dim=2, hidden_dim=4, feature_dim=4,
                         bn_epsilon=1e-300)
        params = init_params(cfg, seed=1)
        params.w_out = np.eye(4)
        params.b_out = np.zeros(4)
        params.b_hidden = np.full(4, 0.1)
        x = np.random.default_rng(10).normal(size=(1, 3))
        features, trace = forward_batch(x, params)
        hidden = np.maximum(trace.flat[0] @ params.w_hidden + params.b_hidden, 0.0)
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
        assert np.max(np.abs(trace.adjacency - trace.adjacency.T)) < 1e-12
        assert np.max(np.abs(np.diag(trace.adjacency) - 1.0)) < 1e-12
        assert np.max(np.abs(trace.attention.sum(axis=-1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(features, axis=1) - 1.0)) < 1e-12

    @pytest.mark.filterwarnings("ignore::glasscreen.numeric_core.NumericsWarning")
    def test_zero_input_propagation(self, tiny_params):
        trace = trace_of(np.zeros(4), tiny_params)
        assert np.all(trace.mixing == 0.0)
        for name in ("query", "key", "value"):
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
        assert np.array_equal(eval_features(x, tiny_params, chunk=3),
                              eval_features(x, tiny_params, chunk=100))

    def test_eval_features_one_row_remainder(self):
        # at chunk 4,096, 4,097 rows leave a one-row remainder; a one-row
        # matmul rounds differently from the same row inside a chunk
        params = init_params(ArchConfig(n_components=8), seed=0)
        x = RandomSource(15).normal(0, 1, size=(4097, 8))
        assert np.array_equal(eval_features(x, params, chunk=4096),
                              eval_features(x, params, chunk=8192))

    @settings(max_examples=50, deadline=None)
    @given(rows=st.integers(0, 40), chunk=st.integers(2, 45), seed=st.integers(0, 2**32 - 1))
    def test_eval_features_bytes_do_not_depend_on_chunk(self, rows, chunk, seed):
        params = init_params(TINY, seed=3)
        params.b_out += 0.2
        x = RandomSource(seed).normal(0, 1, size=(rows, 4))
        assert np.array_equal(eval_features(x, params, chunk=chunk),
                              eval_features(x, params, chunk=max(rows, 2)))

    def test_eval_features_rejects_chunk_below_two(self, tiny_params):
        with pytest.raises(ValueError, match="chunk"):
            eval_features(np.ones((3, 4)), tiny_params, chunk=1)

    @pytest.mark.parametrize("arch, rows", [(ArchConfig(n_components=8), 768), (TINY, 9)],
                             ids=["default-768", "tiny-9"])
    @pytest.mark.parametrize("seed", range(3))
    def test_front_end_matches_unfused(self, arch, rows, seed):
        params = init_params(arch, seed=seed)
        x = RandomSource(100 + seed).normal(0.0, 1.0, size=(rows, arch.n_components))
        trace = trace_of(x, params)
        for name, expected in zip(("query", "key", "value"), unfused_front_end(x, params)):
            got = getattr(trace, name)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), name

    def test_train_mode_ignores_hidden_bias(self):
        # batch statistics remove b_hidden exactly, so it must not reach the
        # train-mode features even in the last bit
        params = init_params(TINY, seed=3)
        params.b_hidden += 0.3
        params.b_out += 0.5
        shifted = params.copy()
        shifted.b_hidden += 1e-5
        for seed in range(10):
            x = RandomSource(seed).normal(0.0, 1.0, size=(9, 4))
            base, _ = forward_batch(x, params, mode="train", update_running=False)
            moved, _ = forward_batch(x, shifted, mode="train", update_running=False)
            assert np.array_equal(base, moved), seed

    def test_hidden_bias_enters_running_mean(self):
        params = init_params(TINY, seed=3)
        params.b_hidden += 0.3
        params.b_out += 0.5
        x = RandomSource(0).normal(0.0, 1.0, size=(9, 4))
        _, trace = forward_batch(x, params, mode="train")
        pre = trace.flat @ params.w_hidden + params.b_hidden
        assert np.allclose(params.bn.running_mean, 0.1 * pre.mean(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(params.bn.running_var, 0.9 + 0.1 * pre.var(axis=0), rtol=0, atol=1e-12)


class TestDropout:
    def test_train_mode_needs_rng(self, tiny_params):
        x = RandomSource(15).normal(0, 1, size=(6, 4))
        with pytest.raises(ValueError, match="rng"):
            forward_batch(x, tiny_params, mode="train", dropout=0.5)

    def test_deterministic_per_seed(self, tiny_params):
        tiny_params.b_out += 0.2
        x = RandomSource(16).normal(0, 1, size=(6, 4))
        runs = []
        for _ in range(2):
            f, trace = forward_batch(x, tiny_params.copy(), mode="train",
                                     dropout=0.5, rng=RandomSource(21))
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
        assert ckpt.arch == TINY

    def test_round_trip_without_center(self, tmp_path):
        params, stats, band = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, stats, band, path)
        assert load_checkpoint(path).center is None

    def test_bad_magic_is_version_error(self, tmp_path):
        params, stats, band = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, stats, band, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"DGNCKPT9"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncation_is_corruption_error(self, tmp_path):
        params, stats, band = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, stats, band, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_flipped_byte_is_corruption_error(self, tmp_path):
        params, stats, band = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, TINY, stats, band, path)
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
        expected += struct.pack("<3d", 0.0, 0.1, 1e-5)
        for name in ("embeddings", "interaction_factors", "w_query", "w_key", "w_value",
                     "w_hidden", "b_hidden", "w_out", "b_out"):
            expected += f8(getattr(params, name))
        for vector in (params.bn.gamma, params.bn.beta,
                       params.bn.running_mean, params.bn.running_var):
            expected += f8(vector)
        expected += f8(stats.mean) + f8(stats.std)
        expected += struct.pack("<2d", 500.0, 600.0)
        expected += struct.pack("<B", 1) + f8(center)
        expected += hashlib.sha256(bytes(expected)).digest()
        assert path.read_bytes() == bytes(expected)
