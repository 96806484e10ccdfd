"""DeepGlassNet encoder.

Four stages: proportion-modulated component embeddings, residual message
passing over a low-rank learned interaction graph, scaled dot-product
self-attention, and a batch-normalized two-layer projection head whose output
is L2-normalized. The first two stages and the Q/K/V projections are linear,
so forward_batch computes them as one product per projection. All tensors are
float64.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .data_pipeline import NormalizationStats, TgBand
from .numeric_core import (
    BatchNormState,
    NumericsWarning,
    RandomSource,
    batchnorm_eval,
    batchnorm_train_cached,
    softmax_rows,
)

CHECKPOINT_MAGIC = b"DGNCKPT1"


class CheckpointError(RuntimeError):
    pass


class CheckpointVersionError(CheckpointError):
    """Magic header does not identify a supported checkpoint format."""


class CheckpointCorruptError(CheckpointError):
    """Checkpoint is truncated or fails its checksum."""


@dataclass(frozen=True)
class ArchConfig:
    """Encoder dimensions. Defaults are sized for CPU training."""

    n_components: int
    embed_dim: int = 16
    adjacency_rank: int = 5
    attention_dim: int = 16
    hidden_dim: int = 64
    feature_dim: int = 8
    dropout: float = 0.0
    bn_momentum: float = 0.1
    bn_epsilon: float = 1e-5

    def __post_init__(self):
        if self.n_components < 2:
            # graph convolution averages over the n - 1 other components
            raise ValueError(f"n_components must be >= 2, got {self.n_components}")
        for name in ("embed_dim", "adjacency_rank", "attention_dim",
                     "hidden_dim", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.adjacency_rank > self.n_components:
            warnings.warn(
                f"adjacency_rank {self.adjacency_rank} exceeds n_components "
                f"{self.n_components}; the factorization is no longer low-rank",
                stacklevel=2,
            )

    @property
    def flat_dim(self) -> int:
        """Length of the flattened attention output fed to the projection head."""
        return self.n_components * self.attention_dim


@dataclass(frozen=True)
class TensorSpec:
    """One trainable tensor: its name, its shape as ArchConfig attribute
    names, its init rule and whether decoupled weight decay applies."""

    name: str
    dims: tuple[str, ...]
    init: str    # "fan_in": N(0, 1/sqrt(dims[0])); "zeros"; "ones"
    decay: bool

    def shape(self, cfg: ArchConfig) -> tuple[int, ...]:
        return tuple(getattr(cfg, dim) for dim in self.dims)

    def initial(self, cfg: ArchConfig, rng: RandomSource) -> np.ndarray:
        shape = self.shape(cfg)
        if self.init == "fan_in":
            return rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        return np.full(shape, 1.0 if self.init == "ones" else 0.0)


# Every trainable tensor, once. The order is the init draw order, the
# optimizer order and the checkpoint layout. Weight matrices get decoupled
# weight decay; biases and the batch-norm scale and shift do not.
TENSORS = (
    TensorSpec("embeddings", ("n_components", "embed_dim"), "fan_in", True),
    TensorSpec("interaction_factors", ("n_components", "adjacency_rank"), "fan_in", True),
    TensorSpec("w_query", ("embed_dim", "attention_dim"), "fan_in", True),
    TensorSpec("w_key", ("embed_dim", "attention_dim"), "fan_in", True),
    TensorSpec("w_value", ("embed_dim", "attention_dim"), "fan_in", True),
    TensorSpec("w_hidden", ("flat_dim", "hidden_dim"), "fan_in", True),
    TensorSpec("b_hidden", ("hidden_dim",), "zeros", False),
    TensorSpec("w_out", ("hidden_dim", "feature_dim"), "fan_in", True),
    TensorSpec("b_out", ("feature_dim",), "zeros", False),
    TensorSpec("bn_gamma", ("hidden_dim",), "ones", False),
    TensorSpec("bn_beta", ("hidden_dim",), "zeros", False),
)


@dataclass
class ModelParams:
    """All trainable tensors plus batch-norm state."""

    embeddings: np.ndarray          # (n, d) one row per component
    interaction_factors: np.ndarray  # (n, rank), rows unit-normalized on use
    w_query: np.ndarray             # (d, dk)
    w_key: np.ndarray               # (d, dk)
    w_value: np.ndarray             # (d, dk)
    w_hidden: np.ndarray            # (n * dk, h)
    b_hidden: np.ndarray            # (h,)
    w_out: np.ndarray               # (h, k)
    b_out: np.ndarray               # (k,)
    bn: BatchNormState              # carries bn_gamma and bn_beta

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], running_mean: np.ndarray,
                     running_var: np.ndarray, momentum: float, epsilon: float) -> "ModelParams":
        """Assemble params from a TENSORS-keyed dict plus batch-norm running state."""
        tensors = dict(tensors)
        bn = BatchNormState(gamma=tensors.pop("bn_gamma"), beta=tensors.pop("bn_beta"),
                            running_mean=running_mean, running_var=running_var,
                            momentum=momentum, epsilon=epsilon)
        return cls(bn=bn, **tensors)

    @property
    def bn_gamma(self) -> np.ndarray:
        return self.bn.gamma

    @property
    def bn_beta(self) -> np.ndarray:
        return self.bn.beta

    def trainable(self) -> dict[str, np.ndarray]:
        """Name -> tensor for every parameter the optimizer updates, in TENSORS order."""
        return {spec.name: getattr(self, spec.name) for spec in TENSORS}

    def copy(self) -> "ModelParams":
        return ModelParams.from_tensors(
            {name: tensor.copy() for name, tensor in self.trainable().items()},
            self.bn.running_mean.copy(), self.bn.running_var.copy(),
            self.bn.momentum, self.bn.epsilon,
        )


def init_params(cfg: ArchConfig, seed: int) -> ModelParams:
    """Weights ~ N(0, 1/sqrt(fan_in)) with fan_in = input dimension (rows);
    biases zero; batch norm at identity with neutral running statistics."""
    rng = RandomSource(seed)
    tensors = {spec.name: spec.initial(cfg, rng) for spec in TENSORS}
    return ModelParams.from_tensors(tensors, np.zeros(cfg.hidden_dim), np.ones(cfg.hidden_dim),
                                    cfg.bn_momentum, cfg.bn_epsilon)


# ---------------------------------------------------------------------------
# forward pass


@dataclass
class BatchTrace:
    """Batched forward intermediates plus the caches backward needs."""

    inputs: np.ndarray          # (B, n)
    unit_factors: np.ndarray    # (n, rank)
    factor_norms: np.ndarray    # (n,)
    adjacency: np.ndarray       # (n, n)
    mixing: np.ndarray          # (B, n, n) G_b = (I + masked / (n - 1)) * x_b[None, :]
    projected: tuple[np.ndarray, np.ndarray, np.ndarray]  # E @ W_q, E @ W_k, E @ W_v, each (n, dk)
    query: np.ndarray           # (B, n, dk)
    key: np.ndarray             # (B, n, dk)
    value: np.ndarray           # (B, n, dk)
    attention: np.ndarray       # (B, n, n)
    attended: np.ndarray        # (B, n, dk)
    flat: np.ndarray            # (B, n*dk)
    bn_x_hat: np.ndarray | None  # train-mode cache
    bn_inv_std: np.ndarray | None
    bn_out: np.ndarray          # (B, h)
    post_relu: np.ndarray       # (B, h)
    dropout_mask: np.ndarray | None
    out_norms: np.ndarray       # (B,)
    out_divisor: np.ndarray     # (B,) 1.0 where the zero-norm guard fired
    features: np.ndarray        # (B, k)
    mode: str


def forward_batch(
    x: np.ndarray,
    params: ModelParams,
    mode: str = "eval",
    dropout: float = 0.0,
    rng: RandomSource | None = None,
    update_running: bool = True,
) -> tuple[np.ndarray, BatchTrace]:
    """Run the encoder over a (B, n) batch of normalized compositions.

    Train mode normalizes the projection head by batch statistics (B >= 2)
    and, unless ``update_running`` is false, folds them into the running
    statistics. Eval mode is a pure function of (x, params).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (B, n) batch, got shape {x.shape}")
    b = x.shape[0]
    n = params.embeddings.shape[0]
    if x.shape[1] != n:
        # a (B, 1) batch would otherwise broadcast silently through G
        raise ValueError(f"composition has {x.shape[1]} entries, model expects {n}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and b < 2:
        raise ValueError("train-mode forward needs a batch of >= 2 samples")

    # interaction graph: Gram matrix of row-normalized factors, so the
    # diagonal is 1 and entries lie in [-1, 1]; the self message is excluded
    factor_norms = np.linalg.norm(params.interaction_factors, axis=1)
    if np.any(factor_norms <= 1e-12):
        raise ValueError("interaction_factors contains a zero row; cannot normalize")
    vhat = params.interaction_factors / factor_norms[:, None]
    adj = vhat @ vhat.T
    masked = adj - np.diag(np.diag(adj))

    # proportion-modulated embeddings diag(x_b) E, one round of residual
    # message passing and the Q/K/V projections are all linear, so each
    # projection is one row product G_b (E W) with G_b = A * x_b[None, :]
    # and A = I + masked / (n - 1)
    mixing = (np.eye(n) + masked / (n - 1)) * x[:, None, :]
    mixing_rows = mixing.reshape(b * n, n)
    projected = tuple(params.embeddings @ w
                      for w in (params.w_query, params.w_key, params.w_value))
    q, k, v = ((mixing_rows @ p).reshape(b, n, -1) for p in projected)

    # scaled dot-product self-attention across components
    dk = params.w_query.shape[1]
    alpha = softmax_rows(np.matmul(q, np.swapaxes(k, -1, -2)) / np.sqrt(dk))
    attended = np.matmul(alpha, v)

    # projection head. Train-mode batch norm subtracts the batch mean, which
    # removes b_hidden exactly; it only shifts the running mean.
    flat = attended.reshape(b, -1)
    if mode == "train":
        bn_out, x_hat, inv_std = batchnorm_train_cached(
            flat @ params.w_hidden, params.bn, update_running, bias=params.b_hidden)
    else:
        bn_out = batchnorm_eval(flat @ params.w_hidden + params.b_hidden, params.bn)
        x_hat, inv_std = None, None

    post = np.maximum(bn_out, 0.0)
    mask = None
    if mode == "train" and dropout > 0.0:
        if rng is None:
            raise ValueError("dropout > 0 in train mode requires an rng")
        mask = (rng.uniform(size=post.shape) >= dropout) / (1.0 - dropout)
        post = post * mask

    # L2 normalization; rows with norm <= 1e-12 pass through unnormalized
    head_out = post @ params.w_out + params.b_out
    norms = np.linalg.norm(head_out, axis=-1)
    guarded = norms <= 1e-12
    if np.any(guarded):
        warnings.warn("feature vector with near-zero norm left unnormalized",
                      NumericsWarning, stacklevel=2)
    divisor = np.where(guarded, 1.0, norms)
    features = head_out / divisor[..., None]

    trace = BatchTrace(
        inputs=x, unit_factors=vhat, factor_norms=factor_norms, adjacency=adj,
        mixing=mixing, projected=projected, query=q, key=k, value=v,
        attention=alpha, attended=attended, flat=flat,
        bn_x_hat=x_hat, bn_inv_std=inv_std, bn_out=bn_out, post_relu=post,
        dropout_mask=mask, out_norms=norms, out_divisor=divisor,
        features=features, mode=mode,
    )
    return features, trace


def eval_features(x: np.ndarray, params: ModelParams, chunk: int = 4096) -> np.ndarray:
    """Eval-mode features for a (B, n) batch, computed in bounded-size chunks.

    A one-row remainder is folded into the chunk before it: numpy runs a
    one-row matmul through another BLAS kernel, whose last bits differ, so
    this keeps every row's bytes independent of ``chunk``.
    """
    if chunk < 2:
        raise ValueError(f"chunk must be >= 2, got {chunk}")
    x = np.asarray(x, dtype=np.float64)
    rows = x.shape[0]
    starts = list(range(0, rows, chunk))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [rows]
    outputs = [forward_batch(x[s:e], params, mode="eval")[0] for s, e in zip(starts, ends)]
    if not outputs:
        return np.zeros((0, params.w_out.shape[1]))
    return np.concatenate(outputs, axis=0)


# ---------------------------------------------------------------------------
# checkpoint persistence

@dataclass
class Checkpoint:
    params: ModelParams
    arch: ArchConfig
    stats: NormalizationStats
    band: TgBand
    center: np.ndarray | None = None


def save_checkpoint(
    params: ModelParams,
    cfg: ArchConfig,
    stats: NormalizationStats,
    band: TgBand,
    path,
    center: np.ndarray | None = None,
) -> None:
    """Write the versioned binary checkpoint (bit-exact round trip).

    Layout: magic, arch header, the TENSORS in table order as little-endian
    float64, the batch-norm running mean and variance, normalization stats,
    Tg band, optional class center, then a SHA-256 checksum of everything
    before it.
    """
    def le_bytes(a: np.ndarray) -> bytes:
        a = np.ascontiguousarray(a, dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise ValueError("refusing to save non-finite tensor values")
        return a.astype("<f8", copy=False).tobytes()

    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<6q", cfg.n_components, cfg.embed_dim, cfg.adjacency_rank,
                        cfg.attention_dim, cfg.hidden_dim, cfg.feature_dim)
    blob += struct.pack("<3d", cfg.dropout, params.bn.momentum, params.bn.epsilon)
    for tensor in (*params.trainable().values(), params.bn.running_mean, params.bn.running_var):
        blob += le_bytes(tensor)
    blob += le_bytes(stats.mean)
    blob += le_bytes(stats.std)
    blob += struct.pack("<2d", band.low, band.high)
    if center is None:
        blob += struct.pack("<B", 0)
    else:
        blob += struct.pack("<B", 1)
        blob += le_bytes(np.asarray(center, dtype=np.float64))
    blob += hashlib.sha256(bytes(blob)).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint, verifying format and
    checksum before constructing any model object."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointVersionError(f"{path}: not a DGNCKPT1 checkpoint")
    if len(blob) < len(CHECKPOINT_MAGIC) + 32:
        raise CheckpointCorruptError(f"{path}: truncated checkpoint")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointCorruptError(f"{path}: checksum mismatch (corrupted or truncated)")

    offset = len(CHECKPOINT_MAGIC)

    def unpack(fmt: str):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(payload):
            raise CheckpointCorruptError(f"{path}: truncated checkpoint")
        values = struct.unpack_from(fmt, payload, offset)
        offset += size
        return values

    def read_array(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        count = int(np.prod(shape))
        size = count * 8
        if offset + size > len(payload):
            raise CheckpointCorruptError(f"{path}: truncated checkpoint")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        offset += size
        return arr.astype(np.float64).reshape(shape)

    n, d, rank, dk, h, k = unpack("<6q")
    dropout, momentum, epsilon = unpack("<3d")
    cfg = ArchConfig(n_components=n, embed_dim=d, adjacency_rank=rank,
                     attention_dim=dk, hidden_dim=h, feature_dim=k,
                     dropout=dropout, bn_momentum=momentum, bn_epsilon=epsilon)
    tensors = {spec.name: read_array(spec.shape(cfg)) for spec in TENSORS}
    params = ModelParams.from_tensors(tensors, read_array((h,)), read_array((h,)),
                                      momentum, epsilon)
    stats = NormalizationStats(mean=read_array((n,)), std=read_array((n,)))
    low, high = unpack("<2d")
    (has_center,) = unpack("<B")
    center = read_array((k,)) if has_center else None
    if offset != len(payload):
        raise CheckpointCorruptError(f"{path}: {len(payload) - offset} unexpected trailing bytes")
    return Checkpoint(params=params, arch=cfg, stats=stats,
                      band=TgBand(low, high), center=center)
