"""DeepGlassNet encoder.

Four stages: proportion-modulated component embeddings, residual message
passing over a low-rank learned interaction graph, scaled dot-product
self-attention, and a batch-normalized two-layer projection head whose output
is L2-normalized. Everything before the softmax is linear in the embeddings,
so forward_batch folds attention into n x n forms and builds no
(B, n, attention_dim) array. Each sample's mixing matrix is G_b = A diag(x_b)
with one shared (n, n) matrix A, so every product with G_b is one GEMM with A
(or with a matrix built from A) over the rows of all samples, and no per-sample
mixing tensor is built either. All tensors are float64.
"""

from __future__ import annotations

import hashlib
import logging
import math
import struct
from collections.abc import Mapping
from dataclasses import astuple, dataclass
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .data_pipeline import NormalizationStats, TgBand
from .numeric_core import (
    BatchNormState,
    RandomSource,
    batchnorm_fold,
    batchnorm_train_cached,
    row_blocks,
    softmax_leading,
)

CHECKPOINT_MAGIC = b"DGNCKPT3"
_ARCH_HEADER = struct.Struct("<6q")  # ArchConfig's fields in order, after the magic

# the hidden layer's batch norm: running-statistics momentum and variance epsilon
BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5

log = logging.getLogger(__name__)


class CheckpointError(ValueError):
    """A file load_checkpoint refuses."""


class CheckpointVersionError(CheckpointError):
    """The file is not in the one format load_checkpoint reads: another magic,
    DGNCKPT1 and DGNCKPT2 included."""


class CheckpointCorruptError(CheckpointError):
    """Checkpoint is truncated, fails its checksum or holds a value
    save_checkpoint would not write."""


@dataclass(frozen=True)
class ArchConfig:
    """Encoder dimensions. Defaults are sized for CPU training."""

    n_components: int
    embed_dim: int = 16
    adjacency_rank: int = 5
    attention_dim: int = 16
    hidden_dim: int = 64
    feature_dim: int = 8

    def __post_init__(self):
        if self.n_components < 2:
            # graph convolution averages over the n - 1 other components
            raise ValueError(f"n_components must be >= 2, got {self.n_components}")
        for name in ("embed_dim", "adjacency_rank", "attention_dim",
                     "hidden_dim", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def flat_dim(self) -> int:
        """Row count of w_hidden: n blocks of attention_dim, one per component.
        No flattened attention output of this length is built (see forward_batch)."""
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


# Every trainable tensor, once. The order is the init draw order and the
# layout of the parameter vector, the optimizer state and the checkpoint.
# Weight matrices get decoupled weight decay; biases and the batch-norm scale
# and shift do not. The first head layer has no bias: the batch norm after it
# subtracts the mean, and its beta is the shift.
TENSORS = (
    TensorSpec("embeddings", ("n_components", "embed_dim"), "fan_in", True),
    TensorSpec("interaction_factors", ("n_components", "adjacency_rank"), "fan_in", True),
    TensorSpec("w_query", ("embed_dim", "attention_dim"), "fan_in", True),
    TensorSpec("w_key", ("embed_dim", "attention_dim"), "fan_in", True),
    TensorSpec("w_value", ("embed_dim", "attention_dim"), "fan_in", True),
    TensorSpec("w_hidden", ("flat_dim", "hidden_dim"), "fan_in", True),
    TensorSpec("w_out", ("hidden_dim", "feature_dim"), "fan_in", True),
    TensorSpec("b_out", ("feature_dim",), "zeros", False),
    TensorSpec("bn_gamma", ("hidden_dim",), "ones", False),
    TensorSpec("bn_beta", ("hidden_dim",), "zeros", False),
)


@cache
def tensor_layout(cfg: ArchConfig) -> Mapping[str, tuple[slice, tuple[int, ...]]]:
    """Name -> (slice of the parameter vector, shape) for every TENSORS row,
    sized in Python ints, which no architecture can overflow. Computed once
    per ArchConfig; the mapping is read-only, as every caller shares it."""
    layout, start = {}, 0
    for spec in TENSORS:
        shape = spec.shape(cfg)
        layout[spec.name] = (slice(start, start + math.prod(shape)), shape)
        start += math.prod(shape)
    return MappingProxyType(layout)


def tensor_views(cfg: ArchConfig, vector: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> reshaped view of ``vector`` (parameters or a gradient) per TENSORS row."""
    return {name: vector[part].reshape(shape) for name, (part, shape) in tensor_layout(cfg).items()}


def vector_length(cfg: ArchConfig) -> int:
    """Length of the parameter vector: where the last tensor's slice ends."""
    return tensor_layout(cfg)[TENSORS[-1].name][0].stop


def decay_mask(cfg: ArchConfig) -> np.ndarray:
    """Per entry of the parameter vector: does weight decay apply to it."""
    return np.repeat([spec.decay for spec in TENSORS],
                     [part.stop - part.start for part, _ in tensor_layout(cfg).values()])


class ModelParams:
    """The trainable tensors as views of one float64 vector, plus batch-norm state.

    ``vector`` (used as given, not copied) holds the TENSORS rows in table
    order; each TENSORS name, such as ``params.w_hidden``, is a reshaped view
    of it, and so are ``bn.gamma`` and ``bn.beta``. Tensors are written in
    place (``params.w_out[...] = w``, ``+=``); rebinding any attribute raises,
    so the views never go stale.
    """

    __slots__ = ("arch", "vector", "bn", "_views")

    def __init__(self, arch: ArchConfig, vector: np.ndarray, running_mean: np.ndarray,
                 running_var: np.ndarray):
        size = vector_length(arch)
        if vector.shape != (size,) or vector.dtype != np.float64 or not vector.flags.c_contiguous:
            raise ValueError(f"parameter vector must be C-contiguous float64 of length {size}")
        views = tensor_views(arch, vector)
        bn = BatchNormState(gamma=views["bn_gamma"], beta=views["bn_beta"],
                            running_mean=running_mean, running_var=running_var)
        for name, value in (("arch", arch), ("vector", vector), ("bn", bn), ("_views", views)):
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return object.__getattribute__(self, "_views")[name]
        except (AttributeError, KeyError):
            raise AttributeError(f"ModelParams has no tensor {name!r}") from None

    def __setattr__(self, name: str, value) -> None:
        # an in-place operator, such as params.vector -= update, rebinds the
        # same array and is let through
        if value is not getattr(self, name, object()):
            raise AttributeError(f"cannot rebind {name!r}; write into it with [...] =")

    def trainable(self) -> dict[str, np.ndarray]:
        """Name -> view for every tensor the optimizer updates, in TENSORS order."""
        return dict(self._views)

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.vector.copy(), self.bn.running_mean.copy(),
                           self.bn.running_var.copy())


def init_params(cfg: ArchConfig, seed: int) -> ModelParams:
    """Weights ~ N(0, 1/sqrt(fan_in)) with fan_in = input dimension (rows);
    biases zero; batch norm at identity with neutral running statistics."""
    rng = RandomSource(seed)
    vector = np.concatenate([spec.initial(cfg, rng).ravel() for spec in TENSORS])
    return ModelParams(cfg, vector, np.zeros(cfg.hidden_dim), np.ones(cfg.hidden_dim))


# ---------------------------------------------------------------------------
# forward pass


@dataclass(frozen=True, eq=False)
class EncoderConstants:
    """The parameter-only part of the forward pass: everything forward_batch
    computes before it reads the batch. Built by encoder_constants; valid for
    the ModelParams it was built from while those do not change."""

    params: ModelParams
    unit_factors: np.ndarray    # (n, rank)
    factor_norms: np.ndarray    # (n,)
    A: np.ndarray               # (n, n) I + masked / (n - 1); G_b = A diag(x_b)
    projected: tuple[np.ndarray, np.ndarray, np.ndarray]  # E @ W_q, E @ W_k, E @ W_v, each (n, dk)
    M: np.ndarray               # (n, n) (E W_q)(E W_k)^T / sqrt(dk)
    K: np.ndarray               # (n, n*n) K[m, i*n + l] = A[i, m] M[m, l]; G_b M = x_b K
    U: np.ndarray               # (n*n, h) U[i*n + m] = (E W_v)[m] @ w_hidden block i

    @cached_property
    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """(U * scale, shift): the eval head's first product with the batch
        norm's running statistics folded in (see batchnorm_fold). Built on
        first use, as train mode never reads it."""
        scale, shift = batchnorm_fold(self.params.bn, BN_EPSILON)
        return self.U * scale, shift


def encoder_constants(params: ModelParams) -> EncoderConstants:
    """Build the constants forward_batch needs from ``params`` alone: the
    interaction graph, A, the Q/K/V projections, M, K and U."""
    # interaction graph: Gram matrix of row-normalized factors, so the
    # diagonal is 1 and entries lie in [-1, 1]; the self message is excluded
    factor_norms = np.linalg.norm(params.interaction_factors, axis=1)
    if np.any(factor_norms <= 1e-12):
        raise ValueError("interaction_factors contains a zero row; cannot normalize")
    vhat = params.interaction_factors / factor_norms[:, None]
    adj = vhat @ vhat.T
    masked = adj - np.diag(np.diag(adj))

    # proportion-modulated embeddings diag(x_b) E, one round of residual
    # message passing and the Q/K/V projections are all linear: each
    # projection is G_b (E W), with G_b = A diag(x_b) and one shared
    # A = I + masked / (n - 1)
    n = adj.shape[0]
    a = np.eye(n) + masked / (n - 1)
    pq, pk, pv = projected = tuple(params.embeddings @ w
                                   for w in (params.w_query, params.w_key, params.w_value))

    # scaled dot-product self-attention across components, as n x n forms:
    # q_b k_b^T / sqrt(dk) = G_b M G_b^T, and the value rows alpha_b G_b (E W_v)
    # meet w_hidden only through U, so attended rows are never built
    dk = pq.shape[1]
    m = pq @ pk.T / np.sqrt(dk)
    k = (a.T[:, :, None] * m[:, None, :]).reshape(n, n * n)
    u = np.matmul(pv, params.w_hidden.reshape(n, dk, -1)).reshape(n * n, -1)
    return EncoderConstants(
        params=params, unit_factors=vhat, factor_norms=factor_norms, A=a,
        projected=projected, M=m, K=k, U=u,
    )


@dataclass
class BatchTrace:
    """Batched forward intermediates plus the caches backward needs."""

    inputs: np.ndarray          # (B, n)
    constants: EncoderConstants  # the graph, A, the projections, M, K and U
    GMX: np.ndarray             # (B n, n) G_b M diag(x_b), row b*n + i is row i
    attention: np.ndarray       # (n, B n) softmax of G_b M G_b^T, column b*n + i is row i
    P: np.ndarray               # (B, n n) alpha_b G_b, row b is its n x n block row by row
    bn_centred: np.ndarray | None  # (B, h) train-mode cache: pre-norm minus its batch mean
    bn_inv_std: np.ndarray | None  # (h,) 1 / sqrt(batch variance + epsilon)
    post_relu: np.ndarray       # (B, h) after ReLU and dropout
    dropout_mask: np.ndarray | None
    guarded: np.ndarray         # (B,) bool: the zero-norm guard fired, row left unnormalized
    out_divisor: np.ndarray     # (B,) 1.0 where guarded, else the row's norm
    features: np.ndarray        # (B, k)
    mode: str


def forward_batch(
    x: np.ndarray,
    params: ModelParams,
    mode: str = "eval",
    rng: RandomSource | None = None,
    constants: EncoderConstants | None = None,
    dropout: float = 0.0,
) -> tuple[np.ndarray, BatchTrace]:
    """Run the encoder over a (B, n) batch of normalized compositions.

    Train mode normalizes the projection head by batch statistics (B >= 2),
    folds them into the running statistics and applies dropout at rate
    ``dropout``, its mask drawn from ``rng``. Eval mode is a pure function of
    (x, params); its batch norm, by the running statistics, is folded into the
    head's first product. ``constants`` are encoder_constants(params), built here when
    not given; constants built from another ModelParams are refused.
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
    if mode == "train" and not 0.0 <= dropout < 1.0:  # written so that NaN fails it
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    if constants is None:
        constants = encoder_constants(params)
    elif constants.params is not params:
        raise ValueError("encoder constants were built from another ModelParams")
    a = constants.A

    # every G_b product is one GEMM over all samples' rows, and diag(x_b) is
    # x_b broadcast over the columns of each (n, n) block, in place: G_b M is
    # x_b K, scaled to G_b M diag(x_b); alpha_b G_b is alpha_b A, scaled
    gmx = (x @ constants.K).reshape(b, n, n)
    gmx *= x[:, None, :]
    gmx = gmx.reshape(b * n, n)  # the rows the scores and backward's d A read
    # the scores S_b = G_b M diag(x_b) A^T are held transposed, as one
    # (n, B n) array whose column b*n + i is row i of S_b, so the softmax
    # reduces along the leading axis (in place: the scores are a temporary)
    alpha = softmax_leading(a @ gmx.T)
    p = (alpha.T @ a).reshape(b, n, n)
    p *= x[:, None, :]
    p = p.reshape(b, n * n)  # the layout the head GEMM and backward's P^T d_pre read

    # projection head: the hidden layer's batch norm, ReLU and dropout in place
    if mode == "train":
        hidden, centred, inv_std = batchnorm_train_cached(p, constants.U, params.bn,
                                                          BN_MOMENTUM, BN_EPSILON)
    else:
        folded_u, folded_shift = constants.folded
        hidden = p @ folded_u
        hidden += folded_shift
        centred, inv_std = None, None

    np.maximum(hidden, 0.0, out=hidden)
    mask = None
    if mode == "train" and dropout > 0.0:
        if rng is None:
            raise ValueError("dropout > 0 in train mode requires an rng")
        mask = (rng.uniform(size=hidden.shape) >= dropout) / (1.0 - dropout)
        hidden *= mask

    # L2 normalization; rows with norm <= 1e-12 pass through unnormalized
    head_out = hidden @ params.w_out + params.b_out
    norms = np.linalg.norm(head_out, axis=-1)
    guarded = norms <= 1e-12
    if np.any(guarded):
        log.warning("feature vector with near-zero norm left unnormalized (%d of %d rows)",
                    np.count_nonzero(guarded), b)
    divisor = np.where(guarded, 1.0, norms)
    features = head_out / divisor[..., None]

    return features, BatchTrace(
        inputs=x, constants=constants, GMX=gmx, attention=alpha, P=p,
        bn_centred=centred, bn_inv_std=inv_std, post_relu=hidden, dropout_mask=mask,
        guarded=guarded, out_divisor=divisor, features=features, mode=mode,
    )


def eval_features(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Eval-mode features for a (B, n) batch, computed in the row_blocks of
    8 n^2 bytes a row (2,048 to 4,095 rows at n = 8) that share one
    encoder_constants(params)."""
    x = np.asarray(x, dtype=np.float64)
    constants = encoder_constants(params)
    return np.concatenate([forward_batch(block, params, mode="eval", constants=constants)[0]
                           for block in row_blocks(x, 8 * x.shape[1] ** 2)])


# ---------------------------------------------------------------------------
# checkpoint persistence

@dataclass
class Checkpoint:
    params: ModelParams
    stats: NormalizationStats
    band: TgBand
    center: np.ndarray


def checkpoint_sections(arch: ArchConfig) -> dict[str, int]:
    """The float64 slab after the checkpoint's arch header: section -> length,
    in file order, in Python ints, which no header overflows. The band comes
    last: its two bounds are the only values that may be infinite."""
    n, h = arch.n_components, arch.hidden_dim
    return {"vector": vector_length(arch), "running_mean": h, "running_var": h,
            "mean": n, "std": n, "center": arch.feature_dim, "band": 2}


def save_checkpoint(
    params: ModelParams,
    cfg: ArchConfig,
    stats: NormalizationStats,
    band: TgBand,
    path,
    center: np.ndarray,
) -> None:
    """Write the versioned binary checkpoint (bit-exact round trip).

    Layout: magic, the arch header, one little-endian float64 slab of the
    checkpoint_sections, then a SHA-256 checksum of everything before it.
    The header is ``params.arch``, which ``cfg`` must equal and whose lengths
    every section must have.
    """
    arch = params.arch
    if cfg != arch:
        raise ValueError(f"checkpoint config {cfg} does not match the parameters' {arch}")
    values = {"vector": params.vector, "running_mean": params.bn.running_mean,
              "running_var": params.bn.running_var, "mean": stats.mean, "std": stats.std,
              "center": center, "band": (band.low, band.high)}
    sections = checkpoint_sections(arch)
    for name, length in sections.items():
        if np.shape(values[name]) != (length,):
            raise ValueError(f"{name} shape {np.shape(values[name])} does not match "
                             f"the model's ({length},)")
    slab = np.concatenate([values[name] for name in sections], dtype="<f8")
    if not np.all(np.isfinite(slab[:-2])):
        raise ValueError("refusing to save non-finite tensor values")
    blob = CHECKPOINT_MAGIC + _ARCH_HEADER.pack(*astuple(arch)) + slab.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob + hashlib.sha256(blob).digest())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint, verifying format,
    checksum and architecture header before constructing any model object."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointVersionError(f"{path}: not a DGNCKPT3 checkpoint (magic {magic!r}); "
                                     "older formats are no longer read: retrain the model")
    if len(blob) < len(CHECKPOINT_MAGIC) + 32:
        raise CheckpointCorruptError(f"{path}: truncated checkpoint")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointCorruptError(f"{path}: checksum mismatch (corrupted or truncated)")

    try:
        cfg = ArchConfig(*_ARCH_HEADER.unpack_from(payload, len(CHECKPOINT_MAGIC)))
    except struct.error:
        raise CheckpointCorruptError(f"{path}: truncated checkpoint") from None
    except ValueError as exc:
        raise CheckpointCorruptError(f"{path}: bad architecture header: {exc}") from None

    sections = checkpoint_sections(cfg)
    start = len(CHECKPOINT_MAGIC) + _ARCH_HEADER.size
    expected = start + 8 * sum(sections.values())
    if len(payload) != expected:
        raise CheckpointCorruptError(
            f"{path}: truncated checkpoint" if len(payload) < expected
            else f"{path}: {len(payload) - expected} unexpected trailing bytes")
    slab = np.frombuffer(payload, dtype="<f8", offset=start).astype(np.float64)
    # save_checkpoint writes finite values only, but for the band: an open end
    # (``--band 500:inf``) is an infinite bound, and TgBand refuses a nan one
    if not np.all(np.isfinite(slab[:-2])):
        raise CheckpointCorruptError(f"{path}: non-finite value in the parameters, "
                                     "statistics or center")
    parts = dict(zip(sections, np.split(slab, np.cumsum(list(sections.values()))[:-1])))
    try:
        return Checkpoint(params=ModelParams(cfg, parts["vector"], parts["running_mean"],
                                             parts["running_var"]),
                          stats=NormalizationStats(mean=parts["mean"], std=parts["std"]),
                          band=TgBand(*parts["band"].tolist()), center=parts["center"])
    except ValueError as exc:
        raise CheckpointCorruptError(f"{path}: {exc}") from None
