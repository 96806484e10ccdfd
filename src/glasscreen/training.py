"""Triplet contrastive training: loss, analytic gradients for every tensor,
Adam with decoupled weight decay, and the epoch loop.

Gradients are derived by hand (reverse mode through the projection head's
batch statistics, the attention softmax, the graph convolution and the factor
row-normalization) and are checked against central finite differences in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .data_pipeline import (
    AugmentationConfig,
    LabeledSample,
    NormalizationStats,
    TripletIndexSampler,
    augment,
    fit_normalization,
    normalize,
)
from .deepglassnet import (
    TENSORS,
    ArchConfig,
    BatchTrace,
    ModelParams,
    forward_batch,
    init_params,
)
from .numeric_core import RandomSource


class NumericFailure(RuntimeError):
    """Training hit a non-finite loss or gradient."""


def triplet_losses(features: np.ndarray) -> np.ndarray:
    """Per-triplet losses for a stacked (3T, k) feature batch laid out as
    [anchors | positives | negatives].

    Each loss is softplus(s_neg - s_pos) with s_* the inner-product
    similarities: -log(exp(s_pos) / (exp(s_pos) + exp(s_neg))) evaluated in
    log-sum-exp form, so it stays finite for any finite similarities. Minimum 0.
    """
    b = features.shape[0]
    if b % 3 != 0:
        raise ValueError(f"feature batch of {b} rows is not a stack of triplets")
    t = b // 3
    fa, fp, fn = features[:t], features[t:2 * t], features[2 * t:]
    s_pos = np.sum(fa * fp, axis=1)
    s_neg = np.sum(fa * fn, axis=1)
    return np.logaddexp(0.0, s_neg - s_pos)


def _ensure_finite(arr: np.ndarray, layer: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericFailure(f"non-finite gradient at layer: {layer}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic (branches on sign so exp never blows up)."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    e = np.exp(x[~positive])
    out[~positive] = e / (1.0 + e)
    return out


def backward(trace: BatchTrace, params: ModelParams) -> dict[str, np.ndarray]:
    """Exact gradients of the batch-mean triplet loss for every tensor, keyed
    by TENSORS name with the tensors' shapes.

    The trace must come from a train-mode forward_batch over a batch laid out
    as [anchors | positives | negatives]; batch-norm statistics couple all
    rows, so the whole batch is differentiated jointly.
    """
    if trace.mode != "train":
        raise ValueError("backward needs a train-mode trace")
    features = trace.features
    b = features.shape[0]
    if b % 3 != 0:
        raise ValueError(f"trace batch of {b} rows is not a stack of triplets")
    t = b // 3
    n = trace.adjacency.shape[0]

    # loss -> features
    fa, fp, fn = features[:t], features[t:2 * t], features[2 * t:]
    s_pos = np.sum(fa * fp, axis=1)
    s_neg = np.sum(fa * fn, axis=1)
    gate = _sigmoid(s_neg - s_pos) / t  # dL/ds_neg per triplet
    d_features = np.empty_like(features)
    d_features[:t] = gate[:, None] * (fn - fp)
    d_features[t:2 * t] = -gate[:, None] * fa
    d_features[2 * t:] = gate[:, None] * fa
    _ensure_finite(d_features, "contrastive loss")

    # L2 normalization (guarded rows passed through unnormalized)
    dots = np.sum(features * d_features, axis=1)
    d_head = (d_features - dots[:, None] * features) / trace.out_divisor[:, None]
    guarded = trace.out_norms <= 1e-12
    if np.any(guarded):
        d_head[guarded] = d_features[guarded]

    grads: dict[str, np.ndarray] = {}

    # projection head second layer
    grads["w_out"] = trace.post_relu.T @ d_head
    grads["b_out"] = d_head.sum(axis=0)
    d_post = d_head @ params.w_out.T
    if trace.dropout_mask is not None:
        d_post = d_post * trace.dropout_mask
    d_bn_out = d_post * (trace.bn_out > 0.0)
    _ensure_finite(d_bn_out, "projection head")

    # batch norm over batch statistics
    x_hat, inv_std = trace.bn_x_hat, trace.bn_inv_std
    grads["bn_gamma"] = np.sum(d_bn_out * x_hat, axis=0)
    grads["bn_beta"] = d_bn_out.sum(axis=0)
    d_x_hat = d_bn_out * params.bn.gamma
    d_pre = inv_std * (
        d_x_hat
        - d_x_hat.mean(axis=0)
        - x_hat * np.mean(d_x_hat * x_hat, axis=0)
    )
    _ensure_finite(d_pre, "batch norm")

    # projection head first layer; train-mode batch norm removes b_hidden
    # exactly, so its gradient is exactly zero
    grads["w_hidden"] = trace.flat.T @ d_pre
    grads["b_hidden"] = np.zeros_like(params.b_hidden)
    d_attended = (d_pre @ params.w_hidden.T).reshape(trace.attended.shape)

    # attention
    alpha, value = trace.attention, trace.value
    dk = params.w_query.shape[1]
    d_alpha = np.matmul(d_attended, np.swapaxes(value, -1, -2))
    d_value = np.matmul(np.swapaxes(alpha, -1, -2), d_attended)
    d_scores = alpha * (d_alpha - np.sum(d_alpha * alpha, axis=-1, keepdims=True))
    d_scores /= np.sqrt(dk)
    d_query = np.matmul(d_scores, trace.key)
    d_key = np.matmul(np.swapaxes(d_scores, -1, -2), trace.query)

    # linear front end: each projection is G_b (E W) with G_b = A * x_b[None, :]
    # and A = I + masked / (n - 1). With the rows of all B samples stacked,
    # d(E W) = G_rows^T d_proj_rows is one (n, B*n) x (B*n, dk) GEMM, and
    # d_mixing = sum over projections of d_proj (E W)^T is the gradient of G.
    # The three d_* blocks stay separate arrays: a shared (B, n, 3*dk) buffer
    # was no faster end to end and, as the largest temporary of a step,
    # fragmented the glibc heap and raised the train benchmark's peak RSS.
    mixing_rows = trace.mixing.reshape(b * n, n)
    d_mixing_rows = np.zeros_like(mixing_rows)
    d_embeddings = np.zeros_like(params.embeddings)
    for name, weight, projected, d_proj in (
            ("w_query", params.w_query, trace.projected[0], d_query),
            ("w_key", params.w_key, trace.projected[1], d_key),
            ("w_value", params.w_value, trace.projected[2], d_value)):
        d_proj_rows = d_proj.reshape(b * n, dk)
        d_projected = mixing_rows.T @ d_proj_rows
        grads[name] = params.embeddings.T @ d_projected
        d_embeddings += d_projected @ weight.T
        d_mixing_rows += d_proj_rows @ projected.T
    _ensure_finite(d_mixing_rows, "self attention")
    grads["embeddings"] = d_embeddings
    _ensure_finite(d_embeddings, "embedding")

    # graph convolution: G_b[i, m] = A[i, m] * inputs[b, m], and the shared
    # adjacency accumulates over the batch
    d_masked = np.einsum("bnm,bm->nm", d_mixing_rows.reshape(b, n, n), trace.inputs) / (n - 1)
    np.fill_diagonal(d_masked, 0.0)  # diagonal is excluded from the message sum

    # adjacency = vhat vhat^T through factor row-normalization
    vhat = trace.unit_factors
    d_vhat = (d_masked + d_masked.T) @ vhat
    vdots = np.sum(vhat * d_vhat, axis=1)
    grads["interaction_factors"] = (d_vhat - vdots[:, None] * vhat) / trace.factor_norms[:, None]
    _ensure_finite(grads["interaction_factors"], "graph convolution")
    return grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def initial(cls, params: ModelParams, lr: float = 1e-3, beta1: float = 0.9,
                beta2: float = 0.999, eps: float = 1e-8,
                weight_decay: float = 0.0) -> "AdamState":
        tensors = params.trainable()
        return cls(
            m={name: np.zeros_like(t) for name, t in tensors.items()},
            v={name: np.zeros_like(t) for name, t in tensors.items()},
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay,
        )


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState):
    """Bias-corrected Adam update in place; decoupled weight decay touches
    the TENSORS flagged for it (weight matrices, not biases or batch norm)."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    tensors = params.trainable()
    for spec in TENSORS:
        name, theta, g = spec.name, tensors[spec.name], grads[spec.name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * np.square(g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        update = state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if state.weight_decay > 0.0 and spec.decay:
            update = update + state.lr * state.weight_decay * theta
        theta -= update
    return params, state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    """Loop hyperparameters; batch_size counts triplets per mini-batch."""

    epochs: int = 100
    batch_size: int = 256
    sigma: float = 0.01
    seed: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    eval_every: int = 1
    precision_k: int = 50

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.precision_k < 1:
            raise ValueError(f"precision_k must be >= 1, got {self.precision_k}")


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    val_auc: float
    val_precision_at_k: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,mean_loss,val_auc,val_precision_at_k\n")
            for r in self.records:
                fh.write(f"{r.epoch},{r.mean_loss!r},{r.val_auc!r},{r.val_precision_at_k!r}\n")


def train(
    train_set: list[LabeledSample],
    val_set: list[LabeledSample],
    arch: ArchConfig,
    cfg: TrainConfig,
):
    """Full training run; returns (best-AUC params, normalization stats, history).

    Per epoch: shuffle anchors, resample a fresh triplet per anchor, augment
    the raw fractions, normalize, run train-mode forward in mini-batches of
    triplets, backpropagate the batch-mean loss and take an Adam step.
    Validation metrics (no augmentation) are computed at epoch 1, every
    ``eval_every`` epochs and at the final epoch; records for the epochs in
    between carry the latest computed values forward.
    """
    if not val_set:
        raise ValueError("validation set must be non-empty")
    if cfg.precision_k > len(val_set):
        raise ValueError(
            f"precision_k={cfg.precision_k} exceeds validation size {len(val_set)}"
        )

    x_raw = np.stack([s.fractions for s in train_set])
    labels = np.array([s.y for s in train_set])
    sampler = TripletIndexSampler(labels)  # raises EmptyClassError on one-class data
    targets = [s for s in train_set if s.y == 1]

    stats = fit_normalization(train_set)
    params = init_params(arch, cfg.seed)
    # separate stream from init so architecture draws and loop draws don't alias
    rng = RandomSource(cfg.seed + 1)
    adam = AdamState.initial(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                             eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    aug_cfg = AugmentationConfig(sigma=cfg.sigma)

    history = TrainHistory()
    best_auc = -math.inf
    best_params = params.copy()
    last_auc = float("nan")
    last_precision = float("nan")
    n_anchors = len(train_set)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_anchors)
        loss_total = 0.0
        for start in range(0, n_anchors, cfg.batch_size):
            anchor_idx = order[start:start + cfg.batch_size]
            pos_idx, neg_idx = sampler.draw(anchor_idx, rng)
            stacked = np.concatenate([x_raw[anchor_idx], x_raw[pos_idx], x_raw[neg_idx]])
            perturbed = augment(stacked, aug_cfg, rng)
            batch = normalize(perturbed, stats)
            features, trace = forward_batch(batch, params, mode="train",
                                            dropout=arch.dropout, rng=rng)
            losses = triplet_losses(features)
            if not np.all(np.isfinite(losses)):
                raise NumericFailure(
                    f"non-finite loss at epoch {epoch}, anchors {start}..{start + anchor_idx.size}"
                )
            loss_total += float(losses.sum())
            grads = backward(trace, params)
            params, adam = adam_step(params, grads, adam)
        mean_loss = loss_total / n_anchors

        if epoch == 1 or epoch == cfg.epochs or epoch % cfg.eval_every == 0:
            center = evaluation.class_center(targets, params, stats)
            report = evaluation.evaluate(val_set, params, stats, center, cfg.precision_k)
            last_auc = report.auc
            last_precision = report.precision_at_k
            if last_auc > best_auc:
                best_auc = last_auc
                best_params = params.copy()
        history.records.append(EpochRecord(
            epoch=epoch, mean_loss=mean_loss, val_auc=last_auc,
            val_precision_at_k=last_precision,
        ))

    return best_params, stats, history
