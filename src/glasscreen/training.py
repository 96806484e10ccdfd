"""Triplet contrastive training: loss, analytic gradients for every tensor,
Adam with decoupled weight decay, and the epoch loop.

Gradients are derived by hand (reverse mode through the projection head's
batch statistics, the attention softmax, the graph convolution and the factor
row-normalization) and are checked against central finite differences in the
test suite. Like forward_batch, backward works on the folded n x n attention
forms and builds no query, key, value or flattened attention output. The
inputs are not trained, so the mixing matrices G_b = A diag(x_b) need no
per-sample gradient: the shared A and M get theirs from GEMMs over the rows of
all samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .data_pipeline import (
    Samples,
    TripletIndexSampler,
    augment,
    fit_normalization,
    normalize,
)
from .deepglassnet import (
    ArchConfig,
    BatchTrace,
    ModelParams,
    decay_mask,
    forward_batch,
    init_params,
    tensor_views,
)
from .numeric_core import NumericFailure, RandomSource, batchnorm_backward


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


def backward(trace: BatchTrace, params: ModelParams) -> np.ndarray:
    """Exact gradient of the batch-mean triplet loss as one float64 vector in
    ``params.vector``'s layout, each tensor's part written into its view.

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
    constants = trace.constants
    n = constants.A.shape[0]

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
    if np.any(trace.guarded):
        d_head[trace.guarded] = d_features[trace.guarded]

    grad = np.zeros_like(params.vector)
    grads = tensor_views(params.arch, grad)

    # projection head second layer
    grads["w_out"][...] = trace.post_relu.T @ d_head
    grads["b_out"][...] = d_head.sum(axis=0)
    # d_post is this function's own array: dropout and the ReLU mask it in place
    d_post = d_head @ params.w_out.T.copy()  # a contiguous w_out^T multiplies faster
    if trace.dropout_mask is not None:
        d_post *= trace.dropout_mask
    # the ReLU's mask: dropout scales a kept unit by >= 1, and d_post is 0 at a dropped one
    d_post *= trace.post_relu > 0.0
    _ensure_finite(d_post, "projection head")

    # batch norm over batch statistics
    d_pre, grads["bn_gamma"][...], grads["bn_beta"][...] = batchnorm_backward(
        d_post, trace.bn_centred, trace.bn_inv_std, params.bn.gamma)
    _ensure_finite(d_pre, "batch norm")

    # projection head first layer, folded: pre = vec(P_b) U with
    # U[i*n + m] = (E W_v)[m] @ w_hidden block i
    pq, pk, pv = constants.projected
    dk = pq.shape[1]
    d_u = (trace.P.T @ d_pre).reshape(n, n, -1)
    d_p = (d_pre @ constants.U.T).reshape(b, n, n)
    grads["w_hidden"][...] = np.matmul(pv.T, d_u).reshape(n * dk, -1)
    d_pv = np.matmul(d_u, params.w_hidden.reshape(n, dk, -1).transpose(0, 2, 1)).sum(axis=0)

    # attention: P_b = alpha_b G_b and S_b = (G_b M diag(x_b)) A^T with
    # G_b = A diag(x_b). The inputs are not trained, so only the shared A and
    # M need gradients, each term one GEMM over all samples' stacked rows;
    # diag(x_b) scales each block's columns, as in forward. Like alpha,
    # d_alpha and dS are (n, B n), so the softmax's sum is over axis 0
    a, alpha, x = constants.A, trace.attention, trace.inputs[:, None, :]
    d_p *= x
    d_p_rows = d_p.reshape(b * n, n)
    d_a = alpha @ d_p_rows
    d_scores = a @ d_p_rows.T  # d_alpha, turned into dS in place
    d_scores -= np.einsum("ij,ij->j", d_scores, alpha)
    d_scores *= alpha
    d_a += d_scores @ trace.GMX
    # d(G_b M) = dS_b G_b, and G_b M = x_b K with K[m, i*n + l] = A[i, m] M[m, l]
    d_gm = (d_scores.T @ a).reshape(b, n, n)
    d_gm *= x
    d_k = (trace.inputs.T @ d_gm.reshape(b, n * n)).reshape(n, n, n)
    d_a += np.einsum("mil,ml->im", d_k, constants.M)
    d_m = np.einsum("mil,im->ml", d_k, a)
    _ensure_finite(d_a, "self attention")

    # M = (E W_q)(E W_k)^T / sqrt(dk), and each projection is E W
    d_embeddings = grads["embeddings"]
    for name, weight, d_projected in (
            ("w_query", params.w_query, d_m @ pk / np.sqrt(dk)),
            ("w_key", params.w_key, d_m.T @ pq / np.sqrt(dk)),
            ("w_value", params.w_value, d_pv)):
        grads[name][...] = params.embeddings.T @ d_projected
        d_embeddings += d_projected @ weight.T
    _ensure_finite(d_embeddings, "embedding")

    # graph convolution: A = I + masked / (n - 1)
    d_masked = d_a / (n - 1)
    np.fill_diagonal(d_masked, 0.0)  # diagonal is excluded from the message sum

    # adjacency = vhat vhat^T through factor row-normalization
    vhat = constants.unit_factors
    d_vhat = (d_masked + d_masked.T) @ vhat
    vdots = np.sum(vhat * d_vhat, axis=1)
    grads["interaction_factors"][...] = ((d_vhat - vdots[:, None] * vhat)
                                         / constants.factor_norms[:, None])
    _ensure_finite(grads["interaction_factors"], "graph convolution")
    return grad


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam's step count and moments; adam_step updates m and v in place."""

    m: np.ndarray      # moments, one entry per entry of the parameter vector
    v: np.ndarray
    decay: np.ndarray  # bool: does weight decay apply to the entry
    t: int = 0

    @classmethod
    def initial(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.vector), v=np.zeros_like(params.vector),
                   decay=decay_mask(params.arch))


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update, in place, of ``params.vector`` by a gradient
    in its layout (backward's), with the step settings of ``cfg``; decoupled
    weight decay touches the TENSORS flagged for it (weights, not biases or BN)."""
    if np.shape(grad) != params.vector.shape:  # a length-1 gradient would broadcast
        raise ValueError(f"gradient shape {np.shape(grad)} does not match {params.vector.shape}")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    # in place, with the operations of beta1 m + (1 - beta1) g, beta2 v +
    # (1 - beta2) g^2 and lr (m / bc1) / (sqrt(v / bc2) + eps): products and
    # sums commute bit for bit, so the bytes are the same
    state.m *= cfg.beta1
    state.m += (1.0 - cfg.beta1) * grad
    squared = np.square(grad)
    squared *= 1.0 - cfg.beta2
    state.v *= cfg.beta2
    state.v += squared
    update = state.m / bc1
    update *= cfg.lr
    denominator = np.divide(state.v, bc2, out=squared)
    np.sqrt(denominator, out=denominator)
    denominator += cfg.adam_eps
    update /= denominator
    if cfg.weight_decay > 0.0:
        # masked, as the per-tensor update was: adding 0.0 elsewhere could flip a -0.0
        np.add(update, cfg.lr * cfg.weight_decay * params.vector, out=update,
               where=state.decay)
    params.vector -= update


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    """Loop hyperparameters; batch_size counts triplets per mini-batch, sigma
    scales the augmentation noise and dropout is the projection head's rate."""

    epochs: int = 100
    batch_size: int = 256
    sigma: float = 0.01
    dropout: float = 0.0
    seed: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    precision_k: int = 50

    def __post_init__(self):
        # each condition is written so that NaN fails it
        for name, ok, rule in (
                ("epochs", self.epochs >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 2, ">= 2"),
                ("sigma", self.sigma >= 0, ">= 0"),
                ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
                ("seed", self.seed >= 0, ">= 0"),
                ("precision_k", self.precision_k >= 1, ">= 1"),
                ("lr", 0.0 < self.lr < math.inf, "positive and finite"),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("adam_eps", 0.0 < self.adam_eps < math.inf, "positive and finite"),
                ("weight_decay", 0.0 <= self.weight_decay < math.inf, ">= 0 and finite")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    val_auc: float
    val_precision_at_k: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)


def train(
    train_set: Samples,
    val_set: Samples,
    arch: ArchConfig,
    cfg: TrainConfig,
):
    """Full training run; returns (best-AUC params, normalization stats, history).

    Per epoch: shuffle anchors, resample a fresh triplet per anchor, augment
    the raw fractions, normalize, run train-mode forward in mini-batches of
    triplets, backpropagate the batch-mean loss and take an Adam step; then
    score the validation set (no augmentation) against the training targets'
    class center, so each epoch's record holds that epoch's own metrics.
    """
    if not val_set:
        raise ValueError("validation set must be non-empty")
    if cfg.precision_k > len(val_set):
        raise ValueError(
            f"precision_k={cfg.precision_k} exceeds validation size {len(val_set)}"
        )

    x_raw = train_set.fractions
    sampler = TripletIndexSampler(train_set.y)  # raises EmptyClassError on one-class data
    targets = train_set[train_set.y == 1]

    stats = fit_normalization(train_set)
    params = init_params(arch, cfg.seed)
    # separate stream from init so architecture draws and loop draws don't alias
    rng = RandomSource(cfg.seed + 1)
    adam = AdamState.initial(params)

    history = TrainHistory()
    best_auc = -math.inf
    best_params = params.copy()
    n_anchors = len(train_set)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_anchors)
        loss_total = 0.0
        for start in range(0, n_anchors, cfg.batch_size):
            anchor_idx = order[start:start + cfg.batch_size]
            pos_idx, neg_idx = sampler.draw(anchor_idx, rng)
            stacked = np.concatenate([x_raw[anchor_idx], x_raw[pos_idx], x_raw[neg_idx]])
            perturbed = augment(stacked, cfg.sigma, rng)
            batch = normalize(perturbed, stats)
            features, trace = forward_batch(batch, params, mode="train", rng=rng,
                                            dropout=cfg.dropout)
            losses = triplet_losses(features)
            if not np.all(np.isfinite(losses)):
                raise NumericFailure(
                    f"non-finite loss at epoch {epoch}, anchors {start}..{start + anchor_idx.size}"
                )
            loss_total += float(losses.sum())
            adam_step(params, backward(trace, params), adam, cfg)

        center = evaluation.class_center(targets, params, stats)
        report = evaluation.evaluate(val_set, params, stats, center.vector, cfg.precision_k)
        if report.auc > best_auc:
            best_auc = report.auc
            best_params = params.copy()
        history.records.append(EpochRecord(
            epoch=epoch, mean_loss=loss_total / n_anchors, val_auc=report.auc,
            val_precision_at_k=report.precision_at_k,
        ))

    return best_params, stats, history
