"""Small dense-numerics layer shared by the encoder, training loop and metrics.

Everything is float64. The random source is a seeded PCG64 stream with
Box-Muller normals so that draws are reproducible across platforms without
depending on library-specific normal samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomSource",
    "softmax_leading",
    "BatchNormState",
    "batchnorm_backward",
    "batchnorm_fold",
    "batchnorm_train_cached",
]


class RandomSource:
    """Deterministic random stream: PCG64 uniforms, Box-Muller normals.

    Normal draws come in arrays: m normals take (m + 1) // 2 pairs of
    uniforms, and are the cosine branch of every pair followed by the sine
    branch, cut to m. The exact consumption pattern is part of the
    reproducibility contract.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, mean: float = 0.0, std: float = 1.0, *, size) -> np.ndarray:
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        shape = (size,) if isinstance(size, int) else tuple(size)
        m = math.prod(shape)
        npairs = (m + 1) // 2
        u1 = 1.0 - self._gen.random(npairs)  # (0, 1]: keeps log finite
        u2 = self._gen.random(npairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        # the cosine branch then the sine branch, each scaled by the radius in
        # its half of one buffer; products and sums commute bit for bit, so
        # this is the same bytes as mean + std * (radius * cos | radius * sin)
        z = np.empty(2 * npairs)
        cos, sin = z[:npairs], z[npairs:]
        np.cos(angle, out=cos)
        cos *= radius
        np.sin(angle, out=sin)
        sin *= radius
        z = z[:m]
        z *= std
        z += mean
        return z.reshape(shape)

    def integers(self, low: int, high: np.ndarray) -> np.ndarray:
        """An int64 array shaped like ``high``, uniform on [low, high) per element.

        The draws are made one per element in C order and consume the stream
        exactly as one scalar ``integers(low, h)`` call per element in that
        order would, leaving the generator in the same state. Callers that
        batch their draws rely on this, so it is part of the reproducibility
        contract.
        """
        return self._gen.integers(low, np.asarray(high, dtype=np.int64))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def softmax_leading(scores: np.ndarray) -> np.ndarray:
    """Stable softmax over the first axis (any trailing shape), computed in
    place in the float64 array ``scores``, which is returned.

    With the reduction axis first, the max, subtract, exp, sum and divide are
    each a few long contiguous passes, which a short last axis is not.
    """
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    scores /= np.einsum("i...->...", scores)  # faster than scores.sum(axis=0)
    return scores


@dataclass
class BatchNormState:
    """Learnable scale/shift plus running statistics for one normalized width."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        widths = {self.gamma.shape, self.beta.shape,
                  self.running_mean.shape, self.running_var.shape}
        if len(widths) != 1:
            raise ValueError("batch-norm vectors must share one length")
        if np.any(self.running_var < 0):
            raise ValueError("running_var entries must be >= 0")


def batchnorm_train_cached(p: np.ndarray, w: np.ndarray, state: BatchNormState,
                           momentum: float, epsilon: float):
    """Train-mode batch norm of the linear layer ``p @ w``, returning
    (out, centred, inv_std): the output and the backward cache.

    Normalizes by population batch statistics (``epsilon`` added to the
    variance) and folds them into the running statistics, the new batch
    weighted by ``momentum``. The product is this function's own array, so it
    is centred in place; ``p``, ``w`` and every array the caller holds are
    left as they were. With the mean and the variance each one einsum pass,
    it makes five passes over the batch: column sum, centre, variance,
    ``centred * (gamma * inv_std)`` and ``+= beta``.
    """
    centred = np.asarray(p, dtype=np.float64) @ np.asarray(w, dtype=np.float64)
    if centred.ndim != 2 or centred.shape[0] < 2:
        raise ValueError("train-mode batch norm needs a batch of >= 2 vectors")
    b = centred.shape[0]
    mean = np.einsum("bh->h", centred) / b  # einsum: faster than mean(axis=0)
    centred -= mean
    var = np.einsum("bh,bh->h", centred, centred) / b  # population variance (ddof=0)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    out = centred * (state.gamma * inv_std)
    out += state.beta
    state.running_mean = (1.0 - momentum) * state.running_mean + momentum * mean
    state.running_var = (1.0 - momentum) * state.running_var + momentum * var
    return out, centred, inv_std


def batchnorm_backward(d_out: np.ndarray, centred: np.ndarray, inv_std: np.ndarray,
                       gamma: np.ndarray):
    """Train-mode batch-norm gradients (d_x, d_gamma, d_beta) from the output
    gradient and batchnorm_train_cached's (centred, inv_std).

    With x_hat = centred * inv_std, d_gamma and d_beta are the column sums of
    d_out * x_hat and of d_out. The input gradient subtracts the column means
    of d_x_hat = gamma * d_out and of d_x_hat * x_hat, which are
    gamma * d_beta / B and gamma * d_gamma / B:
    d_x = gamma * inv_std * (d_out - d_beta / B - centred * inv_std * d_gamma / B).
    x_hat itself is never built.
    """
    b = d_out.shape[0]
    # einsum: faster than sum(axis=0), and no (B, h) temporary
    d_gamma = np.einsum("bh,bh->h", d_out, centred) * inv_std
    d_beta = np.einsum("bh->h", d_out)
    d_x = d_out - d_beta / b
    d_x -= centred * (inv_std * d_gamma / b)
    d_x *= gamma * inv_std
    return d_x, d_gamma, d_beta


def batchnorm_fold(state: BatchNormState, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode batch norm by the running statistics and ``epsilon`` as one
    ``(scale, shift)`` pair; never mutates the state.

    By the running statistics the batch norm is affine,
    gamma * (x - running_mean) / sqrt(running_var + epsilon) + beta
    = x * scale + shift, so it folds into the linear layer before it:
    (p @ U) * scale + shift = p @ (U * scale) + shift.
    """
    scale = state.gamma / np.sqrt(state.running_var + epsilon)
    shift = state.beta - state.running_mean * scale
    return scale, shift
