"""Small dense-numerics layer shared by the encoder, training loop and metrics.

Everything is float64. The random source is a seeded PCG64 stream with
Box-Muller normals so that draws are reproducible across platforms without
depending on library-specific normal samplers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericsWarning",
    "RandomSource",
    "softmax_rows",
    "BatchNormState",
    "batchnorm_eval",
    "batchnorm_train_cached",
]


class NumericsWarning(UserWarning):
    """Raised-as-warning for recoverable numeric degeneracies (zero norms etc.)."""


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
        m = int(np.prod(shape))
        npairs = (m + 1) // 2
        u1 = 1.0 - self._gen.random(npairs)  # (0, 1]: keeps log finite
        u2 = self._gen.random(npairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                            radius * np.sin(2.0 * np.pi * u2)])[:m]
        return (mean + std * z).reshape(shape)

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


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis (any leading batch shape)."""
    scores = np.asarray(scores, dtype=np.float64)
    # numpy reduces a short last axis slowly: the maximum is a running one
    # over the columns (exact in any order) and the sum is an einsum
    peak = scores[..., 0].copy()
    for j in range(1, scores.shape[-1]):
        np.maximum(peak, scores[..., j], out=peak)
    e = scores - peak[..., None]
    np.exp(e, out=e)
    e /= np.einsum("...j->...", e)[..., None]
    return e


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


def batchnorm_train_cached(x: np.ndarray, state: BatchNormState, momentum: float,
                           epsilon: float):
    """Train-mode batch norm returning backward cache (x_hat, inv_std).

    Normalizes by population batch statistics (``epsilon`` added to the
    variance) and folds them into the running statistics, the new batch
    weighted by ``momentum``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("train-mode batch norm needs a batch of >= 2 vectors")
    mean = x.mean(axis=0)
    # population variance (ddof=0) from the centred batch, in the steps of
    # numpy's own x.var(axis=0), so the bytes are the same
    centred = x - mean
    var = np.square(centred).sum(axis=0) / x.shape[0]
    inv_std = 1.0 / np.sqrt(var + epsilon)
    x_hat = centred * inv_std
    out = state.gamma * x_hat + state.beta
    state.running_mean = (1.0 - momentum) * state.running_mean + momentum * mean
    state.running_var = (1.0 - momentum) * state.running_var + momentum * var
    return out, x_hat, inv_std


def batchnorm_eval(x: np.ndarray, state: BatchNormState, epsilon: float) -> np.ndarray:
    """Eval-mode batch norm by the running statistics and ``epsilon``; never mutates the state.

    Accepts a single vector or a batch.
    """
    inv_std = 1.0 / np.sqrt(state.running_var + epsilon)
    # in place on a fresh array, in the order of
    # gamma * (x - running_mean) * inv_std + beta, so the bits are the same
    out = np.asarray(x, dtype=np.float64) - state.running_mean
    out *= state.gamma
    out *= inv_std
    out += state.beta
    return out

