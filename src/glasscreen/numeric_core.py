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

    Scalar normal draws consume two uniforms and keep only the cosine branch;
    array draws use both branches of each pair. The exact consumption pattern
    is part of the reproducibility contract.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, mean: float = 0.0, std: float = 1.0, size=None):
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        if size is None:
            u1 = 1.0 - self._gen.random()  # (0, 1]: keeps log finite
            u2 = self._gen.random()
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            return mean + std * z
        shape = (size,) if isinstance(size, int) else tuple(size)
        m = int(np.prod(shape))
        npairs = (m + 1) // 2
        u1 = 1.0 - self._gen.random(npairs)
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
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class BatchNormState:
    """Learnable scale/shift plus running statistics for one normalized width."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    epsilon: float = 1e-5

    def __post_init__(self):
        widths = {self.gamma.shape, self.beta.shape,
                  self.running_mean.shape, self.running_var.shape}
        if len(widths) != 1:
            raise ValueError("batch-norm vectors must share one length")
        if not 0.0 < self.momentum < 1.0:
            raise ValueError(f"momentum must be in (0,1), got {self.momentum}")
        if np.any(self.running_var < 0):
            raise ValueError("running_var entries must be >= 0")


def batchnorm_train_cached(x: np.ndarray, state: BatchNormState, update_running: bool = True,
                           bias: np.ndarray | float = 0.0):
    """Train-mode batch norm of ``x + bias`` returning backward cache (x_hat, inv_std).

    Normalizes by population batch statistics and, unless ``update_running``
    is false, folds them into the running statistics with the configured
    momentum (new batch weighted by momentum). Subtracting the batch mean
    removes a per-feature ``bias`` exactly, so it is left out of the output
    and only enters the running mean.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("train-mode batch norm needs a batch of >= 2 vectors")
    mean = x.mean(axis=0)
    var = x.var(axis=0)  # population (ddof=0)
    inv_std = 1.0 / np.sqrt(var + state.epsilon)
    x_hat = (x - mean) * inv_std
    out = state.gamma * x_hat + state.beta
    if update_running:
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * (mean + bias)
        state.running_var = (1.0 - m) * state.running_var + m * var
    return out, x_hat, inv_std


def batchnorm_eval(x: np.ndarray, state: BatchNormState) -> np.ndarray:
    """Eval-mode batch norm by the running statistics; never mutates the state.

    Accepts a single vector or a batch.
    """
    x = np.asarray(x, dtype=np.float64)
    inv_std = 1.0 / np.sqrt(state.running_var + state.epsilon)
    return state.gamma * (x - state.running_mean) * inv_std + state.beta


def grad_check(f, params: dict, analytic_grads: dict, h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    The test suite's finite-difference check; the package itself never calls it.

    ``f`` is called as ``f(params)`` and must be a deterministic scalar
    function of the arrays in ``params``. The arrays are perturbed in place,
    one coordinate at a time, and restored afterwards. The relative error per
    coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if h <= 0:
        raise ValueError("step h must be > 0")
    worst = 0.0
    for name, theta in params.items():
        grad = np.asarray(analytic_grads[name])
        if grad.shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if not theta.flags.c_contiguous:
            raise ValueError(f"parameter {name!r} must be C-contiguous "
                             "(reshape would copy and in-place perturbation would be lost)")
        flat = theta.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f(params))
            flat[i] = orig - h
            f_minus = float(f(params))
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise ValueError(f"non-finite loss while perturbing {name!r}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(gflat[i])
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst
