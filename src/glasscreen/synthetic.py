"""Synthetic composition benchmark.

An 8-component system with a fixed quadratic ground truth: per-component
linear effects plus pairwise interaction terms and 5 degC of Gaussian
measurement noise. The coefficients below are frozen so that benchmark runs
are reproducible across machines.
"""

from __future__ import annotations

import numpy as np

from .data_pipeline import ComponentSchema, Samples, TgBand, transform_labels
from .numeric_core import RandomSource

COMPONENT_NAMES = ("SiO2", "Al2O3", "B2O3", "Na2O", "K2O", "CaO", "MgO", "ZnO")
SCHEMA = ComponentSchema(COMPONENT_NAMES)

# pure-component contribution to Tg (degC)
LINEAR_COEFFS = np.array([905.0, 840.0, 450.0, 285.0, 320.0, 660.0, 700.0, 560.0])

# strictly upper-triangular pairwise interaction coefficients (degC)
PAIR_COEFFS = np.array([
    #  SiO2  Al2O3   B2O3   Na2O    K2O    CaO    MgO    ZnO
    [0.0,  320.0, -180.0, -420.0, -380.0, 140.0,  90.0,  -60.0],
    [0.0,    0.0,  210.0,  510.0,  460.0, -230.0, -170.0, 120.0],
    [0.0,    0.0,    0.0, -340.0, -300.0,  180.0,  220.0, -140.0],
    [0.0,    0.0,    0.0,    0.0,   90.0, -260.0, -190.0,  310.0],
    [0.0,    0.0,    0.0,    0.0,    0.0, -210.0, -150.0,  260.0],
    [0.0,    0.0,    0.0,    0.0,    0.0,    0.0,  130.0, -110.0],
    [0.0,    0.0,    0.0,    0.0,    0.0,    0.0,    0.0,  170.0],
    [0.0,    0.0,    0.0,    0.0,    0.0,    0.0,    0.0,    0.0],
])

DEFAULT_NOISE_STD = 5.0
DEFAULT_DATA_SEED = 7


def noise_free_tg(x: np.ndarray) -> np.ndarray:
    """Ground-truth Tg surface: linear term plus pairwise interactions."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    linear = x @ LINEAR_COEFFS
    pair = np.einsum("bi,ij,bj->b", x, PAIR_COEFFS, x)
    return linear + pair


def generate_compositions(n_samples: int, rng: RandomSource) -> np.ndarray:
    """Uniform draws from the simplex (normalized unit exponentials)."""
    u = rng.uniform(size=(n_samples, len(COMPONENT_NAMES)))
    e = -np.log1p(-u)  # Exponential(1); 1-u keeps the log finite
    return e / e.sum(axis=1, keepdims=True)


def generate_raw_samples(
    n_samples: int = 4000,
    seed: int = DEFAULT_DATA_SEED,
    noise_std: float = DEFAULT_NOISE_STD,
    sum_jitter: float = 0.0,
) -> Samples:
    """Benchmark corpus of compositions with noisy Tg labels.

    ``sum_jitter`` optionally rescales each row by U(1-j, 1+j), so each row
    sums to within j of 1. The cleaning step's sum filter drops rows only when
    j exceeds its band's half-width (0.05 for the default [0.95, 1.05]).
    """
    rng = RandomSource(seed)
    x = generate_compositions(n_samples, rng)
    tg = noise_free_tg(x) + rng.normal(0.0, noise_std, size=n_samples)
    if sum_jitter > 0.0:
        scale = 1.0 + sum_jitter * (2.0 * rng.uniform(size=n_samples) - 1.0)
        x = x * scale[:, None]
    return Samples(x, tg, np.ones(n_samples, dtype=bool))


def quantile_band(samples: Samples, lo_q: float = 0.4, hi_q: float = 0.6) -> TgBand:
    """Band between two empirical Tg quantiles (defaults cover ~20% of samples)."""
    tgs = samples.tg[samples.has_tg]
    return TgBand(float(np.quantile(tgs, lo_q)), float(np.quantile(tgs, hi_q)))


def benchmark_dataset(
    n_samples: int = 4000,
    seed: int = DEFAULT_DATA_SEED,
) -> tuple[Samples, TgBand]:
    """Labeled benchmark set with the default ~20% band."""
    raw = generate_raw_samples(n_samples=n_samples, seed=seed)
    band = quantile_band(raw)
    return transform_labels(raw, band), band
