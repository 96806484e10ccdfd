"""K-nearest-neighbors baseline over Z-scored fractions, reporting through the
same Report type as the encoder for head-to-head comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_pipeline import NormalizationStats, Samples, normalize
from .evaluation import Report, make_report

# query rows per distance matrix, bounding memory at chunk x training size
_CHUNK = 256


@dataclass(frozen=True)
class KnnConfig:
    k_neighbors: int = 5

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")


def knn_scores(
    train: Samples,
    stats: NormalizationStats,
    queries: np.ndarray,
    cfg: KnnConfig,
) -> np.ndarray:
    """Fraction of the k nearest (Euclidean, normalized space) training
    samples that are targets, for each row of the (m, n) raw-fraction
    ``queries``. Always a multiple of 1/k in [0, 1].

    Distance ties are broken by training index (stable sort), so scores are
    deterministic for a fixed training order. Each row's k-th distance comes
    from a partial selection, and only a row where that distance is tied (or
    nan) is sorted in full, so the neighbours are those of a full sort.
    """
    if cfg.k_neighbors > len(train):
        raise ValueError(
            f"k_neighbors={cfg.k_neighbors} exceeds training size {len(train)}"
        )
    x = normalize(train.fractions, stats)
    labels = train.y.astype(np.float64)
    q_all = normalize(queries, stats)
    k = cfg.k_neighbors
    train_sq = np.sum(x ** 2, axis=1)
    scores = np.empty(q_all.shape[0])
    for start in range(0, q_all.shape[0], _CHUNK):
        q = q_all[start:start + _CHUNK]
        # |q|^2 + |x|^2 - 2 q.x, in that order, with the temporaries reused
        cross = q @ x.T
        cross *= 2.0
        d2 = np.sum(q ** 2, axis=1)[:, None] + train_sq[None, :]
        d2 -= cross
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        take = d2 <= kth
        # more than k are taken where the k-th distance is tied, fewer where
        # it is nan (sorted last); those rows take the stable sort's first k
        resort = (np.count_nonzero(take, axis=1) > k) | np.isnan(kth[:, 0])
        for row in np.flatnonzero(resort):
            take[row] = False
            take[row, np.argsort(d2[row], kind="stable")[:k]] = True
        # the k labels' sum is exact, so this is their mean bit for bit
        scores[start:start + q.shape[0]] = (take @ labels) / k
    return scores


def knn_evaluate(
    train: Samples,
    val: Samples,
    stats: NormalizationStats,
    cfg: KnnConfig,
    k_rank: int,
) -> Report:
    """Score every validation sample with knn_scores and build the same
    Report the encoder evaluation produces."""
    if not val:
        raise ValueError("knn_evaluate needs a non-empty validation set")
    return make_report(knn_scores(train, stats, val.fractions, cfg), val, k_rank)
