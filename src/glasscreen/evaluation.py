"""Class-center scoring and ranking metrics: AUC (strict-inequality pair
count), ROC staircase, Precision@k and report assembly/export."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .data_pipeline import EmptyClassError, NormalizationStats, Samples, TgBand, normalize
from .deepglassnet import ModelParams, eval_features
from .numeric_core import NumericFailure

log = logging.getLogger(__name__)


@dataclass
class ClassCenter:
    """Mean feature vector of the training targets; not re-normalized."""

    vector: np.ndarray


@dataclass
class Report:
    """Ranking metrics plus the per-sample scores, labels and Tg they came
    from, all in validation-sample order."""

    auc: float
    roc: list[tuple[float, float]]
    precision_at_k: float
    k: int
    scores: np.ndarray
    labels: np.ndarray
    tg: np.ndarray


def class_center(
    targets: Samples | list,
    params: ModelParams,
    stats: NormalizationStats,
) -> ClassCenter:
    """Arithmetic mean of eval-mode features of the (non-augmented) targets.

    ``targets`` is a Samples table or, for callers written against rows, a
    list of rows such as ``[s for s in table if s.y == 1]``; this is the one
    place a row list is stacked, to the values of the matching sub-table.

    The mean of unit vectors can cancel to (near) zero; that case is logged
    as a warning but still returned.
    """
    if not targets:
        raise EmptyClassError("class center needs at least one target sample")
    x = normalize(targets.fractions if isinstance(targets, Samples)
                  else np.array([s.fractions for s in targets]), stats)
    features = eval_features(x, params)
    center = features.mean(axis=0)
    if float(np.linalg.norm(center)) <= 1e-12:
        log.warning("class center has near-zero norm; scores will be ~0")
    return ClassCenter(vector=center)


def score(
    fractions: np.ndarray,
    params: ModelParams,
    stats: NormalizationStats,
    center: np.ndarray,
) -> np.ndarray:
    """Inner-product similarity of each (m, n) raw-fraction row's feature with
    the center vector, as an (m,) array in input order, without augmentation.
    A model whose finite weights overflow scores nan or inf; such scores are
    refused, so no report or ranking is made from them."""
    scores = eval_features(normalize(fractions, stats), params) @ center
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise NumericFailure(f"{bad} of {scores.size} scores are not finite")
    return scores


def _check_both_classes(labels: np.ndarray, what: str) -> np.ndarray:
    is_target = labels == 1
    if is_target.all() or not is_target.any():
        raise EmptyClassError(f"{what} needs at least one sample of each class")
    return is_target


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of (target, non-target) pairs with strictly greater target
    score. Ties count zero. Computed by sorted counting in O(m log m); equals
    the quadratic pair count exactly.
    """
    is_target = _check_both_classes(labels, "AUC")
    others = np.sort(scores[~is_target])
    wins = int(np.searchsorted(others, scores[is_target], side="left").sum())
    return wins / (int(is_target.sum()) * others.size)


def roc_points(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """ROC staircase swept over distinct scores descending, from (0,0) to (1,1)."""
    is_target = _check_both_classes(labels, "ROC")
    m1 = int(is_target.sum())
    m0 = scores.size - m1
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    # last position of each run of equal scores
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
    tp = np.cumsum(is_target[order])[ends]
    fp = ends + 1 - tp
    return [(0.0, 0.0)] + [(f / m0, t / m1) for f, t in zip(fp.tolist(), tp.tolist())]


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores, highest first, ties broken by
    ascending index: ``np.lexsort((np.arange(m), -scores))[:k]``.

    Only the scores at or above the k-th are sorted: a partition finds the
    k-th, and every tie at it is kept, so the tie rule picks among them.
    """
    if not 1 <= k <= scores.size:
        raise ValueError(f"k={k} out of range for {scores.size} scores")
    negated = -scores
    kth = np.partition(negated, k - 1)[k - 1]
    # ~(>) rather than <=: a nan k-th score (the sort puts nan last) keeps every row
    kept = np.flatnonzero(~(negated > kth))
    return kept[np.lexsort((kept, negated[kept]))][:k]


def precision_at_k(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Target fraction among the k highest scores (ties broken by ascending
    sample index for determinism)."""
    return int(labels[top_k(scores, k)].sum()) / k


def make_report(scores: np.ndarray, samples: Samples, k: int) -> Report:
    """Ranking metrics of ``scores`` (one per sample, in sample order) against
    the samples' labels; the one place scores become a Report."""
    labels = samples.y
    return Report(
        auc=auc(scores, labels),
        roc=roc_points(scores, labels),
        precision_at_k=precision_at_k(scores, labels, k),
        k=k,
        scores=scores,
        labels=labels,
        tg=samples.tg,
    )


def evaluate(
    val: Samples,
    params: ModelParams,
    stats: NormalizationStats,
    center: np.ndarray,
    k: int,
) -> Report:
    """Score the validation samples against the center vector and assemble
    the full report."""
    if not val:
        raise ValueError("evaluate needs a non-empty validation set")
    return make_report(score(val.fractions, params, stats, center), val, k)


# ---------------------------------------------------------------------------
# report files


def write_scores_csv(report: Report, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,score,label,tg\n")
        for i, (s, y, tg) in enumerate(zip(report.scores.tolist(), report.labels.tolist(),
                                           report.tg.tolist())):
            fh.write(f"{i},{s!r},{y},{tg!r}\n")


def write_summary_json(report: Report, band: TgBand, fingerprint: str, path) -> None:
    payload = {
        "auc": report.auc,
        "precision_at_k": report.precision_at_k,
        "k": report.k,
        "band_low": band.low,
        "band_high": band.high,
        "config_fingerprint": fingerprint,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
