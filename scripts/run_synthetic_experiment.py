#!/usr/bin/env python3
"""End-to-end benchmark run: train the encoder on the synthetic corpus, score
the held-out split, compare against the KNN baseline, and dump history plus
report files for external plotting.

Mirrors the repository's end-to-end acceptance run (seed 42, default
hyperparameters) when invoked without arguments.
"""

import argparse
import time
from pathlib import Path

from glasscreen import baseline_knn, evaluation
from glasscreen.data_pipeline import split, write_candidates
from glasscreen.deepglassnet import ArchConfig, save_checkpoint
from glasscreen.synthetic import benchmark_dataset
from glasscreen.training import TrainConfig, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--precision-k", type=int, default=50)
    parser.add_argument("--out-dir", default="out_synthetic")
    args = parser.parse_args()

    samples, band = benchmark_dataset(args.samples, seed=args.data_seed)
    print(f"dataset: {len(samples)} samples, band [{band.low:.1f}, {band.high:.1f}), "
          f"target fraction {samples.y.mean():.3f}")
    train_part, val_part = split(samples, 0.8, seed=args.seed)

    arch = ArchConfig(n_components=8)
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed, precision_k=args.precision_k)
    started = time.monotonic()
    params, stats, history = train(train_part, val_part, arch, cfg)
    print(f"trained {args.epochs} epochs in {time.monotonic() - started:.1f}s")

    center = evaluation.class_center(train_part[train_part.y == 1], params, stats)
    dgn = evaluation.evaluate(val_part, params, stats, center.vector, args.precision_k)
    knn = baseline_knn.knn_evaluate(train_part, val_part, stats,
                                    baseline_knn.KnnConfig(5), args.precision_k)

    print(f"encoder : AUC {dgn.auc:.4f}  P@{args.precision_k} {dgn.precision_at_k:.3f}")
    print(f"knn(k=5): AUC {knn.auc:.4f}  P@{args.precision_k} {knn.precision_at_k:.3f}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    history.write_csv(out_dir / "history.csv")
    evaluation.write_scores_csv(dgn, out_dir / "scores.csv")
    write_candidates(out_dir / "roc.csv", ("fpr", "tpr"), dgn.roc)
    evaluation.write_scores_csv(knn, out_dir / "baseline_knn_scores.csv")
    write_candidates(out_dir / "baseline_knn_roc.csv", ("fpr", "tpr"), knn.roc)
    save_checkpoint(params, arch, stats, band, out_dir / "model.ckpt",
                    center=center.vector)
    print(f"history, reports and checkpoint in {out_dir}/")


if __name__ == "__main__":
    main()
