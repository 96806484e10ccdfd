#!/usr/bin/env python3
"""End-to-end benchmark run through the CLI: write the synthetic corpus, then
``glasscreen train`` on it and ``glasscreen eval --with-knn-baseline`` on the
held-out split, and leave the corpus, config, history, checkpoint and report
files in ``--out-dir`` for external plotting.

Mirrors the repository's end-to-end acceptance run (seed 42, default
hyperparameters) when invoked without arguments.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from glasscreen import cli
from glasscreen.data_pipeline import write_dataset
from glasscreen.synthetic import SCHEMA, benchmark_dataset


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

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data, config = out_dir / "data.csv", out_dir / "config.json"
    checkpoint = out_dir / "model.ckpt"
    write_dataset(data, SCHEMA, samples)
    config.write_text(json.dumps({"epochs": args.epochs, "precision_k": args.precision_k}) + "\n",
                      encoding="utf-8")
    common = ["--data", str(data), "--seed", str(args.seed), "--config", str(config)]

    started = time.monotonic()
    status = cli.main(["train", *common, f"--band={band.low!r}:{band.high!r}",
                       "--out", str(checkpoint), "--history", str(out_dir / "history.csv")])
    if status:
        return status
    print(f"trained {args.epochs} epochs in {time.monotonic() - started:.1f}s")

    status = cli.main(["eval", *common, "--checkpoint", str(checkpoint),
                       "--report-dir", str(out_dir), "--k", str(args.precision_k),
                       "--with-knn-baseline"])
    if status:
        return status
    for label, prefix in (("encoder ", ""), ("knn(k=5)", "baseline_knn_")):
        summary = json.loads((out_dir / f"{prefix}summary.json").read_text(encoding="utf-8"))
        print(f"{label}: AUC {summary['auc']:.4f}  "
              f"P@{args.precision_k} {summary['precision_at_k']:.3f}")
    print(f"history, reports and checkpoint in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
