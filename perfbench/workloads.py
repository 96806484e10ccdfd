"""Set-up, operations and output checks of the benchmark workloads.

Every workload is a closed loop: one client in one process issues an
operation only after the previous one returned. The workload seed picks the
synthetic corpus and the split/training seed; the package only ever sees the
generated inputs. The output checks use the standard library and numpy, never
glasscreen code, so a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from glasscreen import cli, data_pipeline, deepglassnet, evaluation, synthetic, training

COMPONENTS = synthetic.COMPONENT_NAMES
N_SAMPLES = 4000
SUM_JITTER = 0.03
TRAIN_EPOCHS = 10        # the trained AUC clears the KNN baseline on every seed tried
CLI_EPOCHS = 5
CHECKPOINT_EPOCHS = 1    # the screen checkpoint only has to rank, not to rank well
SCREEN_STEP, SCREEN_TOP_K = 0.05, 50
CLI_STEP, CLI_TOP_K, CLI_BAND = 0.1, 5, "570:640"
MAX_NONZERO = 4
KNN_NEIGHBORS = 5

# the files the README walkthrough writes, relative to the operation directory
CLI_FILES = (
    "data.csv", "model.ckpt", "model.ckpt.history.csv",
    "report/scores.csv", "report/roc.csv", "report/summary.json",
    "report/baseline_knn_scores.csv", "report/baseline_knn_roc.csv",
    "report/baseline_knn_summary.json",
    "candidates.csv", "picks.csv",
)


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Inputs:
    """What set-up leaves behind for the timed operations."""

    seed: int
    train_set: list
    val_set: list
    train_run: cli.RunConfig
    checkpoint_run: cli.RunConfig
    checkpoint: Path
    raw_csv: Path
    cli_config: Path
    knn_auc: float | None = None

    def fingerprints(self) -> dict[str, str]:
        cli_run = cli.RunConfig.load(self.cli_config, {"seed": self.seed})
        return {"train": self.train_run.fingerprint(),
                "screen_checkpoint": self.checkpoint_run.fingerprint(),
                "cli": cli_run.fingerprint()}


def set_up(seed: int, work: Path) -> Inputs:
    """Make every workload's inputs: the labeled corpus and its split, the
    checkpoint `screen` ranks with, and the raw table and config of `cli`."""
    work.mkdir(parents=True, exist_ok=True)
    labeled, band = synthetic.benchmark_dataset(N_SAMPLES, seed)
    train_set, val_set = data_pipeline.split(labeled, 0.8, seed)

    checkpoint_run = cli.RunConfig(epochs=CHECKPOINT_EPOCHS, seed=seed)
    arch = checkpoint_run.arch_config(len(COMPONENTS))
    params, stats, _ = training.train(train_set, val_set, arch, checkpoint_run.train_config())
    center = evaluation.class_center([s for s in train_set if s.y == 1], params, stats)
    checkpoint = work / "screen.ckpt"
    deepglassnet.save_checkpoint(params, arch, stats, band, checkpoint, center=center.vector)

    raw = synthetic.generate_raw_samples(N_SAMPLES, seed, sum_jitter=SUM_JITTER)
    raw_csv = work / "raw.csv"
    data_pipeline.write_dataset(raw_csv, synthetic.SCHEMA, raw)
    cli_config = work / "cli_config.json"
    cli_config.write_text(json.dumps({"epochs": CLI_EPOCHS}), encoding="utf-8")

    return Inputs(seed=seed, train_set=train_set, val_set=val_set,
                  train_run=cli.RunConfig(epochs=TRAIN_EPOCHS, seed=seed),
                  checkpoint_run=checkpoint_run, checkpoint=checkpoint,
                  raw_csv=raw_csv, cli_config=cli_config)


# ---------------------------------------------------------------------------
# operations: each is a list of steps, timed one by one


def steps_train(inp: Inputs, out: Path):
    arch = inp.train_run.arch_config(len(COMPONENTS))
    cfg = inp.train_run.train_config()
    # training.train is looked up at call time, so tracing can wrap it
    return [lambda: training.train(inp.train_set, inp.val_set, arch, cfg)]


def steps_screen(inp: Inputs, out: Path):
    candidates = str(out / "candidates.csv")
    return [
        functools.partial(cli.main, [
            "enumerate", "--components", ",".join(COMPONENTS), "--step", str(SCREEN_STEP),
            "--max-nonzero", str(MAX_NONZERO), "--out", candidates]),
        functools.partial(cli.main, [
            "screen", "--checkpoint", str(inp.checkpoint), "--candidates", candidates,
            "--top-k", str(SCREEN_TOP_K), "--out", str(out / "picks.csv")]),
    ]


def steps_cli(inp: Inputs, out: Path):
    common = ["--seed", str(inp.seed), "--config", str(inp.cli_config)]
    data, model = str(out / "data.csv"), str(out / "model.ckpt")
    candidates = str(out / "candidates.csv")
    argvs = [
        ["clean", "--input", str(inp.raw_csv), "--output", data],
        ["train", "--data", data, "--band", CLI_BAND, "--out", model, *common],
        ["eval", "--checkpoint", model, "--data", data, "--report-dir", str(out / "report"),
         "--k", "50", "--with-knn-baseline", *common],
        ["enumerate", "--components", ",".join(COMPONENTS), "--step", str(CLI_STEP),
         "--max-nonzero", str(MAX_NONZERO), "--out", candidates],
        ["screen", "--checkpoint", model, "--candidates", candidates,
         "--top-k", str(CLI_TOP_K), "--out", str(out / "picks.csv"), *common],
    ]
    return [functools.partial(cli.main, argv) for argv in argvs]


# ---------------------------------------------------------------------------
# output checks (untimed). Each returns a digest of the operation's output
# bytes and a dict of values worth printing. ``full`` asks for the content
# checks; later operations only have to reproduce the first one's digest.


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def lattice_size(n: int, step: float, max_nonzero: int) -> int:
    """Stars and bars: compositions of m ticks into k positive parts, summed
    over the k <= max_nonzero components chosen to be non-zero."""
    m = round(1.0 / step)
    return sum(math.comb(n, k) * math.comb(m - 1, k - 1) for k in range(1, max_nonzero + 1))


def _read_table(path: Path, header: list[str]) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"{path.name}: header {rows[:1]} != {header}")
    return np.array([[float(c) for c in row] for row in rows[1:]]).reshape(-1, len(header))


def _check_candidates(path: Path, step: float) -> None:
    x = _read_table(path, list(COMPONENTS))
    expected = lattice_size(len(COMPONENTS), step, MAX_NONZERO)
    _require(x.shape[0] == expected, f"{path.name}: {x.shape[0]} rows, expected {expected}")
    _require(bool(np.all(np.abs(x.sum(axis=1) - 1.0) <= 1e-9)), f"{path.name}: a row does not sum to 1")
    ticks = x / step
    _require(bool(np.all(np.abs(ticks - np.round(ticks)) <= 1e-9)), f"{path.name}: off-lattice value")
    _require(bool(np.all(x >= 0.0)), f"{path.name}: negative fraction")
    _require(bool(np.all((x > 0.0).sum(axis=1) <= MAX_NONZERO)), f"{path.name}: too many non-zero")
    distinct = np.unique(np.round(ticks).astype(np.int64), axis=0).shape[0]
    _require(distinct == expected, f"{path.name}: {expected - distinct} duplicate rows")


def _check_picks(path: Path, top_k: int) -> None:
    picks = _read_table(path, [*COMPONENTS, "score"])
    _require(picks.shape[0] == top_k, f"{path.name}: {picks.shape[0]} picks, expected {top_k}")
    scores = picks[:, -1]
    _require(bool(np.all(np.isfinite(scores))), f"{path.name}: non-finite score")
    _require(bool(np.all(np.abs(scores) <= 1.0)), f"{path.name}: score outside [-1, 1]")
    _require(bool(np.all(np.diff(scores) <= 0.0)), f"{path.name}: scores not non-increasing")
    _require(bool(np.all(np.abs(picks[:, :-1].sum(axis=1) - 1.0) <= 1e-9)),
             f"{path.name}: a pick does not sum to 1")


def reference_knn_auc(inp: Inputs) -> float:
    """AUC of a 5-nearest-neighbour scorer on the workload's split: Z-scores
    from the training rows (population std, flat columns get 1), Euclidean
    distance with ties by training order, strict-inequality pair count."""
    if inp.knn_auc is None:
        xt = np.stack([s.fractions for s in inp.train_set])
        yt = np.array([s.y for s in inp.train_set], dtype=np.float64)
        xv = np.stack([s.fractions for s in inp.val_set])
        yv = np.array([s.y for s in inp.val_set])
        std = xt.std(axis=0)
        std[std <= 1e-12] = 1.0
        zt, zv = (xt - xt.mean(axis=0)) / std, (xv - xt.mean(axis=0)) / std
        d2 = (zv ** 2).sum(1)[:, None] + (zt ** 2).sum(1)[None, :] - 2.0 * zv @ zt.T
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :KNN_NEIGHBORS]
        scores = yt[nearest].mean(axis=1)
        others = np.sort(scores[yv != 1])
        wins = np.searchsorted(others, scores[yv == 1], side="left").sum()
        inp.knn_auc = float(wins / (others.size * (yv == 1).sum()))
    return inp.knn_auc


def check_train(inp: Inputs, out: Path, result, full: bool):
    params, _, history = result[0]
    epochs = [r.epoch for r in history.records]
    _require(epochs == list(range(1, TRAIN_EPOCHS + 1)), f"history epochs {epochs}")
    losses = np.array([r.mean_loss for r in history.records])
    _require(bool(np.all(np.isfinite(losses))), "non-finite training loss")
    best = max(r.val_auc for r in history.records)
    knn = reference_knn_auc(inp)
    _require(best > knn, f"best val AUC {best:.4f} does not beat KNN {knn:.4f}")
    digest = hashlib.sha256()
    for name, tensor in sorted(params.trainable().items()):
        digest.update(name.encode() + np.ascontiguousarray(tensor).tobytes())
    digest.update(np.ascontiguousarray(params.bn.running_mean).tobytes())
    digest.update(np.ascontiguousarray(params.bn.running_var).tobytes())
    digest.update(repr([(r.mean_loss, r.val_auc) for r in history.records]).encode())
    return digest.hexdigest(), {"train_best_val_auc": best, "knn_auc": knn}


def check_screen(inp: Inputs, out: Path, result, full: bool):
    _require(result == [0, 0], f"exit codes {result}")
    candidates, picks = out / "candidates.csv", out / "picks.csv"
    if full:
        _check_candidates(candidates, SCREEN_STEP)
        _check_picks(picks, SCREEN_TOP_K)
    return _sha(candidates) + _sha(picks), {}


def check_cli(inp: Inputs, out: Path, result, full: bool):
    _require(result == [0] * 5, f"exit codes {result}")
    for name in CLI_FILES:
        path = out / name
        _require(path.is_file() and path.stat().st_size > 0, f"{name} missing or empty")
    if full:
        raw = _read_table(inp.raw_csv, [*COMPONENTS, "Tg"])
        sums = raw[:, :-1].sum(axis=1)
        kept = int(np.sum((sums >= 0.95) & (sums <= 1.05) & np.all(raw[:, :-1] >= 0, axis=1)))
        data = _read_table(out / "data.csv", [*COMPONENTS, "Tg"])
        _require(data.shape[0] == kept, f"clean kept {data.shape[0]} rows, expected {kept}")
        with open(out / "model.ckpt.history.csv", encoding="utf-8") as fh:
            history_rows = len(fh.read().splitlines()) - 1
        _require(history_rows == CLI_EPOCHS, f"history has {history_rows} rows")
        for prefix in ("", "baseline_knn_"):
            summary = json.loads((out / "report" / f"{prefix}summary.json").read_text("utf-8"))
            auc = summary.get("auc")
            _require(isinstance(auc, float) and 0.0 <= auc <= 1.0, f"{prefix}summary auc {auc!r}")
        _check_candidates(out / "candidates.csv", CLI_STEP)
        _check_picks(out / "picks.csv", CLI_TOP_K)
    digest = _sha(out / "data.csv") + _sha(out / "model.ckpt") + _sha(out / "picks.csv")
    return digest, {}


# name -> (steps of one operation, output check of the step results)
WORKLOADS = {
    "train": (steps_train, check_train),
    "screen": (steps_screen, check_screen),
    "cli": (steps_cli, check_cli),
}
