"""Acceptance suite. Each test prints one PASS/FAIL line (run with -s to see
them) and enforces its stated tolerance.

The end-to-end synthetic run (shared by A3 and A8) trains the default
configuration with seed 42 on the 4,000-sample benchmark corpus; A3 also runs
on seed 7.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from glasscreen import baseline_knn, evaluation
from glasscreen.cli import EXIT_OK, main
from glasscreen.data_pipeline import (
    ComponentSchema,
    split,
    write_dataset,
)
from glasscreen.deepglassnet import (
    ArchConfig,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    tensor_views,
)
from glasscreen.evaluation import auc
from glasscreen.numeric_core import RandomSource
from glasscreen.synthetic import (
    SCHEMA,
    benchmark_dataset,
    generate_raw_samples,
    noise_free_tg,
)
from glasscreen.training import TrainConfig, backward, train, triplet_losses
from oracles import grad_check
from sample_tables import table


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# A1: gradient correctness


def _a1_error(batch_seed: int) -> float:
    """A1's worst relative finite-difference error on the 3-triplet batch
    drawn from RandomSource(batch_seed)."""
    arch = ArchConfig(n_components=4, embed_dim=3, adjacency_rank=2,
                      attention_dim=3, hidden_dim=5, feature_dim=2)
    params = init_params(arch, seed=3)
    params.b_out += 0.5     # stay off the zero-norm guard
    batch = RandomSource(batch_seed).normal(0.0, 1.0, size=(9, 4))  # 3 triplets

    _, trace = forward_batch(batch, params, mode="train")
    grads = tensor_views(arch, backward(trace, params))

    def loss_fn(_tensors):
        feats, _ = forward_batch(batch, params, mode="train")
        return float(triplet_losses(feats).mean())

    return grad_check(loss_fn, params.trainable(), grads, h=1e-5)


def test_a1_gradient_correctness():
    started = time.monotonic()
    err = _a1_error(11)
    elapsed = time.monotonic() - started
    _report("A1", err < 1e-4 and elapsed < 10.0,
            f"max relative gradient error {err:.3e} (tol 1e-4), {elapsed:.2f}s (limit 10s)")


def test_a1_holds_over_batch_seeds():
    errors = {seed: _a1_error(seed) for seed in range(40)}
    failed = sorted(seed for seed, err in errors.items() if not err < 1e-4)
    worst = max(errors, key=errors.get)
    _report("A1 sweep", not failed,
            f"{len(failed)}/40 batch seeds over tol 1e-4 {failed}, "
            f"worst {errors[worst]:.3e} at seed {worst}")


# ---------------------------------------------------------------------------
# A2: AUC oracle equivalence


def _auc_bruteforce(scores, labels):
    pos = [float(s) for s, y in zip(scores, labels) if y == 1]
    neg = [float(s) for s, y in zip(scores, labels) if y != 1]
    wins = sum(1 for sp in pos for sn in neg if sp > sn)
    return wins / (len(pos) * len(neg))


def test_a2_auc_equals_bruteforce_exactly():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    mismatches = 0
    for instance in range(50):
        scores = rng.normal(size=200)
        if instance % 2 == 0:
            scores = np.round(scores, 1)  # deliberate ties
        labels = rng.integers(0, 2, size=200)
        if labels.sum() in (0, 200):
            labels[0] = 1 - labels[0]
        if auc(scores, labels) != _auc_bruteforce(scores, labels):
            mismatches += 1
    elapsed = time.monotonic() - started
    _report("A2", mismatches == 0 and elapsed < 5.0,
            f"{50 - mismatches}/50 instances exactly equal, {elapsed:.2f}s (limit 5s)")


# ---------------------------------------------------------------------------
# A3 + A8: end-to-end synthetic screening and training dynamics


def _a3_recipe(seed: int) -> dict:
    """A3's end-to-end run with ``seed`` as both the split and the train seed."""
    samples, band = benchmark_dataset(4000)
    train_part, val_part = split(samples, 0.8, seed=seed)
    arch = ArchConfig(n_components=8)
    cfg = TrainConfig(seed=seed)  # defaults: 100 epochs, batch 256, lr 1e-3

    started = time.monotonic()
    params, stats, history = train(train_part, val_part, arch, cfg)
    runtime = time.monotonic() - started

    targets = train_part[train_part.y == 1]
    center = evaluation.class_center(targets, params, stats)
    dgn = evaluation.evaluate(val_part, params, stats, center, 50)
    knn = baseline_knn.knn_evaluate(train_part, val_part, stats,
                                    baseline_knn.KnnConfig(5), 50)
    return {
        "history": history, "dgn": dgn, "knn": knn, "runtime": runtime,
        "params": params, "stats": stats, "center": center, "band": band,
        "arch": arch, "train_part": train_part,
    }


@pytest.fixture(scope="module")
def synthetic_run():
    return _a3_recipe(42)


def test_a3_synthetic_screening(synthetic_run):
    dgn, knn = synthetic_run["dgn"], synthetic_run["knn"]
    runtime = synthetic_run["runtime"]
    ok = (dgn.auc >= 0.90 and dgn.precision_at_k >= 0.80
          and dgn.auc > knn.auc and runtime < 300.0)
    _report("A3", ok,
            f"val AUC {dgn.auc:.4f} (>= 0.90), P@50 {dgn.precision_at_k:.3f} (>= 0.80), "
            f"KNN AUC {knn.auc:.4f} (must be lower), runtime {runtime:.0f}s (limit 300s)")


def test_a3_synthetic_screening_on_weakest_seed():
    # of split/train seeds 42 and 0-7, seed 7 gives the lowest validation AUC
    run = _a3_recipe(7)
    dgn, knn, runtime = run["dgn"], run["knn"], run["runtime"]
    ok = (dgn.auc >= 0.90 and dgn.precision_at_k >= 0.80
          and dgn.auc > knn.auc and runtime < 300.0)
    _report("A3 seed 7", ok,
            f"val AUC {dgn.auc:.4f} (>= 0.90), P@50 {dgn.precision_at_k:.3f} (>= 0.80), "
            f"KNN AUC {knn.auc:.4f} (must be lower), runtime {runtime:.0f}s (limit 300s)")


def test_screen_ranks_known_target_first(synthetic_run, tmp_path):
    """End-to-end cmd_screen check: a strong in-band training composition must
    outrank random off-band candidates."""
    run = synthetic_run
    ckpt_path = tmp_path / "synthetic.ckpt"
    save_checkpoint(run["params"], run["arch"], run["stats"], run["band"],
                    ckpt_path, center=run["center"].vector)

    targets = run["train_part"][run["train_part"].y == 1]
    scores = evaluation.score(targets, run["params"], run["stats"], run["center"])
    strongest = targets.fractions[int(np.argmax(scores))]

    rng = RandomSource(505)
    off_band = []
    while len(off_band) < 20:
        x = rng.uniform(size=8)
        x = x / x.sum()
        tg = float(noise_free_tg(x)[0])
        if tg < run["band"].low - 80.0 or tg > run["band"].high + 80.0:
            off_band.append(x)

    candidates_path = tmp_path / "candidates.csv"
    with open(candidates_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SCHEMA.names) + "\n")
        for x in [strongest] + off_band:
            fh.write(",".join(repr(float(v)) for v in x) + "\n")

    out_path = tmp_path / "picks.csv"
    code = main(["screen", "--checkpoint", str(ckpt_path),
                 "--candidates", str(candidates_path),
                 "--top-k", "1", "--out", str(out_path)])
    assert code == EXIT_OK
    top_row = out_path.read_text().splitlines()[1].split(",")[:-1]
    assert np.allclose([float(v) for v in top_row], strongest)


def test_a8_training_dynamics(synthetic_run):
    records = synthetic_run["history"].records
    losses = [r.mean_loss for r in records]

    def smoothed(index):
        window = losses[max(0, index - 4):index + 1]
        return sum(window) / len(window)

    first, last = smoothed(0), smoothed(len(losses) - 1)
    best_auc = max(r.val_auc for r in records)
    first_auc = records[0].val_auc
    ok = last < first and best_auc > first_auc
    _report("A8", ok,
            f"smoothed loss {first:.4f} -> {last:.4f} (must fall), "
            f"val AUC epoch1 {first_auc:.4f} -> best {best_auc:.4f} (must rise)")


# ---------------------------------------------------------------------------
# A4: structural invariants


def test_a4_structural_invariants():
    arch = ArchConfig(n_components=6)
    worst = {"symmetry": 0.0, "diagonal": 0.0, "attention": 0.0, "norm": 0.0}
    passes = 0
    for param_seed in range(5):
        params = init_params(arch, seed=param_seed)
        rng = RandomSource(1000 + param_seed)
        x = np.stack([rng.normal(0.0, 1.0, size=6) for _ in range(200)])
        features, trace = forward_batch(x, params)
        vhat = trace.constants.unit_factors
        a = vhat @ vhat.T  # the interaction graph
        worst["symmetry"] = max(worst["symmetry"], float(np.max(np.abs(a - a.T))))
        worst["diagonal"] = max(worst["diagonal"], float(np.max(np.abs(np.diag(a) - 1.0))))
        # the attention is held as (n, B n): each column is one softmax row
        worst["attention"] = max(worst["attention"],
                                 float(np.max(np.abs(trace.attention.sum(axis=0) - 1.0))))
        worst["norm"] = max(worst["norm"],
                            float(np.max(np.abs(np.linalg.norm(features, axis=1) - 1.0))))
        passes += features.shape[0]
    ok = passes == 1000 and all(v < 1e-12 for v in worst.values())
    _report("A4", ok,
            f"{passes} forward rows; worst errors: symmetry {worst['symmetry']:.2e}, "
            f"diagonal {worst['diagonal']:.2e}, attention {worst['attention']:.2e}, "
            f"norm {worst['norm']:.2e} (all < 1e-12)")


# ---------------------------------------------------------------------------
# A5: loss anchor values


def test_a5_loss_anchor_values():
    f = np.array([1.0, 0.0])
    orthogonal = np.array([0.0, 1.0])
    # two triplets stacked as [anchors | positives | negatives]
    equal_case, separated_case = triplet_losses(
        np.stack([f, f, orthogonal, f, orthogonal, -f]))
    err_equal = abs(equal_case - math.log(2.0))
    err_sep = abs(separated_case - math.log(1.0 + math.exp(-2.0)))
    _report("A5", err_equal < 1e-12 and err_sep < 1e-12,
            f"ln2 error {err_equal:.2e}, ln(1+e^-2) error {err_sep:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# A6: determinism of cmd_train and checkpoint round trip


def test_a6_determinism(tmp_path):
    data_path = tmp_path / "bench.csv"
    raw = generate_raw_samples(n_samples=300, seed=5, sum_jitter=0.02)
    write_dataset(data_path, SCHEMA, raw)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "epochs": 3, "batch_size": 32, "precision_k": 10, "seed": 11,
        "embed_dim": 8, "hidden_dim": 16, "attention_dim": 8, "feature_dim": 4,
    }), encoding="utf-8")
    tgs = sorted(raw.tg.tolist())
    band_arg = f"{tgs[len(tgs) // 3]:.1f}:{tgs[2 * len(tgs) // 3]:.1f}"

    checkpoints = []
    for name in ("run1.ckpt", "run2.ckpt"):
        out = tmp_path / name
        code = main(["train", "--data", str(data_path), "--config", str(config_path),
                     "--band", band_arg, "--out", str(out)])
        assert code == EXIT_OK
        checkpoints.append(out.read_bytes())
    identical = checkpoints[0] == checkpoints[1]

    ckpt = load_checkpoint(tmp_path / "run1.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(ckpt.params, ckpt.params.arch, ckpt.stats, ckpt.band, resaved,
                    center=ckpt.center)
    round_trip = resaved.read_bytes() == checkpoints[0]

    _report("A6", identical and round_trip,
            f"two cmd_train runs identical: {identical}; "
            f"load->save byte-identical: {round_trip}")


# ---------------------------------------------------------------------------
# A7: data-pipeline fidelity (conditional extract check is informational)


def test_a7_clean_predicate_fidelity(tmp_path):
    names = tuple(f"X{i:02d}" for i in range(18))
    schema = ComponentSchema(names)
    rng = RandomSource(99)
    rows = []
    for i in range(500):
        x = rng.uniform(size=18)
        x = x / x.sum() * (0.85 + 0.3 * rng.uniform())  # sums spread over [0.85, 1.15]
        tg = None if i % 7 == 0 else 300.0 + 500.0 * rng.uniform()
        rows.append((x, tg))
    src = tmp_path / "sciglass_like.csv"
    write_dataset(src, schema, table([x for x, _ in rows], [tg for _, tg in rows]))
    out = tmp_path / "cleaned.csv"
    assert main(["clean", "--input", str(src), "--output", str(out)]) == EXIT_OK

    kept_rows = out.read_text().splitlines()[1:]
    expected = [x for x, tg in rows
                if tg is not None and 0.95 <= float(x.sum()) <= 1.05]
    predicate_exact = len(kept_rows) == len(expected)
    if predicate_exact:
        for line, x in zip(kept_rows, expected):
            cells = line.split(",")
            if not np.allclose([float(c) for c in cells[:-1]], x, rtol=0, atol=0):
                predicate_exact = False
                break

    extract = os.environ.get("SCIGLASS_CSV")
    note = "real-extract count check skipped (set SCIGLASS_CSV to enable)"
    if extract:
        cleaned = tmp_path / "extract_clean.csv"
        main(["clean", "--input", extract, "--output", str(cleaned)])
        count = len(cleaned.read_text().splitlines()) - 1
        note = f"real extract kept {count} rows (35,176 expected; informational)"

    _report("A7", predicate_exact,
            f"kept exactly the sum-and-label rows ({len(kept_rows)}/500); {note}")
