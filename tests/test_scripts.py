"""Smoke tests: the scripts under scripts/ run end to end as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

from glasscreen.deepglassnet import CHECKPOINT_MAGIC
from glasscreen.synthetic import SCHEMA

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def first_line(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


def test_make_synthetic_data(tmp_path):
    out = tmp_path / "raw.csv"
    proc = run_script("make_synthetic_data.py", "--samples", "400", "--out", str(out),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert first_line(out) == ",".join(SCHEMA.names) + ",Tg"
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 400


def test_run_synthetic_experiment(tmp_path):
    out_dir = tmp_path / "out"
    proc = run_script("run_synthetic_experiment.py", "--samples", "400", "--epochs", "1",
                      "--precision-k", "10", "--out-dir", str(out_dir), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    headers = {
        "history.csv": "epoch,mean_loss,val_auc,val_precision_at_k",
        "scores.csv": "index,score,label,tg",
        "roc.csv": "fpr,tpr",
        "baseline_knn_scores.csv": "index,score,label,tg",
        "baseline_knn_roc.csv": "fpr,tpr",
    }
    for name, header in headers.items():
        assert first_line(out_dir / name) == header, name
    assert (out_dir / "model.ckpt").read_bytes().startswith(CHECKPOINT_MAGIC)
    summaries = {name: json.loads((out_dir / name).read_text(encoding="utf-8"))
                 for name in ("summary.json", "baseline_knn_summary.json")}
    for label, summary in (("encoder ", summaries["summary.json"]),
                           ("knn(k=5)", summaries["baseline_knn_summary.json"])):
        assert f"{label}: AUC {summary['auc']:.4f}  P@10 {summary['precision_at_k']:.3f}" \
            in proc.stdout.splitlines()
    assert json.loads((out_dir / "config.json").read_text(encoding="utf-8")) == \
        {"epochs": 1, "precision_k": 10}
    assert first_line(out_dir / "data.csv") == ",".join(SCHEMA.names) + ",Tg"
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [*headers, *summaries, "model.ckpt", "data.csv", "config.json"])
