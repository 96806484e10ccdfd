"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from glasscreen import baseline_knn, data_pipeline  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return workloads.set_up(3, tmp_path_factory.mktemp("setup"))


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload, output, span", [
    ("screen", "picks.csv", "cli.screen"),
    ("cli", "model.ckpt", "cli.train"),
])
def test_tracing_changes_no_output_bytes(inputs, tmp_path, workload, output, span):
    steps, check = workloads.WORKLOADS[workload]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    originals = {(owner, attr): getattr(owner, attr)
                 for sites in tracing.SITES.values() for owner, attr in sites}

    check(inputs, plain, [step() for step in steps(inputs, plain)], True)
    tracer = tracing.Tracer()
    with tracer.operation("op"):
        result = [step() for step in steps(inputs, traced)]
    check(inputs, traced, result, True)

    assert _sha(plain / output) == _sha(traced / output)
    assert tracer.totals()[span]["calls"] == 1
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["cli.screen", 1.0, 9.0, 0, 0, None],
        ["data_pipeline.load_candidates", 2.0, 4.0, 1, 0, 100],
        ["deepglassnet.eval_features", 5.0, 8.0, 1, 0, 100],
    ]
    totals = tracer.totals()
    assert totals["cli.screen"]["s"] == 8.0
    assert totals["cli.screen"]["self_s"] == 3.0
    assert totals["op"]["self_s"] == 2.0
    assert totals["deepglassnet.eval_features"]["rows"] == 100


def test_lattice_sizes():
    assert workloads.lattice_size(8, 0.05, 4) == 77_946
    assert workloads.lattice_size(8, 0.1, 4) == 8_156


def _run_screen(inputs, out):
    steps, check = workloads.WORKLOADS["screen"]
    assert [step() for step in steps(inputs, out)] == [0, 0]
    return check


def test_picks_check_rejects_unordered_scores(inputs, tmp_path):
    check = _run_screen(inputs, tmp_path)
    lines = (tmp_path / "picks.csv").read_text(encoding="utf-8").splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    (tmp_path / "picks.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(workloads.CheckFailed, match="non-increasing"):
        check(inputs, tmp_path, [0, 0], True)


def test_candidates_check_rejects_a_missing_row(inputs, tmp_path):
    check = _run_screen(inputs, tmp_path)
    lines = (tmp_path / "candidates.csv").read_text(encoding="utf-8").splitlines()
    (tmp_path / "candidates.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(workloads.CheckFailed, match="rows, expected 77946"):
        check(inputs, tmp_path, [0, 0], True)


def test_reference_knn_auc_matches_the_package_baseline(inputs):
    stats = data_pipeline.fit_normalization(inputs.train_set)
    report = baseline_knn.knn_evaluate(inputs.train_set, inputs.val_set, stats,
                                       baseline_knn.KnnConfig(workloads.KNN_NEIGHBORS), 50)
    assert workloads.reference_knn_auc(inputs) == pytest.approx(report.auc, abs=1e-12)


def test_benchmark_json_declares_every_metric(inputs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in declared["end_to_end"]} == {"op_s", "setup_s", "peak_rss_mb"}
    arch = inputs.train_run.arch_config(len(workloads.COMPONENTS))
    produced = tracing.layer_metrics(tracing.Tracer(), arch, inputs.train_run.batch_size, 2.0, 1.0)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in produced.items()}


def test_empty_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
