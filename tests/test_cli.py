import csv
import json
import logging
import math
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glasscreen import cli
from glasscreen.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    RunConfig,
    atomic_path,
    main,
)
from glasscreen.data_pipeline import (
    ComponentSchema,
    GridConfig,
    NormalizationStats,
    TgBand,
    clean_with_counts,
    enumerate_candidates,
    load_candidates,
    load_dataset,
    normalize,
    split,
    transform_labels,
    write_dataset,
)
from glasscreen.deepglassnet import (
    ArchConfig,
    eval_features,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from glasscreen.numeric_core import RandomSource
from glasscreen.training import train
from oracles import scalar_normal
from sample_tables import table

SCHEMA = ComponentSchema(("A", "B", "C"))
FIXTURES = Path(__file__).parent / "fixtures"

SMALL_CONFIG = {
    "embed_dim": 4,
    "adjacency_rank": 2,
    "attention_dim": 4,
    "hidden_dim": 8,
    "feature_dim": 4,
    "epochs": 2,
    "batch_size": 16,
    "precision_k": 5,
    "seed": 3,
}


def make_table(path, n_rows=150, seed=0):
    """Composition/Tg table whose labels straddle the 500:600 band."""
    rng = RandomSource(seed)
    fractions, tgs = [], []
    for _ in range(n_rows):
        x = rng.uniform(size=3)
        x = x / x.sum()
        fractions.append(x)
        tgs.append(float(380.0 + 420.0 * x[0] + scalar_normal(rng, 0.0, 15.0)))
    write_dataset(path, SCHEMA, table(fractions, tgs))
    return path


def write_config(path, **overrides):
    payload = dict(SMALL_CONFIG)
    payload.update(overrides)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture
def workdir(tmp_path):
    data = make_table(tmp_path / "data.csv")
    config = write_config(tmp_path / "config.json")
    return tmp_path, data, config


def run_train(tmp_path, data, config, out_name="model.ckpt"):
    out = tmp_path / out_name
    code = main(["train", "--data", str(data), "--config", str(config),
                 "--band", "500:600", "--out", str(out)])
    assert code == EXIT_OK
    return out


# numpy's overflow warnings ignored (scores come out nan) or raised (as under
# python -W error): each is exit 4 with nothing written
RUNTIME_WARNING_ACTIONS = pytest.mark.parametrize("action", [
    pytest.param(action, marks=pytest.mark.filterwarnings(f"{action}::RuntimeWarning"))
    for action in ("error", "ignore")])


def small_checkpoint(path, embedding_scale=1.0):
    """A checkpoint of an untrained 3-component model. At an embedding_scale
    of 1e200 its values are finite, but the attention scores overflow, so
    every feature and score comes out nan."""
    arch = ArchConfig(n_components=3, embed_dim=4, adjacency_rank=2,
                      attention_dim=4, hidden_dim=8, feature_dim=4)
    params = init_params(arch, seed=0)
    params.embeddings[...] *= embedding_scale
    stats = NormalizationStats(mean=np.full(3, 1 / 3), std=np.full(3, 0.2))
    save_checkpoint(params, arch, stats, TgBand(500.0, 600.0), path, center=np.full(4, 0.5))
    return path


# a DGNCKPT1 or DGNCKPT2 file: eval and screen exit 3 naming the file, and
# write nothing
@pytest.mark.parametrize("command", ["eval", "screen"])
@pytest.mark.parametrize("fixture", ["v1_zero_bias.ckpt", "v2_tiny.ckpt"], ids=["v1", "v2"])
def test_unread_checkpoint_is_data_error(tmp_path, monkeypatch, caplog, command, fixture):
    monkeypatch.chdir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes((FIXTURES / fixture).read_bytes())
    argv = (["eval", "--data", "data.csv", "--report-dir", "report"] if command == "eval"
            else ["screen", "--candidates", "c.csv", "--out", "picks.csv"])
    assert main(argv + ["--checkpoint", ckpt.name]) == EXIT_DATA
    assert f"{ckpt.name}: " in caplog.text
    assert "older formats are no longer read: retrain the model" in caplog.text
    assert list(tmp_path.iterdir()) == [ckpt]


# an input or output path under a regular file is a data error that writes nothing
@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "model.ckpt", "--data", "data.csv", "--k", "5",
     "--report-dir", "data.csv"],
    ["enumerate", "--components", "A,B", "--step", "0.5", "--out", "data.csv/x.csv"],
    ["clean", "--input", "data.csv/x.csv", "--output", "out.csv"],
    ["clean", "--input", "data.csv", "--output", "out.csv", "--config", "data.csv/c.json"],
], ids=["eval-report-dir", "enumerate-out", "clean-input", "config"])
def test_path_under_a_file_is_data_error(tmp_path, monkeypatch, caplog, argv):
    monkeypatch.chdir(tmp_path)
    make_table(tmp_path / "data.csv")
    small_checkpoint(tmp_path / "model.ckpt")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == EXIT_DATA
    assert "data error: " in caplog.text
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestClean:
    def test_counts_and_content(self, tmp_path, caplog):
        rows = table([
            [0.5, 0.3, 0.2],   # kept
            [0.2, 0.2, 0.2],   # bad sum
            [0.5, 0.5, 0.04],  # kept
            [0.8, 0.8, 0.2],   # bad sum
            [0.4, 0.3, 0.3],   # missing Tg
            [0.4, 0.3, 0.3],   # non-finite Tg
        ], [520.0, 520.0, 550.0, 520.0, None, np.nan])
        src = tmp_path / "raw.csv"
        write_dataset(src, SCHEMA, rows)
        out = tmp_path / "clean.csv"
        with caplog.at_level(logging.INFO, logger="glasscreen"):
            code = main(["clean", "--input", str(src), "--output", str(out)])
        assert code == EXIT_OK
        assert "read=6" in caplog.text
        assert "kept=2" in caplog.text
        assert "dropped_by_sum=2" in caplog.text
        assert "dropped_missing_tg=1" in caplog.text
        assert "dropped_non_finite=1" in caplog.text
        assert len(out.read_text().splitlines()) == 3  # header + 2 rows

    def test_reclean_is_idempotent(self, tmp_path):
        src = make_table(tmp_path / "raw.csv")
        first = tmp_path / "once.csv"
        second = tmp_path / "twice.csv"
        assert main(["clean", "--input", str(src), "--output", str(first)]) == EXIT_OK
        assert main(["clean", "--input", str(first), "--output", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["clean", "--input", str(tmp_path / "none.csv"),
                     "--output", str(tmp_path / "out.csv")])
        assert code == EXIT_DATA

    # the sum band has one source, the config: clean has no flag for it
    @pytest.mark.parametrize("flag", ["--min-sum", "--max-sum"])
    def test_sum_flag_is_unrecognized(self, tmp_path, capsys, flag):
        src = make_table(tmp_path / "raw.csv")
        out = tmp_path / "out.csv"
        code = main(["clean", "--input", str(src), "--output", str(out), flag, "0.9"])
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 0.9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values, message", [
        ({"min_sum": 1.1, "max_sum": 1.0}, "min_sum exceeds max_sum"),
        ({"max_sum": math.inf}, "min_sum and max_sum must be finite, got 0.95 and inf"),
        ({"min_sum": -math.inf}, "min_sum and max_sum must be finite, got -inf and 1.05")],
        ids=["inverted", "infinite", "negative-infinite"])
    def test_bad_sum_band_in_config_is_usage_error(self, tmp_path, caplog, values, message):
        src = make_table(tmp_path / "raw.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values), encoding="utf-8")  # json writes inf as Infinity
        out = tmp_path / "out.csv"
        code = main(["clean", "--input", str(src), "--output", str(out),
                     "--config", str(config)])
        assert code == EXIT_USAGE
        assert f"config error: {message}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("key", ["min_sum", "max_sum"])
    def test_non_finite_sum_in_config_is_usage_error(self, tmp_path, key):
        src = make_table(tmp_path / "raw.csv")
        config = tmp_path / "config.json"
        config.write_text(f'{{"{key}": NaN}}', encoding="utf-8")  # json reads NaN
        out = tmp_path / "out.csv"
        code = main(["clean", "--input", str(src), "--output", str(out),
                     "--config", str(config)])
        assert code == EXIT_USAGE
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_history(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        assert out.exists()
        history = (str(out) + ".history.csv")
        lines = Path(history).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,mean_loss,val_auc,val_precision_at_k"
        assert len(lines) == 1 + SMALL_CONFIG["epochs"]  # one row per epoch

    def test_history_rows_are_the_returned_records(self, workdir, monkeypatch):
        tmp_path, data, config = workdir
        returned = []

        def recording_train(*args):
            returned.append(train(*args))
            return returned[-1]

        monkeypatch.setattr(cli, "train", recording_train)
        out = run_train(tmp_path, data, config)
        lines = Path(f"{out}.history.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [f"{r.epoch},{r.mean_loss!r},{r.val_auc!r},{r.val_precision_at_k!r}"
                             for r in returned[0][2].records]

    def test_checkpoint_path_that_is_a_directory_writes_nothing(self, workdir, caplog):
        tmp_path, data, config = workdir
        out = tmp_path / "outdir"
        out.mkdir()
        before = set(tmp_path.iterdir())
        code = main(["train", "--data", str(data), "--config", str(config), "--band",
                     "500:600", "--out", str(out)])
        assert code == EXIT_DATA
        assert set(tmp_path.iterdir()) == before
        assert list(out.iterdir()) == []
        assert f"data error: {out}: is a directory" in caplog.text

    # the outputs are taken before the data is read, so such a run fails at once
    @pytest.mark.parametrize("outputs", [
        ["--out", "outdir"], ["--out", "m.ckpt", "--history", "outdir"]], ids=["out", "history"])
    def test_output_that_is_a_directory_fails_before_training(self, workdir, monkeypatch,
                                                               outputs):
        tmp_path, data, config = workdir
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        before = set(tmp_path.iterdir())
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("train ran"))
        assert main(["train", "--data", str(data), "--config", str(config), "--band",
                     "500:600", *outputs]) == EXIT_DATA
        assert set(tmp_path.iterdir()) == before

    def test_failed_run_leaves_no_directory_it_made(self, workdir, caplog):
        tmp_path, data, config = workdir
        before = set(tmp_path.iterdir())
        code = main(["train", "--data", str(data), "--config", str(config), "--band", "0:1",
                     "--out", str(tmp_path / "new" / "sub" / "m.ckpt")])
        assert code == EXIT_DATA
        assert "both label classes are required" in caplog.text
        assert set(tmp_path.iterdir()) == before

    def test_band_stored_in_checkpoint(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        ckpt = load_checkpoint(out)
        assert (ckpt.band.low, ckpt.band.high) == (500.0, 600.0)
        assert ckpt.center.shape == (SMALL_CONFIG["feature_dim"],)

    @pytest.mark.parametrize("band, bounds", [
        ("500:inf", (500.0, np.inf)), ("-inf:500", (-np.inf, 500.0))])
    def test_open_band_checkpoint_serves_eval_and_screen(self, workdir, band, bounds):
        tmp_path, data, config = workdir
        out = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(data), "--config", str(config),
                     f"--band={band}", "--out", str(out)]) == EXIT_OK
        assert (load_checkpoint(out).band.low, load_checkpoint(out).band.high) == bounds
        assert main(["eval", "--checkpoint", str(out), "--data", str(data), "--config",
                     str(config), "--report-dir", str(tmp_path / "report"),
                     "--k", "5"]) == EXIT_OK
        candidates = TestScreen().make_candidates(tmp_path)
        assert main(["screen", "--checkpoint", str(out), "--candidates", str(candidates),
                     "--top-k", "5", "--out", str(tmp_path / "ranked.csv")]) == EXIT_OK

    def test_deterministic_checkpoints(self, workdir):
        tmp_path, data, config = workdir
        first = run_train(tmp_path, data, config, "a.ckpt")
        second = run_train(tmp_path, data, config, "b.ckpt")
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("band, reason", [
        ("600:500", "band requires low < high, got [600.0, 500.0)"),
        ("abc", "could not convert string to float: 'abc'")], ids=["reversed", "not-numbers"])
    def test_bad_band_is_usage_error_with_its_reason(self, workdir, caplog, band, reason):
        tmp_path, data, config = workdir
        out = tmp_path / "x.ckpt"
        code = main(["train", "--data", str(data), "--config", str(config),
                     "--band", band, "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"got {band!r} ({reason})" in caplog.text
        assert not out.exists()

    def test_train_re_cleans_by_the_sum_band_clean_used(self, tmp_path, caplog):
        # one config is the one source of the sum band: a band wider than the
        # default keeps, in train, every row clean wrote
        src = make_table(tmp_path / "raw.csv")
        raw, _ = load_dataset(src)
        scale = np.where(np.arange(len(raw)) % 2, 1.08, 1.0)  # half the rows sum to 1.08
        write_dataset(src, SCHEMA, table(raw.fractions * scale[:, None], raw.tg))
        config = write_config(tmp_path / "wide.json", min_sum=0.9, max_sum=1.1)
        data = tmp_path / "data.csv"
        assert main(["clean", "--input", str(src), "--output", str(data),
                     "--config", str(config)]) == EXIT_OK
        assert main(["train", "--data", str(data), "--config", str(config), "--band",
                     "500:600", "--out", str(tmp_path / "model.ckpt")]) == EXIT_OK
        assert "loaded 150 rows, 150 kept after cleaning" in caplog.text
        # the default band would drop the scaled half
        assert clean_with_counts(load_dataset(data)[0], 0.95, 1.05)[1].kept == 75

    # the Tg band has one source, --band: the config has no key for it
    def test_band_in_config_is_unknown_key(self, workdir, caplog):
        tmp_path, data, _ = workdir
        config = write_config(tmp_path / "band.json", band_low=500.0, band_high=600.0)
        out = tmp_path / "model.ckpt"
        code = main(["train", "--data", str(data), "--config", str(config),
                     "--band", "500:600", "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"{config}: unknown config keys: band_high, band_low" in caplog.text
        assert not out.exists()

    def test_missing_band_is_usage_error(self, workdir, capsys):
        tmp_path, data, config = workdir
        out = tmp_path / "x.ckpt"
        code = main(["train", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert code == EXIT_USAGE
        assert "the following arguments are required: --band" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("history", ["model.ckpt", "sub/../model.ckpt"])
    def test_history_at_checkpoint_path_is_usage_error(self, workdir, history):
        tmp_path, data, config = workdir
        out = tmp_path / "model.ckpt"
        code = main(["train", "--data", str(data), "--config", str(config), "--band",
                     "500:600", "--out", str(out), "--history", str(tmp_path / history)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_unwritable_history_leaves_no_checkpoint(self, workdir, caplog):
        tmp_path, data, config = workdir
        before = set(tmp_path.iterdir())
        code = main(["train", "--data", str(data), "--config", str(config), "--band",
                     "500:600", "--out", str(tmp_path / "model.ckpt"),
                     "--history", str(config / "h.csv")])
        assert code == EXIT_DATA
        assert "data error: " in caplog.text
        assert set(tmp_path.iterdir()) == before

    def test_unknown_config_key_is_usage_error(self, workdir):
        tmp_path, data, _ = workdir
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epochs": 2, "learning_rate_typo": 0.1}))
        code = main(["train", "--data", str(data), "--config", str(bad),
                     "--band", "500:600", "--out", str(tmp_path / "x.ckpt")])
        assert code == EXIT_USAGE


class TestEval:
    def test_report_files(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        report_dir = tmp_path / "report"
        code = main(["eval", "--checkpoint", str(out), "--data", str(data),
                     "--config", str(config), "--report-dir", str(report_dir), "--k", "5"])
        assert code == EXIT_OK
        summary = json.loads((report_dir / "summary.json").read_text())
        assert 0.0 <= summary["auc"] <= 1.0
        assert summary["k"] == 5
        assert summary["band_low"] == 500.0 and summary["band_high"] == 600.0
        assert (report_dir / "scores.csv").exists() and (report_dir / "roc.csv").exists()

    @pytest.mark.parametrize("band, ends", [("500:inf", [500.0, None]),
                                            ("-inf:500", [None, 500.0])])
    def test_open_band_summary_is_strict_json(self, workdir, band, ends):
        tmp_path, data, config = workdir
        out = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(data), "--config", str(config),
                     f"--band={band}", "--out", str(out)]) == EXIT_OK
        report_dir = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(out), "--data", str(data), "--config",
                     str(config), "--report-dir", str(report_dir), "--k", "5"]) == EXIT_OK

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        text = (report_dir / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(text, parse_constant=refuse)
        assert [summary["band_low"], summary["band_high"]] == ends

    @pytest.mark.parametrize("directory", ["summary.json", "baseline_knn_summary.json"])
    def test_report_path_that_is_a_directory_writes_no_report(self, workdir, caplog,
                                                              directory):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        report_dir = tmp_path / "report"
        (report_dir / directory).mkdir(parents=True)
        code = main(["eval", "--checkpoint", str(out), "--data", str(data), "--config",
                     str(config), "--report-dir", str(report_dir), "--k", "5",
                     "--with-knn-baseline"])
        assert code == EXIT_DATA
        assert [p.name for p in report_dir.iterdir()] == [directory]
        assert f"data error: {report_dir / directory}: is a directory" in caplog.text

    def test_report_path_that_is_a_directory_fails_before_any_read(self, tmp_path,
                                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "report" / "roc.csv").mkdir(parents=True)
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: pytest.fail("read"))
        assert main(["eval", "--checkpoint", "model.ckpt", "--data", "data.csv",
                     "--report-dir", "report"]) == EXIT_DATA
        assert [p.name for p in (tmp_path / "report").iterdir()] == ["roc.csv"]

    def test_rerun_is_bitwise_identical(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for rd in (r1, r2):
            assert main(["eval", "--checkpoint", str(out), "--data", str(data),
                         "--config", str(config), "--report-dir", str(rd), "--k", "5"]) == EXIT_OK
        for name in ("scores.csv", "roc.csv", "summary.json"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()

    def test_component_mismatch_is_data_error(self, workdir, tmp_path, caplog):
        _, data, config = workdir
        other = tmp_path / "wide.csv"
        wide_schema = ComponentSchema(("A", "B", "C", "D"))
        rows = table([[0.25, 0.25, 0.25, 0.25]], [550.0])
        write_dataset(other, wide_schema, rows)
        out = run_train(tmp_path, data, config)
        code = main(["eval", "--checkpoint", str(out), "--data", str(other),
                     "--config", str(config), "--report-dir", str(tmp_path / "rep")])
        assert code == EXIT_DATA
        assert f"{other} has 4 components but the checkpoint expects 3" in caplog.text
        assert not (tmp_path / "rep").exists()

    @RUNTIME_WARNING_ACTIONS
    def test_non_finite_scores_are_numeric_failure(self, workdir, action):
        tmp_path, data, config = workdir
        ckpt = small_checkpoint(tmp_path / "overflow.ckpt", 1e200)
        report_dir = tmp_path / "report"
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--config", str(config), "--report-dir", str(report_dir), "--k", "5"])
        assert code == EXIT_NUMERIC
        assert not report_dir.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_usage_error(self, tmp_path, monkeypatch, k):
        # the inputs do not exist, so reading any of them first would be a data error
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--checkpoint", "model.ckpt", "--data", "data.csv",
                     "--report-dir", "report", "--k", k]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_scores_against_the_stored_center_on_another_seed(self, workdir):
        tmp_path, data, config = workdir
        out = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(data), "--config", str(config), "--band", "500:600",
                     "--seed", "42", "--out", str(out)]) == EXIT_OK
        report_dir = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(out), "--data", str(data), "--config",
                     str(config), "--seed", "7", "--report-dir", str(report_dir),
                     "--k", "5"]) == EXIT_OK
        ckpt = load_checkpoint(out)
        cleaned, _ = clean_with_counts(load_dataset(data)[0], 0.95, 1.05)
        _, val_part = split(transform_labels(cleaned, ckpt.band), 0.8, 7)
        expected = eval_features(normalize(val_part.fractions, ckpt.stats), ckpt.params) \
            @ ckpt.center
        with open(report_dir / "scores.csv", newline="", encoding="utf-8") as fh:
            scores = [float(row["score"]) for row in csv.DictReader(fh)]
        assert scores == expected.tolist()

    def test_knn_baseline_reports(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        rd = tmp_path / "rep"
        code = main(["eval", "--checkpoint", str(out), "--data", str(data),
                     "--config", str(config), "--report-dir", str(rd), "--k", "5",
                     "--with-knn-baseline"])
        assert code == EXIT_OK
        assert (rd / "baseline_knn_summary.json").exists()
        assert (rd / "baseline_knn_scores.csv").exists()
        assert (rd / "baseline_knn_roc.csv").exists()

    def test_failing_knn_baseline_writes_no_report(self, workdir, caplog):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        knn_config = write_config(tmp_path / "knn.json", k_neighbors=500)
        rd = tmp_path / "rep"
        code = main(["eval", "--checkpoint", str(out), "--data", str(data),
                     "--config", str(knn_config), "--report-dir", str(rd), "--k", "5",
                     "--with-knn-baseline"])
        assert code == EXIT_DATA
        assert re.search(r"k_neighbors=500 exceeds training size \d+", caplog.text)
        assert not rd.exists()


class TestScreen:
    def make_candidates(self, tmp_path, rows=20, seed=5):
        rng = RandomSource(seed)
        path = tmp_path / "candidates.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("A,B,C\n")
            for _ in range(rows):
                x = rng.uniform(size=3)
                x = x / x.sum()
                fh.write(",".join(repr(float(v)) for v in x) + "\n")
        return path

    def test_top_k_output(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        candidates = self.make_candidates(tmp_path)
        ranked = tmp_path / "ranked.csv"
        code = main(["screen", "--checkpoint", str(out), "--candidates", str(candidates),
                     "--top-k", "5", "--out", str(ranked)])
        assert code == EXIT_OK
        lines = ranked.read_text().splitlines()
        assert lines[0] == "A,B,C,score"
        assert len(lines) == 6
        scores = [float(line.split(",")[-1]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        for line in lines[1:]:  # compositions pass through unchanged
            total = sum(float(v) for v in line.split(",")[:-1])
            assert abs(total - 1.0) < 1e-9

    def test_quoted_header_reads_back(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        names = ["Si,O2", 'Al"2O3', "C"]
        candidates = self.make_candidates(tmp_path)
        rows = candidates.read_text().splitlines()[1:]
        with open(candidates, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(names)
            fh.write("\n".join(rows) + "\n")
        ranked = tmp_path / "ranked.csv"
        code = main(["screen", "--checkpoint", str(out), "--candidates", str(candidates),
                     "--top-k", "5", "--out", str(ranked)])
        assert code == EXIT_OK
        with open(ranked, newline="", encoding="utf-8") as fh:
            read = list(csv.reader(fh))
        assert read[0] == names + ["score"]
        assert [len(row) for row in read] == [4] * 6

    def test_top_k_exceeding_count_is_data_error(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        candidates = self.make_candidates(tmp_path, rows=3)
        code = main(["screen", "--checkpoint", str(out), "--candidates", str(candidates),
                     "--top-k", "10", "--out", str(tmp_path / "ranked.csv")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_top_k_below_one_is_usage_error(self, tmp_path, monkeypatch, k):
        # the inputs do not exist, so reading any of them first would be a data error
        monkeypatch.chdir(tmp_path)
        assert main(["screen", "--checkpoint", "model.ckpt", "--candidates", "c.csv",
                     "--top-k", k, "--out", "picks.csv"]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    # a narrower or wider table, and a one-column one, which no schema takes:
    # each names the file and writes no picks
    def test_schema_mismatch_is_data_error(self, workdir, caplog):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        bad, ranked = tmp_path / "bad.csv", tmp_path / "ranked.csv"
        for text, message in [
                ("A,B\n0.5,0.5\n", f"{bad} has 2 components but the checkpoint expects 3"),
                ("A,B,C,D\n0.25,0.25,0.25,0.25\n", f"{bad} has 4 components"),
                ("A\n1.0\n", f"{bad}: schema needs at least 2 components")]:
            bad.write_text(text, encoding="utf-8")
            caplog.clear()
            code = main(["screen", "--checkpoint", str(out), "--candidates", str(bad),
                         "--top-k", "1", "--out", str(ranked)])
            assert code == EXIT_DATA
            assert message in caplog.text
            assert not ranked.exists()

    def test_non_finite_candidate_is_data_error(self, workdir, caplog):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B,C\n0.5,0.3,0.2\n0.5,nan,0.5\n", encoding="utf-8")
        ranked = tmp_path / "ranked.csv"
        code = main(["screen", "--checkpoint", str(out), "--candidates", str(bad),
                     "--top-k", "1", "--out", str(ranked)])
        assert code == EXIT_DATA
        assert "row 2" in caplog.text
        assert not ranked.exists()

    @pytest.mark.parametrize("bad_row", ["-3.0,2.0,2.0", "0.2,0.1,0.1", "0.6,0.3,0.2"])
    def test_off_simplex_candidate_is_data_error(self, workdir, caplog, bad_row):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"A,B,C\n0.5,0.3,0.2\n{bad_row}\n0.2,0.2,0.2\n", encoding="utf-8")
        ranked = tmp_path / "ranked.csv"
        args = ["screen", "--checkpoint", str(out), "--candidates", str(bad),
                "--top-k", "1", "--out", str(ranked)]
        assert main(args) == EXIT_DATA
        assert "row 2" in caplog.text  # the first offending row, not row 3
        assert not ranked.exists()
        # the bounds are the config's min_sum/max_sum, the ones clean applies
        loose = write_config(tmp_path / "loose.json", min_sum=0.0, max_sum=2.0)
        expected = EXIT_DATA if bad_row.startswith("-") else EXIT_OK  # negatives never pass
        assert main(args + ["--config", str(loose)]) == expected

    @RUNTIME_WARNING_ACTIONS
    def test_non_finite_scores_are_numeric_failure(self, tmp_path, action):
        ckpt = small_checkpoint(tmp_path / "overflow.ckpt", 1e200)
        ranked = tmp_path / "ranked.csv"
        code = main(["screen", "--checkpoint", str(ckpt),
                     "--candidates", str(self.make_candidates(tmp_path)),
                     "--top-k", "2", "--out", str(ranked)])
        assert code == EXIT_NUMERIC
        assert not ranked.exists()


class TestEnumerate:
    def test_half_step_three_components(self, tmp_path, caplog):
        out = tmp_path / "grid.csv"
        with caplog.at_level(logging.INFO, logger="glasscreen"):
            code = main(["enumerate", "--components", "A,B,C", "--step", "0.5",
                         "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "A,B,C"
        assert len(lines) - 1 == 6
        assert "6 candidates" in caplog.text  # logged count equals row count

    def test_quoted_name_reads_back(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", '"A,B,C', "--step", "0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        candidates, schema = load_candidates(out)
        assert schema.names == ('"A', "B", "C")
        assert candidates.shape == (6, 3)

    def test_cap_violation_leaves_no_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", "A,B,C,D,E,F", "--step", "0.05",
                     "--cap", "10", "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_bounds_flag(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", "A,B,C", "--step", "0.5",
                     "--bound", "A", "0.5", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(float(r[0]) >= 0.5 for r in rows)

    def test_infinite_bound_end_acts_as_an_end_outside_the_unit_interval(self, tmp_path):
        def lattice(lo, hi):
            out = tmp_path / f"grid_{lo}_{hi}.csv"
            code = main(["enumerate", "--components", "A,B", "--step", "0.5",
                         "--bound", "A", lo, hi, "--out", str(out)])
            assert code == EXIT_OK
            return out.read_bytes()

        assert lattice("0", "inf") == lattice("0", "1") == b"A,B\n1.0,0.0\n0.5,0.5\n0.0,1.0\n"
        assert lattice("inf", "inf") == lattice("2", "3") == b"A,B\n"

    # argparse alone reads -inf and -1e-3 as option flags, -1 and -0.5 as numbers
    @pytest.mark.parametrize("lo", ["-inf", "-1e-3", "-1", "-0.5"])
    def test_negative_lower_bound_end_parses_and_acts_as_zero(self, tmp_path, lo):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", "A,B", "--step", "0.5",
                     "--bound", "A", lo, "0.5", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == b"A,B\n0.5,0.5\n0.0,1.0\n"

    @pytest.mark.parametrize("bound, code, message", [
        (["D", "0", "1"], EXIT_DATA, "--bound names unknown component 'D'"),
        (["A", "0.6", "0.4"], EXIT_DATA, "bound lo 0.6 exceeds hi 0.4")],
        ids=["unknown-name", "lo-above-hi"])
    def test_bad_bound_writes_nothing(self, tmp_path, caplog, bound, code, message):
        out = tmp_path / "grid.csv"
        assert main(["enumerate", "--components", "A,B,C", "--step", "0.5",
                     "--bound", *bound, "--out", str(out)]) == code
        assert message in caplog.text
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lo, hi", [("nan", "1"), ("0", "nan"), ("nan", "nan")])
    def test_nan_bound_end_is_data_error(self, tmp_path, caplog, lo, hi):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", "A,B", "--step", "0.5",
                     "--bound", "B", lo, hi, "--out", str(out)])
        assert code == EXIT_DATA
        assert f"bound {float(lo)} {float(hi)} of B: an end is nan" in caplog.text
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("flag", ["--max-nonzero", "--cap"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_flag_below_one_is_usage_error(self, tmp_path, flag, value):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", "A,B,C", "--step", "0.5",
                     flag, value, "--out", str(out)])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    # the parser refuses the flag (above); an API caller's GridConfig refuses
    # the value with the ValueError that main reports as a data error
    @pytest.mark.parametrize("max_nonzero", ["0", "-1"])
    def test_max_nonzero_below_one_is_data_error(self, max_nonzero):
        with pytest.raises(ValueError, match="max_nonzero must be >= 1"):
            GridConfig(step=0.5, max_nonzero=int(max_nonzero))

    # 2**-62 is the coarsest power-of-two step refused for 2 components:
    # 3 * 2**62 ticks' worth of arithmetic does not fit in int64
    @pytest.mark.parametrize("step", ["1e-300", repr(2.0 ** -62)])
    def test_step_too_fine_for_int64_is_data_error(self, tmp_path, caplog, step):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", "A,B", "--step", step, "--cap", "1000",
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert f"step {float(step)!r} is too fine for 2 components" in caplog.text
        assert not out.exists()

    def test_finest_power_of_two_step_within_int64_enumerates(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", "A,B", "--step", repr(2.0 ** -61),
                     "--bound", "A", "0.5", "0.5", "--cap", "1000", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == "A,B\n0.5,0.5\n"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_output_matches_per_cell_repr_writer(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        m = data.draw(st.integers(1, 12), label="ticks")
        max_nonzero = data.draw(st.integers(1, n), label="max_nonzero")
        tick_bounds = data.draw(st.lists(
            st.none() | st.tuples(st.integers(0, m), st.integers(0, m)).map(sorted),
            min_size=n, max_size=n), label="tick_bounds")
        names = [f"C{i}" for i in range(n)]
        argv = ["enumerate", "--components", ",".join(names), "--step", repr(1.0 / m),
                "--max-nonzero", str(max_nonzero)]
        bounds = [(0.0, 1.0)] * n
        for i, ticks in enumerate(tick_bounds):
            if ticks is not None:
                bounds[i] = (ticks[0] / m, ticks[1] / m)
                argv += ["--bound", names[i], repr(bounds[i][0]), repr(bounds[i][1])]
        rows = enumerate_candidates(ComponentSchema(tuple(names)),
                                    GridConfig(step=1.0 / m, max_nonzero=max_nonzero,
                                               bounds=bounds))
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "grid.csv"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            assert out.read_bytes() == (",".join(names) + "\n" + expected).encode()


@pytest.mark.filterwarnings("error")
def test_default_config_on_three_components_runs_under_warnings_as_errors(tmp_path, caplog):
    """The default adjacency_rank 5 exceeds a 3-component table's: train logs
    that once as a WARNING line, and no command warns or fails."""
    data = make_table(tmp_path / "data.csv", n_rows=300)
    ckpt, candidates = tmp_path / "model.ckpt", tmp_path / "candidates.csv"
    assert main(["train", "--data", str(data), "--band", "500:600", "--out", str(ckpt)]) == EXIT_OK
    assert [(r.levelno, r.getMessage()) for r in caplog.records
            if "adjacency_rank" in r.getMessage()] == [
        (logging.WARNING,
         "adjacency_rank 5 exceeds n_components 3; the factorization is no longer low-rank")]
    caplog.clear()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--report-dir", str(tmp_path / "report")]) == EXIT_OK
    assert main(["enumerate", "--components", "A,B,C", "--step", "0.1",
                 "--out", str(candidates)]) == EXIT_OK
    assert main(["screen", "--checkpoint", str(ckpt), "--candidates", str(candidates),
                 "--out", str(tmp_path / "picks.csv")]) == EXIT_OK
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


class TestRunConfig:
    def test_fingerprint_is_stable(self):
        assert RunConfig().fingerprint() == "f00e932ad90d96ea"
        assert RunConfig(epochs=10, seed=42).fingerprint() == "391884f85509f1a2"

    @pytest.mark.parametrize("key", ["n_components", "bn_momentum", "bn_epsilon"])
    def test_fixed_arch_fields_are_not_keys(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: 3}), encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(path)

    @pytest.mark.parametrize("command,key,value", [
        ("clean", "min_sum", "0.9"),  # str for a float key
        ("clean", "epochs", "5"),     # str for an int key
        ("train", "epochs", 5.5),     # float for an int key
        ("train", "epochs", True),    # bool for an int key
        ("train", "lr", True),        # bool for a float key
        ("train", "seed", None),      # null: no key takes it
    ])
    def test_wrongly_typed_value_is_usage_error(self, workdir, command, key, value):
        tmp_path, data, _ = workdir
        config = write_config(tmp_path / "typed.json", **{key: value})
        out = tmp_path / "out"
        argv = (["clean", "--input", str(data), "--output", str(out)] if command == "clean"
                else ["train", "--data", str(data), "--band", "500:600", "--out", str(out)])
        assert main(argv + ["--config", str(config)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("epochs", 5.5),        # float for an int field
        ("seed", True),         # bool for an int field
        ("lr", True),           # bool for a float field
        ("min_sum", "0.9"),     # str for a float field
        ("k_neighbors", "5"),   # str for an int field
        ("seed", None),         # None: no field takes it
    ])
    def test_direct_construction_checks_types(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be of type"):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("argv", [
        ["clean", "--input", "raw.csv", "--output", "clean.csv"],
        ["train", "--data", "data.csv", "--band", "500:600", "--out", "model.ckpt"],
        ["eval", "--checkpoint", "model.ckpt", "--data", "data.csv", "--report-dir", "report"],
        ["screen", "--checkpoint", "model.ckpt", "--candidates", "c.csv", "--out", "picks.csv"],
        ["enumerate", "--components", "A,B,C", "--step", "0.5", "--out", "c.csv"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch, argv):
        # the inputs do not exist, so reading any of them first would be a data error
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--seed", "-1"]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,value", [
        ("lr", -0.01),          # gradient ascent
        ("beta1", 1.0),         # bias correction 1 - beta1**t is 0
        ("beta2", 2.0),
        ("adam_eps", 0.0),
        ("weight_decay", -5.0),
    ])
    def test_bad_adam_setting_is_usage_error(self, tmp_path, monkeypatch, key, value):
        # the data does not exist, so reading it first would be a data error
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "config.json", **{key: value})
        code = main(["train", "--data", "data.csv", "--band", "500:600", "--out",
                     "model.ckpt", "--config", "config.json"])
        assert code == EXIT_USAGE
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("values, message", [
        ({"train_fraction": 0.0}, "train_fraction must be in (0,1), got 0.0"),
        ({"train_fraction": 1.0}, "train_fraction must be in (0,1), got 1.0"),
        ({"k_neighbors": 0}, "k_neighbors must be >= 1")],
        ids=["train-fraction-0", "train-fraction-1", "k-neighbors-0"])
    def test_out_of_range_value_is_config_error(self, values, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(**values)

    @pytest.mark.parametrize("text, message", [
        ("{epochs: 2}", "not valid JSON"), ("[2]", "config must be a flat JSON object")],
        ids=["not-json", "not-object"])
    def test_config_file_that_is_no_object_is_usage_error(self, tmp_path, caplog, text,
                                                         message):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "grid.csv"
        assert main(["enumerate", "--components", "A,B", "--step", "0.5", "--out", str(out),
                     "--config", str(config)]) == EXIT_USAGE
        assert f"{config}: {message}" in caplog.text
        assert not out.exists()

    def test_accepted_values_are_kept(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 5}), encoding="utf-8")
        assert RunConfig.load(path).fingerprint() == RunConfig(epochs=5).fingerprint()
        path.write_text(json.dumps({"min_sum": 1, "lr": 0.01}), encoding="utf-8")
        cfg = RunConfig.load(path)
        assert (cfg.min_sum, cfg.lr) == (1, 0.01)
        assert type(cfg.min_sum) is int


# outputs get the mode a plain open() would give them under the umask, also
# when they replace a file of another mode
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_take_the_umask_mode(workdir, umask, mode):
    tmp_path, data, config = workdir
    grid = tmp_path / "grid.csv"
    grid.write_text("old", encoding="utf-8")
    grid.chmod(0o640)
    previous = os.umask(umask)
    try:
        out = run_train(tmp_path, data, config)
        assert main(["enumerate", "--components", "A,B", "--step", "0.5",
                     "--out", str(grid)]) == EXIT_OK
    finally:
        os.umask(previous)
    for path in (out, Path(f"{out}.history.csv"), grid):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


def test_atomic_path_leaves_nothing_when_the_body_raises(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="body failed"):
        with atomic_path(target) as tmp:
            Path(tmp).write_text("partial", encoding="utf-8")
            raise RuntimeError("body failed")
    assert list(tmp_path.iterdir()) == []


def test_atomic_path_refuses_a_directory_before_the_body(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError, match="is a directory"):
        with atomic_path(target):
            pytest.fail("the body ran")
    assert list(tmp_path.iterdir()) == [target]


class TestVerbose:
    @staticmethod
    def debug_lines(caplog):
        return [r.getMessage() for r in caplog.records
                if r.name == "glasscreen" and r.levelno == logging.DEBUG]

    def test_flag_applies_on_every_call(self, workdir, caplog):
        tmp_path, data, config = workdir
        argv = ["train", "--data", str(data), "--config", str(config),
                "--band", "500:600", "--out", str(tmp_path / "model.ckpt")]
        assert main(argv) == EXIT_OK
        assert self.debug_lines(caplog) == []
        assert any("training done" in r.getMessage() for r in caplog.records)

        caplog.clear()
        assert main(["--verbose", *argv]) == EXIT_OK
        lines = self.debug_lines(caplog)
        fingerprint = RunConfig.load(config).fingerprint()
        assert any(fingerprint in line for line in lines)
        assert any("train /" in line and "validation rows" in line for line in lines)
        assert [line.split(":")[0] for line in lines if line.startswith("epoch")] == \
            ["epoch 1", "epoch 2"]

        caplog.clear()
        candidates = tmp_path / "candidates.csv"
        candidates.write_text("A,B,C\n" + "0.2,0.3,0.5\n" * 7, encoding="utf-8")
        assert main(["screen", "--verbose", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--candidates", str(candidates), "--out", str(tmp_path / "picks.csv")]) \
            == EXIT_OK
        assert any("7 candidates within the sum bounds" in line
                   for line in self.debug_lines(caplog))


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "clean" in capsys.readouterr().out
