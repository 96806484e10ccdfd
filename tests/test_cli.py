import json
import logging
from pathlib import Path

import numpy as np
import pytest

from glasscreen.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, ConfigError, RunConfig, main
from glasscreen.data_pipeline import (
    ComponentSchema,
    NormalizationStats,
    RawSample,
    TgBand,
    write_dataset,
)
from glasscreen.deepglassnet import ArchConfig, init_params, load_checkpoint, save_checkpoint
from glasscreen.numeric_core import RandomSource

SCHEMA = ComponentSchema(("A", "B", "C"))

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
    samples = []
    for _ in range(n_rows):
        x = rng.uniform(size=3)
        x = x / x.sum()
        tg = 380.0 + 420.0 * x[0] + rng.normal(0.0, 15.0)
        samples.append(RawSample(fractions=x, tg=float(tg)))
    write_dataset(path, SCHEMA, samples)
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


class TestClean:
    def test_counts_and_content(self, tmp_path, caplog):
        rows = [
            RawSample(fractions=np.array([0.5, 0.3, 0.2]), tg=520.0),   # kept
            RawSample(fractions=np.array([0.2, 0.2, 0.2]), tg=520.0),   # bad sum
            RawSample(fractions=np.array([0.5, 0.5, 0.04]), tg=550.0),  # kept
            RawSample(fractions=np.array([0.8, 0.8, 0.2]), tg=520.0),   # bad sum
            RawSample(fractions=np.array([0.4, 0.3, 0.3]), tg=None),    # missing Tg
            RawSample(fractions=np.array([0.4, 0.3, 0.3]), tg=np.nan),  # non-finite Tg
        ]
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


class TestTrain:
    def test_writes_checkpoint_and_history(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        assert out.exists()
        history = (str(out) + ".history.csv")
        lines = Path(history).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,mean_loss,val_auc,val_precision_at_k"
        assert len(lines) == 1 + SMALL_CONFIG["epochs"]  # one row per epoch

    def test_band_stored_in_checkpoint(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        ckpt = load_checkpoint(out)
        assert (ckpt.band.low, ckpt.band.high) == (500.0, 600.0)
        assert ckpt.center is not None

    def test_deterministic_checkpoints(self, workdir):
        tmp_path, data, config = workdir
        first = run_train(tmp_path, data, config, "a.ckpt")
        second = run_train(tmp_path, data, config, "b.ckpt")
        assert first.read_bytes() == second.read_bytes()

    def test_missing_band_is_usage_error(self, workdir):
        tmp_path, data, config = workdir
        code = main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == EXIT_USAGE

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

    def test_rerun_is_bitwise_identical(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for rd in (r1, r2):
            assert main(["eval", "--checkpoint", str(out), "--data", str(data),
                         "--config", str(config), "--report-dir", str(rd), "--k", "5"]) == EXIT_OK
        for name in ("scores.csv", "roc.csv", "summary.json"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()

    def test_component_mismatch_is_data_error(self, workdir, tmp_path):
        _, data, config = workdir
        other = tmp_path / "wide.csv"
        wide_schema = ComponentSchema(("A", "B", "C", "D"))
        rows = [RawSample(fractions=np.array([0.25, 0.25, 0.25, 0.25]), tg=550.0)]
        write_dataset(other, wide_schema, rows)
        out = run_train(tmp_path, data, config)
        code = main(["eval", "--checkpoint", str(out), "--data", str(other),
                     "--config", str(config), "--report-dir", str(tmp_path / "rep")])
        assert code == EXIT_DATA

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

    def test_top_k_exceeding_count_is_data_error(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        candidates = self.make_candidates(tmp_path, rows=3)
        code = main(["screen", "--checkpoint", str(out), "--candidates", str(candidates),
                     "--top-k", "10", "--out", str(tmp_path / "ranked.csv")])
        assert code == EXIT_DATA

    def test_schema_mismatch_is_data_error(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n0.5,0.5\n", encoding="utf-8")
        code = main(["screen", "--checkpoint", str(out), "--candidates", str(bad),
                     "--top-k", "1", "--out", str(tmp_path / "ranked.csv")])
        assert code == EXIT_DATA

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

    def test_checkpoint_without_center_is_data_error(self, workdir):
        tmp_path, data, config = workdir
        arch = ArchConfig(n_components=3, embed_dim=4, adjacency_rank=2,
                          attention_dim=4, hidden_dim=8, feature_dim=4)
        params = init_params(arch, seed=0)
        stats = NormalizationStats(mean=np.zeros(3), std=np.ones(3))
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(params, arch, stats, TgBand(500.0, 600.0), bare)
        candidates = self.make_candidates(tmp_path)
        code = main(["screen", "--checkpoint", str(bare), "--candidates", str(candidates),
                     "--top-k", "2", "--out", str(tmp_path / "ranked.csv")])
        assert code == EXIT_DATA


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


class TestRunConfig:
    def test_fingerprint_is_stable(self):
        assert RunConfig().fingerprint() == "4955dee71514a9b8"
        assert RunConfig(epochs=10, seed=42).fingerprint() == "f4e46a4d851da927"

    @pytest.mark.parametrize("key", ["n_components", "bn_momentum", "bn_epsilon"])
    def test_fixed_arch_fields_are_not_keys(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: 3}), encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(path)


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
