import csv
import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glasscreen.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    RunConfig,
    main,
)
from glasscreen.data_pipeline import (
    ComponentSchema,
    GridConfig,
    NormalizationStats,
    TgBand,
    enumerate_candidates,
    load_candidates,
    write_dataset,
)
from glasscreen.deepglassnet import ArchConfig, init_params, load_checkpoint, save_checkpoint
from glasscreen.numeric_core import RandomSource
from oracles import scalar_normal
from sample_tables import table

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


def overflowing_checkpoint(path):
    """A checkpoint of finite values whose embeddings are so large that the
    attention scores overflow, so every feature and score comes out nan."""
    arch = ArchConfig(n_components=3, embed_dim=4, adjacency_rank=2,
                      attention_dim=4, hidden_dim=8, feature_dim=4)
    params = init_params(arch, seed=0)
    params.embeddings[...] *= 1e200
    stats = NormalizationStats(mean=np.full(3, 1 / 3), std=np.full(3, 0.2))
    save_checkpoint(params, arch, stats, TgBand(500.0, 600.0), path, center=np.full(4, 0.5))
    return path


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

    def test_inverted_sum_flags_are_usage_error(self, tmp_path):
        src = make_table(tmp_path / "raw.csv")
        out = tmp_path / "out.csv"
        code = main(["clean", "--input", str(src), "--output", str(out),
                     "--min-sum", "1.1", "--max-sum", "1.0"])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--min-sum", "nan"), ("--max-sum", "nan"),
                                            ("--max-sum", "inf")])
    def test_non_finite_sum_flag_is_usage_error(self, tmp_path, flag, value):
        src = make_table(tmp_path / "raw.csv")
        out = tmp_path / "out.csv"
        code = main(["clean", "--input", str(src), "--output", str(out), flag, value])
        assert code == EXIT_USAGE
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

    def test_band_stored_in_checkpoint(self, workdir):
        tmp_path, data, config = workdir
        out = run_train(tmp_path, data, config)
        ckpt = load_checkpoint(out)
        assert (ckpt.band.low, ckpt.band.high) == (500.0, 600.0)
        assert ckpt.center is not None

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

    def test_missing_band_is_usage_error(self, workdir):
        tmp_path, data, config = workdir
        code = main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("history", ["model.ckpt", "sub/../model.ckpt"])
    def test_history_at_checkpoint_path_is_usage_error(self, workdir, history):
        tmp_path, data, config = workdir
        out = tmp_path / "model.ckpt"
        code = main(["train", "--data", str(data), "--config", str(config), "--band",
                     "500:600", "--out", str(out), "--history", str(tmp_path / history)])
        assert code == EXIT_USAGE
        assert not out.exists()

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
        rows = table([[0.25, 0.25, 0.25, 0.25]], [550.0])
        write_dataset(other, wide_schema, rows)
        out = run_train(tmp_path, data, config)
        code = main(["eval", "--checkpoint", str(out), "--data", str(other),
                     "--config", str(config), "--report-dir", str(tmp_path / "rep")])
        assert code == EXIT_DATA

    @RUNTIME_WARNING_ACTIONS
    def test_non_finite_scores_are_numeric_failure(self, workdir, action):
        tmp_path, data, config = workdir
        ckpt = overflowing_checkpoint(tmp_path / "overflow.ckpt")
        report_dir = tmp_path / "report"
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--config", str(config), "--report-dir", str(report_dir), "--k", "5"])
        assert code == EXIT_NUMERIC
        assert not report_dir.exists()

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

    @RUNTIME_WARNING_ACTIONS
    def test_non_finite_scores_are_numeric_failure(self, tmp_path, action):
        ckpt = overflowing_checkpoint(tmp_path / "overflow.ckpt")
        ranked = tmp_path / "ranked.csv"
        code = main(["screen", "--checkpoint", str(ckpt),
                     "--candidates", str(self.make_candidates(tmp_path)),
                     "--top-k", "2", "--out", str(ranked)])
        assert code == EXIT_NUMERIC
        assert not ranked.exists()

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

    def test_quoted_name_reads_back(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", '"A,B,C', "--step", "0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        candidates, schema = load_candidates(out, 3)
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

    @pytest.mark.parametrize("max_nonzero", ["0", "-1"])
    def test_max_nonzero_below_one_is_data_error(self, tmp_path, max_nonzero):
        out = tmp_path / "grid.csv"
        code = main(["enumerate", "--components", "A,B,C", "--step", "0.5",
                     "--max-nonzero", max_nonzero, "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

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
        assert RunConfig().fingerprint() == "4955dee71514a9b8"
        assert RunConfig(epochs=10, seed=42).fingerprint() == "f4e46a4d851da927"

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
        ("train", "seed", None),      # null outside band_low/band_high
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
        ("seed", None),         # None outside band_low/band_high
        ("band_low", "500"),    # str for an optional float field
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

    def test_accepted_values_are_kept(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 5}), encoding="utf-8")
        assert RunConfig.load(path).fingerprint() == RunConfig(epochs=5).fingerprint()
        path.write_text(json.dumps({"min_sum": 1, "lr": 0.01, "band_low": None,
                                    "band_high": None}), encoding="utf-8")
        cfg = RunConfig.load(path)
        assert (cfg.min_sum, cfg.lr, cfg.band_low) == (1, 0.01, None)
        assert type(cfg.min_sum) is int


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
