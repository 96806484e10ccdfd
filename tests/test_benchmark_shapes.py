"""The calls the benchmark harness (``perfbench/workloads.py`` and
``perfbench/test_perfbench.py``) makes into the package, in the shapes it
makes them: a change that breaks one fails here, not only under
``pytest perfbench``."""

import json

import numpy as np
import pytest

from glasscreen import baseline_knn, cli, data_pipeline, evaluation, synthetic, training

SEED = 3


@pytest.fixture(scope="module")
def split_set():
    labeled, band = synthetic.benchmark_dataset(300, SEED)
    train_set, val_set = data_pipeline.split(labeled, 0.8, SEED)
    return train_set, val_set, band


@pytest.fixture(scope="module")
def trained(split_set):
    train_set, val_set, _ = split_set
    run = cli.RunConfig(epochs=1, seed=SEED, batch_size=32, precision_k=10, embed_dim=4,
                        hidden_dim=8, attention_dim=4, feature_dim=4)
    arch = run.arch_config(len(synthetic.COMPONENT_NAMES))
    return training.train(train_set, val_set, arch, run.train_config())


def test_benchmark_dataset_split_train(split_set, trained):
    train_set, val_set, _ = split_set
    assert (len(train_set), len(val_set)) == (240, 60)
    _, _, history = trained
    assert [r.epoch for r in history.records] == [1]
    assert np.isfinite(history.records[0].mean_loss)


def test_class_center_of_iterated_rows_matches_sub_table(split_set, trained):
    train_set, _, _ = split_set
    params, stats, _ = trained
    from_rows = evaluation.class_center([s for s in train_set if s.y == 1], params, stats)
    from_table = evaluation.class_center(train_set[train_set.y == 1], params, stats)
    assert from_rows.vector.tobytes() == from_table.vector.tobytes()


def test_iterated_rows_stack_to_the_columns(split_set):
    train_set, _, _ = split_set
    assert np.stack([s.fractions for s in train_set]).tobytes() == train_set.fractions.tobytes()
    assert np.array([s.y for s in train_set]).tobytes() == train_set.y.tobytes()
    assert np.array([s.tg for s in train_set]).tobytes() == train_set.tg.tobytes()


def test_knn_baseline_on_the_split(split_set):
    train_set, val_set, _ = split_set
    stats = data_pipeline.fit_normalization(train_set)
    report = baseline_knn.knn_evaluate(train_set, val_set, stats, baseline_knn.KnnConfig(5), 10)
    assert report.labels.tolist() == [s.y for s in val_set]
    assert 0.0 <= report.auc <= 1.0


def test_write_generated_raw_samples(tmp_path):
    raw = synthetic.generate_raw_samples(50, SEED, sum_jitter=0.03)
    path = tmp_path / "raw.csv"
    data_pipeline.write_dataset(path, synthetic.SCHEMA, raw)
    back, schema = data_pipeline.load_dataset(path)
    assert schema == synthetic.SCHEMA
    assert back.fractions.tobytes() == raw.fractions.tobytes()
    assert back.tg.tobytes() == raw.tg.tobytes()


def test_config_file_fingerprint(tmp_path):
    path = tmp_path / "cli_config.json"
    path.write_text(json.dumps({"epochs": 5}), encoding="utf-8")
    loaded = cli.RunConfig.load(path, {"seed": SEED})
    assert loaded.fingerprint() == cli.RunConfig(epochs=5, seed=SEED).fingerprint()
