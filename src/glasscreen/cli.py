"""Command-line entry point wiring the pipeline end to end.

Subcommands: clean, train, eval, screen, enumerate. Every command checks its
arguments and config, then takes its output paths, before any other work, and
writes each output atomically (temp file + rename), so a failed run leaves no
file or directory it made.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

import numpy as np

from . import baseline_knn, evaluation
# eval_features and normalize are not called here; perfbench/tracing.py wraps
# them at this import site
from .data_pipeline import (
    ComponentSchema,
    DataFormatError,
    GridConfig,
    TgBand,
    clean_with_counts,
    composition_masks,
    enumerate_candidates,
    load_candidates,
    load_dataset,
    normalize,
    split,
    transform_labels,
    write_dataset,
    write_table,
)
from .deepglassnet import (
    ArchConfig,
    eval_features,
    load_checkpoint,
    save_checkpoint,
)
from .numeric_core import NumericFailure
from .training import EpochRecord, TrainConfig, train

log = logging.getLogger("glasscreen")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Bad config file contents (unknown key, wrong type, invalid value)."""


# ArchConfig fields that are not config keys: the component count comes from
# the data and the batch-norm constants are fixed
_ARCH_FIELDS = [f for f in fields(ArchConfig)
                if f.name not in ("n_components", "bn_momentum", "bn_epsilon")]
_TRAIN_FIELDS = list(fields(TrainConfig))

# the values a RunConfig field of each type accepts: an int field takes an int
# (not a bool, which Python counts as one), a float field an int or a float
_VALUE_TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None))}


@dataclass
class _RunOptions:
    """The run-only keys of RunConfig, plus its methods."""

    # data handling
    train_fraction: float = 0.8
    min_sum: float = 0.95
    max_sum: float = 1.05
    band_low: float | None = None
    band_high: float | None = None
    # baseline
    k_neighbors: int = 5

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "RunConfig":
        values: dict = {}
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"{path}: config must be a flat JSON object")
            unknown = sorted(set(raw) - {f.name for f in fields(cls)})
            if unknown:
                raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
            values.update(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = value
        cfg = cls(**values)
        log.debug("run config %s: fingerprint %s", path or "(defaults)", cfg.fingerprint())
        return cfg

    def __post_init__(self):
        """Check every value, for a config file and a direct caller alike."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _VALUE_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        try:
            self.arch_config(n_components=2)  # the data sets it later
            self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if not (math.isfinite(self.min_sum) and math.isfinite(self.max_sum)):
            raise ConfigError(f"min_sum and max_sum must be finite, got "
                              f"{self.min_sum} and {self.max_sum}")
        if self.min_sum > self.max_sum:
            raise ConfigError("min_sum exceeds max_sum")
        if self.k_neighbors < 1:
            raise ConfigError("k_neighbors must be >= 1")
        if (self.band_low is None) != (self.band_high is None):
            raise ConfigError("band_low and band_high must be given together")
        if self.band_low is not None and not self.band_low < self.band_high:
            raise ConfigError("band_low must be < band_high")

    def arch_config(self, n_components: int) -> ArchConfig:
        return ArchConfig(n_components=n_components,
                          **{f.name: getattr(self, f.name) for f in _ARCH_FIELDS})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in _TRAIN_FIELDS})

    def fingerprint(self) -> str:
        payload = json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default)) for f in _ARCH_FIELDS + _TRAIN_FIELDS],
    bases=(_RunOptions,),
    namespace={
        "__module__": __name__,
        "__doc__": "Flat key-value run configuration; unknown keys are rejected. The "
                   "architecture and training keys, with their defaults, are the fields "
                   "of ArchConfig and TrainConfig (seed included).",
    },
)


@contextmanager
def atomic_path(path):
    """Yield a temp path in the target directory; rename over the target on
    success; on failure delete it, and then each directory made for it,
    deepest first, that nothing else has filled. A directory target is
    refused on entry. Failed runs leave no partial files."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(f"{path}: is a directory")
    made = [directory for directory in path.parents if not directory.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    umask = os.umask(0)  # read by setting; restored at once
    os.umask(umask)
    try:
        yield tmp_name
        # mkstemp makes the file 0600; give it the mode open() would have
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        for directory in made:
            with suppress(OSError):  # another output's file keeps it
                directory.rmdir()
        raise


def positive_int(text: str) -> int:
    """An argparse type: an integer >= 1, anything else a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_band(text: str) -> TgBand:
    try:
        low, high = map(float, text.split(":"))
        return TgBand(low, high)
    except ValueError as exc:
        raise ConfigError(f"band must be LOW:HIGH with LOW < HIGH, got {text!r} ({exc})") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_clean(args, run: RunConfig) -> int:
    with atomic_path(args.output) as tmp:
        raw, schema = load_dataset(args.input)
        kept, counts = clean_with_counts(raw, run.min_sum, run.max_sum)
        write_dataset(tmp, schema, kept)
    log.info(
        "clean: read=%d kept=%d dropped_by_sum=%d dropped_missing_tg=%d dropped_negative=%d "
        "dropped_non_finite=%d",
        counts.read, counts.kept, counts.dropped_sum,
        counts.dropped_missing_tg, counts.dropped_negative, counts.dropped_non_finite,
    )
    return EXIT_OK


def _label_split(raw, band: TgBand, run: RunConfig):
    """The train and validation parts of a loaded table, cleaned and labelled."""
    cleaned, counts = clean_with_counts(raw, run.min_sum, run.max_sum)
    log.info("loaded %d rows, %d kept after cleaning", counts.read, counts.kept)
    labeled = transform_labels(cleaned, band)
    log.info("band [%g, %g): %d targets / %d samples", band.low, band.high,
             labeled.y.sum(), len(labeled))
    train_part, val_part = split(labeled, run.train_fraction, run.seed)
    log.debug("split seed %d, train_fraction %g: %d train / %d validation rows",
              run.seed, run.train_fraction, len(train_part), len(val_part))
    return train_part, val_part


def cmd_train(args, run: RunConfig) -> int:
    if args.band is not None:
        band = _parse_band(args.band)
    elif run.band_low is not None:
        band = TgBand(run.band_low, run.band_high)
    else:
        raise ConfigError("no Tg band given (use --band LOW:HIGH or band_low/band_high)")
    history_path = args.history or (str(args.out) + ".history.csv")
    if Path(history_path).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--history {history_path} would overwrite the checkpoint --out")

    # both outputs are taken before the work: one that cannot be written fails
    # the run at once, and a history that cannot leaves no checkpoint
    with atomic_path(args.out) as ckpt_tmp, atomic_path(history_path) as history_tmp:
        raw, schema = load_dataset(args.data)
        train_part, val_part = _label_split(raw, band, run)
        arch = run.arch_config(n_components=schema.n)
        if arch.adjacency_rank > arch.n_components:
            log.warning("adjacency_rank %d exceeds n_components %d; the factorization is no "
                        "longer low-rank", arch.adjacency_rank, arch.n_components)
        params, stats, history = train(train_part, val_part, arch, run.train_config())
        for r in history.records:
            log.debug("epoch %d: mean loss %.6f, val AUC %.4f, val P@%d %.4f",
                      r.epoch, r.mean_loss, r.val_auc, run.precision_k, r.val_precision_at_k)
        center = evaluation.class_center(train_part[train_part.y == 1], params, stats)
        save_checkpoint(params, arch, stats, band, ckpt_tmp, center=center.vector)
        write_table(history_tmp, [f.name for f in fields(EpochRecord)], [
            np.array([getattr(r, f.name) for r in history.records], dtype=f"{f.type}64")
            for f in fields(EpochRecord)])

    best = max(r.val_auc for r in history.records)
    log.info("training done: %d epochs, best val AUC %.4f, checkpoint %s",
             len(history.records), best, args.out)
    return EXIT_OK


def cmd_eval(args, run: RunConfig) -> int:
    report_dir = Path(args.report_dir)
    prefixes = ("", "baseline_knn_") if args.with_knn_baseline else ("",)
    with ExitStack() as stack:
        tmp = {(prefix, name): stack.enter_context(atomic_path(report_dir / (prefix + name)))
               for prefix in prefixes for name in ("scores.csv", "roc.csv", "summary.json")}
        ckpt = load_checkpoint(args.checkpoint)
        log.info("checkpoint band [%g, %g)", ckpt.band.low, ckpt.band.high)
        raw, schema = load_dataset(args.data)
        _check_columns(args.data, schema, ckpt)
        train_part, val_part = _label_split(raw, ckpt.band, run)
        reports = {"": evaluation.evaluate(val_part, ckpt.params, ckpt.stats, ckpt.center,
                                           args.k)}
        if args.with_knn_baseline:
            reports["baseline_knn_"] = baseline_knn.knn_evaluate(
                train_part, val_part, ckpt.stats, baseline_knn.KnnConfig(run.k_neighbors),
                args.k)
        for prefix, report in reports.items():
            write_table(tmp[prefix, "scores.csv"], ("index", "score", "label", "tg"),
                        (np.arange(report.scores.size, dtype=np.int64), report.scores,
                         report.labels, report.tg))
            write_table(tmp[prefix, "roc.csv"], ("fpr", "tpr"), np.array(report.roc).T)
            evaluation.write_summary_json(report, ckpt.band, run.fingerprint(),
                                          tmp[prefix, "summary.json"])
    for prefix, report in reports.items():
        log.info("%s: auc=%.4f precision@%d=%.4f", report_dir / f"{prefix}summary.json",
                 report.auc, args.k, report.precision_at_k)
    return EXIT_OK


def _check_columns(path, schema: ComponentSchema, ckpt) -> None:
    """Refuse a table whose component columns are not the checkpoint model's."""
    if schema.n != ckpt.params.arch.n_components:
        raise DataFormatError(f"{path} has {schema.n} components but the checkpoint "
                              f"expects {ckpt.params.arch.n_components}")


def cmd_screen(args, run: RunConfig) -> int:
    with atomic_path(args.out) as tmp:
        ckpt = load_checkpoint(args.checkpoint)
        candidates, schema = load_candidates(args.candidates)
        _check_columns(args.candidates, schema, ckpt)
        # the composition rule clean applies to training rows
        totals, negative, off_sum = composition_masks(candidates, run.min_sum, run.max_sum)
        off_simplex = np.flatnonzero(negative | off_sum)
        if off_simplex.size:
            row = off_simplex[0]
            raise DataFormatError(
                f"{args.candidates}: row {row + 1}: fractions must be non-negative and sum "
                f"to [{run.min_sum}, {run.max_sum}], got sum {float(totals[row])!r}"
            )
        log.debug("screen: %d candidates within the sum bounds [%g, %g]",
                  candidates.shape[0], run.min_sum, run.max_sum)
        if args.top_k > candidates.shape[0]:
            raise DataFormatError(
                f"top_k={args.top_k} out of range for {candidates.shape[0]} candidates"
            )
        scores = evaluation.score(candidates, ckpt.params, ckpt.stats, ckpt.center)
        order = evaluation.top_k(scores, args.top_k)
        write_table(tmp, schema.names + ("score",), (*candidates[order].T, scores[order]))
    log.info("screen: scored %d candidates, wrote top %d to %s",
             candidates.shape[0], args.top_k, args.out)
    return EXIT_OK


def cmd_enumerate(args, run: RunConfig) -> int:
    with atomic_path(args.out) as tmp:
        names = tuple(name.strip() for name in args.components.split(","))
        schema = ComponentSchema(names)
        bounds = None
        if args.bound:
            bounds = [(0.0, 1.0)] * schema.n
            index = {name: i for i, name in enumerate(schema.names)}
            for name, lo, hi in args.bound:
                if name not in index:
                    raise ValueError(f"--bound names unknown component {name!r}")
                bounds[index[name]] = (float(lo), float(hi))
        max_nonzero = schema.n if args.max_nonzero is None else args.max_nonzero
        grid = GridConfig(step=args.step, max_nonzero=max_nonzero, bounds=bounds, cap=args.cap)
        candidates = enumerate_candidates(schema, grid)
        write_table(tmp, schema.names, candidates.T)
    log.info("enumerate: wrote %d candidates to %s", candidates.shape[0], args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch


class _Parser(argparse.ArgumentParser):
    """argparse takes a token such as -inf or -1e-3 for an option flag (it
    reads only -1 and -0.5 forms as negative numbers), which made
    ``--bound NAME -inf HI`` a usage error. No option here looks like a
    number, so any token float() parses is an argument value."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="glasscreen",
        description="Train and apply a contrastive composition-screening model.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="global seed (overrides the config file)")
        p.add_argument("--config", default=None, help="JSON config file")
        # SUPPRESS keeps a pre-subcommand --verbose from being reset to False
        p.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                       help="debug logging")

    p = sub.add_parser("clean", help="sum-filter a raw composition table")
    add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-sum", type=float, default=None, dest="min_sum",
                   help="default 0.95 (or the config file's min_sum)")
    p.add_argument("--max-sum", type=float, default=None, dest="max_sum",
                   help="default 1.05 (or the config file's max_sum)")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("train", help="train the encoder and write a checkpoint")
    add_common(p)
    p.add_argument("--data", required=True, help="composition/Tg table")
    p.add_argument("--band", default=None, help="target Tg band as LOW:HIGH")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", default=None, help="history CSV (default <out>.history.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled data")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report-dir", required=True, dest="report_dir")
    p.add_argument("--k", type=positive_int, default=50, help="k for Precision@k (>= 1)")
    p.add_argument("--with-knn-baseline", action="store_true", dest="with_knn_baseline")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("screen", help="rank candidate compositions by a checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--candidates", required=True, help="candidate CSV (no Tg column)")
    p.add_argument("--top-k", type=positive_int, default=5, dest="top_k",
                   help=">= 1 and at most the candidate count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("enumerate", help="write a lattice of candidate compositions")
    add_common(p)
    p.add_argument("--components", required=True, help="comma-separated component names")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--max-nonzero", type=positive_int, default=None, dest="max_nonzero",
                   help=">= 1; default: every component")
    p.add_argument("--bound", action="append", nargs=3, metavar=("NAME", "LO", "HI"),
                   help="per-component fraction bounds (repeatable)")
    p.add_argument("--cap", type=positive_int, default=GridConfig.cap, help=">= 1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # basicConfig only acts on the first call in a process; the level is set
    # on the package logger every time so each call honours its own --verbose
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        # --seed, and clean's --min-sum and --max-sum, override the config file
        run = RunConfig.load(args.config, {key: getattr(args, key, None)
                                           for key in ("seed", "min_sum", "max_sum")})
        return args.func(args, run)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_USAGE
    except (NumericFailure, RuntimeWarning) as exc:  # numpy's, raised under -W error
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
