"""Traced runs: spans around the public functions of each glasscreen module.

A wrapper replaces a name at the import site its callers use, records one
span per call and returns the wrapped function's result untouched. The
wrappers are installed for one traced operation at a time and removed after
it, so untraced operations run the unmodified package.
"""

from __future__ import annotations

import csv
import functools
import time
from contextlib import contextmanager

import numpy as np

from glasscreen import baseline_knn, cli, data_pipeline, deepglassnet, evaluation, training

# span name -> the import sites (owner, attribute) whose calls it records
SITES = {
    "cli.clean": [(cli, "cmd_clean")],
    "cli.train": [(cli, "cmd_train")],
    "cli.eval": [(cli, "cmd_eval")],
    "cli.enumerate": [(cli, "cmd_enumerate")],
    "cli.screen": [(cli, "cmd_screen")],
    "training.train": [(training, "train"), (cli, "train")],
    "training.backward": [(training, "backward")],
    "training.adam_step": [(training, "adam_step")],
    "training.triplet_losses": [(training, "triplet_losses")],
    "deepglassnet.forward_batch": [(training, "forward_batch"), (deepglassnet, "forward_batch")],
    "deepglassnet.eval_features": [(evaluation, "eval_features"), (cli, "eval_features")],
    "deepglassnet.save_checkpoint": [(cli, "save_checkpoint")],
    "deepglassnet.load_checkpoint": [(cli, "load_checkpoint")],
    "data_pipeline.sampler.draw": [(data_pipeline.TripletIndexSampler, "draw")],
    "data_pipeline.augment": [(training, "augment")],
    "data_pipeline.normalize": [(training, "normalize"), (evaluation, "normalize"),
                                (baseline_knn, "normalize"), (cli, "normalize")],
    "data_pipeline.enumerate_candidates": [(cli, "enumerate_candidates")],
    "data_pipeline.load_candidates": [(cli, "load_candidates")],
    "data_pipeline.load_dataset": [(cli, "load_dataset")],
    "data_pipeline.clean_with_counts": [(cli, "clean_with_counts")],
    "data_pipeline.write_dataset": [(cli, "write_dataset")],
    "evaluation.class_center": [(evaluation, "class_center")],
    "evaluation.evaluate": [(evaluation, "evaluate")],
    "baseline_knn.knn_evaluate": [(baseline_knn, "knn_evaluate")],
}

# forward_batch spans are split by mode: train batches of 768 rows and eval
# chunks of up to 4,096 rows are different kernel shapes
BY_MODE = "deepglassnet.forward_batch"

SPAN_NAMES = [
    name for site in SITES
    for name in ((f"{site}.train", f"{site}.eval") if site == BY_MODE else (site,))
]

# layers whose throughput is reported as rows per second
ROW_LAYERS = (
    "data_pipeline.enumerate_candidates",
    "data_pipeline.load_candidates",
    "deepglassnet.eval_features",
)


def _rows(result) -> int | None:
    """Rows a layer produced: the leading length of its array result."""
    if isinstance(result, tuple) and result:
        result = result[0]
    if isinstance(result, np.ndarray) and result.ndim:
        return int(result.shape[0])
    return None


class Tracer:
    """In-memory span log. A span is [name, start, end, parent, op, rows];
    parent is the index of the enclosing span (-1 for an operation root)."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops = 0
        self.speed: dict[int, float] = {}  # op -> factor to the reference CPU speed
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.ops, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, rows: int | None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = rows
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == BY_MODE:
                span += "." + kwargs.get("mode", args[2] if len(args) > 2 else "eval")
            index = self._open(span)
            rows = None
            try:
                result = fn(*args, **kwargs)
                rows = _rows(result)
                return result
            finally:
                self._close(index, rows)
        return traced

    @contextmanager
    def operation(self, name: str):
        """Trace one operation: install every wrapper, record a root span
        named ``name`` around the body, then restore the original names."""
        for span, sites in SITES.items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
        try:
            index = self._open(name)
            try:
                yield
            finally:
                self._close(index, None)
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)
            self.ops += 1

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds (span minus the time
        its child spans cover), call count and rows produced. Seconds are
        scaled by their operation's entry in ``speed`` (1 if absent)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, op, rows) in enumerate(self.spans):
            t = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0})
            factor = self.speed.get(op, 1.0)
            t["s"] += (end - start) * factor
            t["self_s"] += (end - start - child[i]) * factor
            t["calls"] += 1
            t["rows"] += rows or 0
        return out

    def write(self, path) -> None:
        """Write every span as one CSV row, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "op", "parent", "name", "start_s", "end_s", "rows"])
            for i, (name, start, end, parent, op, rows) in enumerate(self.spans):
                writer.writerow([i, op, parent, name, f"{start - origin:.9f}",
                                 f"{end - origin:.9f}", "" if rows is None else rows])


def computed_madds(arch) -> tuple[int, int]:
    """Multiply-adds per row of the encoder's matrix products, computed from
    the ArchConfig shapes (elementwise work is not counted): (forward, backward).

    Per-batch terms (the n x n adjacency and its gradient, n*n*rank each) are
    left out; they are independent of the batch size.
    """
    n, d, dk = arch.n_components, arch.embed_dim, arch.attention_dim
    h, k = arch.hidden_dim, arch.feature_dim
    forward = (
        n * d              # proportion-modulated embedding
        + n * n * d        # graph convolution
        + 3 * n * d * dk   # query, key, value
        + 2 * n * n * dk   # scores and attention-weighted values
        + n * dk * h       # projection hidden layer
        + h * k            # projection output layer
    )
    backward = (
        2 * h * k          # output layer weight and input gradients
        + 2 * n * dk * h   # hidden layer weight and input gradients
        + 4 * n * n * dk   # attention: d_alpha, d_value, d_query, d_key
        + 6 * n * d * dk   # d_mixed and the three projection weight gradients
        + 2 * n * n * d    # graph convolution input and adjacency gradients
        + n * d            # embedding gradient
    )
    return forward, backward


def layer_metrics(tracer: Tracer, arch, batch_size: int,
                  traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics of every traced operation, name -> (value, unit).

    ``traced_s`` and ``untraced_s`` are the median operation times with and
    without tracing; their difference is reported as the tracing overhead.
    """
    totals = tracer.totals()
    ops = max(tracer.ops, 1)
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "rows": 0}
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        t = totals.get(name, empty)
        metrics[f"{name}.ms"] = (1e3 * t["s"] / ops, "ms")
        metrics[f"{name}.self_ms"] = (1e3 * t["self_s"] / ops, "ms")
        metrics[f"{name}.calls"] = (t["calls"] / ops, "count")
    for name in ROW_LAYERS:
        t = totals.get(name, empty)
        metrics[f"{name}.rows_per_s"] = (t["rows"] / t["s"] if t["s"] else 0.0, "1/s")

    forward, backward = computed_madds(arch)
    metrics["deepglassnet.forward_batch.eval.computed_madds_per_row"] = (forward, "madd/row")
    metrics["training.step.computed_madds"] = (3 * batch_size * (forward + backward), "madd")
    for metric, layer, rows_from, per_row in (
        ("deepglassnet.forward_batch.eval.computed_gmadd_per_s",
         "deepglassnet.forward_batch.eval", "deepglassnet.forward_batch.eval", forward),
        ("deepglassnet.forward_batch.train.computed_gmadd_per_s",
         "deepglassnet.forward_batch.train", "deepglassnet.forward_batch.train", forward),
        # one backward per train-mode forward, over the same rows
        ("training.backward.computed_gmadd_per_s",
         "training.backward", "deepglassnet.forward_batch.train", backward),
    ):
        seconds = totals.get(layer, empty)["s"]
        rows = totals.get(rows_from, empty)["rows"]
        metrics[metric] = (rows * per_row / seconds / 1e9 if seconds else 0.0, "Gmadd/s")
    metrics["trace.overhead_ms"] = (1e3 * (traced_s - untraced_s), "ms")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "share")
    return metrics
