#!/usr/bin/env python3
"""glasscreen benchmark: run one workload for a fixed time and report it.

    python3 perfbench/run.py --workload train|screen|cli --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout; the package is imported from
./src and scratch files go to ./.perfbench. Each run sets the workload up
several times (the median is setup_s), runs one untimed warm-up operation
that also gets the full output checks, then repeats the operation until
--seconds have passed. Every later operation must reproduce the warm-up's
output bytes.

Times are scaled to a reference CPU speed measured by probe kernels around
every timed step (see SpeedProbe).

--trace 0 reports the end-to-end metrics of untraced operations.
--trace 1 alternates untraced and traced operations, reports per-layer
metrics from the traced ones and the tracing overhead (traced minus untraced
median), and writes every span to ./.perfbench/traces/.

Human-readable lines come first; the last line of standard output is one JSON
object. The exit code is 1 when any operation failed or any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# On shared machines the CPU runs tens of percent slower for seconds at a
# time. Every timed step is divided by the slowdown that SpeedProbe measures
# just before and just after it, which scales it to the reference speed:
# these probe times (seconds) on a 2-vCPU x86-64 cloud VM at full speed.
PROBE_REFERENCE_S = {"python": 0.0034, "blas": 0.0029, "format": 0.0057}

# each workload's operation: the name a user would give its time, and what it is
OPERATION = {
    "train": ("train_s", "one training.train call"),
    "screen": ("screen_s", "enumerate through the written picks file"),
    "cli": ("cli_s", "the README walkthrough through cli.main"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATION))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: picks the corpus and the split/training seed")
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int, inputs) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "seed": seed,
        "config_fingerprints": inputs.fingerprints(),
    }


class SpeedProbe:
    """Three fixed kernels that call no package code: a pure-Python integer
    loop, small two-thread BLAS products, and float formatting. Together
    they track the slowdown of the package's steps better than any one."""

    def __init__(self):
        self._a = np.ones((768, 128))
        self._b = np.ones((128, 64))
        self.kernels = {"python": self._python, "blas": self._blas, "format": self._format}

    @staticmethod
    def _python():
        total = 0
        for i in range(50_000):
            total += i * i

    def _blas(self):
        for _ in range(20):
            self._a @ self._b

    @staticmethod
    def _format():
        ",".join([repr(i / 7.0) for i in range(10_000)])

    def slowdown(self) -> float:
        """Geometric mean over the kernels of (median of three times) / reference."""
        logs = []
        for name, kernel in self.kernels.items():
            times = []
            for _ in range(3):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            logs.append(math.log(statistics.median(times) / PROBE_REFERENCE_S[name]))
        return math.exp(sum(logs) / len(logs))

    def timed(self, steps):
        """Run each step; return the step results, their total wall seconds,
        and those seconds at the reference speed, each step divided by the
        mean slowdown measured just before and just after it."""
        results, wall, scaled = [], 0.0, 0.0
        before = self.slowdown()
        for step in steps:
            start = time.perf_counter()
            results.append(step())
            seconds = time.perf_counter() - start
            after = self.slowdown()
            wall += seconds
            scaled += seconds / ((before + after) / 2)
            before = after
        return results, wall, scaled


def describe(values: list[float]) -> str:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    text = f"median of n={len(values)}"
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            text += f", p{p} {q:.6g}"
            break
    return text


class Measurement:
    """Closed-loop operations of one workload with their checks and timings."""

    def __init__(self, probe: SpeedProbe, steps, check, inputs, out: Path, tracer=None):
        self.probe = probe
        self.steps, self.check, self.inputs, self.out = steps, check, inputs, out
        self.tracer = tracer
        self.times: dict[bool, list[float]] = {False: [], True: []}  # scaled
        self.wall: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.info: dict = {}

    def operation(self, traced: bool, measured: bool) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        gc.collect()
        self.attempted += 1
        try:
            steps = self.steps(self.inputs, self.out)
            if traced:
                # the root span also covers the speed probes between steps
                with self.tracer.operation("op"):
                    result, wall, scaled = self.probe.timed(steps)
                self.tracer.speed[self.tracer.ops - 1] = scaled / wall
            else:
                result, wall, scaled = self.probe.timed(steps)
            digest, info = self.check(self.inputs, self.out, result, self.digest is None)
            if self.digest is None:
                self.digest, self.info = digest, info
            elif digest != self.digest:
                raise ValueError("output bytes differ from the warm-up operation's "
                                 f"({'traced' if traced else 'untraced'} operation)")
        except Exception:  # one failed operation is counted, the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        if measured:
            self.times[traced].append(scaled)
            self.wall[traced].append(wall)

    def loop(self, seconds: float) -> None:
        self.operation(traced=False, measured=False)
        kinds = (False, True) if self.tracer else (False,)
        start = time.perf_counter()
        while True:
            for traced in kinds:
                self.operation(traced, measured=True)
            if time.perf_counter() - start >= seconds:
                break


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "glasscreen" / "__init__.py").is_file():
        print(f"perfbench: no glasscreen package under {src}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    run_dir = WORK / f"run-{os.getpid()}"
    probe = SpeedProbe()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(run_dir / "setup", ignore_errors=True)
            gc.collect()
            (inputs,), _, scaled = probe.timed([lambda: workloads.set_up(args.seed, run_dir / "setup")])
            setup_times.append(scaled)

        steps, check = workloads.WORKLOADS[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        bench = Measurement(probe, steps, check, inputs, run_dir / "op", tracer)
        bench.loop(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment(args.seed, inputs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced, traced = bench.times[False], bench.times[True]
    correct = bench.failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    name, operation = OPERATION[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({name}: {operation})")
    print(f"error_rate {bench.failed / bench.attempted:.6g}  "
          f"({bench.failed} failed of {bench.attempted} operations)")
    print(f"setup_s {statistics.median(setup_times):.6f} s  ({describe(setup_times)})")
    metrics: dict[str, tuple] = {}
    if untraced:
        op_s = statistics.median(untraced)
        print(f"{name} {op_s:.6f} s  ({describe(untraced)}; wall-clock median "
              f"{statistics.median(bench.wall[False]):.6f} s)")
        if args.workload == "screen":
            rows = workloads.lattice_size(len(workloads.COMPONENTS),
                                          workloads.SCREEN_STEP, workloads.MAX_NONZERO)
            print(f"screen_rows_per_s {rows / op_s:.6f} 1/s  "
                  f"({rows} rows / median of n={len(untraced)})")
    for name, value in bench.info.items():
        print(f"{name} {value:.6f}")
    print(f"peak_rss_mb {peak_rss_mb:.3f} MB")

    if not args.trace and untraced:
        metrics = {
            "op_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    elif args.trace and untraced and traced:
        arch = inputs.train_run.arch_config(len(workloads.COMPONENTS))
        metrics = tracing.layer_metrics(tracer, arch, inputs.train_run.batch_size,
                                        statistics.median(traced), statistics.median(untraced))
        print(f"traced op {statistics.median(traced):.6f} s  ({describe(traced)})")
        for name, (value, unit) in metrics.items():
            if value:
                print(f"  {name} {value:.6g} {unit}")
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.csv"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
