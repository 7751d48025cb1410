#!/usr/bin/env python3
"""Benchmark of aukit's public Python API, one workload per process.

    python3 bench/run.py --workload toy-train --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The process does its set-up, then whole
rounds of timed calls until ``--seconds`` have passed, then the output
checks.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, each a median over the run's calls; with
``--trace 1`` they are the per-layer ones from spans around aukit's
functions (see spans.py).  A failed check makes the exit code 1.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: with OpenBLAS's default of one per core, wall time stays
# the same on this 2-core class of machine but the spinning threads compete
# with everything else for the cores, which makes the figures noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "attention_s": "s",
    "relation_s": "s",
    "pipeline_s": "s",
    "infer_s": "s",
}


def process_age() -> float:
    """Seconds since this process started, read from /proc (0 if unreadable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fp:
            fields = fp.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as fp:
            uptime = float(fp.read().split()[0])
        age = uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config differs across numpy versions
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


class Timer:
    """Times each unit call and keeps every sample, per metric."""

    def __init__(self) -> None:
        self.samples: dict = {}
        self.calls = 0
        self.rounds = 0
        self.tracer = None

    def __call__(self, metric, fn, *args):
        if self.tracer is not None:
            fn = self.tracer.wrap(f"unit.{metric}", fn)
        start = time.perf_counter()
        out = fn(*args)
        self.samples.setdefault(metric, []).append(time.perf_counter() - start)
        self.calls += 1
        return out


def measure(workload, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` have passed; returns (timer, metrics)."""
    timer = Timer()
    deadline = time.perf_counter() + seconds
    plain = None
    if trace:
        # One untraced round first: the tracing overhead is measured against it.
        start = time.perf_counter()
        workload.round(timer)
        plain = time.perf_counter() - start
        timer.rounds += 1
        timer.tracer = spans.Tracer()
        timer.tracer.install()
    walls = []
    while True:
        start = time.perf_counter()
        workload.round(timer)
        walls.append(time.perf_counter() - start)
        timer.rounds += 1
        if time.perf_counter() >= deadline:
            break
    if not trace:
        return timer, {name: statistics.median(v) for name, v in timer.samples.items()}
    timer.tracer.uninstall()
    metrics = timer.tracer.layer_metrics(len(walls))
    overhead = statistics.median(walls) - plain
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / plain
    return timer, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Interpreter start-up before this file ran counts as set-up too.
    startup = max(0.0, process_age() - (time.perf_counter() - START))

    if not os.path.isfile(os.path.join(ROOT, "src", "aukit", "__init__.py")):
        print(f"bench: no aukit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = startup + time.perf_counter() - START
        timer, metrics = measure(workload, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = [(name, ok, detail) for name, (ok, detail) in workload.checks()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = spans.PER_LAYER
        timer.tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        units = END_TO_END
        metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    failed = sum(not ok for _, ok, _ in results)
    result = {
        "correct": failed == 0,
        "attempted": timer.calls + len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    info = machine()
    print("machine: " + json.dumps(info))
    print(f"workload {args.workload}, seed {args.seed}, {timer.rounds} rounds "
          f"({timer.calls} timed calls)")
    for name, ok, detail in results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for name, unit in units.items():
        samples = timer.samples.get(name)
        count = f"  (median of {len(samples)})" if samples and not args.trace else ""
        print(f"{name:48s} {metrics[name]:14.6g} {unit}{count}")
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fp:
        json.dump({"machine": info, "samples": timer.samples, "checks": results,
                   "result": result}, fp, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
