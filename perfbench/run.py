"""Run one nilmnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from its `src`
directory, so nothing needs installing. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics of a traced run. The line before it
records the environment and the workload's metrics under their own names.
See perfbench/README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

perf_counter = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# train_toy is not in BENCHMARK.json: its step is bound by memory bandwidth,
# which drifts by 20-30% between runs on a shared host. Compare it only with
# paired, alternating runs (perfbench/README.md).
WORKLOADS = ("train_paper", "disagg_toy", "ingest_score", "train_toy")
BLAS_THREADS = 2             # capped by the CPUs this process may use
SETUP_REPEATS = 3            # setup_s is the median of these, plus imports
TAIL_SAMPLES = 10            # a percentile needs this many samples beyond it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(threads):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = "unknown: not a git checkout", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unknown: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def import_seconds():
    """Median time a fresh interpreter spends importing numpy and nilmnet.

    The child times its own import, so interpreter start and exit, which
    wait on BLAS thread shutdown, do not count.
    """
    code = "import time; t = time.perf_counter(); import nilmnet; " \
           "print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS))


class Tally:
    """Operations attempted and failed, work done and time spent in one phase."""

    def __init__(self):
        self.attempted = self.failed = self.ops = 0
        self.work = 0
        self.wall_s = 0.0    # operations and their checks
        self.op_times = []   # timed part of each successful operation
        self.samples = []    # latency samples the workload's hooks record

    def fail(self, what, exc):
        self.failed += 1
        print(f"{what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def closed_loop(workload, seconds, min_ops, phase, sink):
    """Run operations back to back for at least `seconds` and `min_ops`.

    phase(i) gives the Tally that the i-th operation counts into and a
    context manager to run it under.
    """
    started = perf_counter()
    done = 0
    while done < min_ops or perf_counter() - started < seconds:
        tally, context = phase(done)
        tally.attempted += 1
        t0 = perf_counter()
        try:
            with context:
                with contextlib.redirect_stdout(sink):
                    work, result = workload.op()
                dt = perf_counter() - t0
                workload.check(result)
        # Any exception from the program is one failed operation.
        except Exception as exc:  # noqa: BLE001
            tally.fail("operation", exc)
        else:
            tally.ops += 1
            tally.work += work
            tally.op_times.append(dt)
        tally.wall_s += perf_counter() - t0
        done += 1


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def end_to_end(workload, tally, setup_s, error_rate):
    # Workloads without latency hooks are timed one whole operation at a time.
    latencies = [1000.0 * v for v in (tally.samples or tally.op_times)]
    # Work per operation over the median operation time: a few operations
    # slowed by another process on the host do not move it.
    throughput = tally.work / tally.ops / statistics.median(tally.op_times)
    p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality, named_quality = workload.quality()
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "quality_err": (quality, "loss-or-W"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    named = {
        "setup_s": (setup_s, "s"),
        workload.throughput_name: (throughput, "1/s"),
        f"{workload.latency_name}_p50": (p50, "ms"),
        f"{workload.latency_name}_p90": (p90, "ms"),
        **named_quality,
        "peak_rss_mb": (rss_mb, "MB"),
        "error_rate": (error_rate, "ratio"),
    }
    samples = {
        "latency_samples": len(latencies),
        # p90 is resolved only with TAIL_SAMPLES samples beyond it
        "p90_resolved": 0.1 * len(latencies) >= TAIL_SAMPLES,
        "operations": tally.ops,
    }
    return metrics, named, samples


def as_json_metrics(pairs):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nilmnet", "__init__.py")):
        print(f"error: no nilmnet sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads
    import_s = import_seconds()

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink:
            return run(args, threads, import_s, workdir, sink, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, threads, import_s, workdir, sink, tracing, workloads):
    workload = workloads.make(args.workload, workdir)
    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        tally.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                workload.setup(args.seed)
        except Exception as exc:  # noqa: BLE001
            tally.fail("setup", exc)
        setups.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    stamp = {"import_s": import_s, "setup_runs_s": setups}
    if tally.failed == SETUP_REPEATS:
        print("error: every setup failed", file=sys.stderr)
        return 1

    if args.trace:
        # One warm-up operation, then traced and untraced operations take
        # turns; their time per operation differs by the tracing overhead.
        closed_loop(workload, 0, 1, lambda _: (tally, contextlib.nullcontext()), sink)
        tracer = tracing.Tracer()
        untraced, traced = Tally(), Tally()
        closed_loop(workload, args.seconds, 2,
                    lambda i: (traced, tracer.install()) if i % 2 else
                    (untraced, contextlib.nullcontext()), sink)
        for phase in (untraced, traced):
            tally.attempted += phase.attempted
            tally.failed += phase.failed
        if traced.ops == 0 or untraced.ops == 0:
            print("error: no traced or no untraced operation succeeded", file=sys.stderr)
            return 1
        overhead = 100.0 * (statistics.median(traced.op_times)
                            / statistics.median(untraced.op_times) - 1.0)
        metrics = tracing.per_layer_metrics(tracer, traced.ops, traced.wall_s, overhead)
        info = {"traced_operations": traced.ops, "untraced_operations": untraced.ops,
                "traced_wall_s": traced.wall_s,
                "per_layer_values": "per traced operation"}
    else:
        loop = Tally()
        with workload.hooks(loop.samples):
            closed_loop(workload, args.seconds, workload.min_ops,
                        lambda _: (loop, contextlib.nullcontext()), sink)
        tally.attempted += loop.attempted
        tally.failed += loop.failed
        if loop.ops == 0:
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        pairs, named, info = end_to_end(workload, loop, setup_s,
                                        tally.failed / tally.attempted)
        metrics = as_json_metrics(pairs)
        info["named"] = as_json_metrics(named)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(threads), **stamp, **info}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
