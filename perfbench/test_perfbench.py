"""Self-test of the benchmark: names, smallest sizes, and trace accounting.

    python3 -m pytest -q perfbench
"""

import contextlib
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def printed_metrics(trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "ingest_score", "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_and_units_match_benchmark_json(trace, section):
    metrics = printed_metrics(trace)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(math.isfinite(m["value"]) for m in metrics.values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        name for name in run.WORKLOADS if name != "train_toy"]
    assert set(workloads.SIZES) == set(workloads.SMALLEST) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_completes_at_smallest_size(name, tmp_path):
    workload = workloads.make(name, str(tmp_path), workloads.SMALLEST[name])
    with open(os.devnull, "w", encoding="utf-8") as sink:
        with contextlib.redirect_stdout(sink):
            workload.setup(seed=5)
        tally = run.Tally()
        with workload.hooks(tally.samples):
            run.closed_loop(workload, 0, workload.min_ops,
                            lambda _: (tally, contextlib.nullcontext()), sink)
    assert tally.failed == 0 and tally.ops == workload.min_ops
    metrics, _, _ = run.end_to_end(workload, tally, setup_s=1.0, error_rate=0.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 and math.isfinite(value) for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["train_toy", "disagg_toy", "ingest_score"])
def test_traced_self_times_fit_in_wall_time(name, tmp_path):
    workload = workloads.make(name, str(tmp_path), workloads.SMALLEST[name])
    tracer = tracing.Tracer()
    tally = run.Tally()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        with contextlib.redirect_stdout(sink):
            workload.setup(seed=5)
        run.closed_loop(workload, 0, 2, lambda _: (tally, tracer.install()), sink)
    assert tally.failed == 0
    assert 0 < sum(tracer.self_s.values()) <= tally.wall_s
    assert all(value >= 0 for value in tracer.self_s.values())


def test_tracer_self_time_excludes_children():
    import time

    tracer = tracing.Tracer()

    def parent():
        time.sleep(0.01)
        tracer.span("child", time.sleep, 0.05)

    tracer.span("parent", parent)
    assert tracer.calls == {"parent": 1, "child": 1}
    assert tracer.self_s["child"] >= 0.05
    assert 0.01 <= tracer.self_s["parent"] < 0.05


def test_gemm_counts_follow_shapes():
    import numpy as np
    from nilmnet import nn

    dense = nn.Dense("cls.fc1", 10, 4)
    flops, nbytes = tracing.layer_gemms(dense, "forward", np.zeros((3, 10), np.float32))
    assert flops == 2 * 3 * 10 * 4 and nbytes == 4 * (3 * 10 + 10 * 4 + 3 * 4)
    backward, _ = tracing.layer_gemms(dense, "backward", np.zeros((3, 4), np.float32))
    assert backward == 2 * flops
    lstm = nn.BiLSTM("reg.bilstm", 2, 5)
    flops, _ = tracing.layer_gemms(lstm, "forward", np.zeros((3, 7, 2), np.float32))
    assert flops == 2 * 7 * (2 * 3 * 2 * 20 + 2 * 3 * 5 * 20)
