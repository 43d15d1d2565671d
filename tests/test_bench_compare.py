"""tools/bench_compare.py: verdicts on synthetic run sets, and the report
written from stand-in runs, without running the benchmark."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_compare  # noqa: E402

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


class TestVerdict:
    def test_nine_of_ten_pairs_and_a_median_past_the_spread_is_a_gain(self):
        change = [p - 6.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
        got = bench_compare.verdict(PARENT, change, "lower", 0.15)
        assert got["pairs_better"] == 9 and got["pairs"] == 10
        assert got["parent_quartiles"] == [102.25, 106.75]
        assert got["parent_median"] - got["change_median"] > 4.5
        assert got["verdict"] == "gain"

    def test_eight_of_ten_pairs_is_no_gain(self):
        change = [p - 6.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
        got = bench_compare.verdict(PARENT, change, "lower", 0.15)
        assert got["pairs_better"] == 8
        assert got["verdict"] == "no change"

    def test_a_gain_in_a_higher_is_better_metric(self):
        change = [p + 6.0 for p in PARENT]
        assert bench_compare.verdict(PARENT, change, "higher", 0.25)["verdict"] == "gain"
        assert bench_compare.verdict(PARENT, change, "lower", 0.25)["verdict"] == "no change"

    def test_a_tie_wins_no_pair(self):
        got = bench_compare.verdict(PARENT, list(PARENT), "lower", 0.15)
        assert got["pairs_better"] == 0 and got["change_vs_parent"] == 0.0
        assert got["verdict"] == "no change"

    def test_median_worse_by_more_than_the_bound_is_worse(self):
        change = [1.3 * p for p in PARENT]
        got = bench_compare.verdict(PARENT, change, "lower", 0.25)
        assert got["change_vs_parent"] == pytest.approx(-0.3)
        assert got["verdict"] == "worse"
        assert bench_compare.verdict(PARENT, change, "lower", 0.35)["verdict"] == "no change"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0]
        change = [p + 5.0 if k % 2 else p - 5.0 for k, p in enumerate(parent)]
        got = bench_compare.verdict(parent, change, "lower", 0.25)
        assert got["parent_spread"] == pytest.approx(45.0 / 95.0)
        assert got["verdict"] == "unresolved"

    def test_every_change_run_better_than_every_parent_run_is_resolved(self):
        """A wide parent spread with a long tail: every change run reads
        better, but the medians differ by less than the spread."""
        parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 150.0, 200.0, 250.0, 300.0]
        change = [99.0] * 10
        got = bench_compare.verdict(parent, change, "lower", 0.25)
        assert got["parent_spread"] > 0.25 and got["every_change_run_better"]
        assert got["verdict"] == "no change"
        change[0] = 100.5
        assert bench_compare.verdict(parent, change, "lower", 0.25)["verdict"] == "unresolved"


def result(values, failed=0):
    """A stand-in for perfbench/run.py's last line."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}


SPECS = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}]


def test_a_change_that_fails_more_operations_claims_no_gain():
    pairs = [{"parent": result({"peak_rss_mb": p}),
              "change": result({"peak_rss_mb": p - 6.0}, failed=k == 0)}
             for k, p in enumerate(PARENT)]
    got = bench_compare.compare_workload(pairs, SPECS)
    assert got["operations"]["change"] == {"attempted": 100, "failed": 1}
    assert got["metrics"]["peak_rss_mb"]["verdict"] == "no change"
    for pair in pairs:
        pair["change"]["failed"] = 0
    assert bench_compare.compare_workload(pairs, SPECS)["metrics"]["peak_rss_mb"][
        "verdict"] == "gain"


def test_main_alternates_the_first_side_and_writes_every_run(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 3, "workloads": [{"name": "w"}], "end_to_end": SPECS}))
    shas = {"P": "a" * 40, "HEAD": "c" * 40}
    calls = []

    def export(sha, dest):
        (Path(dest) / "perfbench").mkdir()
        (Path(dest) / "perfbench" / "side").write_text(sha)

    def run_once(tree, workload, seed, seconds):
        side = Path(tree).name
        calls.append((side, seed, seconds,
                      (Path(tree) / "perfbench" / "side").read_text()))
        value = 100.0 + seed - (6.0 if side == "change" else 0.0)
        return {"environment": {"numpy": "x", "git_sha": "unknown"}}, result(
            {"peak_rss_mb": value})

    monkeypatch.setattr(bench_compare, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_compare, "rev_sha", shas.get)
    monkeypatch.setattr(bench_compare, "export", export)
    monkeypatch.setattr(bench_compare, "run_once", run_once)
    assert bench_compare.main(["--parent", "P", "--seeds", "1-10"]) == 0
    # Both trees run the change's benchmark code, parent first on even pairs.
    assert {c[3] for c in calls} == {shas["HEAD"]}
    assert [c[0] for c in calls[:4]] == ["parent", "change", "change", "parent"]
    assert [c[1] for c in calls] == [s for s in range(1, 11) for _ in (0, 1)]
    assert {c[2] for c in calls} == {3}
    report = json.loads((tmp_path / "BENCH_ccccccc.json").read_text())
    assert report["environment"] == {"numpy": "x"}
    assert report["parent"]["sha"] == shas["P"] and report["seeds"] == list(range(1, 11))
    runs = report["workloads"]["w"]["runs"]
    assert [r["first"] for r in runs[:2]] == ["parent", "change"]
    assert [r["change"]["metrics"]["peak_rss_mb"]["value"] for r in runs] == [
        94.0 + s for s in range(1, 11)]
    assert report["workloads"]["w"]["metrics"]["peak_rss_mb"]["verdict"] == "gain"
