"""Benchmark HEAD against another commit in alternating pairs; write BENCH_<short-sha>.json.

    python tools/bench_compare.py --parent REV --seeds A-B

The change is HEAD, so commit it first. Both commits are exported with
tools/identity.py's `git archive` driver into two directories of equal path
length (peak_rss_mb moves with heap layout), and the change's perfbench/ is
copied over the parent's, so both sides run the same benchmark code. For
each workload of BENCHMARK.json and each seed from A to B, the unchanged
perfbench/run.py runs once per tree in a fresh process for
BENCHMARK.json's run_seconds; the side that runs first alternates from
pair to pair.

BENCH_<short-sha>.json, written at the root of this checkout, holds the
environment stamp of the first run, every run's metrics, and per workload
and end-to-end metric both medians, both quartile pairs, the parent's
spread, change_vs_parent (the share of the parent's median by which the
change's is better; negative when worse), the pairs the change read better
and a verdict, read as perfbench/README.md's "How to read a comparison"
reads it:

- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- gain: the change reads better in at least nine tenths of the pairs, ties
  counting for neither, its median is better by more than the distance
  between the parent's quartiles, and no larger share of its operations
  failed;
- unresolved: the parent's spread, that distance over the parent's median,
  is wider than the bound, and not every change run is better than every
  parent run;
- no change: none of these.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from identity import ROOT, export

GAIN_SHARE = 0.9      # pairs a gain must win


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent, change, better, bound, failed_more=False):
    """The comparison of one metric's paired runs, parent[i] against
    change[i], where better is "lower" or "higher" and bound is the share
    by which the median may worsen. failed_more: the change failed a larger
    share of its operations, so it cannot claim a gain."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    scale = abs(p_med) or 1.0         # a zero median leaves both absolute
    spread, worse_by = iqr / scale, sign * (c_med - p_med) / scale
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if worse_by > bound:
        result = "worse"
    elif (won >= GAIN_SHARE * len(parent) and sign * (p_med - c_med) > iqr
          and not failed_more):
        result = "gain"
    elif spread > bound and not every_run_better:
        result = "unresolved"
    else:
        result = "no change"
    return {"parent_median": p_med, "parent_quartiles": [p_q1, p_q3],
            "parent_spread": spread, "change_median": c_med,
            "change_quartiles": [c_q1, c_q3], "change_vs_parent": -worse_by,
            "pairs_better": won, "pairs": len(parent),
            "every_change_run_better": every_run_better, "verdict": result}


def compare_workload(pairs, end_to_end):
    """Per-metric verdicts of one workload's pairs, each pair a dict with
    the "parent" and "change" results of perfbench/run.py's last line."""
    totals = {side: {key: sum(p[side][key] for p in pairs)
                     for key in ("attempted", "failed")}
              for side in ("parent", "change")}
    share = {side: t["failed"] / t["attempted"] if t["attempted"] else 1.0
             for side, t in totals.items()}
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                         "bound": spec["bound"],
                         **verdict(values["parent"], values["change"], spec["better"],
                                   spec["bound"], share["change"] > share["parent"])}
    return {"operations": totals, "metrics": metrics}


def run_once(tree, workload, seed, seconds):
    """perfbench/run.py in tree: (its info line, its result line)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} in {tree} failed:\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def rev_sha(rev):
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def parse_seeds(text):
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare HEAD against")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seed range A-B, one pair per seed")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    shas = {"parent": rev_sha(args.parent), "change": rev_sha("HEAD")}
    report = {"parent": {"rev": args.parent, "sha": shas["parent"]},
              "change": {"rev": "HEAD", "sha": shas["change"]},
              "seconds": bench["run_seconds"], "seeds": args.seeds,
              "environment": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-") as scratch:
        trees = {side: os.path.join(scratch, side) for side in ("parent", "change")}
        for side, tree in trees.items():
            os.mkdir(tree)
            export(shas[side], tree)
        shutil.rmtree(os.path.join(trees["parent"], "perfbench"))
        shutil.copytree(os.path.join(trees["change"], "perfbench"),
                        os.path.join(trees["parent"], "perfbench"))
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    info, pair[side] = run_once(trees[side], workload, seed,
                                                bench["run_seconds"])
                    if report["environment"] is None:
                        report["environment"] = {k: v for k, v in info["environment"].items()
                                                 if not k.startswith("git_")}
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{k}={v['value']:.6g}" for k, v in pair[side]["metrics"].items()),
                        flush=True)
                pairs.append(pair)
            report["workloads"][workload] = {
                **compare_workload(pairs, bench["end_to_end"]), "runs": pairs}
    out = os.path.join(ROOT, f"BENCH_{shas['change'][:7]}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, result in report["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"({m['pairs_better']}/{m['pairs']} better) {m['verdict']}")
    print(f"wrote {out}")
    return 1 if any(m["verdict"] == "worse" for r in report["workloads"].values()
                    for m in r["metrics"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
