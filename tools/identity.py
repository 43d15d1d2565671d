"""Compare the artifacts of this checkout with those of another commit, byte for byte.

    python tools/identity.py --parent REV [--paper]

REV is exported with `git archive REV | tar -x` into a temporary
directory, so the repository's .git is only read. tools/identity_artifacts.py
of this checkout then runs once per tree, each in a fresh interpreter with
PYTHONPATH=<tree>/src, and writes its artifacts: train-step losses and
gradients, uncached forwards and validation losses at several shapes in
float32 and float64, and the files that synth, train, disaggregate and
evaluate write for a tiny house. --paper adds a train step at the paper's
kettle shape (L=128 F=32 K=8 H=512 B=32), which takes a few seconds more.

One line is printed per artifact: its name, the sha256 of the parent's and
of this checkout's copy, and `same` or `moved`. For a moved float array the
line also gives the largest absolute difference divided by the largest
magnitude in the parent's array, to read against the float32 envelope of
tests/test_precision.py. The exit status is 1 if anything moved or exists
in one tree only, and 0 if every artifact is the same.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = os.path.join(ROOT, "tools", "identity_artifacts.py")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def relative_move(parent, change):
    """max |change - parent| over the largest magnitude of parent, or None
    when the two are not float arrays of one shape."""
    if (parent.shape != change.shape or parent.dtype != change.dtype
            or parent.dtype.kind != "f"):
        return None
    scale = np.max(np.abs(parent), initial=0.0)
    diff = np.max(np.abs(change.astype(np.float64) - parent), initial=0.0)
    return diff / scale if scale else float("inf")


def compare(parent_dir, change_dir):
    """One (name, parent sha256, change sha256, status, detail) row per
    artifact in either directory, in name order. A sha256 is None for an
    artifact the tree did not write."""
    names = sorted(set(os.listdir(parent_dir)) | set(os.listdir(change_dir)))
    rows = []
    for name in names:
        paths = [os.path.join(d, name) for d in (parent_dir, change_dir)]
        digests = [sha256(p) if os.path.exists(p) else None for p in paths]
        detail = ""
        if None in digests:
            detail = "only in " + ("change" if digests[0] is None else "parent")
        elif digests[0] != digests[1] and name.endswith(".npy"):
            move = relative_move(*(np.load(p) for p in paths))
            detail = "not one float shape" if move is None else f"rel {move:.3g}"
        status = "same" if digests[0] == digests[1] else "moved"
        rows.append((name, *digests, status, detail))
    return rows


def report(rows):
    """The printed lines of compare's rows."""
    return [" ".join(filter(None, (name, parent or "-", change or "-", status, detail)))
            for name, parent, change, status, detail in rows]


def run_artifacts(tree, out, paper):
    """Run the artifact script against tree's package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    argv = [sys.executable, ARTIFACTS, out] + (["--paper"] if paper else [])
    done = subprocess.run(argv, env=env, cwd=out, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"artifacts of {tree} failed:\n{done.stderr}")
    imported = done.stdout.splitlines()[-1]
    if imported != f"nilmnet={os.path.join(os.path.realpath(tree), 'src', 'nilmnet')}":
        raise SystemExit(f"artifacts of {tree} imported another package: {imported}")


def export(rev, dest):
    """git archive rev | tar -x into dest."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"cannot export {rev}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--paper", action="store_true",
                        help="add the paper-shape train step")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity-") as scratch:
        tree = os.path.realpath(os.path.join(scratch, "parent"))
        outs = [os.path.join(scratch, side) for side in ("parent-out", "change-out")]
        for d in (tree, *outs):
            os.mkdir(d)
        export(args.parent, tree)
        for src, out in zip((tree, ROOT), outs):
            run_artifacts(src, out, args.paper)
        rows = compare(*outs)
    print("\n".join(report(rows)))
    moved = sum(status != "same" for *_, status, _ in rows)
    print(f"{len(rows) - moved} same, {moved} moved, against {args.parent}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
