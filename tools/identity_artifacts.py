"""Write the artifacts that a byte-identity check compares between two trees.

    PYTHONPATH=<tree>/src python tools/identity_artifacts.py OUT_DIR [--paper]

Every artifact is one file in OUT_DIR: a float array as .npy (a loss, a
gradient vector, a forward output), or a file the command line writes (a
checkpoint, a channel CSV, a training record, an evaluation report). The
last line of standard output names the nilmnet package that was imported,
so the caller can check that it came from the tree it meant.

Only APIs that nilmnet had at commit 9f80101 are called, so any later pair
of trees can be compared with this one script. Every input is seeded.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import sys

import numpy as np

import nilmnet
from nilmnet import cli, data, training
from nilmnet.model import ClassificationConfig, GatedAttentionModel, RegressionConfig

BOTH = (np.float32, np.float64)
TOY = RegressionConfig(window=64, filters=8, kernel=4, hidden=32)
# A train step per shape and dtype: (name, regression, classification,
# batch, dtypes). The toy shape has the paper's classification branch.
STEPS = (
    ("toy_b32", TOY, ClassificationConfig(), 32, BOTH),
    ("toy_b1", TOY, ClassificationConfig(), 1, BOTH),
    ("t13_h8_b3", RegressionConfig(window=13, filters=4, kernel=3, hidden=8),
     ClassificationConfig(filters=(3, 5), kernels=(4, 3), dense_units=16), 3, BOTH),
)
PAPER_STEPS = (
    ("paper_b32", RegressionConfig(window=128, filters=32, kernel=8, hidden=512),
     ClassificationConfig(), 32, (np.float32,)),
)

# A tiny noisy house: 1000 samples at 3 s, so the 985 hop-1 windows of the
# disaggregation end in a partial batch of 217.
CONFIG = """\
[appliance heater]
window_l = 16
on_threshold_w = 40
min_on_s = 24
min_off_s = 24
max_power_w = 200

[train]
max_epochs = 3
patience = 3
seed = 7
batch_size = 16
base_lr = 0.05
window_stride = 1
val_fraction = 0.15

[model]
filters = 2
kernel = 4
hidden = 4
"""
# The same house at a rate and patience with which the third epoch's
# validation loss rises: the run stops early and keeps the second epoch's
# weights.
EARLY_STOP_CONFIG = (CONFIG.replace("max_epochs = 3", "max_epochs = 8")
                     .replace("patience = 3", "patience = 1")
                     .replace("base_lr = 0.05", "base_lr = 0.1"))
# The grid search trains each point for one epoch, so it adds about a second.
GRID_CONFIG = CONFIG.replace("max_epochs = 3", "max_epochs = 1")


def train_step_artifacts(out, name, reg, cls_cfg, batch, dtype):
    """Loss and gradients of one seeded train step, then the uncached
    forward's outputs and the validation loss of the same batch."""
    model = GatedAttentionModel.init(reg, cls_cfg, seed=11, dtype=dtype)
    rng = np.random.default_rng(batch)
    windows, power = rng.normal(size=(2, batch, reg.window))
    state = (rng.random((batch, reg.window)) > 0.5).astype(float)
    prefix = os.path.join(out, f"{name}_{np.dtype(dtype).name}")
    np.save(f"{prefix}_loss.npy", np.asarray(model.train_step_grads(windows, power, state)))
    np.save(f"{prefix}_grads.npy", model.grads)
    uncached_forward_artifacts(prefix, model, windows)
    np.save(f"{prefix}_batch_loss.npy", np.asarray(model.batch_loss(windows, power, state)))


def uncached_forward_artifacts(prefix, model, windows):
    """The output, power, state and attention of an uncached forward."""
    result = model.forward(windows, cache=False)
    for key in ("output", "power", "state", "attention"):
        np.save(f"{prefix}_uncached_{key}.npy", getattr(result, key))


def inference_batch_artifacts(out):
    """The uncached forward of one B=256 batch, the batch disaggregate
    runs, of seeded toy windows through the float32 toy model."""
    model = GatedAttentionModel.init(TOY, ClassificationConfig(), seed=11)
    windows = np.random.default_rng(256).normal(size=(256, TOY.window))
    uncached_forward_artifacts(os.path.join(out, "toy_b256_float32"), model, windows)


def paper_train_artifacts(out):
    """The weights after two B=32 steps of training.train at the paper
    shape, from the seeded init of the paper train step and 64 windows of
    seeded noise; the empty validation set makes the epoch monitor the
    training loss."""
    reg = PAPER_STEPS[0][1]
    rng = np.random.default_rng(64)
    n = 64 + reg.window - 1
    x, y = rng.normal(size=(2, n))
    ws = data.sliding_windows(x, y, (rng.random(n) > 0.5).astype(float), reg.window)
    model = GatedAttentionModel.init(reg, seed=11)
    with contextlib.redirect_stdout(io.StringIO()):
        training.train(model, ws, ws.take(np.arange(0)),
                       training.TrainConfig(max_epochs=1, batch_size=32))
    np.save(os.path.join(out, "paper_train_weights.npy"), model.weights)


def run_cli(*argv):
    """cli.main on argv; returns its standard output and raises on a
    non-zero exit."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"nilmnet {' '.join(map(str, argv))} exited {code}")
    return stdout.getvalue()


def without_wall_time(src, dst):
    """The training record without its wall_time_s column, which no two
    runs share."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [v for i, v in enumerate(row) if i != drop] for row in rows)


def cli_artifacts(out):
    """synth, train (3 epochs, an early-stopped run, and a grid search),
    disaggregate with the attention export, and evaluate, in a directory
    of their own."""
    work = os.path.join(out, "work")
    os.makedirs(work)
    os.chdir(work)
    for name, text in (("run.ini", CONFIG), ("early.ini", EARLY_STOP_CONFIG),
                       ("grid.ini", GRID_CONFIG)):
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    run_cli("synth", "--config", "run.ini", "--out", "house", "--duration-s", 3000,
            "--noise-std", 5, "--seed", 3)
    series = ("--aggregate", "house/aggregate.csv", "--appliance", "house/heater.csv",
              "--appliance-name", "heater")
    run_cli("train", "--config", "run.ini", *series, "--out", "model.ckpt")
    stopped = run_cli("train", "--config", "early.ini", *series, "--out", "early.ckpt")
    run_cli("train", "--config", "grid.ini", *series, "--grid", "F=2,4;K=4;H=8",
            "--out", "grid.ckpt")
    run_cli("disaggregate", "--checkpoint", "model.ckpt", "--input", "house/aggregate.csv",
            "--out", "prediction.csv", "--export-attention")
    run_cli("evaluate", "--prediction", "prediction.csv", "--truth", "house/heater.csv",
            "--appliance-name", "heater", "--period-k", 10, "--out", "results.csv")
    for src, dst in (("house/aggregate.csv", "synth_aggregate.csv"),
                     ("house/heater.csv", "synth_heater.csv"),
                     ("model.ckpt", "train.ckpt"), ("early.ckpt", "early_stop.ckpt"),
                     ("grid.ckpt", "train_grid.ckpt"),
                     ("grid.grid.csv", "train_grid_leaderboard.csv"),
                     ("prediction.csv", "disaggregate_prediction.csv"),
                     ("prediction.attention.csv", "disaggregate_attention.csv"),
                     ("results.csv", "evaluate_results.csv")):
        os.replace(src, os.path.join(out, dst))
    without_wall_time("model.train.csv", os.path.join(out, "train_record.csv"))
    without_wall_time("early.train.csv", os.path.join(out, "early_stop_record.csv"))
    with open(os.path.join(out, "early_stop_line.txt"), "w", encoding="utf-8") as fh:
        fh.write(next(line for line in stopped.splitlines()
                      if line.startswith("stopped=")) + "\n")
    os.chdir(out)
    shutil.rmtree(work)


def main(argv):
    if not argv or argv[1:] not in ([], ["--paper"]):
        raise SystemExit("usage: identity_artifacts.py OUT_DIR [--paper]")
    out, paper = os.path.abspath(argv[0]), argv[1:] == ["--paper"]
    os.makedirs(out, exist_ok=True)
    for name, reg, cls_cfg, batch, dtypes in STEPS + (PAPER_STEPS if paper else ()):
        for dtype in dtypes:
            train_step_artifacts(out, name, reg, cls_cfg, batch, dtype)
    inference_batch_artifacts(out)
    if paper:
        paper_train_artifacts(out)
    cli_artifacts(out)
    print(f"nilmnet={os.path.dirname(os.path.realpath(nilmnet.__file__))}")


if __name__ == "__main__":
    main(sys.argv[1:])
