"""Mini-batch training with early stopping, plus hyperparameter grid search.

The trainer consumes already-normalized window sets (inputs standardized,
targets min-maxed on training-set statistics) and owns the model parameters
exclusively while running. It prints one machine-parsable progress line per
epoch:

    epoch=<n> train_loss=<f> val_loss=<f> lr=<f>
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from math import isfinite

import numpy as np

from . import nn
from .errors import DataError, NumericalError
from .model import (INFERENCE_BATCH, ClassificationConfig, GatedAttentionModel,
                    RegressionConfig)

GRID_F = (16, 32, 64)
GRID_K = (4, 8, 16)
GRID_H = (256, 512, 1024)


@dataclass
class TrainConfig:
    """Settings of one training run, and the one home of their defaults.

    train() reads batch_size, max_epochs, patience and seed (the shuffle;
    grid_search and `nilmnet train` also seed the model initialization with
    it), and hands base_lr, momentum and decay to nn.SgdNesterov, which has
    no defaults of its own. val_fraction and window_stride are not read by
    train(): `nilmnet train` applies them when it builds the window sets, as
    the split_train_val fraction (again without a default there) and the
    sliding_windows hop.
    """
    batch_size: int = 32
    max_epochs: int = 100
    base_lr: float = 0.01
    momentum: float = 0.9
    decay: float = 1e-6
    patience: int = 5
    val_fraction: float = 0.15
    seed: int = 0
    window_stride: int = 1

    def __post_init__(self):
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise DataError("max_epochs must be >= 1")
        if not (isfinite(self.base_lr) and self.base_lr >= 0):
            raise DataError(f"base_lr must be finite and >= 0, got {self.base_lr}")
        if not 0 <= self.momentum < 1:
            raise DataError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (isfinite(self.decay) and self.decay >= 0):
            raise DataError(f"decay must be finite and >= 0, got {self.decay}")
        if self.patience < 1:
            raise DataError("patience must be >= 1")
        if self.window_stride < 1:
            raise DataError("window_stride must be >= 1")
        if self.seed < 0:
            raise DataError("seed must be >= 0")


@dataclass
class TrainRecord:
    """Per-epoch losses and the outcome of the run."""
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    best_epoch: int = 0            # 1-based index into the loss lists
    stop_reason: str = ""          # "early_stop" or "max_epochs"

    @property
    def best_val_loss(self):
        return min(self.val_losses) if self.val_losses else float("nan")


def _epoch_loss(model, ws):
    """Mean joint loss over a window set, evaluated in inference batches."""
    total = 0.0
    for lo in range(0, len(ws), INFERENCE_BATCH):
        hi = min(lo + INFERENCE_BATCH, len(ws))
        total += model.batch_loss(*ws.batch(slice(lo, hi))) * (hi - lo)
    return total / len(ws)


def _in_model_dtype(ws, dtype):
    """ws with its input and target series cast to dtype, once for the run.

    forward and the loss would cast every gathered batch to the same
    values, so the cast saves work and changes no result.
    """
    return replace(ws, x=ws.x.astype(dtype, copy=False),
                   y=ws.y.astype(dtype, copy=False))


def train(model: GatedAttentionModel, train_ws, val_ws, cfg: TrainConfig):
    """Optimize the model on normalized windows; returns (model, record).

    The input and target series of both window sets are cast to
    model.dtype once, before the first epoch, and every (B, L) batch is
    gathered from them by WindowSet.batch, so no (N, L) array is built.
    Mini-batches are drawn in a seeded shuffle; validation loss is computed
    after every epoch with the identical joint loss. Training stops after
    `patience` epochs without validation improvement or at max_epochs, and
    the parameters of the best-validation epoch are restored before
    returning. A non-finite loss aborts with NumericalError.

    A weight snapshot is kept only while a later epoch could overwrite the
    best weights: it is first taken after an improving epoch that is not
    the last one allowed, and it is restored only when the best epoch is
    not the last one run. A 1-epoch run takes no snapshot, and a longer
    one holds the copy from the end of epoch 1 on.

    The optimizer is attached to the model for the call, as a caller
    training by hand attaches one (GatedAttentionModel.attached): each
    layer backward hands its parameters' gradient to it as it returns, and
    the gradient is dropped once applied, so the call makes no grad vector
    and holds one layer's gradients at a time. A grad vector that existed
    before the call is neither written nor read by it, and an optimizer
    attached before the call is attached again when it returns.
    """
    if len(train_ws) == 0:
        raise DataError("training set is empty")
    optimizer = nn.SgdNesterov(model.weights, cfg.base_lr, cfg.momentum, cfg.decay)
    with model.attached(optimizer):
        return _train(model, optimizer, train_ws, val_ws, cfg)


def _train(model, optimizer, train_ws, val_ws, cfg):
    """The epochs of train, with optimizer attached to model."""
    monitor_train = len(val_ws) == 0
    train_ws = _in_model_dtype(train_ws, model.dtype)
    val_ws = _in_model_dtype(val_ws, model.dtype)
    rng = np.random.default_rng(cfg.seed)
    record = TrainRecord()
    best_val = np.inf
    best_weights = None
    bad_epochs = 0
    n = len(train_ws)
    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        epoch_total = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            loss = model.train_step_grads(*train_ws.batch(batch))
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss {loss} in epoch {epoch} "
                    f"(batch starting at {lo}); aborting")
            optimizer.step()
            epoch_total += loss * batch.size
        train_loss = epoch_total / n
        val_loss = train_loss if monitor_train else _epoch_loss(model, val_ws)
        if not np.isfinite(val_loss):
            raise NumericalError(f"non-finite validation loss in epoch {epoch}")
        record.train_losses.append(train_loss)
        record.val_losses.append(val_loss)
        record.wall_times.append(time.perf_counter() - started)
        print(f"epoch={epoch} train_loss={train_loss:.6g} "
              f"val_loss={val_loss:.6g} lr={optimizer.effective_lr:.6g}")
        if val_loss < best_val:
            best_val = val_loss
            record.best_epoch = epoch
            if epoch < cfg.max_epochs:
                best_weights = model.snapshot_weights(out=best_weights)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                record.stop_reason = "early_stop"
                break
    if not record.stop_reason:
        record.stop_reason = "max_epochs"
    if record.best_epoch < len(record.val_losses):
        model.restore_weights(best_weights)
    return model, record


@dataclass
class GridResult:
    best_config: RegressionConfig
    best_model: GatedAttentionModel
    best_record: TrainRecord
    # (config, best validation loss, parameter count) per grid point
    leaderboard: list


def grid_search(train_ws, val_ws, cfg: TrainConfig, filters=GRID_F,
                kernel=GRID_K, hidden=GRID_H, appliance="",
                cls_cfg=ClassificationConfig()) -> GridResult:
    """Exhaustive search over the regression net's filters, kernel and hidden.

    The grid keywords are RegressionConfig's field names, each a sequence of
    values to try; the window is the one the window sets were cut with.
    Every grid point trains a fresh model from the same seed on the same
    windows; the classification table is held fixed. Points are ranked by
    best validation loss, ties broken by smaller parameter count and then
    by grid order. Points are independent of each other, so they could run
    in parallel; this implementation trains them sequentially.
    """
    # Every point is checked before the first one trains.
    points = [RegressionConfig(window=train_ws.window, filters=f, kernel=k, hidden=h)
              for f, k, h in itertools.product(filters, kernel, hidden)]
    if not points:
        raise DataError("hyperparameter grid is empty")
    leaderboard = []
    best_key = best = None
    for index, reg_cfg in enumerate(points):
        f, k, h = reg_cfg.filters, reg_cfg.kernel, reg_cfg.hidden
        model = GatedAttentionModel.init(reg_cfg, cls_cfg, appliance,
                                         seed=cfg.seed)
        print(f"grid point={index + 1}/{len(points)} f={f} k={k} h={h} "
              f"params={model.n_params}")
        model, record = train(model, train_ws, val_ws, cfg)
        leaderboard.append((reg_cfg, record.best_val_loss, model.n_params))
        print(f"grid f={f} k={k} h={h} val_loss={record.best_val_loss:.6g}")
        # Only the best model so far is kept, not one per grid point.
        key = (record.best_val_loss, model.n_params, index)
        if best_key is None or key < best_key:
            best_key, best = key, (reg_cfg, model, record)
        del model
    return GridResult(*best, leaderboard)
