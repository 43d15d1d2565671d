"""The gated attention disaggregation network.

Two subnetworks see the same standardized aggregate window. The regression
branch (conv encoder -> bidirectional LSTM -> feed-forward attention ->
dense decoder) estimates the appliance power; the classification branch
(six conv layers -> two dense layers) estimates the per-sample on/off
probability. The final output is their elementwise product, and the joint
training loss is MSE on the gated output plus BCE on the state estimate,
with the MSE gradient flowing through the gate into both branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import DataError, ShapeError

CLS_FILTERS = (30, 30, 40, 50, 50, 50)
CLS_KERNELS = (10, 8, 6, 5, 5, 5)
CLS_DENSE_UNITS = 1024

# Windows per cache-free forward pass, in validation and in disaggregation.
INFERENCE_BATCH = 256


@dataclass(frozen=True)
class RegressionConfig:
    """Hyperparameters of the regression branch.

    window: samples per window; filters/kernel: the four identical conv
    layers; hidden: LSTM units per direction, attention units, and decoder
    width.
    """
    window: int
    filters: int = 32
    kernel: int = 8
    hidden: int = 512

    def __post_init__(self):
        for name in ("window", "filters", "kernel", "hidden"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class ClassificationConfig:
    """Layer table of the classification branch: conv filters and kernels,
    then the hidden dense width.

    The branch reads the same window as the regression branch, so the
    window is the model's and lives in RegressionConfig. The defaults are
    not searched over; they are only scaled down for toy-dimension gradient
    checks. The config is frozen, so its default instance can be shared.
    """
    filters: tuple = CLS_FILTERS
    kernels: tuple = CLS_KERNELS
    dense_units: int = CLS_DENSE_UNITS

    def __post_init__(self):
        if len(self.filters) != len(self.kernels):
            raise DataError("filters and kernels must have equal length")
        if any(v < 1 for v in self.filters) or any(v < 1 for v in self.kernels):
            raise DataError("layer table entries must be positive")
        if self.dense_units < 1:
            raise DataError("dense_units must be a positive integer")


def parameter_count(reg_cfg: RegressionConfig, cls_cfg: ClassificationConfig):
    """Number of parameters of the model the two configs describe.

    Computed from the dims alone, so a checkpoint loader can check a header
    against the file length before allocating anything.
    """
    f, k, h = reg_cfg.filters, reg_cfg.kernel, reg_cfg.hidden
    count = (f * k + f) + 3 * (f * f * k + f)          # four conv layers
    count += 2 * 4 * h * (f + h + 1)                   # BiLSTM, W U b per direction
    count += 2 * h * h + 2 * h                         # attention W b v
    count += (2 * h * h + h) + (h + 1) * reg_cfg.window  # fc1, fc2
    prev = 1
    for filters, kernel in zip(cls_cfg.filters, cls_cfg.kernels):
        count += filters * prev * kernel + filters
        prev = filters
    count += (prev * reg_cfg.window + 1) * cls_cfg.dense_units
    count += (cls_cfg.dense_units + 1) * reg_cfg.window
    return count


@dataclass
class ForwardResult:
    """Outputs of one forward pass, all in normalized units."""
    output: np.ndarray       # gated power estimate, (B, L)
    power: np.ndarray        # regression branch output, (B, L)
    state: np.ndarray        # on probability, (B, L), in [0, 1], ends included
    attention: np.ndarray    # attention weights, (B, L)


class RegressionNet:
    """Conv encoder, BiLSTM, attention unit, and dense decoder."""

    def __init__(self, cfg: RegressionConfig, rng, arena):
        f, k, h = cfg.filters, cfg.kernel, cfg.hidden
        self.convs = [
            nn.Conv1D(f"reg.conv{i + 1}", 1 if i == 0 else f, f, k,
                      "relu", rng, arena=arena)
            for i in range(4)
        ]
        self.bilstm = nn.BiLSTM("reg.bilstm", f, h, rng, arena=arena)
        self.attention = nn.Attention("reg.attn", 2 * h, h, rng, arena=arena)
        self.fc1 = nn.Dense("reg.fc1", 2 * h, h, "relu", rng, arena=arena)
        self.fc2 = nn.Dense("reg.fc2", h, cfg.window, "linear", rng, arena=arena)

    def forward(self, x, cache=True):
        """x: (B, L) standardized windows -> (power (B, L), alpha (B, L))."""
        feats = x[:, None, :]
        for conv in self.convs:
            feats = conv.forward(feats, cache)
        hidden = self.bilstm.forward(feats.transpose(0, 2, 1), cache)
        context, alpha = self.attention.forward(hidden, cache)
        return self.fc2.forward(self.fc1.forward(context, cache), cache), alpha

    def backward(self, d_power):
        d_context = self.fc1.backward(self.fc2.backward(d_power))
        d_hidden = self.attention.backward(d_context)
        d_feats = self.bilstm.backward(d_hidden).transpose(0, 2, 1)
        for conv in reversed(self.convs):
            d_feats = conv.backward(d_feats)
        return d_feats[:, 0, :]


class ClassificationNet:
    """Six conv layers, flatten, two dense layers ending in a sigmoid."""

    def __init__(self, cfg: ClassificationConfig, window, rng, arena):
        self.window = window
        self.convs = []
        prev = 1
        for i, (f, k) in enumerate(zip(cfg.filters, cfg.kernels)):
            self.convs.append(
                nn.Conv1D(f"cls.conv{i + 1}", prev, f, k, "relu", rng, arena=arena))
            prev = f
        self.fc1 = nn.Dense("cls.fc1", prev * window, cfg.dense_units, "relu",
                            rng, arena=arena)
        self.fc2 = nn.Dense("cls.fc2", cfg.dense_units, window, "sigmoid",
                            rng, arena=arena)

    def forward(self, x, cache=True):
        """x: (B, L) standardized windows -> on probabilities (B, L)."""
        feats = x[:, None, :]
        for conv in self.convs:
            feats = conv.forward(feats, cache)
        flat = feats.reshape(feats.shape[0], -1)
        return self.fc2.forward(self.fc1.forward(flat, cache), cache)

    def backward(self, d_state):
        d_flat = self.fc1.backward(self.fc2.backward(d_state))
        d_feats = d_flat.reshape(len(d_flat), -1, self.window)
        for conv in reversed(self.convs):
            d_feats = conv.backward(d_feats)
        return d_feats[:, 0, :]


def joint_loss(output, state, target_power, target_state):
    """MSE on the gated output plus BCE on the state estimate.

    Returns (loss, d_output, d_state_extra); the state gradient here is the
    BCE part only — the gate contributes its share in the model backward.
    target_state must be binary.
    """
    mse, d_output = nn.mse_loss(output, target_power)
    bce, d_state = nn.bce_loss(state, target_state)
    return mse + bce, d_output, d_state


class GatedAttentionModel:
    """Both subnetworks plus the gating that couples them.

    Construct with `init` for random weights or `zeros` for an all-zero
    model; `norm_meta` carries the training-set normalization statistics
    and must be attached before disaggregation.

    The model owns its parameter arena, sized by `parameter_count`:
    `weights` and `grads` are flat vectors, and every LayerParams tensor is
    built as a reshaped view into them. `all_params()` is the arena's record
    of the groups, in the order the layers took them.
    """

    def __init__(self, reg_cfg: RegressionConfig, cls_cfg: ClassificationConfig,
                 appliance: str = "", rng=None, dtype=np.float32):
        self.reg_cfg = reg_cfg
        self.cls_cfg = cls_cfg
        self.appliance = appliance
        self.dtype = np.dtype(dtype)
        self.norm_meta = None
        arena = nn.Arena(parameter_count(reg_cfg, cls_cfg), self.dtype)
        self.regression = RegressionNet(reg_cfg, rng, arena)
        self.classification = ClassificationNet(cls_cfg, reg_cfg.window, rng, arena)
        if arena.used != arena.weights.size:
            raise ShapeError(f"layers use {arena.used} of {arena.weights.size} entries")
        self.weights, self.grads, self._groups = arena.weights, arena.grads, arena.groups
        self._gate_cache = None

    @classmethod
    def init(cls, reg_cfg, cls_cfg=ClassificationConfig(), appliance="", seed=0,
             dtype=np.float32):
        """Randomly initialized model; a fixed seed fixes every weight."""
        rng = np.random.default_rng(seed)
        return cls(reg_cfg, cls_cfg, appliance, rng=rng, dtype=dtype)

    @classmethod
    def zeros(cls, reg_cfg, cls_cfg=ClassificationConfig(), appliance="",
              dtype=np.float32):
        return cls(reg_cfg, cls_cfg, appliance, rng=None, dtype=dtype)

    @property
    def window(self):
        return self.reg_cfg.window

    def all_params(self):
        """Every parameter tensor group, in the order the layers took them
        from the arena, which is also the serialization order."""
        return list(self._groups)

    @property
    def n_params(self):
        return self.weights.size

    def forward(self, windows, cache=True) -> ForwardResult:
        """Gated forward pass over (B, L) standardized windows.

        output[t] = power[t] * state[t]. Any other shape raises ShapeError.
        cache=False keeps no backward caches (inference): every layer then
        frees its activations as soon as the next layer has used them, and
        a backward that follows raises instead of reusing stale caches.
        """
        x = np.asarray(windows, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.window:
            raise ShapeError(f"expected (B, {self.window}) windows, got {x.shape}")
        power, alpha = self.regression.forward(x, cache)
        state = self.classification.forward(x, cache)
        self._gate_cache = (power, state) if cache else None
        return ForwardResult(power * state, power, state, alpha)

    def backward(self, d_output, d_state_extra=None):
        """Backpropagate gradients of the gated output (and extra state grad).

        The product rule routes d_output into both branches, and every
        layer writes its parameter gradients, so the call sets every entry
        of `grads` and nothing needs zeroing first. Like every layer's, the
        forward's cache feeds exactly one backward, which frees it.
        """
        if self._gate_cache is None:
            raise RuntimeError("backward called before forward")
        power, state = self._gate_cache
        self._gate_cache = None
        d_output = np.asarray(d_output, dtype=self.dtype)
        d_power = d_output * state
        d_state = d_output * power
        if d_state_extra is not None:
            d_state = d_state + np.asarray(d_state_extra, dtype=self.dtype)
        self.regression.backward(d_power)
        self.classification.backward(d_state)

    def train_step_grads(self, windows, target_power, target_state):
        """Forward + joint loss + backward for one mini-batch.

        Loss and gradients are means over the batch; the backward overwrites
        all of `grads`, so the previous step's gradients need no reset.
        Returns the scalar loss.
        """
        result = self.forward(windows)
        loss, d_output, d_state = joint_loss(
            result.output, result.state,
            np.asarray(target_power, dtype=self.dtype),
            np.asarray(target_state, dtype=self.dtype))
        self.backward(d_output, d_state)
        return loss

    def batch_loss(self, windows, target_power, target_state):
        """Joint loss without touching gradients (validation path)."""
        result = self.forward(windows, cache=False)
        loss, _, _ = joint_loss(
            result.output, result.state,
            np.asarray(target_power, dtype=self.dtype),
            np.asarray(target_state, dtype=self.dtype))
        return loss

    def snapshot_weights(self, out=None):
        """Copy of the flat weight vector, for best-epoch checkpointing.

        With out given (an earlier snapshot), the weights are copied into it
        and out is returned, so no new buffer is mapped per call.
        """
        if out is None:
            return self.weights.copy()
        if out.shape != self.weights.shape:
            raise ShapeError(f"snapshot buffer {out.shape} does not match "
                             f"{self.weights.shape}")
        out[...] = self.weights
        return out

    def restore_weights(self, snapshot):
        """Copy a snapshot of the same shape back into the flat weights."""
        if np.shape(snapshot) != self.weights.shape:
            raise ShapeError(f"snapshot {np.shape(snapshot)} does not match "
                             f"{self.weights.shape}")
        self.weights[...] = snapshot
