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
    """Fixed layer table of the classification branch.

    The defaults are not searched over; they are only scaled down for
    toy-dimension gradient checks.
    """
    window: int
    filters: tuple = CLS_FILTERS
    kernels: tuple = CLS_KERNELS
    dense_units: int = CLS_DENSE_UNITS

    def __post_init__(self):
        if self.window < 1:
            raise DataError("window must be a positive integer")
        if len(self.filters) != len(self.kernels):
            raise DataError("filters and kernels must have equal length")
        if any(v < 1 for v in self.filters) or any(v < 1 for v in self.kernels):
            raise DataError("layer table entries must be positive")


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
    count += (prev * cls_cfg.window + 1) * cls_cfg.dense_units
    count += (cls_cfg.dense_units + 1) * cls_cfg.window
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

    def __init__(self, cfg: RegressionConfig, rng, dtype):
        self.cfg = cfg
        f, k, h = cfg.filters, cfg.kernel, cfg.hidden
        self.convs = [
            nn.Conv1D(f"reg.conv{i + 1}", 1 if i == 0 else f, f, k,
                      "relu", rng, dtype)
            for i in range(4)
        ]
        self.bilstm = nn.BiLSTM("reg.bilstm", f, h, rng, dtype)
        self.attention = nn.Attention("reg.attn", 2 * h, h, rng, dtype)
        self.fc1 = nn.Dense("reg.fc1", 2 * h, h, "relu", rng, dtype)
        self.fc2 = nn.Dense("reg.fc2", h, cfg.window, "linear", rng, dtype)

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

    @property
    def param_list(self):
        return ([c.params for c in self.convs]
                + self.bilstm.param_list
                + [self.attention.params, self.fc1.params, self.fc2.params])


class ClassificationNet:
    """Six conv layers, flatten, two dense layers ending in a sigmoid."""

    def __init__(self, cfg: ClassificationConfig, rng, dtype):
        self.cfg = cfg
        self.convs = []
        prev = 1
        for i, (f, k) in enumerate(zip(cfg.filters, cfg.kernels)):
            self.convs.append(
                nn.Conv1D(f"cls.conv{i + 1}", prev, f, k, "relu", rng, dtype))
            prev = f
        flat = prev * cfg.window
        self.fc1 = nn.Dense("cls.fc1", flat, cfg.dense_units, "relu", rng, dtype)
        self.fc2 = nn.Dense("cls.fc2", cfg.dense_units, cfg.window, "sigmoid",
                            rng, dtype)

    def forward(self, x, cache=True):
        """x: (B, L) standardized windows -> on probabilities (B, L)."""
        feats = x[:, None, :]
        for conv in self.convs:
            feats = conv.forward(feats, cache)
        flat = feats.reshape(feats.shape[0], -1)
        return self.fc2.forward(self.fc1.forward(flat, cache), cache)

    def backward(self, d_state):
        d_flat = self.fc1.backward(self.fc2.backward(d_state))
        d_feats = d_flat.reshape(len(d_flat), -1, self.cfg.window)
        for conv in reversed(self.convs):
            d_feats = conv.backward(d_feats)
        return d_feats[:, 0, :]

    @property
    def param_list(self):
        return ([c.params for c in self.convs]
                + [self.fc1.params, self.fc2.params])


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
    """

    def __init__(self, reg_cfg: RegressionConfig, cls_cfg: ClassificationConfig,
                 appliance: str = "", rng=None, dtype=np.float32,
                 norm_meta=None):
        if reg_cfg.window != cls_cfg.window:
            raise ValueError("both subnetworks must share the same window length")
        self.reg_cfg = reg_cfg
        self.cls_cfg = cls_cfg
        self.appliance = appliance
        self.dtype = np.dtype(dtype)
        self.norm_meta = norm_meta
        self.regression = RegressionNet(reg_cfg, rng, dtype)
        self.classification = ClassificationNet(cls_cfg, rng, dtype)
        self._weights, self._grads = nn.pack_params(self.all_params())
        self._gate_cache = None

    @classmethod
    def init(cls, reg_cfg, cls_cfg=None, appliance="", seed=0, dtype=np.float32):
        """Randomly initialized model; a fixed seed fixes every weight."""
        if cls_cfg is None:
            cls_cfg = ClassificationConfig(window=reg_cfg.window)
        rng = np.random.default_rng(seed)
        return cls(reg_cfg, cls_cfg, appliance, rng=rng, dtype=dtype)

    @classmethod
    def zeros(cls, reg_cfg, cls_cfg=None, appliance="", dtype=np.float32):
        if cls_cfg is None:
            cls_cfg = ClassificationConfig(window=reg_cfg.window)
        return cls(reg_cfg, cls_cfg, appliance, rng=None, dtype=dtype)

    @property
    def window(self):
        return self.reg_cfg.window

    def all_params(self):
        """Every parameter tensor group, in the fixed serialization order."""
        return self.regression.param_list + self.classification.param_list

    def zero_grads(self):
        self._grads.fill(0.0)

    @property
    def n_params(self):
        return self._weights.size

    def _as_batch(self, x):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 1:
            return x[None, :], True
        if x.ndim != 2:
            raise ShapeError(f"expected (L,) or (B, L) windows, got {x.shape}")
        return x, False

    def forward_regression(self, window):
        """Power estimate and attention weights for standardized windows."""
        x, single = self._as_batch(window)
        self._check_window(x)
        power, alpha = self.regression.forward(x)
        if single:
            return power[0], alpha[0]
        return power, alpha

    def forward_classification(self, window):
        """On/off probability in [0, 1].

        In float32 the sigmoid rounds to exactly 1.0 above an input of about
        17 and to exactly 0.0 below about -20, so both ends occur; bce_loss
        clamps its prediction to [eps, 1 - eps] before taking logs.
        """
        x, single = self._as_batch(window)
        self._check_window(x)
        state = self.classification.forward(x)
        return state[0] if single else state

    def forward(self, window, cache=True) -> ForwardResult:
        """Full gated forward pass: output[t] = power[t] * state[t].

        cache=False keeps no backward caches (inference): every layer then
        frees its activations as soon as the next layer has used them, and
        a backward that follows raises instead of reusing stale caches.
        """
        x, single = self._as_batch(window)
        self._check_window(x)
        power, alpha = self.regression.forward(x, cache)
        state = self.classification.forward(x, cache)
        output = power * state
        self._gate_cache = (power, state) if cache else None
        if single:
            return ForwardResult(output[0], power[0], state[0], alpha[0])
        return ForwardResult(output, power, state, alpha)

    def backward(self, d_output, d_state_extra=None):
        """Backpropagate gradients of the gated output (and extra state grad).

        The product rule routes d_output into both branches; gradients
        accumulate additively into the parameter buffers.
        """
        if self._gate_cache is None:
            raise RuntimeError("backward called before forward")
        power, state = self._gate_cache
        d_output = np.atleast_2d(np.asarray(d_output, dtype=self.dtype))
        d_power = d_output * state
        d_state = d_output * power
        if d_state_extra is not None:
            d_state = d_state + np.atleast_2d(
                np.asarray(d_state_extra, dtype=self.dtype))
        self.regression.backward(d_power)
        self.classification.backward(d_state)

    def train_step_grads(self, windows, target_power, target_state):
        """Forward + joint loss + backward for one mini-batch.

        Loss and accumulated gradients are means over the batch. Returns
        the scalar loss.
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

    def _check_window(self, x):
        if x.shape[1] != self.window:
            raise ShapeError(
                f"window length {x.shape[1]} does not match model window "
                f"{self.window}")

    def snapshot_weights(self):
        """Copy of the flat weight vector, for best-epoch checkpointing."""
        return self._weights.copy()

    def restore_weights(self, snapshot):
        self._weights[...] = snapshot
