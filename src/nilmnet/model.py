"""The gated attention disaggregation network.

Two subnetworks see the same standardized aggregate window. The regression
branch (conv encoder -> bidirectional LSTM -> feed-forward attention ->
dense decoder) estimates the appliance power; the classification branch
(six conv layers -> two dense layers) estimates the per-sample on/off
probability. The final output is their elementwise product, and the joint
training loss is MSE on the gated output plus BCE on the state estimate,
with the MSE gradient flowing through the gate into both branches.

Both branches open with a conv stack, stated once: _conv_stack builds a
branch's layers from its (filters, kernels) table, _conv_forward and
_conv_backward walk them, and parameter_count counts them from the same
tables. Each branch builds its own stack at the point the v1 tensor order
puts it, so the rng draws follow that order.
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

    @property
    def conv_table(self):
        """(filters, kernels) of the four identical conv layers."""
        return (self.filters,) * 4, (self.kernel,) * 4


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
    h, window = reg_cfg.hidden, reg_cfg.window
    count = 0                                          # the two conv stacks
    for filters, kernels in (reg_cfg.conv_table, (cls_cfg.filters, cls_cfg.kernels)):
        count += sum(c * f * k + f for c, f, k in zip((1, *filters), filters, kernels))
    count += 2 * 4 * h * (reg_cfg.filters + h + 1)     # BiLSTM, W U b per direction
    count += 2 * h * h + 2 * h                         # attention W b v
    count += (2 * h * h + h) + (h + 1) * window        # fc1, fc2
    count += ((1, *cls_cfg.filters)[-1] * window + 1) * cls_cfg.dense_units
    count += (cls_cfg.dense_units + 1) * window
    return count


def _conv_stack(branch, filters, kernels, rng, arena):
    """The ReLU conv layers {branch}.conv1.. of a (filters, kernels) table;
    the first reads the window's one channel, each later one the filters of
    the layer before it."""
    return [nn.Conv1D(f"{branch}.conv{i + 1}", c, f, k, "relu", rng, arena=arena)
            for i, (c, f, k) in enumerate(zip((1, *filters), filters, kernels))]


def _conv_forward(convs, x, cache):
    """(B, L) windows through a conv stack -> (B, F, L) features."""
    feats = x[:, None, :]
    for conv in convs:
        feats = conv.forward(feats, cache)
    return feats


def _conv_backward(convs, d_feats):
    """Backward through a conv stack. Nothing reads the gradient of the
    windows, so the first layer computes none."""
    for i in range(len(convs) - 1, -1, -1):
        d_feats = convs[i].backward(d_feats, input_grad=i > 0)


@dataclass
class ForwardResult:
    """Outputs of one forward pass, all in normalized units."""
    output: np.ndarray       # gated power estimate, (B, L)
    power: np.ndarray        # regression branch output, (B, L)
    state: np.ndarray        # on probability, (B, L), in [0, 1], ends included
    attention: np.ndarray    # attention weights, (B, L)


class RegressionNet:
    """Conv encoder (a stack of four like layers), BiLSTM, attention unit,
    and dense decoder."""

    def __init__(self, cfg: RegressionConfig, rng, arena):
        f, h = cfg.filters, cfg.hidden
        self.convs = _conv_stack("reg", *cfg.conv_table, rng, arena)
        self.bilstm = nn.BiLSTM("reg.bilstm", f, h, rng, arena=arena)
        self.attention = nn.Attention("reg.attn", 2 * h, h, rng, arena=arena)
        self.fc1 = nn.Dense("reg.fc1", 2 * h, h, "relu", rng, arena=arena)
        self.fc2 = nn.Dense("reg.fc2", h, cfg.window, "linear", rng, arena=arena)

    def forward(self, x, cache=True):
        """x: (B, L) standardized windows -> (power (B, L), alpha (B, L))."""
        feats = _conv_forward(self.convs, x, cache)
        hidden = self.bilstm.forward(feats.transpose(0, 2, 1), cache)
        context, alpha = self.attention.forward(hidden, cache)
        return self.fc2.forward(self.fc1.forward(context, cache), cache), alpha

    def backward(self, d_power):
        d_context = self.fc1.backward(self.fc2.backward(d_power))
        d_hidden = self.attention.backward(d_context)
        _conv_backward(self.convs, self.bilstm.backward(d_hidden).transpose(0, 2, 1))


class ClassificationNet:
    """A conv stack (six layers in the paper), flatten, two dense layers
    ending in a sigmoid. An empty layer table flattens the window itself."""

    def __init__(self, cfg: ClassificationConfig, window, rng, arena):
        self.convs = _conv_stack("cls", cfg.filters, cfg.kernels, rng, arena)
        self.fc1 = nn.Dense("cls.fc1", (1, *cfg.filters)[-1] * window,
                            cfg.dense_units, "relu", rng, arena=arena)
        self.fc2 = nn.Dense("cls.fc2", cfg.dense_units, window, "sigmoid",
                            rng, arena=arena)

    def forward(self, x, cache=True):
        """x: (B, L) standardized windows -> on probabilities (B, L)."""
        feats = _conv_forward(self.convs, x, cache)
        flat = feats.reshape(len(feats), -1)
        return self.fc2.forward(self.fc1.forward(flat, cache), cache)

    def backward(self, d_state):
        d_flat = self.fc1.backward(self.fc2.backward(d_state))
        _conv_backward(self.convs, d_flat.reshape(len(d_flat), -1, self.fc2.units))


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
    a reshaped view into them. `all_params()` is the arena's record of the
    groups, in the order the layers took them. A built or loaded model
    holds only `weights`: the grad vector is made zero by its first reader
    (a backward or `grads`). While an optimizer is `attached`, as in
    training.train, the backwards hand their gradients to it instead and
    make no grad vector.
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
        self.weights, self._groups = arena.weights, arena.groups
        self._grad_vector = arena.grad_vector
        self._cache = None

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

    @property
    def grads(self):
        """The flat grad vector, made zero if the model holds none."""
        return self._grad_vector.read()

    def attached(self, optimizer):
        """Context manager: while it is open, each layer backward hands its
        gradients to optimizer, an nn.SgdNesterov built without a grad
        vector, as it returns (nn.GradVector.attached)."""
        return self._grad_vector.attached(optimizer)

    def forward(self, windows, cache=True) -> ForwardResult:
        """Gated forward pass over (B, L) standardized windows.

        output[t] = power[t] * state[t]. Any other shape raises ShapeError.
        cache=False keeps no backward caches (inference): every layer then
        frees its activations as soon as the next layer has used them, and
        a backward that follows raises instead of reusing stale caches.
        """
        x = np.asarray(windows, dtype=self.dtype)
        nn._expect("model", x, ("B", self.window))
        power, alpha = self.regression.forward(x, cache)
        state = self.classification.forward(x, cache)
        self._cache = (power, state) if cache else None
        return ForwardResult(power * state, power, state, alpha)

    def backward(self, d_output, d_state_extra=None):
        """Backpropagate gradients of the gated output (and extra state grad).

        Both have the forward's (B, L) shape; any other raises ShapeError
        rather than broadcasting. The product rule routes d_output into both
        branches, and every layer writes its parameter gradients, so the
        call sets every entry of `grads`, or hands every one to an attached
        optimizer, and nothing needs zeroing first.
        The gate cache is handed off as every layer's is (nn._take_cache):
        the forward's cache feeds exactly one backward, which frees it, and
        a backward without one raises RuntimeError naming the model.

        The classification branch goes first. The branches write disjoint
        gradients, neither reads the other's weights, and their input
        gradients are dropped, so the order changes no byte, also with an
        attached optimizer updating each layer as its backward returns; and
        this one frees the classification caches before the regression
        backward allocates its largest arrays.
        """
        power, state = nn._take_cache(self, "model")
        nn._expect("model", d_output, state.shape)
        d_output = np.asarray(d_output, dtype=self.dtype)
        d_power = d_output * state
        d_state = d_output * power
        if d_state_extra is not None:
            nn._expect("model", d_state_extra, state.shape)
            d_state = d_state + np.asarray(d_state_extra, dtype=self.dtype)
        self.classification.backward(d_state)
        self.regression.backward(d_power)

    def _joint_loss(self, windows, target_power, target_state, cache):
        """Forward pass and joint loss of one mini-batch:
        (loss, d_output, d_state_extra), as joint_loss returns them."""
        result = self.forward(windows, cache)
        return joint_loss(result.output, result.state,
                          np.asarray(target_power, dtype=self.dtype),
                          np.asarray(target_state, dtype=self.dtype))

    def train_step_grads(self, windows, target_power, target_state):
        """Forward + joint loss + backward for one mini-batch.

        Loss and gradients are means over the batch; the backward overwrites
        all of `grads`, or hands every gradient to an attached optimizer, so
        the previous step's gradients need no reset. A loss that is not
        finite runs no backward, so no gradient is written or handed over;
        the forward's caches are dropped as a backward would drop them.
        Returns the scalar loss.
        """
        loss, d_output, d_state = self._joint_loss(
            windows, target_power, target_state, cache=True)
        if np.isfinite(loss):
            self.backward(d_output, d_state)
        else:
            self._drop_caches()
        return loss

    def _drop_caches(self):
        """Drop the last forward's caches, which no backward will take."""
        reg, cls_net = self.regression, self.classification
        for layer in (*reg.convs, reg.bilstm, reg.attention, reg.fc1, reg.fc2,
                      *cls_net.convs, cls_net.fc1, cls_net.fc2):
            layer._cache = None
        self._cache = None

    def batch_loss(self, windows, target_power, target_state):
        """Joint loss without touching gradients (validation path)."""
        return self._joint_loss(windows, target_power, target_state, cache=False)[0]

    def snapshot_weights(self, out=None):
        """Copy of the flat weight vector, for best-epoch checkpointing.

        With out given (an earlier snapshot), the weights are copied into it
        and out is returned, so no new buffer is mapped per call.
        """
        if out is None:
            return self.weights.copy()
        nn._expect("model", out, self.weights.shape)
        out[...] = self.weights
        return out

    def restore_weights(self, snapshot):
        """Copy a snapshot of the same shape back into the flat weights."""
        nn._expect("model", snapshot, self.weights.shape)
        self.weights[...] = snapshot
