"""Minimal differentiable kernels for the disaggregation networks.

Every layer needed by the architecture is implemented here with an explicit
forward pass and an analytic backward pass: 1-D convolution, dense layers,
LSTM cells, a bidirectional LSTM, the feed-forward attention unit, the two
losses, and SGD with Nesterov momentum. There is no general autodiff graph;
layers cache whatever their own backward pass needs, so a forward call must
be paired with the matching backward call on the same instance. The cache
is a one-shot hand-off: a forward's cache goes to exactly one backward,
which drops it, so a training step's activations are freed before the next
forward allocates. A forward with cache=False keeps nothing, for
inference; a backward after it, or a second backward after one forward,
raises RuntimeError naming the layer.

Arrays are batch-first throughout:

    Conv1D     (B, C_in, L) -> (B, F, L)
    Dense      (B, n)       -> (B, m)
    BiLSTM     (B, T, d)    -> (B, T, 2H)
    Attention  (B, T, 2H)   -> context (B, 2H), weights (B, T)

Conv1D computes channels-first, as it is called: its im2col columns are
(B, C_in*K, L) and its output is a contiguous (B, F, L) array. BiLSTM
computes direction-major: its buffers are (2, T, B, .) with the backward
direction in reversed time, so one step loop runs both directions as one
slab, and the four gate activations of a step take a single tanh.

Training runs in float32; tests instantiate everything in float64 so that
analytic gradients can be compared against central finite differences.

Parameters live in an Arena: a flat weight vector and a twin grad vector,
both zero, that hand out reshaped views in order. Every LayerParams tensor
is built as such a view, and a layer's initializer draws straight into it.
The order in which layers take their views is the one statement of the
parameter layout: the arena records each LayerParams it hands out, and
GatedAttentionModel.all_params() and the checkpoint tensor table read that
record. GatedAttentionModel sizes one arena for all its layers and the
optimizer steps its two vectors, while the layers read and write their
views in place (the BiLSTM through (2, ...) views across its two cells);
a standalone layer gets an arena of exactly its own size. Assign into a
view in place (w[...] = x, out=g): p.weights and p.grads are read-only
mappings, so rebinding an entry, p.weights[k] += x included, raises
TypeError.

Each parameter gets its gradient from exactly one backward call, so every
layer backward writes every entry of its parameters' gradients (out=) and
the optimizer only reads them: nothing zeroes a gradient between steps.
LSTMCell.step_backward is the one exception; see its docstring.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ShapeError

ACTIVATIONS = ("relu", "linear", "sigmoid", "tanh")


def sigmoid(x, out=None):
    """Logistic function through the identity 0.5 * (1 + tanh(x / 2)).

    tanh saturates instead of overflowing, so no |x| needs a separate branch.
    The error is at rounding level in absolute terms; far in the negative
    tail, where the result is tiny, it is not in relative terms. With out
    given (out may be x itself) the result is written there.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax(x):
    """Stable softmax over the last axis: the max shift keeps exp finite."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _apply_activation(pre, activation):
    """The activation of pre, written over pre, which is returned."""
    if activation == "relu":
        return np.maximum(pre, 0.0, out=pre)
    if activation == "linear":
        return pre
    if activation == "sigmoid":
        return sigmoid(pre, out=pre)
    if activation == "tanh":
        return np.tanh(pre, out=pre)
    raise ValueError(f"unknown activation {activation!r}")


def _activation_grad(d_out, out, activation):
    """Gradient w.r.t. the pre-activation, given the output and its gradient.

    The ReLU slope reads out > 0, the same mask as pre > 0 for every float:
    max(pre, 0) is positive exactly where pre is, and NaN stays NaN.
    """
    if activation == "relu":
        return d_out * (out > 0)
    if activation == "linear":
        return d_out
    if activation == "sigmoid":
        return d_out * out * (1.0 - out)
    if activation == "tanh":
        return d_out * (1.0 - out * out)
    raise ValueError(f"unknown activation {activation!r}")


class Arena:
    """A zero weight vector and its twin grad vector, handed out in order.

    groups lists every LayerParams built from the arena, in arena order.
    np.zeros leaves its pages untouched until written, so a zero model's
    checkpoint load writes each page once.
    """

    def __init__(self, size, dtype):
        self.weights = np.zeros(size, dtype)
        self.grads = np.zeros(size, dtype)
        self.used = 0
        self.groups = []

    def take(self, shape):
        """The next (weight, grad) pair of views with the given shape."""
        start, self.used = self.used, self.used + math.prod(shape)
        if self.used > self.weights.size:
            raise ShapeError(f"arena of {self.weights.size} entries is full")
        segment = slice(start, self.used)
        return self.weights[segment].reshape(shape), self.grads[segment].reshape(shape)


class LayerParams:
    """Named weight tensors of one layer plus matching gradient buffers.

    shapes maps each key to its tensor shape; the weight and grad of each
    are views taken from arena in that order, or from an arena of exactly
    this layer's size, in dtype, when none is given, and the arena records
    the group. Both mappings are read-only.
    """

    def __init__(self, name, shapes, dtype, arena=None):
        if arena is None:
            arena = Arena(sum(math.prod(shape) for shape in shapes.values()), dtype)
        views = {k: arena.take(shape) for k, shape in shapes.items()}
        self.name = name
        self.weights = MappingProxyType({k: w for k, (w, _) in views.items()})
        self.grads = MappingProxyType({k: g for k, (_, g) in views.items()})
        arena.groups.append(self)

    @property
    def n_params(self):
        return sum(w.size for w in self.weights.values())

    def __repr__(self):
        shapes = {k: v.shape for k, v in self.weights.items()}
        return f"LayerParams({self.name!r}, {shapes})"


def _take_cache(layer, name):
    """Hand the layer's forward cache to its backward, and drop it there."""
    cache, layer._cache = layer._cache, None
    if cache is None:
        raise RuntimeError(f"{name}: backward called before forward (a forward "
                           "with cache=False keeps nothing, and a cache feeds "
                           "exactly one backward)")
    return cache


# Float64 draws per block of an initializer, so no float64 copy of a whole
# tensor is made.
INIT_BLOCK = 65536


def he_uniform(rng, out, fan_in):
    """He et al. (2015) uniform initialization, written into contiguous out.

    U(-limit, limit) with limit = sqrt(6 / fan_in), drawn in blocks that are
    cast on assignment, so out gets the stream and the bytes of one
    rng.uniform(-limit, limit, out.shape).astype(out.dtype).
    """
    limit = np.sqrt(6.0 / fan_in)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, INIT_BLOCK):
        flat[lo:lo + INIT_BLOCK] = rng.uniform(-limit, limit, min(INIT_BLOCK, flat.size - lo))


def glorot_uniform(rng, out, fan_in, fan_out):
    """Glorot & Bengio (2010) uniform initialization: limit sqrt(6 / (fan_in
    + fan_out)), the He limit for a fan of fan_in + fan_out."""
    he_uniform(rng, out, fan_in + fan_out)


def same_padding(kernel):
    """Left/right zero padding that keeps the sequence length unchanged.

    With stride 1 the total padding must be kernel-1; the left side takes
    floor(kernel/2), so even kernels pad one column less on the right.
    """
    left = kernel // 2
    return left, kernel - 1 - left


class Conv1D:
    """1-D convolution over the last axis, stride 1, length-preserving.

    One GEMM over im2col columns (Chellapilla, Puri & Simard 2006), in the
    layout the layer is given: the (F, C_in*K) filters times (B, C_in*K, L)
    columns write the (B, F, L) output directly, so no layout conversion
    goes in or out, forward or backward.
    """

    def __init__(self, name, in_channels, filters, kernel, activation="relu",
                 rng=None, dtype=np.float32, arena=None):
        if kernel < 1:
            raise ShapeError("kernel size must be >= 1")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = kernel
        self.activation = activation
        self.params = LayerParams(
            name, {"W": (filters, in_channels, kernel), "b": (filters,)}, dtype, arena)
        if rng is not None:
            he_uniform(rng, self.params.weights["W"], in_channels * kernel)
        self._cache = None

    def forward(self, x, cache=True):
        """x: (B, C_in, L) -> (B, F, L)."""
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.params.name}: expected (B, {self.in_channels}, L), got {x.shape}")
        b_sz, _, length = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), same_padding(self.kernel)))
        # im2col in the given layout: the K length-L windows of xp, one per
        # kernel offset, as (B, C_in*K, L) columns whose rows run in (c, k)
        # order, the order of W.reshape(F, C_in*K).
        windows = np.lib.stride_tricks.sliding_window_view(xp, length, axis=2)
        cols = windows.reshape(b_sz, -1, length)
        w = self.params.weights["W"].reshape(self.filters, -1)
        out = w @ cols
        out += self.params.weights["b"][:, None]
        _apply_activation(out, self.activation)
        self._cache = (cols, out) if cache else None
        return out

    def backward(self, d_out):
        """d_out: (B, F, L) -> gradient w.r.t. the input, (B, C_in, L)."""
        cols, out = _take_cache(self, self.params.name)
        if d_out.shape != out.shape:
            raise ShapeError(
                f"{self.params.name}: upstream shape {d_out.shape} does not match "
                f"forward output {out.shape}")
        d_pre = _activation_grad(d_out, out, self.activation)
        w = self.params.weights["W"].reshape(self.filters, -1)
        # One GEMM per batch item with its columns as a transposed operand
        # (no copy), summed over the batch.
        np.sum(d_pre @ cols.swapaxes(1, 2), axis=0,
               out=self.params.grads["W"].reshape(self.filters, -1))
        np.sum(d_pre, axis=(0, 2), out=self.params.grads["b"])
        b_sz, _, length = out.shape
        k = self.kernel
        d_cols = (w.T @ d_pre).reshape(b_sz, self.in_channels, k, length)
        d_xp = np.zeros((b_sz, self.in_channels, length + k - 1), dtype=d_out.dtype)
        for j in range(k):
            d_xp[:, :, j:j + length] += d_cols[:, :, j]
        pl = same_padding(k)[0]
        return d_xp[:, :, pl:pl + length]


class Dense:
    """Fully connected layer: out = act(x @ W.T + b)."""

    def __init__(self, name, in_features, units, activation="linear",
                 rng=None, dtype=np.float32, arena=None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_features = in_features
        self.units = units
        self.activation = activation
        self.params = LayerParams(
            name, {"W": (units, in_features), "b": (units,)}, dtype, arena)
        if rng is not None and activation == "relu":
            he_uniform(rng, self.params.weights["W"], in_features)
        elif rng is not None:
            glorot_uniform(rng, self.params.weights["W"], in_features, units)
        self._cache = None

    def forward(self, x, cache=True):
        """x: (B, n) -> (B, m)."""
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.params.name}: expected (B, {self.in_features}), got {x.shape}")
        out = x @ self.params.weights["W"].T
        out += self.params.weights["b"]
        _apply_activation(out, self.activation)
        self._cache = (x, out) if cache else None
        return out

    def backward(self, d_out):
        x, out = _take_cache(self, self.params.name)
        if d_out.shape != out.shape:
            raise ShapeError(
                f"{self.params.name}: upstream shape {d_out.shape} does not match "
                f"forward output {out.shape}")
        d_pre = _activation_grad(d_out, out, self.activation)
        np.matmul(d_pre.T, x, out=self.params.grads["W"])
        np.sum(d_pre, axis=0, out=self.params.grads["b"])
        return d_pre @ self.params.weights["W"]


def _split_gates(z):
    """Views (i, f, g, o) of the four gate blocks along the last axis of z."""
    hs = z.shape[-1] // 4
    return tuple(z[..., k * hs:(k + 1) * hs] for k in range(4))


@functools.lru_cache(maxsize=16)
def _gate_scale_shift(hs, dtype):
    """Per-column scale (1/2, 1/2, 1, 1/2) and shift (1/2, 1/2, -0, 1/2) of
    a 4H gate row in gate order (i, f, g, o), read-only."""
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), hs)
    shift = np.repeat(np.array([0.5, 0.5, -0.0, 0.5], dtype=dtype), hs)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _gate_activations(z):
    """All four gate activations of z (..., 4H) in place, with one tanh.

    sigmoid(x) = tanh(x / 2) / 2 + 1/2, so the sigmoid gates' inputs are
    halved (exact in binary floating point), one tanh runs over all four
    blocks, and the sigmoid blocks are halved and shifted by 1/2. Each
    value rounds as sigmoid() rounds it; the candidate block is scaled by 1
    and shifted by -0.0, which leaves tanh and the sign of a zero intact.
    """
    scale, shift = _gate_scale_shift(z.shape[-1] // 4, z.dtype)
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += shift
    return z


def _lstm_gates(z, c_prev, c, tanh_c, h):
    """The LSTM cell equations for one step, in place on preallocated arrays.

    z holds the pre-activations (..., 4H) in gate order (i, f, g, o) and is
    overwritten with the activations; c, tanh(c) and h are written to the
    given (..., H) arrays. Leading axes stack independent cells, as the
    BiLSTM's (2, B) direction slabs do. Every argument may be a strided view.
    """
    i, f, g, o = _split_gates(_gate_activations(z))
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _lstm_gates_backward(d_h, d_c, gates, c_prev, tanh_c, d_z):
    """Backward through the cell equations of one step.

    gates holds the activations (..., 4H) of the step; d_h and d_c are the
    gradients reaching its h and c. Writes the pre-activation gradient into
    d_z (..., 4H) and returns the gradient of the previous cell state.
    """
    hs = c_prev.shape[-1]
    i, f, g, o = _split_gates(gates)
    d_c = d_c + d_h * o * (1.0 - tanh_c * tanh_c)
    np.multiply(d_c, g, out=d_z[..., :hs])
    np.multiply(d_c, c_prev, out=d_z[..., hs:2 * hs])
    np.multiply(d_c, i, out=d_z[..., 2 * hs:3 * hs])
    np.multiply(d_h, tanh_c, out=d_z[..., 3 * hs:])
    # Activation slopes over all four blocks at once: s * (1 - s) for the
    # sigmoid gates, then 1 - g * g over the candidate block.
    slope = 1.0 - gates
    slope *= gates
    slope_g = np.multiply(g, g, out=slope[..., 2 * hs:3 * hs])
    np.subtract(1.0, slope_g, out=slope_g)
    d_z *= slope
    return d_c * f


class LSTMCell:
    """Standard LSTM cell with packed gate parameters, order (i, f, g, o).

    W: (4H, d) input weights, U: (4H, H) recurrent weights, b: (4H,).
    The forget-gate bias block is initialized to 1 when an rng is given.
    """

    def __init__(self, name, input_size, hidden_size, rng=None, dtype=np.float32, arena=None):
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.params = LayerParams(
            name, {"W": (4 * h, input_size), "U": (4 * h, h), "b": (4 * h,)}, dtype, arena)
        if rng is not None:
            # The four gate blocks share one limit, so one draw covers them.
            w = self.params.weights
            glorot_uniform(rng, w["W"], input_size, h)
            glorot_uniform(rng, w["U"], h, h)
            w["b"][h:2 * h] = 1.0

    def step(self, x, h_prev, c_prev):
        """One time step: (B, d), (B, H), (B, H) -> (h, c, cache)."""
        if x.ndim != 2 or x.shape[1] != self.input_size:
            raise ShapeError(
                f"{self.params.name}: expected input (B, {self.input_size}), got {x.shape}")
        if h_prev.shape != (x.shape[0], self.hidden_size):
            raise ShapeError(f"{self.params.name}: bad state shape {h_prev.shape}")
        # Same summation order as BiLSTM: input projection plus bias, then
        # the recurrent term.
        z = x @ self.params.weights["W"].T + self.params.weights["b"]
        z += h_prev @ self.params.weights["U"].T
        c, tanh_c, h = (np.empty_like(h_prev, dtype=z.dtype) for _ in range(3))
        _lstm_gates(z, c_prev, c, tanh_c, h)
        cache = (x, h_prev, c_prev, *_split_gates(z), tanh_c)
        return h, c, cache

    def step_backward(self, d_h, d_c, cache):
        """Backward through one step; adds to the parameter gradients.

        Unlike the layer backwards, which write their gradients, this adds
        (+=): a caller unrolls the cell over time and calls it once per
        step, so the steps' gradients must sum. Zero the cell's grads
        before the first step of a sequence. Returns (d_x, d_h_prev,
        d_c_prev).
        """
        x, h_prev, c_prev, i, f, g, o, tanh_c = cache
        gates = np.concatenate([i, f, g, o], axis=1)
        d_z = np.empty_like(gates)
        d_c_prev = _lstm_gates_backward(d_h, d_c, gates, c_prev, tanh_c, d_z)
        g_w, g_u, g_b = (self.params.grads[k] for k in ("W", "U", "b"))
        g_w += d_z.T @ x
        g_u += d_z.T @ h_prev
        g_b += d_z.sum(axis=0)
        d_x = d_z @ self.params.weights["W"]
        d_h_prev = d_z @ self.params.weights["U"]
        return d_x, d_h_prev, d_c_prev


class BiLSTM:
    """Bidirectional LSTM; output concatenates the two directions per step.

    Laid out the way cuDNN runs recurrent layers (Appleyard, Kocisky &
    Blunsom 2016, arXiv:1604.01946): only the recurrent product h @ U.T
    depends on the previous step, so everything else leaves the time loop,
    and the two directions, which do not depend on each other, run together.

    As cuDNN keeps each direction's matrices in one packed weight space,
    the two cells' W, U and b are read in place: the fw cell's tensors and
    then the bw cell's are adjacent in the arena, so the layer takes
    (2, 4H, d), (2, 4H, H) and (2, 4H) views across both, for the weights
    and for the grads, once, at build time. Nothing copies them per call,
    so an in-place edit of a cell's tensor reaches the next forward.

    Every buffer is direction-major, (2, T, B, .): row 0 is the forward
    cell in natural time, row 1 the backward cell in reversed time, so
    buffer step s is time s forward and time T-1-s backward, and each
    direction's buffer is one contiguous slab.

    - forward projects the inputs, stacked as (2, T*B, d) with the second
      copy time-reversed, with one batched (2, d, 4H) GEMM straight into
      the gate buffer. Step s then adds one batched (2, B, H) @ (2, H, 4H)
      recurrent product and applies the cell equations, one tanh for all
      four gates, to both directions' (2, B, 4H) slab at once. The step's h
      lands in a (2, B, H) step buffer and from there in the (B, T, 2H)
      output, so each h is held once, in both cache modes.
    - backward runs the same fused loop: the elementwise gate gradients and
      one batched recurrent GEMM d_z @ U per step. Step s's d_z goes through
      one (2, B, 4H) scratch into the gate slab gates[:, s], which that step
      was the last to read, so the gate buffer becomes the d_z buffer and no
      second (2, T, B, 4H) array is allocated. After the loop, dW and db of
      both directions are each one batched call written into the grad
      slabs, dU is one GEMM per direction, and the input gradient is one
      batched GEMM.

    The forward keeps tanh(c) only in a (2, B, H) step buffer; the backward
    recomputes np.tanh(cells[:, s]), which rounds as the forward's did, so
    the (2, T, B, H) trajectory of tanh(c) is never cached (the trade of
    Chen et al. 2016, arXiv:1604.06174). Nor is a hidden trajectory kept:
    the cache holds the (B, T, 2H) output, the array the attention layer
    above caches too, and the backward copies each direction's dU operand
    out of it, so the model holds the BiLSTM's output once.

    The cell equations are the ones LSTMCell.step uses, so the layer equals
    an unrolled composition of the two cells' steps.
    """

    def __init__(self, name, input_size, hidden_size, rng=None, dtype=np.float32, arena=None):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        d, h4 = input_size, 4 * hidden_size
        if arena is None:   # both cells' W, U and b
            arena = Arena(2 * h4 * (d + hidden_size + 1), dtype)
        start = arena.used
        self.fw = LSTMCell(f"{name}.fw", input_size, hidden_size, rng, dtype, arena)
        self.bw = LSTMCell(f"{name}.bw", input_size, hidden_size, rng, dtype, arena)

        def slabs(flat):
            """(2, 4H, d) W, (2, 4H, H) U and (2, 4H) b views of both cells."""
            w, u, b = np.split(flat[start:arena.used].reshape(2, -1), [h4 * d, -h4], axis=1)
            return w.reshape(2, h4, d), u.reshape(2, h4, hidden_size), b

        self._w, self._u, self._b = slabs(arena.weights)
        self._dw, self._du, self._db = slabs(arena.grads)
        self._cache = None

    def forward(self, x, cache=True):
        """x: (B, T, d) -> (B, T, 2H). Initial states are zero."""
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(f"bilstm: expected (B, T, {self.input_size}), got {x.shape}")
        b_sz, steps, d = x.shape
        if steps < 1:
            raise ShapeError("bilstm: empty sequence")
        hs = self.hidden_size
        x_tm = x.transpose(1, 0, 2)
        xs = np.stack([x_tm, x_tm[::-1]]).reshape(2, steps * b_sz, d)
        gates = np.empty((2, steps, b_sz, 4 * hs), dtype=np.result_type(x, self._w))
        np.matmul(xs, self._w.transpose(0, 2, 1), out=gates.reshape(2, steps * b_sz, 4 * hs))
        gates += self._b[:, None, None]
        cells = np.empty((2, steps, b_sz, hs), dtype=gates.dtype)
        zeros = np.zeros((2, b_sz, hs), dtype=gates.dtype)
        tanh_c, h = np.empty_like(zeros), np.empty_like(zeros)
        recurrent = np.empty((2, b_sz, 4 * hs), dtype=gates.dtype)
        out = np.empty((b_sz, steps, 2 * hs), dtype=gates.dtype)
        # A C-contiguous U.T runs the small per-step GEMM about a fifth
        # faster than the transposed layout, whose GEMM also rounds
        # differently at small batches, so a one-window batch would no
        # longer match its row in a larger batch.
        u_t = np.ascontiguousarray(self._u.transpose(0, 2, 1))
        for s in range(steps):
            z = gates[:, s]
            if s:
                z += np.matmul(h, u_t, out=recurrent)
            _lstm_gates(z, cells[:, s - 1] if s else zeros, cells[:, s], tanh_c, h)
            out[:, s, :hs] = h[0]
            out[:, steps - 1 - s, hs:] = h[1]
        self._cache = (xs, gates, cells, out) if cache else None
        return out

    def backward(self, d_out):
        """d_out: (B, T, 2H) -> gradient w.r.t. the input sequence."""
        xs, gates, cells, out = _take_cache(self, self.name)
        _, steps, b_sz, hs = cells.shape
        if d_out.shape != out.shape:
            raise ShapeError(f"bilstm: upstream shape {d_out.shape} does not match "
                             f"{out.shape}")
        zeros = np.zeros((2, b_sz, hs), dtype=gates.dtype)
        d_h, d_c = zeros.copy(), zeros
        step_d_z = np.empty((2, b_sz, 4 * hs), dtype=gates.dtype)
        # Unwind the buffer steps backwards; d_h holds the recurrent
        # gradient and gains step s's upstream gradient for each direction.
        # Step s is the last to read gates[:, s], so its d_z replaces them.
        for s in range(steps - 1, -1, -1):
            d_h[0] += d_out[:, s, :hs]
            d_h[1] += d_out[:, steps - 1 - s, hs:]
            d_c = _lstm_gates_backward(d_h, d_c, gates[:, s], cells[:, s - 1] if s else zeros,
                                       np.tanh(cells[:, s]), step_d_z)
            gates[:, s] = step_d_z
            if s:
                np.matmul(gates[:, s], self._u, out=d_h)
        d_z = gates
        flat_d_z = d_z.reshape(2, steps * b_sz, 4 * hs)
        np.matmul(flat_d_z.transpose(0, 2, 1), xs, out=self._dw)
        np.sum(flat_d_z, axis=1, out=self._db)
        # The h each direction's steps 1..T-1 read, from the output: times
        # 0..T-2 forward and T-1..1 backward.
        h_read = (out[:, :-1, :hs], out[:, :0:-1, hs:])
        for k in range(2):
            # Every step but the first against the h it read, copied to one
            # contiguous ((T-1)*B, H) operand in step order.
            np.matmul(d_z[k, 1:].reshape(-1, 4 * hs).T,
                      h_read[k].transpose(1, 0, 2).reshape(-1, hs), out=self._du[k])
        d_xs = (flat_d_z @ self._w).reshape(2, steps, b_sz, -1)
        return np.add(d_xs[0].transpose(1, 0, 2), d_xs[1, ::-1].transpose(1, 0, 2),
                      order="C")


class Attention:
    """Feed-forward attention over encoder states.

    Scores each time step with v . tanh(W h_t + b), normalizes the scores
    with a softmax, and returns the weighted sum of states as the context.
    """

    def __init__(self, name, state_size, units, rng=None, dtype=np.float32, arena=None):
        self.state_size = state_size
        self.units = units
        self.params = LayerParams(
            name, {"W": (units, state_size), "b": (units,), "v": (units,)}, dtype, arena)
        if rng is not None:
            glorot_uniform(rng, self.params.weights["W"], state_size, units)
            glorot_uniform(rng, self.params.weights["v"], units, 1)
        self._cache = None

    def forward(self, hidden, cache=True):
        """hidden: (B, T, S) -> (context (B, S), weights (B, T))."""
        if hidden.ndim != 3 or hidden.shape[2] != self.state_size:
            raise ShapeError(
                f"{self.params.name}: expected (B, T, {self.state_size}), got {hidden.shape}")
        if hidden.shape[1] < 1:
            raise ShapeError("attention: empty sequence")
        w, b, v = (self.params.weights[k] for k in ("W", "b", "v"))
        # One flat (B*T, S) GEMM, as the backward runs it.
        m = (hidden.reshape(-1, self.state_size) @ w.T).reshape(*hidden.shape[:2], self.units)
        m += b
        np.tanh(m, out=m)
        scores = m @ v                      # (B, T)
        alpha = softmax(scores)
        context = np.einsum("bt,bts->bs", alpha, hidden)
        self._cache = (hidden, m, alpha) if cache else None
        return context, alpha

    def backward(self, d_context):
        """d_context: (B, S) -> gradient w.r.t. the hidden states (B, T, S)."""
        hidden, m, alpha = _take_cache(self, self.params.name)
        if d_context.shape != (hidden.shape[0], self.state_size):
            raise ShapeError(
                f"{self.params.name}: upstream shape {d_context.shape} does not match "
                f"{(hidden.shape[0], self.state_size)}")
        w, v = self.params.weights["W"], self.params.weights["v"]
        d_alpha = np.einsum("bs,bts->bt", d_context, hidden)
        # softmax Jacobian: couples all time steps of one sequence
        d_scores = alpha * (d_alpha - np.sum(alpha * d_alpha, axis=1, keepdims=True))
        np.einsum("bt,btu->u", d_scores, m, out=self.params.grads["v"])
        # d_pre = d_m * (1 - m * m), formed in m's buffer.
        d_m = d_scores[:, :, None] * v
        d_pre = np.multiply(m, m, out=m)
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= d_m
        del d_m
        flat_pre = d_pre.reshape(-1, self.units)
        flat_hidden = hidden.reshape(-1, self.state_size)
        np.matmul(flat_pre.T, flat_hidden, out=self.params.grads["W"])
        np.sum(flat_pre, axis=0, out=self.params.grads["b"])
        d_hidden = d_pre @ w
        # Plus the alpha (x) d_context outer product, one sequence at a time,
        # so no second (B, T, S) array is allocated.
        for k in range(len(d_hidden)):
            d_hidden[k] += alpha[k, :, None] * d_context[k]
        return d_hidden


def mse_loss(pred, target):
    """Mean squared error over the last axis, averaged over the batch.

    Returns (loss, gradient w.r.t. pred). For a 1-D pair the gradient is
    (2/L)(pred - target); for a batch it carries an extra 1/B so that the
    loss is the mean of the per-item losses.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes {pred.shape} and {target.shape} differ")
    diff = pred - target
    scale = 2.0 / pred.size
    loss = float(np.mean(diff * diff))
    return loss, scale * diff


BCE_EPS = 1e-7


def bce_loss(pred, target):
    """Binary cross-entropy with predictions clamped to [eps, 1-eps].

    target must be 0/1. The gradient is exact for the clamped loss, i.e.
    zero wherever the prediction sat outside the clamp range.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"bce: shapes {pred.shape} and {target.shape} differ")
    if not np.all((target == 0) | (target == 1)):
        raise ValueError("bce: target values must be 0 or 1")
    clamped = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    loss = float(-np.mean(
        target * np.log(clamped) + (1.0 - target) * np.log(1.0 - clamped)))
    inside = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
    grad = np.where(
        inside,
        -(target / clamped - (1.0 - target) / (1.0 - clamped)) / pred.size,
        0.0,
    ).astype(pred.dtype)
    return loss, grad


# Elements per optimizer step block, small enough to stay in cache.
STEP_BLOCK = 32768


class SgdNesterov:
    """SGD with Nesterov momentum in the look-ahead form.

    Per step, with effective rate eta = base_lr / (1 + decay * step_count):

        v     <- mu * v - eta * g
        theta <- theta + mu * v - eta * g

    weights and grads are the flat vectors of a model's arena, or any
    pair of the same shape. The step updates weights and the velocity in
    place and only reads grads, which are expected to hold the mini-batch
    mean that the last backward wrote. With mu = 0 the update is exactly
    plain gradient descent at the same rate. base_lr, momentum and decay
    have no defaults here: training.TrainConfig holds them.
    """

    def __init__(self, weights, grads, base_lr, momentum, decay):
        self.weights, self.grads = weights, grads
        self.velocity = np.zeros_like(self.weights)
        # Two block buffers: lr * g, and the weight update.
        self._scratch = np.empty((2, min(STEP_BLOCK, self.weights.size)),
                                 self.weights.dtype)
        self.base_lr = base_lr
        self.momentum = momentum
        self.decay = decay
        self.step_count = 0

    @property
    def effective_lr(self):
        return self.base_lr / (1.0 + self.decay * self.step_count)

    def step(self):
        lr = self.effective_lr
        mu = self.momentum
        for lo in range(0, self.weights.size, STEP_BLOCK):
            v = self.velocity[lo:lo + STEP_BLOCK]
            lg, s = self._scratch[:, :v.size]
            # Same roundings as v = mu*v - lr*g; w += mu*v - lr*g.
            np.multiply(self.grads[lo:lo + STEP_BLOCK], lr, out=lg)
            v *= mu
            v -= lg
            np.multiply(v, mu, out=s)
            s -= lg
            self.weights[lo:lo + STEP_BLOCK] += s
        self.step_count += 1


@dataclass(frozen=True)
class GradCheckEntry:
    """Result of checking one parameter group against finite differences."""
    name: str
    max_rel_err: float
    ok: bool


def randomize_biases(param_list, rng):
    """Shift bias vectors to generic positions before a finite-difference check.

    Freshly initialized biases are zero, which parks many ReLU pre-activations
    exactly on the kink; central differences straddle the kink there and the
    comparison fails even though the analytic subgradient is correct.
    """
    for p in param_list:
        for key, w in p.weights.items():
            if key == "b":
                w += rng.uniform(-0.2, 0.2, size=w.shape).astype(w.dtype)


def gradient_check(param_list, loss_fn, grad_fn, step, tol):
    """Compare analytic gradients with central finite differences.

    loss_fn() evaluates the scalar loss at the current parameter values;
    grad_fn() runs forward and backward, which writes every gradient of
    param_list. step is the finite-difference step and tol the largest
    relative error that passes (the `nilmnet gradcheck` flags hold their
    defaults). Perturbation and comparison happen entry by entry in
    64-bit, so the caller should build the model in float64.

    Returns one GradCheckEntry per parameter group of param_list.
    """
    grad_fn()
    results = []
    for p in param_list:
        worst = 0.0
        for key, w in p.weights.items():
            # Parameter tensors are contiguous, so these are views.
            flat = w.reshape(-1)
            analytic = p.grads[key].reshape(-1).copy()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                loss_plus = loss_fn()
                flat[idx] = orig - step
                loss_minus = loss_fn()
                flat[idx] = orig
                numeric = (loss_plus - loss_minus) / (2.0 * step)
                a = analytic[idx]
                denom = max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, abs(a - numeric) / denom)
        results.append(GradCheckEntry(p.name, worst, worst < tol))
    return results
