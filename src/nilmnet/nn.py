"""Minimal differentiable kernels for the disaggregation networks.

Every layer needed by the architecture is implemented here with an explicit
forward pass and an analytic backward pass: 1-D convolution, dense layers,
LSTM cells, a bidirectional LSTM, the feed-forward attention unit, the two
losses, and SGD with Nesterov momentum. There is no general autodiff graph;
layers cache what their own backward pass reads, so a forward call must be
paired with the matching backward call on the same instance. The cache is
a one-shot hand-off: a forward's cache goes to exactly one backward, which
drops it, so a training step's activations are freed before the next
forward allocates. A forward with cache=False keeps nothing, for
inference; a backward after it, or a second backward after one forward,
raises RuntimeError naming the layer.

The cache rule: every cache and buffer holds only what its next reader
needs. A layer caches its input and output, which the layers beside it
hold anyway, plus what the backward cannot rebuild; a cheap array it can
rebuild (Conv1D's im2col columns, the BiLSTM's cell states and tanh(c)) is
recomputed in the backward instead (Chen et al. 2016, arXiv:1604.06174),
the cell states from one checkpoint per block of BLOCK steps by
_cell_state, the one cell update the forward also runs. An uncached
forward holds a buffer only as long as the next step reads it, as the
BiLSTM's block of gates and the attention's block of projections, and a
backward drops an array once its last reader is done, as the BiLSTM drops
its upstream gradient after its time loop.

Arrays are batch-first throughout:

    Conv1D     (B, C_in, L) -> (B, F, L)
    Dense      (B, n)       -> (B, m)
    BiLSTM     (B, T, d)    -> (B, T, 2H)
    Attention  (B, T, 2H)   -> context (B, 2H), weights (B, T)

The shape contract is stated in one place, _expect: every array that
crosses a layer, loss or model boundary, upstream gradients and LSTM
states included, is checked against the shape it must have, and a wrong
one raises ShapeError naming the layer instance (or the loss or model)
instead of broadcasting into a result.

Conv1D computes channels-first, as it is called: its im2col columns are
(B, C_in*K, L) and its output is a contiguous (B, F, L) array. BiLSTM
computes direction-major: its buffers are (2, T, B, .) with the backward
direction in reversed time, so one step loop runs both directions as one
slab, and the four gate activations of a step take a single tanh.

Training runs in float32; tests instantiate everything in float64 so that
analytic gradients can be compared against central finite differences.

Parameters live in an Arena: a flat zero weight vector that hands out
reshaped views in order, and a twin grad vector of the same layout that
its first reader makes. Every LayerParams weight tensor is built as such
a view, and a layer's initializer draws straight into it.
The order in which layers take their views is the one statement of the
parameter layout: the arena records each LayerParams it hands out, and
GatedAttentionModel.all_params() and the checkpoint tensor table read that
record. GatedAttentionModel sizes one arena for all its layers, while the
layers read and write their views in place (the BiLSTM through (2, ...)
views across its two cells); a standalone layer gets an arena of exactly
its own size. Assign into a view in place (w[...] = x, out=g): p.weights
and p.grads are read-only mappings, so rebinding an entry, p.weights[k]
+= x included, raises TypeError.

A built arena holds no grad vector. Each backward writes its parameters'
gradients into buffers that GradVector.take gives segments of the layer's
tensors, which are adjacent in the arena: a Dense or Attention W in row
blocks of about GRAD_BLOCK entries (LayerParams.write_grad_rows), each
LSTM cell's tensors at once, and a layer's other tensors together. While
an SgdNesterov is attached (GradVector.attached), a buffer holds its
segment alone and goes to SgdNesterov.apply as soon as it is written,
after the backward's last read of those weights (a backward computes its
input gradient first), so the update fuses with the backward (Lv et al.
2023, arXiv:2306.09782): no later backward reads those weights, no grad
vector is made, and a step holds one block of gradients at a time, at
most one LSTM cell's. This is the one way an update is applied, in
training.train and by hand:

    opt = SgdNesterov(model.weights, base_lr, momentum, decay)
    with model.attached(opt):
        for batch in batches:
            model.train_step_grads(*batch)
            opt.step()

While no optimizer is attached, the buffer is the segment of the grad
vector, which its first reader (a backward, p.grads or the model's grads)
makes zero, for a caller that reads the gradients, as gradient_check
does; grad views are taken from the vector when they are read, never
bound at build time.

Each parameter gets its gradient from exactly one backward call, so every
backward, LSTMCell.step_backward included, writes every entry of its
parameters' gradients (out=) and the optimizer only reads them: nothing
zeroes a gradient between steps. A caller that unrolls LSTMCell over time
sums the steps' gradients itself.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ShapeError


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


# Each activation as a pair (apply, grad): apply(pre) writes the activation
# over the pre-activation and returns it; grad(d_out, out) is the gradient
# w.r.t. the pre-activation, given the output and its gradient. The ReLU
# slope reads out > 0, the same mask as pre > 0 for every float: max(pre, 0)
# is positive exactly where pre is, and NaN stays NaN.
ACTIVATIONS = {
    "relu": (lambda pre: np.maximum(pre, 0.0, out=pre),
             lambda d_out, out: d_out * (out > 0)),
    "linear": (lambda pre: pre,
               lambda d_out, out: d_out),
    "sigmoid": (lambda pre: sigmoid(pre, out=pre),
                lambda d_out, out: d_out * out * (1.0 - out)),
    "tanh": (lambda pre: np.tanh(pre, out=pre),
             lambda d_out, out: d_out * (1.0 - out * out)),
}


class GradVector:
    """The zero grad vector of an arena, made by its first read, and the
    optimizer its backwards hand their gradients to while one is attached,
    one segment at a time: a group's tensors, some of them, or a block of
    rows of one.

    The arena and every LayerParams it hands out share this holder and
    read the vector through it. The holder refers to no layer or model, an
    attached optimizer included, so an arena and its groups form no
    reference cycle and a dropped model is freed at once.
    """

    __slots__ = ("size", "dtype", "vector", "optimizer")

    def __init__(self, size, dtype):
        self.size, self.dtype = size, dtype
        self.vector = self.optimizer = None

    def read(self):
        """The grad vector, made (zero) if there is none."""
        if self.vector is None:
            self.vector = np.zeros(self.size, self.dtype)
        return self.vector

    @contextlib.contextmanager
    def take(self, segment, views):
        """views(buffer) of the flat buffer a backward writes segment's
        gradient into.

        With no optimizer attached the buffer is segment's view of the
        vector, made if there is none. With one attached it is a buffer of
        the segment alone: when the block exits, after the backward's last
        read of its weights, it goes to optimizer.apply(segment, g) and is
        dropped. A block that raises hands nothing over.
        """
        if self.optimizer is None:
            yield views(self.read()[segment])
            return
        g = np.empty(segment.stop - segment.start, self.dtype)
        yield views(g)
        self.optimizer.apply(segment, g)

    @contextlib.contextmanager
    def attached(self, optimizer):
        """Hand every gradient a backward takes to optimizer, an
        SgdNesterov, until the block exits; then the optimizer attached
        before, if any, takes them again."""
        replaced, self.optimizer = self.optimizer, optimizer
        try:
            yield
        finally:
            self.optimizer = replaced


class Arena:
    """A zero weight vector handed out in order, and its grad vector.

    groups lists every LayerParams built from the arena, in arena order.
    np.zeros leaves its pages untouched until written, so a zero model's
    checkpoint load writes each page once. The grad vector is made by its
    first read (GradVector), not here. A size whose bytes are past numpy's
    index range raises MemoryError, as one that does not fit in memory
    does.
    """

    def __init__(self, size, dtype):
        if size * np.dtype(dtype).itemsize > np.iinfo(np.intp).max:
            raise MemoryError(f"arena of {size} entries is past numpy's index range")
        self.weights = np.zeros(size, dtype)
        self.grad_vector = GradVector(size, dtype)
        self.used = 0
        self.groups = []

    def take(self, shape):
        """The next weight view with the given shape."""
        start, self.used = self.used, self.used + math.prod(shape)
        if self.used > self.weights.size:
            raise ShapeError(f"arena of {self.weights.size} entries is full")
        return self.weights[start:self.used].reshape(shape)


class LayerParams:
    """Named weight tensors of one layer plus matching gradient buffers.

    shapes maps each key to its tensor shape; the weights are views taken
    from arena in that order, or from an arena of exactly this layer's
    size, in dtype, when none is given, and the arena records the group.
    The group's tensors are one segment of the arena. grads reads that
    segment of the arena's current grad vector, and makes the vector if
    there is none; a backward writes through take_grads and
    write_grad_rows instead. Both mappings are read-only.
    """

    def __init__(self, name, shapes, dtype, arena=None):
        if arena is None:
            arena = Arena(sum(math.prod(shape) for shape in shapes.values()), dtype)
        start = arena.used
        self.name = name
        self._starts = {}
        weights = {}
        for k, shape in shapes.items():
            self._starts[k] = arena.used
            weights[k] = arena.take(shape)
        self.weights = MappingProxyType(weights)
        self._segment = slice(start, arena.used)
        self._grad_vector = arena.grad_vector
        arena.groups.append(self)

    def _views(self, keys, flat):
        """Each of keys' tensor views of flat, a buffer of their segment."""
        views, lo = {}, 0
        for k in keys:
            w = self.weights[k]
            views[k] = flat[lo:lo + w.size].reshape(w.shape)
            lo += w.size
        return MappingProxyType(views)

    @property
    def grads(self):
        return self._views(self.weights, self._grad_vector.read()[self._segment])

    def take_grads(self, *keys):
        """Context manager: the grads mapping a backward writes for keys,
        adjacent tensors in the group's order, or for every tensor when
        none is named, over the buffer that GradVector.take gives their
        segment."""
        keys = keys or tuple(self.weights)
        end = self._starts[keys[-1]] + self.weights[keys[-1]].size
        return self._grad_vector.take(slice(self._starts[keys[0]], end),
                                      functools.partial(self._views, keys))

    def write_grad_rows(self, key, a, b):
        """Write the gradient of the 2-D tensor key, a.T @ b, in blocks of
        about GRAD_BLOCK entries, each handed over through GradVector.take
        as it is written, so an attached optimizer updates the block before
        the next one is made. Nothing may read the tensor's weights after
        the call.

        Every block has at least two rows, and a last block of one row
        joins the block before it: a one-row GEMM runs as a matrix-vector
        product, which rounds differently, so each row of a block rounds as
        it does in the whole-tensor GEMM.
        """
        rows, cols = self.weights[key].shape
        start, per = self._starts[key], max(2, GRAD_BLOCK // cols)
        lo = 0
        while lo < rows:
            hi = rows if rows - lo < per + 2 else lo + per
            with self._grad_vector.take(slice(start + lo * cols, start + hi * cols),
                                        lambda flat: flat.reshape(-1, cols)) as g:
                np.matmul(a.T[lo:hi], b, out=g)
            lo = hi

    @property
    def n_params(self):
        return sum(w.size for w in self.weights.values())

    def __repr__(self):
        shapes = {k: v.shape for k, v in self.weights.items()}
        return f"LayerParams({self.name!r}, {shapes})"


def _expect(name, array, dims):
    """Raise ShapeError naming name unless array has one axis per entry of
    dims and every int entry equals its axis; a str entry such as "B"
    names a free axis."""
    shape = np.shape(array)
    if len(shape) != len(dims) or any(
            not isinstance(d, str) and d != n for d, n in zip(dims, shape)):
        raise ShapeError(f"{name}: expected ({', '.join(map(str, dims))}), got {shape}")


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

    The cache holds the input, which the layer below holds as its output
    anyway, and the output. The backward rebuilds the columns, C_in*K
    times the input's size, with the forward's own _columns, so they live
    only within one call: one im2col copy per step buys them out of the
    memory held from forward to backward (Chen et al. 2016).
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

    def _columns(self, x):
        """im2col in the given layout: the K length-L windows of the padded
        x, one per kernel offset, as (B, C_in*K, L) columns whose rows run
        in (c, k) order, the order of W.reshape(F, C_in*K)."""
        b_sz, _, length = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), same_padding(self.kernel)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, length, axis=2)
        return windows.reshape(b_sz, -1, length)

    def forward(self, x, cache=True):
        """x: (B, C_in, L) -> (B, F, L)."""
        _expect(self.params.name, x, ("B", self.in_channels, "L"))
        w = self.params.weights["W"].reshape(self.filters, -1)
        out = w @ self._columns(x)
        out += self.params.weights["b"][:, None]
        ACTIVATIONS[self.activation][0](out)
        self._cache = (x, out) if cache else None
        return out

    def backward(self, d_out, input_grad=True):
        """d_out: (B, F, L) -> gradient w.r.t. the input, (B, C_in, L).

        With input_grad=False, for an input whose gradient nothing reads,
        the parameter gradients are written alike and None is returned.
        """
        x, out = _take_cache(self, self.params.name)
        _expect(self.params.name, d_out, out.shape)
        d_pre = ACTIVATIONS[self.activation][1](d_out, out)
        w = self.params.weights["W"].reshape(self.filters, -1)
        with self.params.take_grads() as grads:
            # The forward's columns, rebuilt by the same code, in one GEMM
            # per batch item as a transposed operand (no copy), summed over
            # the batch; they are freed before the input gradient's columns
            # exist.
            np.sum(d_pre @ self._columns(x).swapaxes(1, 2), axis=0,
                   out=grads["W"].reshape(self.filters, -1))
            np.sum(d_pre, axis=(0, 2), out=grads["b"])
            if not input_grad:
                return None
            b_sz, _, length = out.shape
            k = self.kernel
            d_cols = (w.T @ d_pre).reshape(b_sz, self.in_channels, k, length)
        d_xp = np.zeros((b_sz, self.in_channels, length + k - 1), dtype=d_out.dtype)
        for j in range(k):
            d_xp[:, :, j:j + length] += d_cols[:, :, j]
        pl = same_padding(k)[0]
        return d_xp[:, :, pl:pl + length]


class Dense:
    """Fully connected layer: out = act(x @ W.T + b).

    The backward reads W for the input gradient first, then writes W's
    gradient in row blocks of about GRAD_BLOCK entries, each handed over as
    it is written (LayerParams.write_grad_rows), and b's after: at the
    paper shape cls.fc1's 25 MiB gradient is never held whole.
    """

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
        _expect(self.params.name, x, ("B", self.in_features))
        out = x @ self.params.weights["W"].T
        out += self.params.weights["b"]
        ACTIVATIONS[self.activation][0](out)
        self._cache = (x, out) if cache else None
        return out

    def backward(self, d_out):
        """d_out: (B, m) -> gradient w.r.t. the input, (B, n)."""
        x, out = _take_cache(self, self.params.name)
        _expect(self.params.name, d_out, out.shape)
        d_pre = ACTIVATIONS[self.activation][1](d_out, out)
        d_x = d_pre @ self.params.weights["W"]
        self.params.write_grad_rows("W", d_pre, x)
        with self.params.take_grads("b") as grads:
            np.sum(d_pre, axis=0, out=grads["b"])
        return d_x


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


def _cell_state(i, f, g, c_prev, c):
    """The cell update c = f * c_prev + i * g, written into c.

    The one statement of the update: the forward's cells and the BiLSTM
    backward's rebuilt cells both come from it, so a rebuilt cell rounds as
    the forward's did.
    """
    np.multiply(f, c_prev, out=c)
    c += i * g


def _lstm_gates(z, c_prev, c, tanh_c, h):
    """The LSTM cell equations for one step, in place on preallocated arrays.

    z holds the pre-activations (..., 4H) in gate order (i, f, g, o) and is
    overwritten with the activations; c, tanh(c) and h are written to the
    given (..., H) arrays. Leading axes stack independent cells, as the
    BiLSTM's (2, B) direction slabs do. Every argument may be a strided view.
    """
    i, f, g, o = _split_gates(_gate_activations(z))
    _cell_state(i, f, g, c_prev, c)
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
        """One time step: (B, d), (B, H), (B, H) -> (h, c, cache).

        The cache is (x, h_prev, c_prev, z, tanh(c)), where z holds the
        step's (B, 4H) gate activations in gate order.
        """
        _expect(self.params.name, x, ("B", self.input_size))
        for state in (h_prev, c_prev):
            _expect(self.params.name, state, (len(x), self.hidden_size))
        # Same summation order as BiLSTM: input projection plus bias, then
        # the recurrent term.
        z = x @ self.params.weights["W"].T + self.params.weights["b"]
        z += h_prev @ self.params.weights["U"].T
        c, tanh_c, h = (np.empty_like(h_prev, dtype=z.dtype) for _ in range(3))
        _lstm_gates(z, c_prev, c, tanh_c, h)
        return h, c, (x, h_prev, c_prev, z, tanh_c)

    def step_backward(self, d_h, d_c, cache):
        """Backward through one step; writes the parameter gradients.

        A caller that unrolls the cell over time sums the steps' gradients.
        Returns (d_x, d_h_prev, d_c_prev).
        """
        x, h_prev, c_prev, z, tanh_c = cache
        d_z = np.empty_like(z)
        d_c_prev = _lstm_gates_backward(d_h, d_c, z, c_prev, tanh_c, d_z)
        with self.params.take_grads() as grads:
            np.matmul(d_z.T, x, out=grads["W"])
            np.matmul(d_z.T, h_prev, out=grads["U"])
            np.sum(d_z, axis=0, out=grads["b"])
            return d_z @ self.params.weights["W"], d_z @ self.params.weights["U"], d_c_prev


# Time steps per input-projection GEMM of an uncached BiLSTM forward and
# per cell checkpoint of a cached one, and windows per scoring GEMM of an
# uncached Attention forward.
BLOCK = 8


class BiLSTM:
    """Bidirectional LSTM; output concatenates the two directions per step.

    Laid out the way cuDNN runs recurrent layers (Appleyard, Kocisky &
    Blunsom 2016, arXiv:1604.01946): only the recurrent product h @ U.T
    depends on the previous step, so everything else leaves the time loop,
    and the two directions, which do not depend on each other, run together.

    As cuDNN keeps each direction's matrices in one packed weight space,
    the two cells' W, U and b are read in place: the fw cell's tensors and
    then the bw cell's are adjacent in the arena, so the layer takes
    (2, 4H, d), (2, 4H, H) and (2, 4H) views across both. The weight views
    are taken once, at build time. Nothing copies them per call, so an
    in-place edit of a cell's tensor reaches the next forward.

    Every buffer is direction-major, (2, T, B, .): row 0 is the forward
    cell in natural time, row 1 the backward cell in reversed time, so
    buffer step s is time s forward and time T-1-s backward, and each
    direction's buffer is one contiguous slab.

    - forward projects one block of steps at a time: the block's inputs,
      stacked as (2, steps*B, d) with the second copy time-reversed, go
      through one batched (2, d, 4H) GEMM straight into the gate buffer.
      A cached forward's one block stacks all T steps, which the backward
      reads for dW. Step s then adds one batched (2, B, H) @ (2, H, 4H)
      recurrent product and applies the cell equations, one tanh for all
      four gates, to both directions' (2, B, 4H) slab at once. The step's
      h lands in a (2, B, H) step buffer and from there in the (B, T, 2H)
      output, so each h is held once, in both cache modes.
    - backward runs the same fused loop: the elementwise gate gradients and
      one batched recurrent GEMM d_z @ U per step. Step s's d_z goes through
      one (2, B, 4H) scratch into the gate slab gates[:, s], which that step
      was the last to read, so the gate buffer becomes the d_z buffer and no
      second (2, T, B, 4H) array is allocated. After the loop the upstream
      gradient is dropped, the input gradient is one batched GEMM with
      both cells' W, and then each cell in turn writes its dW, dU and db,
      one GEMM or sum each, into its take_grads buffer, which an attached
      optimizer applies before the other cell's is made.

    No (2, T, B, H) trajectory is cached (the trades of Chen et al. 2016,
    arXiv:1604.06174, and of Gruslys et al. 2016, arXiv:1606.03401). The
    forward steps through a ring of two cell states, (2, 2, B, H), and a
    cached forward keeps the state entering each block of BLOCK steps, a
    (2, ceil(T/BLOCK), B, H) array of checkpoints. Entering a block at its
    last step, before any of its steps overwrites its gates with d_z, the
    backward rebuilds the block's cells into a (2, BLOCK + 1, B, H) buffer
    from its checkpoint and the cached gates with _cell_state, the update
    the forward's _lstm_gates calls, so each cell rounds as it did there,
    and np.tanh of a cell rounds as the forward's did. Nor is a hidden
    trajectory kept: the cache holds the (B, T, 2H) output, the array the
    attention layer above caches too, and the backward copies each
    direction's dU operand out of it, so the model holds the BiLSTM's
    output once.

    Only the backward reads the (2, T, B, 4H) gates, so only a cached
    forward holds them, as one block of all T steps. With cache=False the
    same loop projects blocks of BLOCK steps into a (2, BLOCK + 1, B, 4H)
    gate buffer: with the ring, at the paper shape with B=256 that is
    40 MB in place of 671 MB. A GEMM rounds each row alike whatever its
    row count, except a one-row GEMM, which numpy runs as a matrix-vector
    product and no block is given, so both modes give the same bytes
    (tested, not assumed).

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
        # (2, 4H, d) W, (2, 4H, H) U and (2, 4H) b views across both cells.
        w, u, self._b = np.split(arena.weights[start:arena.used].reshape(2, -1),
                                 [h4 * d, -h4], axis=1)
        self._w, self._u = w.reshape(2, h4, d), u.reshape(2, h4, hidden_size)
        self._cache = None

    def forward(self, x, cache=True):
        """x: (B, T, d) -> (B, T, 2H). Initial states are zero."""
        _expect(self.name, x, ("B", "T", self.input_size))
        b_sz, steps, d = x.shape
        if steps < 1:
            raise ShapeError(f"{self.name}: empty sequence")
        hs = self.hidden_size
        x_tm = x.transpose(1, 0, 2)
        # The backward reads every step's gates. Without it, a step reads
        # the gates of its own block. Blocks are BLOCK steps, and a last
        # block of one step joins the one before: for a one-window batch it
        # would be a one-row GEMM, which numpy runs as a matrix-vector
        # product that rounds differently. Either way a step reads a ring of
        # two cell states, its own and the one before, and a cached forward
        # keeps the state entering each block of BLOCK steps.
        block = steps if cache else min(BLOCK + 1, steps)
        flat_gates = np.empty((2, block * b_sz, 4 * hs), dtype=np.result_type(x, self._w))
        gates = flat_gates.reshape(2, block, b_sz, 4 * hs)
        cells = np.empty((2, 2, b_sz, hs), dtype=gates.dtype)
        zeros = np.zeros((2, b_sz, hs), dtype=gates.dtype)
        checkpoints = np.zeros((2, -(-steps // BLOCK), b_sz, hs), gates.dtype) if cache else None
        tanh_c, h = np.empty_like(zeros), np.empty_like(zeros)
        recurrent = np.empty((2, b_sz, 4 * hs), dtype=gates.dtype)
        out = np.empty((b_sz, steps, 2 * hs), dtype=gates.dtype)
        # A C-contiguous U.T runs the small per-step GEMM about a fifth
        # faster than the transposed layout, whose GEMM also rounds
        # differently at small batches, so a one-window batch would no
        # longer match its row in a larger batch.
        u_t = np.ascontiguousarray(self._u.transpose(0, 2, 1))
        start = end = 0
        for s in range(steps):
            if s == end:
                # The input projection of the next block, one batched GEMM.
                start, end = s, steps if steps - s <= block else s + BLOCK
                n = (end - start) * b_sz
                xs = np.stack([x_tm[start:end], x_tm[::-1][start:end]]).reshape(2, n, d)
                np.matmul(xs, self._w.transpose(0, 2, 1), out=flat_gates[:, :n])
                flat_gates[:, :n] += self._b[:, None]
            z = gates[:, s - start]
            if s:
                z += np.matmul(h, u_t, out=recurrent)
            _lstm_gates(z, cells[:, (s - 1) % 2] if s else zeros, cells[:, s % 2], tanh_c, h)
            if cache and (s + 1) % BLOCK == 0 and s + 1 < steps:
                checkpoints[:, (s + 1) // BLOCK] = cells[:, s % 2]
            out[:, s, :hs] = h[0]
            out[:, steps - 1 - s, hs:] = h[1]
        self._cache = (xs, gates, checkpoints, out) if cache else None
        return out

    def backward(self, d_out):
        """d_out: (B, T, 2H) -> gradient w.r.t. the input sequence."""
        xs, gates, checkpoints, out = _take_cache(self, self.name)
        b_sz, steps, _ = out.shape
        hs = self.hidden_size
        _expect(self.name, d_out, out.shape)
        zeros = np.zeros((2, b_sz, hs), dtype=gates.dtype)
        d_h, d_c = zeros.copy(), zeros
        step_d_z = np.empty((2, b_sz, 4 * hs), dtype=gates.dtype)
        # One block's cell states: the one entering it, then its steps'.
        cells = np.empty((2, min(BLOCK, steps) + 1, b_sz, hs), dtype=gates.dtype)
        # Unwind the buffer steps backwards; d_h holds the recurrent
        # gradient and gains step s's upstream gradient for each direction.
        # Step s is the last to read gates[:, s], so its d_z replaces them.
        for s in range(steps - 1, -1, -1):
            k = s % BLOCK
            if k == BLOCK - 1 or s == steps - 1:
                # Entering a block at its last step, before any of its steps
                # overwrites its gates: its cells again, from the checkpoint,
                # by the forward's own _cell_state.
                cells[:, 0] = checkpoints[:, s // BLOCK]
                for j in range(k + 1):
                    i, f, g, _ = _split_gates(gates[:, s - k + j])
                    _cell_state(i, f, g, cells[:, j], cells[:, j + 1])
            d_h[0] += d_out[:, s, :hs]
            d_h[1] += d_out[:, steps - 1 - s, hs:]
            d_c = _lstm_gates_backward(d_h, d_c, gates[:, s], cells[:, k],
                                       np.tanh(cells[:, k + 1]), step_d_z)
            gates[:, s] = step_d_z
            if s:
                np.matmul(gates[:, s], self._u, out=d_h)
        # No later step reads the upstream gradient: a caller that passed
        # it as a temporary frees it here, before the weight GEMMs.
        del d_out
        d_z = gates
        flat_d_z = d_z.reshape(2, steps * b_sz, 4 * hs)
        # The input gradient reads both cells' W before either is handed on.
        d_xs = (flat_d_z @ self._w).reshape(2, steps, b_sz, -1)
        # The h each direction's steps 1..T-1 read, from the output:
        # times 0..T-2 forward and T-1..1 backward.
        h_read = (out[:, :-1, :hs], out[:, :0:-1, hs:])
        for k, cell in enumerate((self.fw, self.bw)):
            with cell.params.take_grads() as grads:
                np.matmul(flat_d_z[k].T, xs[k], out=grads["W"])
                # Every step but the first against the h it read, copied to
                # one contiguous ((T-1)*B, H) operand in step order.
                np.matmul(d_z[k, 1:].reshape(-1, 4 * hs).T,
                          h_read[k].transpose(1, 0, 2).reshape(-1, hs), out=grads["U"])
                np.sum(flat_d_z[k], axis=0, out=grads["b"])
        return np.add(d_xs[0].transpose(1, 0, 2), d_xs[1, ::-1].transpose(1, 0, 2),
                      order="C")


class Attention:
    """Feed-forward attention over encoder states.

    Scores each time step with v . tanh(W h_t + b), normalizes the scores
    with a softmax, and returns the weighted sum of states as the context.

    Only the backward reads the (B, T, H) tanh projection m, so only a
    cached forward holds it whole. With cache=False the windows are scored
    in blocks of BLOCK, each projected into one buffer of BLOCK windows'
    m once the block before is scored: at the paper shape with B=256 that
    is 2 MB in place of 64 MB. Each row rounds as it does in one
    whole-batch GEMM, so both modes give the same bytes (tested).

    The backward hands b's and v's gradients over together, then computes
    the input gradient with W and writes W's gradient in row blocks
    (LayerParams.write_grad_rows), as Dense does.
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
        _expect(self.params.name, hidden, ("B", "T", self.state_size))
        if hidden.shape[1] < 1:
            raise ShapeError(f"{self.params.name}: empty sequence")
        w, b, v = (self.params.weights[k] for k in ("W", "b", "v"))
        b_sz, steps = hidden.shape[:2]
        # One flat GEMM per block of windows, as the backward runs it, into
        # one buffer of projections; a cached forward takes the whole batch
        # as one block. At T=1 a one-window block is a one-row GEMM, which
        # numpy runs as a matrix-vector product that rounds differently,
        # but then the one step's weight is 1 whatever its score.
        block = b_sz if cache else min(BLOCK, b_sz)
        flat_m = np.empty((block * steps, self.units), dtype=np.result_type(hidden, w))
        scores = np.empty((b_sz, steps), dtype=flat_m.dtype)
        stops = () if cache else range(BLOCK, b_sz, BLOCK)
        lo = 0
        for hi in (*stops, b_sz):
            m = np.matmul(hidden[lo:hi].reshape(-1, self.state_size), w.T,
                          out=flat_m[:(hi - lo) * steps]).reshape(hi - lo, steps, self.units)
            m += b
            np.tanh(m, out=m)
            np.matmul(m, v, out=scores[lo:hi])
            lo = hi
        alpha = softmax(scores)
        context = np.einsum("bt,bts->bs", alpha, hidden)
        self._cache = (hidden, m, alpha) if cache else None
        return context, alpha

    def backward(self, d_context):
        """d_context: (B, S) -> gradient w.r.t. the hidden states (B, T, S)."""
        hidden, m, alpha = _take_cache(self, self.params.name)
        _expect(self.params.name, d_context, (len(hidden), self.state_size))
        w, v = self.params.weights["W"], self.params.weights["v"]
        d_alpha = np.einsum("bs,bts->bt", d_context, hidden)
        # softmax Jacobian: couples all time steps of one sequence
        d_scores = alpha * (d_alpha - np.sum(alpha * d_alpha, axis=1, keepdims=True))
        with self.params.take_grads("b", "v") as grads:
            np.einsum("bt,btu->u", d_scores, m, out=grads["v"])
            # d_pre = d_m * (1 - m * m), formed in m's buffer.
            d_m = d_scores[:, :, None] * v
            d_pre = np.multiply(m, m, out=m)
            np.subtract(1.0, d_pre, out=d_pre)
            d_pre *= d_m
            del d_m
            flat_pre = d_pre.reshape(-1, self.units)
            np.sum(flat_pre, axis=0, out=grads["b"])
        d_hidden = d_pre @ w
        self.params.write_grad_rows("W", flat_pre, hidden.reshape(-1, self.state_size))
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
    _expect("mse", target, pred.shape)
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
    _expect("bce", target, pred.shape)
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
# Entries per block of a weight gradient that a backward writes and hands
# over at a time (LayerParams.write_grad_rows): 1 MiB of float32.
GRAD_BLOCK = 8 * STEP_BLOCK


class SgdNesterov:
    """SGD with Nesterov momentum in the look-ahead form.

    Per step, with effective rate eta = base_lr / (1 + decay * step_count):

        v     <- mu * v - eta * g
        theta <- theta + mu * v - eta * g

    weights is the flat weight vector of a model's arena, or any vector,
    and the optimizer updates it and its velocity in place. The gradients
    g arrive through apply, one flat segment at a time. Attached to a
    model (GatedAttentionModel.attached), it gets each layer's segment as
    that layer's backward returns, so no whole grad vector is held (Lv et
    al. 2023, arXiv:2306.09782); a whole vector, such as a model's grads,
    is the one segment slice(0, weights.size). step() ends the step: it
    advances the step count, and with it the rate of the next apply.

    Each entry's update is the same whichever segments carry it. With
    mu = 0 the update is exactly plain gradient descent at the same rate.
    base_lr, momentum and decay have no defaults here: training.TrainConfig
    holds them.
    """

    def __init__(self, weights, base_lr, momentum, decay):
        self.weights = weights
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

    def apply(self, segment, g):
        """Update weights[segment] and its velocity with g, that segment's
        flat gradient, at the current step's rate."""
        lr = self.effective_lr
        mu = self.momentum
        weights, velocity = self.weights[segment], self.velocity[segment]
        for lo in range(0, g.size, STEP_BLOCK):
            v = velocity[lo:lo + STEP_BLOCK]
            lg, s = self._scratch[:, :v.size]
            # Same roundings as v = mu*v - lr*g; w += mu*v - lr*g.
            np.multiply(g[lo:lo + STEP_BLOCK], lr, out=lg)
            v *= mu
            v -= lg
            np.multiply(v, mu, out=s)
            s -= lg
            weights[lo:lo + STEP_BLOCK] += s

    def step(self):
        """End the step: the next apply runs at the next step's rate."""
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
