"""Minimal differentiable kernels for the disaggregation networks.

Every layer needed by the architecture is implemented here with an explicit
forward pass and an analytic backward pass: 1-D convolution, dense layers,
LSTM cells, a bidirectional LSTM, the feed-forward attention unit, the two
losses, and SGD with Nesterov momentum. There is no general autodiff graph;
layers cache whatever their own backward pass needs, so a forward call must
be paired with the matching backward call on the same instance. A forward
with cache=False keeps nothing, for inference; a backward after it fails.

Arrays are batch-first throughout:

    Conv1D     (B, C_in, L) -> (B, F, L)
    Dense      (B, n)       -> (B, m)
    BiLSTM     (B, T, d)    -> (B, T, 2H)
    Attention  (B, T, 2H)   -> context (B, 2H), weights (B, T)

Conv1D computes channels-first, as it is called: its im2col columns are
(B, C_in*K, L) and its output is a contiguous (B, F, L) array.

Training runs in float32; tests instantiate everything in float64 so that
analytic gradients can be compared against central finite differences.

Parameters live in one arena per model: pack_params copies every weight
tensor into one flat vector and every gradient into a twin vector, and
leaves each LayerParams with reshaped views into them. The optimizer,
snapshots and the gradient check work on the two vectors; layers keep
reading and writing their named views. Assign into a view in place
(w[...] = x, w += d) and never rebind p.weights[k] or p.grads[k], or the
tensor drops out of the arena.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

ACTIVATIONS = ("relu", "linear", "sigmoid", "tanh")


def relu(x):
    return np.maximum(x, 0.0)


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


def softmax(x, axis=-1):
    """Stable softmax: shifts by the max so exp never overflows."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _apply_activation(pre, activation):
    if activation == "relu":
        return relu(pre)
    if activation == "linear":
        return pre
    if activation == "sigmoid":
        return sigmoid(pre)
    if activation == "tanh":
        return np.tanh(pre)
    raise ValueError(f"unknown activation {activation!r}")


def _activation_grad(d_out, pre, out, activation):
    """Gradient w.r.t. the pre-activation, given the output gradient."""
    if activation == "relu":
        return d_out * (pre > 0)
    if activation == "linear":
        return d_out
    if activation == "sigmoid":
        return d_out * out * (1.0 - out)
    if activation == "tanh":
        return d_out * (1.0 - out * out)
    raise ValueError(f"unknown activation {activation!r}")


class LayerParams:
    """Named weight tensors of one layer plus matching gradient buffers.

    Once packed, weights[k] and grads[k] are views into the arena's two
    vectors and arena is (ids of the packed list, weights, grads); assign in
    place and never rebind them.
    """

    def __init__(self, name, weights):
        self.name = name
        self.weights = dict(weights)
        self.grads = {k: np.zeros(v.shape, v.dtype) for k, v in self.weights.items()}
        self.arena = None

    @property
    def n_params(self):
        return sum(w.size for w in self.weights.values())

    def __repr__(self):
        shapes = {k: v.shape for k, v in self.weights.items()}
        return f"LayerParams({self.name!r}, {shapes})"


def pack_params(param_list):
    """Flat weight and grad vectors of param_list; its tensors become views.

    The weights and any grads already set are copied in, in list and key
    order. A list packed before (the same LayerParams in the same order)
    gets its vectors back without a copy; a LayerParams packed with another
    list is refused.
    """
    params = tuple(param_list)
    # The arena records ids, not the LayerParams, so no reference cycle
    # keeps a dropped model's vectors alive until the cycle collector runs.
    ids = tuple(map(id, params))
    arena = params[0].arena
    if arena is not None and arena[0] == ids and all(p.arena is arena for p in params):
        return arena[1:]
    if any(p.arena is not None for p in params):
        raise ValueError("a parameter group already belongs to another arena")
    weights = np.concatenate([w.reshape(-1) for p in params for w in p.weights.values()])
    # np.zeros, unlike np.zeros_like, leaves the pages untouched, and zero
    # grads are skipped below, so an inference-only model never touches them.
    grads = np.zeros(weights.shape, weights.dtype)
    arena = (ids, weights, grads)
    offset = 0
    for p in params:
        for key, w in p.weights.items():
            segment = slice(offset, offset + w.size)
            if p.grads[key].any():
                grads[segment] = p.grads[key].reshape(-1)
            p.weights[key] = weights[segment].reshape(w.shape)
            p.grads[key] = grads[segment].reshape(w.shape)
            offset = segment.stop
        p.arena = arena
    return weights, grads


def he_uniform(rng, shape, fan_in, dtype):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


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
                 rng=None, dtype=np.float32):
        if kernel < 1:
            raise ShapeError("kernel size must be >= 1")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = kernel
        self.activation = activation
        fan_in = in_channels * kernel
        if rng is None:
            weight = np.zeros((filters, in_channels, kernel), dtype=dtype)
        else:
            weight = he_uniform(rng, (filters, in_channels, kernel), fan_in, dtype)
        self.params = LayerParams(name, {
            "W": weight,
            "b": np.zeros(filters, dtype=dtype),
        })
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
        pre = w @ cols
        pre += self.params.weights["b"][:, None]
        out = _apply_activation(pre, self.activation)
        self._cache = (cols, pre, out) if cache else None
        return out

    def backward(self, d_out):
        """d_out: (B, F, L) -> gradient w.r.t. the input, (B, C_in, L)."""
        cols, pre, out = self._cache
        if d_out.shape != out.shape:
            raise ShapeError(
                f"{self.params.name}: upstream shape {d_out.shape} does not match "
                f"forward output {out.shape}")
        d_pre = _activation_grad(d_out, pre, out, self.activation)
        w = self.params.weights["W"].reshape(self.filters, -1)
        # One GEMM per batch item with its columns as a transposed operand
        # (no copy), summed over the batch.
        d_w = (d_pre @ cols.swapaxes(1, 2)).sum(axis=0)
        self.params.grads["W"] += d_w.reshape(self.params.grads["W"].shape)
        self.params.grads["b"] += d_pre.sum(axis=(0, 2))
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
                 rng=None, dtype=np.float32):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_features = in_features
        self.units = units
        self.activation = activation
        if rng is None:
            weight = np.zeros((units, in_features), dtype=dtype)
        elif activation == "relu":
            weight = he_uniform(rng, (units, in_features), in_features, dtype)
        else:
            weight = glorot_uniform(rng, (units, in_features), in_features, units, dtype)
        self.params = LayerParams(name, {
            "W": weight,
            "b": np.zeros(units, dtype=dtype),
        })
        self._cache = None

    def forward(self, x, cache=True):
        """x: (B, n) -> (B, m)."""
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.params.name}: expected (B, {self.in_features}), got {x.shape}")
        pre = x @ self.params.weights["W"].T + self.params.weights["b"]
        out = _apply_activation(pre, self.activation)
        self._cache = (x, pre, out) if cache else None
        return out

    def backward(self, d_out):
        x, pre, out = self._cache
        if d_out.shape != out.shape:
            raise ShapeError(
                f"{self.params.name}: upstream shape {d_out.shape} does not match "
                f"forward output {out.shape}")
        d_pre = _activation_grad(d_out, pre, out, self.activation)
        self.params.grads["W"] += d_pre.T @ x
        self.params.grads["b"] += d_pre.sum(axis=0)
        return d_pre @ self.params.weights["W"]


def _split_gates(z):
    """Views (i, f, g, o) of the four gate blocks of a (B, 4H) array."""
    hs = z.shape[1] // 4
    return tuple(z[:, k * hs:(k + 1) * hs] for k in range(4))


def _lstm_gates(z, c_prev, c, tanh_c, h):
    """The LSTM cell equations for one step, in place on preallocated arrays.

    z holds the pre-activations (B, 4H) in gate order (i, f, g, o) and is
    overwritten with the activations; c, tanh(c) and h are written to the
    given (B, H) arrays. Every argument may be a strided view.
    """
    hs = c.shape[1]
    sigmoid(z[:, :2 * hs], out=z[:, :2 * hs])
    np.tanh(z[:, 2 * hs:3 * hs], out=z[:, 2 * hs:3 * hs])
    sigmoid(z[:, 3 * hs:], out=z[:, 3 * hs:])
    i, f, g, o = _split_gates(z)
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _lstm_gates_backward(d_h, d_c, gates, c_prev, tanh_c, d_z):
    """Backward through the cell equations of one step.

    gates holds the activations (B, 4H) of the step; d_h and d_c are the
    gradients reaching its h and c. Writes the pre-activation gradient into
    d_z (B, 4H) and returns the gradient of the previous cell state.
    """
    hs = c_prev.shape[1]
    i, f, g, o = _split_gates(gates)
    d_c = d_c + d_h * o * (1.0 - tanh_c * tanh_c)
    np.multiply(d_c, g, out=d_z[:, :hs])
    np.multiply(d_c, c_prev, out=d_z[:, hs:2 * hs])
    np.multiply(d_c, i, out=d_z[:, 2 * hs:3 * hs])
    np.multiply(d_h, tanh_c, out=d_z[:, 3 * hs:])
    # Activation slopes over all four blocks at once: s * (1 - s) for the
    # sigmoid gates, then 1 - g * g over the candidate block.
    slope = 1.0 - gates
    slope *= gates
    slope_g = np.multiply(g, g, out=slope[:, 2 * hs:3 * hs])
    np.subtract(1.0, slope_g, out=slope_g)
    d_z *= slope
    return d_c * f


class LSTMCell:
    """Standard LSTM cell with packed gate parameters, order (i, f, g, o).

    W: (4H, d) input weights, U: (4H, H) recurrent weights, b: (4H,).
    The forget-gate bias block is initialized to 1 when an rng is given.
    """

    def __init__(self, name, input_size, hidden_size, rng=None, dtype=np.float32):
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        if rng is None:
            w = np.zeros((4 * h, input_size), dtype=dtype)
            u = np.zeros((4 * h, h), dtype=dtype)
            b = np.zeros(4 * h, dtype=dtype)
        else:
            w = np.concatenate([
                glorot_uniform(rng, (h, input_size), input_size, h, dtype)
                for _ in range(4)])
            u = np.concatenate([
                glorot_uniform(rng, (h, h), h, h, dtype) for _ in range(4)])
            b = np.zeros(4 * h, dtype=dtype)
            b[h:2 * h] = 1.0
        self.params = LayerParams(name, {"W": w, "U": u, "b": b})

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
        """Backward through one step; accumulates parameter gradients.

        Returns (d_x, d_h_prev, d_c_prev).
        """
        x, h_prev, c_prev, i, f, g, o, tanh_c = cache
        gates = np.concatenate([i, f, g, o], axis=1)
        d_z = np.empty_like(gates)
        d_c_prev = _lstm_gates_backward(d_h, d_c, gates, c_prev, tanh_c, d_z)
        self.params.grads["W"] += d_z.T @ x
        self.params.grads["U"] += d_z.T @ h_prev
        self.params.grads["b"] += d_z.sum(axis=0)
        d_x = d_z @ self.params.weights["W"]
        d_h_prev = d_z @ self.params.weights["U"]
        return d_x, d_h_prev, d_c_prev


class BiLSTM:
    """Bidirectional LSTM; output concatenates the two directions per step.

    Laid out the way cuDNN runs recurrent layers (Appleyard, Kocisky &
    Blunsom 2016, arXiv:1604.01946): only the recurrent product h @ U.T
    depends on the previous step, so everything else leaves the time loop.

    - forward projects the whole sequence for both directions with one
      (B*T, d) @ (d, 8H) GEMM, straight into a time-major gate buffer
      (T, B, 8H) whose columns hold the forward cell's gates, then the
      backward cell's. Each step adds its recurrent product in place and
      applies the cell equations there, writing c, tanh(c) and h into
      preallocated (T, B, 2H) buffers.
    - backward runs only the elementwise gate gradients and one recurrent
      GEMM d_z @ U per step, keeping d_z of every step in a (T, B, 8H)
      buffer. After the loop, dW, dU, db and the input gradient are each
      one large GEMM or sum over all steps.

    The cell equations are the ones LSTMCell.step uses, so the layer equals
    an unrolled composition of the two cells' steps.
    """

    def __init__(self, name, input_size, hidden_size, rng=None, dtype=np.float32):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.fw = LSTMCell(f"{name}.fw", input_size, hidden_size, rng, dtype)
        self.bw = LSTMCell(f"{name}.bw", input_size, hidden_size, rng, dtype)
        self._cache = None

    def _directions(self, steps):
        """Per direction: the cell, its gate and state columns, the order it
        visits the steps in, and the offset from a step to the one before."""
        hs = self.hidden_size
        return (
            (self.fw, slice(0, 4 * hs), slice(0, hs), range(steps), -1),
            (self.bw, slice(4 * hs, 8 * hs), slice(hs, 2 * hs),
             range(steps - 1, -1, -1), 1),
        )

    def forward(self, x, cache=True):
        """x: (B, T, d) -> (B, T, 2H). Initial states are zero."""
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(f"bilstm: expected (B, T, {self.input_size}), got {x.shape}")
        b_sz, steps, _ = x.shape
        if steps < 1:
            raise ShapeError("bilstm: empty sequence")
        hs = self.hidden_size
        fw, bw = self.fw.params.weights, self.bw.params.weights
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(steps * b_sz, -1)
        gates = x_tm @ np.concatenate([fw["W"], bw["W"]]).T
        gates += np.concatenate([fw["b"], bw["b"]])
        gates = gates.reshape(steps, b_sz, 8 * hs)
        cells, tanh_c, hidden = (
            np.empty((steps, b_sz, 2 * hs), dtype=gates.dtype) for _ in range(3))
        zeros = np.zeros((b_sz, hs), dtype=gates.dtype)
        for cell, g_cols, h_cols, order, offset in self._directions(steps):
            # A contiguous U.T runs the small per-step GEMM about a fifth
            # faster than the transposed view.
            u_t = np.ascontiguousarray(cell.params.weights["U"].T)
            for t in order:
                z = gates[t, :, g_cols]
                if t == order[0]:
                    c_prev = zeros
                else:
                    z += hidden[t + offset, :, h_cols] @ u_t
                    c_prev = cells[t + offset, :, h_cols]
                _lstm_gates(z, c_prev, cells[t, :, h_cols], tanh_c[t, :, h_cols],
                            hidden[t, :, h_cols])
        self._cache = (x_tm, gates, cells, tanh_c, hidden, x.shape) if cache else None
        return np.ascontiguousarray(hidden.transpose(1, 0, 2))

    def backward(self, d_out):
        """d_out: (B, T, 2H) -> gradient w.r.t. the input sequence."""
        x_tm, gates, cells, tanh_c, hidden, x_shape = self._cache
        b_sz, steps, _ = x_shape
        hs = self.hidden_size
        if d_out.shape != (b_sz, steps, 2 * hs):
            raise ShapeError(f"bilstm: upstream shape {d_out.shape} does not match "
                             f"{(b_sz, steps, 2 * hs)}")
        d_out_tm = d_out.transpose(1, 0, 2)
        d_z = np.empty_like(gates)
        zeros = np.zeros((b_sz, hs), dtype=gates.dtype)
        for cell, g_cols, h_cols, order, offset in self._directions(steps):
            u = cell.params.weights["U"]
            d_h, d_c = zeros, zeros
            # Unwind the steps in the reverse of their forward visit order.
            for t in reversed(order):
                first = t == order[0]
                c_prev = zeros if first else cells[t + offset, :, h_cols]
                d_c = _lstm_gates_backward(
                    d_out_tm[t, :, h_cols] + d_h, d_c, gates[t, :, g_cols],
                    c_prev, tanh_c[t, :, h_cols], d_z[t, :, g_cols])
                if not first:
                    d_h = d_z[t, :, g_cols] @ u
            # h_prev of every step but the first visited, as one matrix.
            visited = slice(1, None) if offset < 0 else slice(None, -1)
            previous = slice(None, -1) if offset < 0 else slice(1, None)
            cell.params.grads["U"] += (
                d_z[visited, :, g_cols].reshape(-1, 4 * hs).T
                @ hidden[previous, :, h_cols].reshape(-1, hs))
        flat_d_z = d_z.reshape(steps * b_sz, 8 * hs)
        d_w = flat_d_z.T @ x_tm
        d_b = flat_d_z.sum(axis=0)
        for cell, g_cols, *_ in self._directions(steps):
            cell.params.grads["W"] += d_w[g_cols]
            cell.params.grads["b"] += d_b[g_cols]
        w = np.concatenate([self.fw.params.weights["W"], self.bw.params.weights["W"]])
        d_x = (flat_d_z @ w).reshape(steps, b_sz, -1)
        return np.ascontiguousarray(d_x.transpose(1, 0, 2))

    @property
    def param_list(self):
        return [self.fw.params, self.bw.params]


class Attention:
    """Feed-forward attention over encoder states.

    Scores each time step with v . tanh(W h_t + b), normalizes the scores
    with a softmax, and returns the weighted sum of states as the context.
    """

    def __init__(self, name, state_size, units, rng=None, dtype=np.float32):
        self.state_size = state_size
        self.units = units
        if rng is None:
            w = np.zeros((units, state_size), dtype=dtype)
            v = np.zeros(units, dtype=dtype)
        else:
            w = glorot_uniform(rng, (units, state_size), state_size, units, dtype)
            v = glorot_uniform(rng, (units,), units, 1, dtype)
        self.params = LayerParams(name, {
            "W": w,
            "b": np.zeros(units, dtype=dtype),
            "v": v,
        })
        self._cache = None

    def forward(self, hidden, cache=True):
        """hidden: (B, T, S) -> (context (B, S), weights (B, T))."""
        if hidden.ndim != 3 or hidden.shape[2] != self.state_size:
            raise ShapeError(
                f"{self.params.name}: expected (B, T, {self.state_size}), got {hidden.shape}")
        if hidden.shape[1] < 1:
            raise ShapeError("attention: empty sequence")
        w, b, v = (self.params.weights[k] for k in ("W", "b", "v"))
        m = np.tanh(hidden @ w.T + b)       # (B, T, units)
        scores = m @ v                      # (B, T)
        alpha = softmax(scores, axis=-1)
        context = np.einsum("bt,bts->bs", alpha, hidden)
        self._cache = (hidden, m, alpha) if cache else None
        return context, alpha

    def backward(self, d_context):
        """d_context: (B, S) -> gradient w.r.t. the hidden states (B, T, S)."""
        hidden, m, alpha = self._cache
        if d_context.shape != (hidden.shape[0], self.state_size):
            raise ShapeError(
                f"{self.params.name}: upstream shape {d_context.shape} does not match "
                f"{(hidden.shape[0], self.state_size)}")
        w, v = self.params.weights["W"], self.params.weights["v"]
        d_hidden = alpha[:, :, None] * d_context[:, None, :]
        d_alpha = np.einsum("bs,bts->bt", d_context, hidden)
        # softmax Jacobian: couples all time steps of one sequence
        d_scores = alpha * (d_alpha - np.sum(alpha * d_alpha, axis=1, keepdims=True))
        self.params.grads["v"] += np.einsum("bt,btu->u", d_scores, m)
        d_m = d_scores[:, :, None] * v
        d_pre = d_m * (1.0 - m * m)
        flat_pre = d_pre.reshape(-1, self.units)
        flat_hidden = hidden.reshape(-1, self.state_size)
        self.params.grads["W"] += flat_pre.T @ flat_hidden
        self.params.grads["b"] += flat_pre.sum(axis=0)
        d_hidden += d_pre @ w
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

    Gradients are expected to hold the mini-batch mean; they are reset to
    zero after the step. With mu = 0 the update is exactly plain gradient
    descent at the same rate.
    """

    def __init__(self, param_list, base_lr=0.01, momentum=0.9, decay=1e-6):
        self.weights, self.grads = pack_params(param_list)
        self.velocity = np.zeros_like(self.weights)
        self._scratch = np.empty_like(self.weights[:STEP_BLOCK])
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
            g = self.grads[lo:lo + STEP_BLOCK]
            v = self.velocity[lo:lo + STEP_BLOCK]
            s = self._scratch[:g.size]
            # Same roundings as v = mu*v - lr*g; w += mu*v - lr*g.
            g *= lr
            v *= mu
            v -= g
            np.multiply(v, mu, out=s)
            s -= g
            self.weights[lo:lo + STEP_BLOCK] += s
        self.step_count += 1
        self.grads.fill(0.0)


@dataclass(frozen=True)
class GradCheckEntry:
    """Result of checking one parameter group against finite differences."""
    name: str
    max_rel_err: float
    ok: bool


def randomize_biases(param_list, rng, scale=0.2):
    """Shift bias vectors to generic positions before a finite-difference check.

    Freshly initialized biases are zero, which parks many ReLU pre-activations
    exactly on the kink; central differences straddle the kink there and the
    comparison fails even though the analytic subgradient is correct.
    """
    for p in param_list:
        for key, w in p.weights.items():
            if key == "b":
                w += rng.uniform(-scale, scale, size=w.shape).astype(w.dtype)


def gradient_check(param_list, loss_fn, grad_fn, step=1e-5, tol=1e-4):
    """Compare analytic gradients with central finite differences.

    loss_fn() evaluates the scalar loss at the current parameter values;
    grad_fn() runs forward and backward, accumulating gradients into the
    parameter buffers. Perturbation and comparison happen entry by entry
    in 64-bit, so the caller should build the model in float64.

    Returns one GradCheckEntry per parameter group of param_list.
    """
    weights, grads = pack_params(param_list)
    grads.fill(0.0)
    grad_fn()
    analytic = grads.copy()
    results = []
    offset = 0
    for p in param_list:
        worst = 0.0
        for idx in range(offset, offset + p.n_params):
            orig = weights[idx]
            weights[idx] = orig + step
            loss_plus = loss_fn()
            weights[idx] = orig - step
            loss_minus = loss_fn()
            weights[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            a = analytic[idx]
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
        results.append(GradCheckEntry(p.name, worst, worst < tol))
        offset += p.n_params
    grads.fill(0.0)
    return results
