"""Brute-force reference implementations used as test oracles.

Everything here is written with explicit Python loops and the plainest
possible formulas, deliberately independent of the vectorized code paths
in the package. Slow and obviously correct.
"""

import math

import numpy as np

from nilmnet import nn
from nilmnet.data import CSV_HEADER
from nilmnet.errors import DataError


def conv1d_direct(x, w, b, activation="linear"):
    """Triple-loop 1-D convolution, stride 1, length-preserving zero padding."""
    c_in, length = x.shape
    filters, _, kernel = w.shape
    pad_left = kernel // 2
    pad_right = kernel - 1 - pad_left
    xp = np.zeros((c_in, length + pad_left + pad_right))
    xp[:, pad_left:pad_left + length] = x
    out = np.zeros((filters, length))
    for f in range(filters):
        for t in range(length):
            acc = float(b[f])
            for c in range(c_in):
                for k in range(kernel):
                    acc += w[f, c, k] * xp[c, t + k]
            out[f, t] = acc
    if activation == "relu":
        out = np.maximum(out, 0.0)
    return out


def dense_direct(x, w, b, activation="linear"):
    """Row-by-row matrix-vector product."""
    m, n = w.shape
    out = np.zeros(m)
    for i in range(m):
        acc = float(b[i])
        for j in range(n):
            acc += w[i, j] * x[j]
        out[i] = acc
    if activation == "relu":
        out = np.maximum(out, 0.0)
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-out))
    elif activation == "tanh":
        out = np.tanh(out)
    return out


def _scalar_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def lstm_step_direct(x, h_prev, c_prev, w, u, b):
    """Scalar-by-scalar LSTM step; gate order (i, f, g, o) in packed rows."""
    hidden = h_prev.shape[0]
    h_out = np.zeros(hidden)
    c_out = np.zeros(hidden)
    for j in range(hidden):
        z = [0.0, 0.0, 0.0, 0.0]
        for gate in range(4):
            row = gate * hidden + j
            acc = float(b[row])
            for a in range(x.shape[0]):
                acc += w[row, a] * x[a]
            for a in range(hidden):
                acc += u[row, a] * h_prev[a]
            z[gate] = acc
        i = _scalar_sigmoid(z[0])
        f = _scalar_sigmoid(z[1])
        g = np.tanh(z[2])
        o = _scalar_sigmoid(z[3])
        c_out[j] = f * c_prev[j] + i * g
        h_out[j] = o * np.tanh(c_out[j])
    return h_out, c_out


def bilstm_direct(x, fw_params, bw_params):
    """Unrolled bidirectional pass built on the scalar LSTM step."""
    steps, _ = x.shape
    hidden = fw_params[2].shape[0] // 4
    out = np.zeros((steps, 2 * hidden))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in range(steps):
        h, c = lstm_step_direct(x[t], h, c, *fw_params)
        out[t, :hidden] = h
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        h, c = lstm_step_direct(x[t], h, c, *bw_params)
        out[t, hidden:] = h
    return out


def _lstm_gates_per_block(z, c_prev, c, tanh_c, h):
    """The cell equations on (B, 4H) with one sigmoid or tanh call per block."""
    hs = c.shape[1]
    nn.sigmoid(z[:, :2 * hs], out=z[:, :2 * hs])
    np.tanh(z[:, 2 * hs:3 * hs], out=z[:, 2 * hs:3 * hs])
    nn.sigmoid(z[:, 3 * hs:], out=z[:, 3 * hs:])
    i, f, g, o = (z[:, k * hs:(k + 1) * hs] for k in range(4))
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def bilstm_forward_per_direction(layer, x):
    """BiLSTM forward that runs one direction after the other.

    The earlier kernel of nn.BiLSTM, kept as a bit-level float32 reference:
    one (T*B, d) @ (d, 8H) input GEMM into a time-major (T, B, 8H) gate
    buffer, then a step loop per direction over its column block, with
    one sigmoid or tanh call per gate block.
    """
    b_sz, steps, _ = x.shape
    hs = layer.hidden_size
    fw, bw = layer.fw.params.weights, layer.bw.params.weights
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(steps * b_sz, -1)
    gates = x_tm @ np.concatenate([fw["W"], bw["W"]]).T
    gates += np.concatenate([fw["b"], bw["b"]])
    gates = gates.reshape(steps, b_sz, 8 * hs)
    cells, tanh_c, hidden = (
        np.empty((steps, b_sz, 2 * hs), dtype=gates.dtype) for _ in range(3))
    zeros = np.zeros((b_sz, hs), dtype=gates.dtype)
    directions = ((fw, 0, range(steps), -1), (bw, 1, range(steps - 1, -1, -1), 1))
    for weights, k, order, offset in directions:
        g_cols = slice(4 * hs * k, 4 * hs * (k + 1))
        h_cols = slice(hs * k, hs * (k + 1))
        u_t = np.ascontiguousarray(weights["U"].T)
        for t in order:
            z = gates[t, :, g_cols]
            if t == order[0]:
                c_prev = zeros
            else:
                z += hidden[t + offset, :, h_cols] @ u_t
                c_prev = cells[t + offset, :, h_cols]
            _lstm_gates_per_block(z, c_prev, cells[t, :, h_cols],
                                  tanh_c[t, :, h_cols], hidden[t, :, h_cols])
    return np.ascontiguousarray(hidden.transpose(1, 0, 2))


def attention_direct(hidden, w, b, v):
    """Direct-formula attention: score, softmax, weighted state sum."""
    steps, state = hidden.shape
    scores = np.zeros(steps)
    for t in range(steps):
        pre = np.zeros(w.shape[0])
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(state):
                acc += w[i, j] * hidden[t, j]
            pre[i] = acc
        scores[t] = float(np.dot(v, np.tanh(pre)))
    shifted = scores - scores.max()
    expd = np.exp(shifted)
    alpha = expd / expd.sum()
    context = np.zeros(state)
    for t in range(steps):
        context += alpha[t] * hidden[t]
    return context, alpha


def softmax_direct(x):
    shifted = x - max(x)
    expd = np.array([np.exp(v) for v in shifted])
    return expd / expd.sum()


def mse_direct(pred, target):
    total = 0.0
    for p, t in zip(pred, target):
        total += (p - t) ** 2
    return total / len(pred)


def bce_direct(pred, target, eps=1e-7):
    total = 0.0
    for p, t in zip(pred, target):
        p = min(max(p, eps), 1.0 - eps)
        total += t * np.log(p) + (1.0 - t) * np.log(1.0 - p)
    return -total / len(pred)


def median_reconstruct_direct(windows, starts, total_len):
    """Per-position median over all covering window values."""
    covering = [[] for _ in range(total_len)]
    for win, start in zip(windows, starts):
        for k, value in enumerate(win):
            covering[start + k].append(value)
    out = np.zeros(total_len)
    for t in range(total_len):
        values = sorted(covering[t])
        n = len(values)
        assert n > 0, f"position {t} uncovered"
        if n % 2 == 1:
            out[t] = values[n // 2]
        else:
            out[t] = 0.5 * (values[n // 2 - 1] + values[n // 2])
    return out


def load_channel_csv_direct(path, fill_limit=3):
    """Row-by-row channel CSV reading: (period_s, t0, values, clamped).

    Lines are split on commas. Blank lines are skipped, the period is the
    step between the first two rows, each gap of up to fill_limit missing
    samples repeats the previous value, and negative watts become 0.0.
    Errors are DataErrors with the loader's messages.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text == "":
        raise DataError(f"{path}: empty file")
    lines = text.split("\n")
    header = [h.strip() for h in lines[0].split(",")]
    if "timestamp" not in header or "power_w" not in header:
        raise DataError(f"{path}:1: header {header!r} lacks columns "
                        f"'timestamp'/'power_w'")
    ts_idx = header.index("timestamp")
    pw_idx = header.index("power_w")
    rows = []
    for lineno in range(2, len(lines) + 1):
        line = lines[lineno - 1]
        if line == "":
            continue
        row = line.split(",")
        try:
            ts = int(row[ts_idx])
            value = float(row[pw_idx])
        except (ValueError, IndexError):
            raise DataError(f"{path}:{lineno}: unparsable row {row!r}") from None
        if math.isnan(value) or math.isinf(value):
            raise DataError(f"{path}:{lineno}: non-finite watts {row[pw_idx]!r}")
        if rows and ts <= rows[-1][0]:
            raise DataError(
                f"{path}:{lineno}: timestamp {ts} not after {rows[-1][0]}")
        rows.append((ts, value))
    if not rows:
        raise DataError(f"{path}: no data rows")
    if len(rows) == 1:
        raise DataError(f"{path}: cannot infer period from a single row")
    period = rows[1][0] - rows[0][0]
    values = []
    clamped = 0
    for index, (ts, value) in enumerate(rows):
        if index > 0:
            gap = ts - rows[index - 1][0]
            if gap % period != 0:
                raise DataError(
                    f"{path}: timestamp {ts} is off the {period}-second grid")
            missing = gap // period - 1
            if missing > fill_limit:
                raise DataError(
                    f"{path}: gap of {missing} samples before t={ts} exceeds "
                    f"the fill limit of {fill_limit}")
            for _ in range(missing):
                values.append(values[-1])
        if value < 0:
            value = 0.0
            clamped += 1
        values.append(value)
    return period, rows[0][0], values, clamped


def write_channel_csv_direct(path, series):
    """Row-by-row channel CSV writer: one f-string per numpy scalar."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for ts, value in zip(series.timestamps(), series.values):
            fh.write(f"{ts},{float(value)}\n")


def write_attention_csv_direct(path, alphas, starts):
    """Row-by-row attention CSV writer: repr of each weight as a float."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ",".join(["window_start"]
                          + [f"alpha_{i}" for i in range(alphas.shape[1])])
        fh.write(header + "\n")
        for start, row in zip(starts, alphas):
            fh.write(str(int(start)) + ","
                     + ",".join(repr(float(v)) for v in row) + "\n")


def sae_direct(y, y_hat, period):
    n_periods = len(y) // period
    total = 0.0
    for tau in range(n_periods):
        lo, hi = tau * period, (tau + 1) * period
        total += abs(sum(y[lo:hi]) - sum(y_hat[lo:hi])) / period
    return total / n_periods


def confusion_direct(y, y_hat, threshold):
    tp = fp = fn = 0
    for a, b in zip(y, y_hat):
        truth = a > threshold
        pred = b > threshold
        if truth and pred:
            tp += 1
        elif pred and not truth:
            fp += 1
        elif truth and not pred:
            fn += 1
    return tp, fp, fn


def finite_difference(loss_fn, array, step=1e-5):
    """Central finite differences of loss_fn w.r.t. every entry of array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    flat_grad = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        plus = loss_fn()
        flat[idx] = orig - step
        minus = loss_fn()
        flat[idx] = orig
        flat_grad[idx] = (plus - minus) / (2.0 * step)
    return grad


def max_rel_err(a, b, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
