"""Sliding-window inference, median reconstruction, and the three metrics.

Disaggregation standardizes the aggregate with the model's stored training
statistics, runs the gated forward pass over every hop-1 window, converts
each window back to watts, and combines the overlapped windows with a
per-sample median. One loop does both: each forward batch of
INFERENCE_BATCH windows goes straight into the median's buffer of
S + L - 1 sample rows (S the least multiple of INFERENCE_BATCH that is at
least L), so no (N, L) array of watts is held.
Metrics are mean absolute error, per-period signal aggregate error, and
precision/recall/F1 of thresholded on/off states.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import (PowerSeries, _csv_rows, denormalize_target, refuse_nul,
                   standardize_input, write_table)
from .errors import DataError, NumericalError
from .model import INFERENCE_BATCH

REPORT_COLUMNS = ("appliance", "mae_w", "sae_w", "precision", "recall", "f1",
                  "threshold_w", "period_len_k")

DEFAULT_THRESHOLD_W = 15.0
DEFAULT_PERIOD_LEN_K = 1200


def _median_of_windows(n, window, windows_at):
    """Per-sample median of N hop-1 windows, taken one block at a time.

    windows_at(lo, hi) returns windows lo..hi-1 as a (hi - lo, L) array; it
    is called once per block of INFERENCE_BATCH windows, in order. Sample
    row t of the buffer holds window t-k's value at offset k in slot k, and
    +inf where that window does not exist. The buffer has a span of rows,
    the least multiple of INFERENCE_BATCH that is at least L, plus the
    L - 1 rows that later windows still fill. After each block the rows
    whose windows are all in (the block's own rows, or every row left after
    the last block) are sorted and their two middle values at
    (count - 1) // 2 and count // 2 are averaged. Once the blocks have
    filled the span, the last L - 1 rows move to the front, so a window
    longer than a block moves them about once per L windows, not once per
    block.
    """
    total = n + window - 1
    out = np.empty(total, dtype=np.float64)
    span = -(-window // INFERENCE_BATCH) * INFERENCE_BATCH
    buf = np.full((span + window - 1, window), np.inf)
    # skew[j, k] is buf[j + k, k]: where value k of the span's window j goes
    row_step, slot_step = buf.strides
    skew = np.lib.stride_tricks.as_strided(
        buf, (span, window), (row_step, row_step + slot_step))
    for lo in range(0, n, INFERENCE_BATCH):
        hi = min(lo + INFERENCE_BATCH, n)
        at = lo % span  # buffer row of sample lo
        skew[at:at + hi - lo] = windows_at(lo, hi)
        done = hi - lo if hi < n else total - lo
        rows = buf[at:at + done]
        rows.sort(axis=1)
        r = np.arange(done)  # row r is sample lo + r
        c = np.minimum(np.minimum(lo + r + 1, total - lo - r), min(window, n))
        out[lo:lo + done] = (rows[r, (c - 1) // 2] + rows[r, c // 2]) / 2
        if at + INFERENCE_BATCH == span:
            buf[:window - 1] = buf[span:]
            buf[window - 1:] = np.inf
    return out


def reconstruct_median(windows):
    """Combine hop-1 windows: output[t] = median of all values covering t.

    Window i of the (N, L) array covers samples i..i+L-1, so the output has
    N + L - 1 samples and sample t is covered by min(t+1, N+L-1-t, L, N)
    values. Even counts take the mean of the two middle values. Every
    window value must be finite. The median is taken over blocks of
    INFERENCE_BATCH windows and holds S + L - 1 sample rows of L values at
    a time, S the least multiple of INFERENCE_BATCH that is at least L.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2:
        raise DataError("windows must be an (N, L) array")
    if windows.shape[0] == 0:
        raise DataError("no windows to reconstruct from")
    if not np.isfinite(windows).all():
        raise DataError("window values must be finite")
    return _median_of_windows(*windows.shape, lambda lo, hi: windows[lo:hi])


def disaggregate(model, aggregate: PowerSeries, export_attention=False):
    """Predict the appliance load under the aggregate, sample for sample.

    Returns (prediction PowerSeries, alphas) where alphas is None or the
    (N, L) attention weights of the N hop-1 windows, in the model's dtype;
    row i is the window that starts at sample i. The model must carry
    normalization metadata; the output has the same length, period, and
    origin as the input and is at least 0 W. A non-finite model output
    raises NumericalError.

    Each forward batch of INFERENCE_BATCH windows goes straight to the
    median, so the windows' watts are never held for the whole series.
    """
    meta = model.norm_meta
    if meta is None:
        raise DataError("model has no normalization metadata; cannot disaggregate")
    window = model.window
    total = len(aggregate)
    if total < window:
        raise DataError(
            f"series of {total} samples is shorter than the {window}-sample window")
    standardized = standardize_input(aggregate.values, meta)
    views = np.lib.stride_tricks.sliding_window_view(standardized, window)
    n = views.shape[0]
    alphas = np.empty((n, window), model.dtype) if export_attention else None

    def watts(lo, hi):
        result = model.forward(views[lo:hi], cache=False)
        if not np.isfinite(result.output).all():
            raise NumericalError(
                f"model output is non-finite in windows {lo}..{hi - 1}")
        if export_attention:
            alphas[lo:hi] = result.attention
        # clamped at 0 W, so the median of each sample is too
        return denormalize_target(result.output, meta)

    prediction = PowerSeries(model.appliance or "prediction",
                             aggregate.period_s, aggregate.t0,
                             _median_of_windows(n, window, watts))
    return prediction, alphas


def _metric_inputs(y, y_hat):
    """y and y_hat as float64 arrays of one shape, every value finite."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DataError(f"series lengths differ: {y.shape} vs {y_hat.shape}")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise DataError("metric inputs must be finite")
    return y, y_hat


def mae(y, y_hat):
    """Mean absolute per-sample error, in watts."""
    y, y_hat = _metric_inputs(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def sae(y, y_hat, period_len):
    """Mean absolute error of per-period energy sums, scaled by 1/period.

    The series is cut into consecutive periods of period_len samples; a
    trailing partial period is dropped.
    """
    y, y_hat = _metric_inputs(y, y_hat)
    if period_len < 1:
        raise DataError("period length must be >= 1")
    n_periods = y.size // period_len
    if n_periods == 0:
        raise DataError(
            f"series of {y.size} samples is shorter than one period "
            f"of {period_len}")
    usable = n_periods * period_len
    sums_true = y[:usable].reshape(n_periods, period_len).sum(axis=1)
    sums_pred = y_hat[:usable].reshape(n_periods, period_len).sum(axis=1)
    return float(np.mean(np.abs(sums_true - sums_pred) / period_len))


@dataclass(frozen=True)
class ClassificationScores:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


def classification_scores(y, y_hat, threshold_w=DEFAULT_THRESHOLD_W):
    """Per-sample on/off scores after thresholding both series.

    Zero-denominator conventions: precision is 0 when nothing is predicted
    on, recall is 0 when nothing is truly on, F1 is 0 when both are 0.
    """
    if not np.isfinite(threshold_w):
        raise DataError(f"threshold_w must be finite, got {threshold_w}")
    y, y_hat = _metric_inputs(y, y_hat)
    truth = y > threshold_w
    pred = y_hat > threshold_w
    tp = int(np.sum(truth & pred))
    fp = int(np.sum(~truth & pred))
    fn = int(np.sum(truth & ~pred))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) \
        if precision + recall > 0 else 0.0
    return ClassificationScores(precision, recall, f1, tp, fp, fn)


@dataclass(frozen=True)
class EvalReport:
    """All metrics for one appliance, plus the settings that produced them."""
    appliance: str
    mae_w: float
    sae_w: float
    precision: float
    recall: float
    f1: float
    threshold_w: float
    period_len_k: int
    tp: int
    fp: int
    fn: int
    sae_dropped_samples: int


def evaluate(appliance, y_true, y_pred, threshold_w=DEFAULT_THRESHOLD_W,
             period_len_k=DEFAULT_PERIOD_LEN_K) -> EvalReport:
    scores = classification_scores(y_true, y_pred, threshold_w)
    return EvalReport(
        appliance=appliance,
        mae_w=mae(y_true, y_pred),
        sae_w=sae(y_true, y_pred, period_len_k),
        precision=scores.precision,
        recall=scores.recall,
        f1=scores.f1,
        threshold_w=threshold_w,
        period_len_k=period_len_k,
        tp=scores.tp,
        fp=scores.fp,
        fn=scores.fn,
        sae_dropped_samples=int(np.size(y_true) % period_len_k),
    )


def write_report_csv(path, reports):
    """One flat key-value row per appliance, fixed column order."""
    # object keeps each name as given (numpy's str dtype drops trailing
    # NULs); the scores are written as floats and the period as an int
    # whatever types the report holds, so threshold_w=15 reads 15.0.
    dtypes = (object,) + (np.float64,) * 6 + (np.int64,)
    write_table(path, REPORT_COLUMNS, [np.array([getattr(r, key) for r in reports], t)
                                       for key, t in zip(REPORT_COLUMNS, dtypes)])


def read_report_csv(path):
    """Rows of the results CSV as dictionaries keyed by column name.

    An empty file, another header, a row without one field per column or a
    numeric field that does not parse raises DataError naming the line.
    """
    refuse_nul(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader, path)
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path}:1: empty results file")
        if tuple(header) != REPORT_COLUMNS:
            raise DataError(f"{path}:1: unexpected results header {header!r}")
        records = []
        for row in rows:
            if len(row) != len(REPORT_COLUMNS):
                raise DataError(f"{path}:{reader.line_num}: {len(row)} fields, "
                                f"expected {len(REPORT_COLUMNS)}")
            record = dict(zip(REPORT_COLUMNS, row))
            try:
                for key in REPORT_COLUMNS[1:]:
                    record[key] = float(record[key])
            except ValueError:
                raise DataError(f"{path}:{reader.line_num}: {key} {record[key]!r} "
                                "is not a number") from None
            records.append(record)
    return records
