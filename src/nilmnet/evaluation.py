"""Sliding-window inference, median reconstruction, and the three metrics.

Disaggregation standardizes the aggregate with the model's stored training
statistics, runs the gated forward pass over every hop-1 window, converts
each window back to watts, and combines the overlapped windows with a
per-sample median. Metrics are mean absolute error, per-period signal
aggregate error, and precision/recall/F1 of thresholded on/off states.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import PowerSeries, denormalize_target, standardize_input
from .errors import DataError, NumericalError

REPORT_COLUMNS = ("appliance", "mae_w", "sae_w", "precision", "recall", "f1",
                  "threshold_w", "period_len_k")

DEFAULT_THRESHOLD_W = 15.0
DEFAULT_PERIOD_LEN_K = 1200

# memory cap for the median matrix, in values per chunk
_MEDIAN_CHUNK_VALUES = 8_000_000


def reconstruct_median(windows, starts, total_len):
    """Combine overlapped windows: output[t] = median of all values covering t.

    Even coverage counts take the mean of the two middle values. Every
    position in [0, total_len) must be covered by at least one window, and
    every window value must be finite.

    Window i's value at offset k goes to row starts[i] + k, slot k + L * r_i,
    where r_i ranks window i among the windows sharing its start, so no two
    values share a slot; unused slots hold +inf. Each row is sorted and its
    two middle values are read at (count - 1) // 2 and count // 2. A row has
    L times the largest start multiplicity slots, so heavily repeated starts
    cost memory and time in proportion; rows go in chunks of about
    _MEDIAN_CHUNK_VALUES values.
    """
    windows = np.asarray(windows, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    if windows.ndim != 2 or starts.ndim != 1 or windows.shape[0] != starts.size:
        raise DataError("windows must be (N, L) with one start per window")
    if windows.shape[0] == 0:
        raise DataError("no windows to reconstruct from")
    n, window = windows.shape
    if starts.min() < 0 or (starts + window).max() > total_len:
        raise DataError("window extends outside [0, total_len)")
    if not np.isfinite(windows).all():
        raise DataError("window values must be finite")
    # values covering each position: the start histogram summed over a window
    covered = np.cumsum(np.bincount(starts, minlength=total_len))
    count = covered - np.concatenate([np.zeros(window, np.int64), covered[:-window]])
    if count.min() == 0:
        raise DataError(f"position {int(np.argmin(count))} is covered by no window")
    order = np.argsort(starts, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - np.searchsorted(starts[order], starts[order])
    slots = window * (int(rank.max()) + 1)
    out = np.empty(total_len, dtype=np.float64)
    chunk = max(1, _MEDIAN_CHUNK_VALUES // slots)
    for lo in range(0, total_len, chunk):
        hi = min(lo + chunk, total_len)
        mat = np.full((hi - lo, slots), np.inf)
        for k in range(window):
            pos = starts + k
            inside = (pos >= lo) & (pos < hi)
            mat[pos[inside] - lo, k + window * rank[inside]] = windows[inside, k]
        mat.sort(axis=1)
        rows = np.arange(hi - lo)
        c = count[lo:hi]
        out[lo:hi] = (mat[rows, (c - 1) // 2] + mat[rows, c // 2]) / 2
    return out


def disaggregate(model, aggregate: PowerSeries, export_attention=False,
                 batch_size=256):
    """Predict the appliance load under the aggregate, sample for sample.

    Returns (prediction PowerSeries, attention) where attention is None or
    an (alphas (N, L), starts (N,)) pair of per-window attention weights.
    The model must carry normalization metadata; the output has the same
    length, period, and origin as the input and is clamped at 0 W. A
    non-finite model output raises NumericalError.
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
    outputs = np.empty((n, window), dtype=np.float64)
    alphas = np.empty((n, window), dtype=np.float64) if export_attention else None
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        result = model.forward(views[lo:hi], cache=False)
        if not np.isfinite(result.output).all():
            raise NumericalError(
                f"model output is non-finite in windows {lo}..{hi - 1}")
        outputs[lo:hi] = result.output
        if export_attention:
            alphas[lo:hi] = result.attention
    watts = denormalize_target(outputs, meta)
    starts = np.arange(n, dtype=np.int64)
    reconstructed = np.maximum(reconstruct_median(watts, starts, total), 0.0)
    prediction = PowerSeries(model.appliance or "prediction",
                             aggregate.period_s, aggregate.t0, reconstructed)
    return prediction, ((alphas, starts) if export_attention else None)


def mae(y, y_hat):
    """Mean absolute per-sample error, in watts."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DataError(f"series lengths differ: {y.shape} vs {y_hat.shape}")
    return float(np.mean(np.abs(y - y_hat)))


def sae(y, y_hat, period_len):
    """Mean absolute error of per-period energy sums, scaled by 1/period.

    The series is cut into consecutive periods of period_len samples; a
    trailing partial period is dropped.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DataError(f"series lengths differ: {y.shape} vs {y_hat.shape}")
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
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DataError(f"series lengths differ: {y.shape} vs {y_hat.shape}")
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
    y_true = np.asarray(y_true, dtype=np.float64)
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
        sae_dropped_samples=int(y_true.size % period_len_k),
    )


def write_report_csv(path, reports):
    """One flat key-value row per appliance, fixed column order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow([r.appliance, float(r.mae_w), float(r.sae_w),
                             float(r.precision), float(r.recall), float(r.f1),
                             float(r.threshold_w), int(r.period_len_k)])


def read_report_csv(path):
    """Rows of the results CSV as dictionaries keyed by column name."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != REPORT_COLUMNS:
            raise DataError(f"{path}: unexpected results header {header!r}")
        rows = []
        for row in reader:
            record = dict(zip(REPORT_COLUMNS, row))
            for key in REPORT_COLUMNS[1:]:
                record[key] = float(record[key])
            rows.append(record)
    return rows
