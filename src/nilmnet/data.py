"""Channel ingestion, alignment, labeling, windowing, and synthetic households.

Channel files are plain CSV with the header ``timestamp,power_w``, integer
epoch-second timestamps, and non-negative watts. All series carry a uniform
sampling period; loading fills small gaps and refuses large ones, so
everything downstream can index by sample.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass, replace
from math import isfinite

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

CSV_HEADER = ("timestamp", "power_w")
MAX_FILL_SAMPLES = 3

# Default window lengths (samples) per dataset/appliance.
DEFAULT_WINDOW_LENGTHS = {
    "redd": {"dishwasher": 2304, "fridge": 496, "microwave": 128},
    "ukdale": {"dishwasher": 1536, "fridge": 512, "kettle": 128,
               "microwave": 288, "washing_machine": 1024},
}


@dataclass
class PowerSeries:
    """Uniformly sampled real-power channel (aggregate or one appliance)."""
    name: str
    period_s: int
    t0: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise DataError(f"{self.name}: series values must be 1-D")
        if self.period_s < 1:
            raise DataError(f"{self.name}: sampling period must be >= 1 s")
        if self.values.size and self.values.min() < 0:
            raise DataError(f"{self.name}: negative power values")

    def __len__(self):
        return self.values.size

    @property
    def end_t(self):
        """Timestamp one period past the last sample."""
        return self.t0 + len(self) * self.period_s

    def timestamps(self):
        return self.t0 + self.period_s * np.arange(len(self), dtype=np.int64)


@dataclass(frozen=True)
class ApplianceSpec:
    """Per-appliance windowing, labeling, and synthesis settings."""
    name: str
    window_l: int
    on_threshold_w: float = 15.0
    min_on_s: float = 60.0
    min_off_s: float = 60.0
    max_power_w: float = 2000.0

    def __post_init__(self):
        if self.window_l < 1:
            raise DataError(f"{self.name}: window_l must be positive")
        if self.on_threshold_w <= 0:
            raise DataError(f"{self.name}: on_threshold_w must be positive")
        if self.min_on_s <= 0 or self.min_off_s <= 0:
            raise DataError(f"{self.name}: activation durations must be positive")
        if self.max_power_w <= 0:
            raise DataError(f"{self.name}: max_power_w must be positive")


@dataclass(frozen=True)
class NormalizationMeta:
    """Training-set statistics: input mean/std, target min/max."""
    input_mean: float
    input_std: float
    target_min: float
    target_max: float

    def __post_init__(self):
        if not all(map(isfinite, (self.input_mean, self.input_std,
                                  self.target_min, self.target_max))):
            raise DataError("normalization statistics must be finite")
        if not self.input_std > 0:
            raise DataError("input_std must be positive")
        if not (self.target_max > self.target_min >= 0):
            raise DataError("target range must satisfy max > min >= 0")

    @classmethod
    def fit(cls, aggregate_values, appliance_values):
        """Population mean/std of the aggregate, min/max of the appliance."""
        agg = np.asarray(aggregate_values, dtype=np.float64)
        app = np.asarray(appliance_values, dtype=np.float64)
        if agg.size == 0 or app.size == 0:
            raise DataError("cannot fit normalization on empty series")
        std = float(agg.std())
        if std == 0.0:
            raise DataError("aggregate is constant; cannot standardize")
        lo, hi = float(app.min()), float(app.max())
        if hi == lo:
            raise DataError("appliance is constant; cannot min-max normalize")
        return cls(float(agg.mean()), std, lo, hi)


def standardize_input(x, meta: NormalizationMeta):
    return (np.asarray(x, dtype=np.float64) - meta.input_mean) / meta.input_std


def normalize_target(y, meta: NormalizationMeta):
    return (np.asarray(y, dtype=np.float64) - meta.target_min) \
        / (meta.target_max - meta.target_min)


def denormalize_target(y_norm, meta: NormalizationMeta):
    """Exact inverse of normalize_target, then clamped at 0 W."""
    watts = np.asarray(y_norm, dtype=np.float64) \
        * (meta.target_max - meta.target_min) + meta.target_min
    return np.maximum(watts, 0.0)


def load_channel_csv(path, name=None):
    """Read a ``timestamp,power_w`` channel CSV into a uniform PowerSeries.

    The sampling period is the step between the first two rows. Timestamps
    must be strictly increasing and on that grid; up to MAX_FILL_SAMPLES
    consecutive missing samples are forward-filled, larger gaps are
    rejected. Unparsable rows (timestamps outside int64 included), NaN and
    infinite watts and non-increasing timestamps are rejected with their
    line. Negative watts are clamped to zero (counted in one warning).
    """
    path = str(path)
    timestamps = array("q")
    watts = array("d")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            try:
                ts_idx, pw_idx = map(header.index, CSV_HEADER)
            except ValueError:
                raise DataError(f"{path}:1: header {header!r} lacks columns "
                                f"{CSV_HEADER[0]!r}/{CSV_HEADER[1]!r}") from None
            for row in reader:
                if not row:
                    continue
                try:
                    ts = int(row[ts_idx])
                    value = float(row[pw_idx])
                    timestamps.append(ts)  # OverflowError outside int64
                except (ValueError, IndexError, OverflowError):
                    raise DataError(
                        f"{path}:{reader.line_num}: unparsable row {row!r}") from None
                if not isfinite(value):
                    raise DataError(
                        f"{path}:{reader.line_num}: non-finite watts {row[pw_idx]!r}")
                if len(timestamps) > 1 and ts <= timestamps[-2]:
                    raise DataError(f"{path}:{reader.line_num}: timestamp {ts} "
                                    f"not after {timestamps[-2]}")
                watts.append(value)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not timestamps:
        raise DataError(f"{path}: no data rows")
    if len(timestamps) < 2:
        raise DataError(f"{path}: cannot infer period from a single row")
    # Increasing int64 values differ by less than 2**64, so their
    # differences taken as uint64 are exact.
    steps = np.diff(np.frombuffer(timestamps, dtype=np.uint64))
    period = int(steps[0])
    if period > np.iinfo(np.int64).max:
        raise DataError(f"{path}: period of {period} s is outside the int64 range")
    off_grid = steps % period != 0
    counts = steps // period  # samples from each row up to the next one
    bad = off_grid | (counts > MAX_FILL_SAMPLES + 1)
    if bad.any():
        i = int(bad.argmax())
        ts = timestamps[i + 1]
        if off_grid[i]:
            raise DataError(f"{path}: timestamp {ts} is off the {period}-second grid")
        raise DataError(f"{path}: gap of {counts[i] - 1} samples before t={ts} "
                        f"exceeds the fill limit of {MAX_FILL_SAMPLES}")
    values = np.frombuffer(watts)
    clamped = np.count_nonzero(values < 0)
    if clamped:
        values[values < 0] = 0.0
        log.warning("%s: clamped %d negative power values to 0 W", path, clamped)
    # Forward-fill: each row's value repeats up to the next row.
    filled = np.repeat(values, np.append(counts.astype(np.intp), 1))
    return PowerSeries(name if name is not None else path, period, timestamps[0],
                       filled)


def write_channel_csv(path, series: PowerSeries):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for ts, value in zip(series.timestamps(), series.values):
            fh.write(f"{ts},{float(value)}\n")


def resample(series: PowerSeries, target_period_s: int) -> PowerSeries:
    """Change the sampling period by an integer factor.

    Downsampling mean-pools; upsampling forward-fills, refusing factors
    that would fabricate more than MAX_FILL_SAMPLES values per sample.
    """
    period = series.period_s
    if target_period_s == period:
        return series
    if target_period_s > period:
        if target_period_s % period != 0:
            raise DataError(
                f"{series.name}: cannot resample {period}s -> {target_period_s}s "
                f"(non-integer factor)")
        factor = target_period_s // period
        usable = (len(series) // factor) * factor
        pooled = series.values[:usable].reshape(-1, factor).mean(axis=1)
        return replace(series, period_s=target_period_s, values=pooled)
    if period % target_period_s != 0:
        raise DataError(
            f"{series.name}: cannot resample {period}s -> {target_period_s}s "
            f"(non-integer factor)")
    factor = period // target_period_s
    if factor - 1 > MAX_FILL_SAMPLES:
        raise DataError(
            f"{series.name}: refusing to forward-fill {factor - 1} samples per "
            f"source sample (limit {MAX_FILL_SAMPLES})")
    filled = np.repeat(series.values, factor)
    return replace(series, period_s=target_period_s, values=filled)


def align_pair(aggregate: PowerSeries, appliance: PowerSeries,
               target_period_s: int):
    """Resample both series to one rate and cut them to the common range."""
    agg = resample(aggregate, target_period_s)
    app = resample(appliance, target_period_s)
    start = max(agg.t0, app.t0)
    end = min(agg.end_t, app.end_t)
    if start >= end:
        raise DataError(
            f"{aggregate.name} and {appliance.name} have no temporal overlap")
    if (agg.t0 - app.t0) % target_period_s != 0:
        raise DataError("series grids are offset; cannot align")
    n = (end - start) // target_period_s

    def cut(series):
        i0 = (start - series.t0) // target_period_s
        return replace(series, t0=start, values=series.values[i0:i0 + n])

    return cut(agg), cut(app)


def _runs(mask):
    """(start, end) pairs of consecutive True stretches, end exclusive."""
    padded = np.concatenate(([False], mask, [False]))
    delta = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(delta == 1)
    ends = np.flatnonzero(delta == -1)
    return list(zip(starts, ends))


def make_state_sequence(appliance: PowerSeries, spec: ApplianceSpec):
    """Binary on/off labels: on above the threshold, then run-length smoothed.

    Off-gaps between activations shorter than min_off_s are filled first,
    then on-runs shorter than min_on_s are dropped.
    """
    period = appliance.period_s
    state = appliance.values > spec.on_threshold_w
    on_runs = _runs(state)
    for (_, gap_start), (gap_end, _) in zip(on_runs, on_runs[1:]):
        if (gap_end - gap_start) * period < spec.min_off_s:
            state[gap_start:gap_end] = True
    for start, end in _runs(state):
        if (end - start) * period < spec.min_on_s:
            state[start:end] = False
    return state.astype(np.int8)


@dataclass
class WindowSet:
    """Aligned (input, target, state) windows with their start offsets."""
    inputs: np.ndarray    # (N, L) aggregate watts (or standardized values)
    targets: np.ndarray   # (N, L) appliance watts (or normalized values)
    states: np.ndarray    # (N, L) binary labels
    starts: np.ndarray    # (N,) start sample of each window

    def __len__(self):
        return self.inputs.shape[0]

    @property
    def window(self):
        return self.inputs.shape[1]

    def take(self, indices):
        return WindowSet(self.inputs[indices], self.targets[indices],
                         self.states[indices], self.starts[indices])


def sliding_windows(x, y, s, window, hop=1) -> WindowSet:
    """All length-``window`` triples at the given hop; window i starts at i*hop.

    Series shorter than one window yield an empty set (with a warning).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    s = np.asarray(s)
    if not (x.shape == y.shape == s.shape) or x.ndim != 1:
        raise DataError("input, target, and state series must be equal-length 1-D")
    if hop < 1:
        raise DataError("hop must be >= 1")
    if x.size < window:
        log.warning("series of %d samples is shorter than one %d-sample window",
                    x.size, window)
        empty = np.empty((0, window))
        return WindowSet(empty, empty.copy(), empty.copy(),
                         np.empty(0, dtype=np.int64))
    view = np.lib.stride_tricks.sliding_window_view
    return WindowSet(
        view(x, window)[::hop],
        view(y, window)[::hop],
        view(s, window)[::hop],
        np.arange(0, x.size - window + 1, hop, dtype=np.int64),
    )


def normalize_windows(ws: WindowSet, meta: NormalizationMeta) -> WindowSet:
    """Standardize inputs and min-max the targets; states pass through."""
    return WindowSet(
        standardize_input(ws.inputs, meta),
        normalize_target(ws.targets, meta),
        np.asarray(ws.states),
        ws.starts,
    )


def split_train_val(ws: WindowSet, val_fraction=0.15, gap_samples=0):
    """Contiguous tail split: the last fraction of windows is validation.

    gap_samples > 0 additionally drops trailing training windows so that
    every training window start is at least gap_samples + 1 samples before
    the first validation window start (gap_samples = window - 1 means no
    sample is shared across the split).
    """
    if not 0.0 <= val_fraction < 1.0:
        raise DataError("val_fraction must be in [0, 1)")
    n_val = int(round(val_fraction * len(ws)))
    if n_val == 0:
        return ws, ws.take(np.arange(0))
    boundary = ws.starts[len(ws) - n_val]
    train = ws.take(np.flatnonzero(ws.starts <= boundary - 1 - gap_samples))
    val = ws.take(np.arange(len(ws) - n_val, len(ws)))
    return train, val


def synth_household(specs, duration_s, noise_std=0.0, seed=0, period_s=3,
                    duration_scale=1.0):
    """Generate one synthetic house: per-appliance loads plus their noisy sum.

    Each appliance cycles between off-gaps drawn from [min_off, 5*min_off]
    seconds and rectangular activations with duration drawn from
    [min_on, 3*min_on] * duration_scale and level drawn from
    [2*on_threshold, max_power]. The aggregate adds Gaussian noise of the
    given standard deviation and is clamped at 0 W. Deterministic per seed.
    """
    n = int(duration_s) // int(period_s)
    if n < 1:
        raise DataError("duration too short for one sample")
    rng = np.random.default_rng(seed)
    appliance_series = []
    total = np.zeros(n, dtype=np.float64)
    for spec in specs:
        if spec.max_power_w <= 2 * spec.on_threshold_w:
            raise DataError(
                f"{spec.name}: max_power_w must exceed twice the on threshold "
                f"for synthesis")
        values = np.zeros(n, dtype=np.float64)
        t = 0
        while True:
            gap_s = rng.uniform(spec.min_off_s, 5.0 * spec.min_off_s)
            t += max(1, int(round(gap_s / period_s)))
            if t >= n:
                break
            dur_s = rng.uniform(spec.min_on_s, 3.0 * spec.min_on_s) * duration_scale
            n_on = max(1, int(round(dur_s / period_s)))
            level = rng.uniform(2.0 * spec.on_threshold_w, spec.max_power_w)
            values[t:t + n_on] = level
            t += n_on
        appliance_series.append(PowerSeries(spec.name, period_s, 0, values))
        total += values
    if noise_std > 0:
        total = total + rng.normal(0.0, noise_std, size=n)
    aggregate = PowerSeries("aggregate", period_s, 0, np.maximum(total, 0.0))
    return aggregate, appliance_series
