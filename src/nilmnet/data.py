"""Channel ingestion, alignment, labeling, windowing, and synthetic households.

Channel files are plain CSV with the header ``timestamp,power_w``, integer
epoch-second timestamps, and non-negative watts. All series carry a uniform
sampling period; loading fills small gaps and refuses large ones, so
everything downstream can index by sample.

write_table is the one CSV writer of the package: the channel, results,
attention, grid leaderboard and training record files all go through it,
so they share one line format.
"""

from __future__ import annotations

import csv
import logging
import os
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain
from math import isfinite

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

CSV_HEADER = ("timestamp", "power_w")
MAX_FILL_SAMPLES = 3
WRITE_BLOCK_FIELDS = 4096
READ_BLOCK_CHARS = 65536
_BODY_DTYPE = np.dtype([("timestamp", np.int64), ("power_w", np.float64)])


@dataclass
class PowerSeries:
    """Uniformly sampled real-power channel (aggregate or one appliance).

    Values are finite and non-negative watts.
    """
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
        if self.values.size:
            # NaN spreads to both extremes, and +-inf shows in one of them
            lo, hi = self.values.min(), self.values.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DataError(f"{self.name}: non-finite power values")
            if lo < 0:
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
        for key in ("on_threshold_w", "min_on_s", "min_off_s", "max_power_w"):
            if not isfinite(getattr(self, key)):
                raise DataError(f"{self.name}: {key} must be finite, "
                                f"got {getattr(self, key)}")
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


def _header_columns(reader, path):
    """Indices of the timestamp and power_w columns, from the header row."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    try:
        return tuple(map(header.index, CSV_HEADER))
    except ValueError:
        raise DataError(f"{path}:1: header {header!r} lacks columns "
                        f"{CSV_HEADER[0]!r}/{CSV_HEADER[1]!r}") from None


def _plain_blocks(fh):
    """The rest of fh as lists of lines, read in blocks of READ_BLOCK_CHARS.

    Raises ValueError on a block that numpy's reader could take differently
    from the row loop: one with text outside ASCII (numpy's integer parser
    takes many non-ASCII characters as numbers with wrong values), with
    U+001C-U+001F (numpy strips them as whitespace; int and float refuse
    them), with a quote (csv.reader has quoting rules of its own), or longer
    than csv.field_size_limit() (csv.reader refuses a longer field, and
    without quotes a field lies within one block).
    """
    while lines := fh.readlines(READ_BLOCK_CHARS):
        block = "".join(lines)
        if (not block.isascii() or len(block) > csv.field_size_limit()
                or any(c in block for c in '"\x1c\x1d\x1e\x1f')):
            raise ValueError("text for the row loop")
        yield lines


def _read_body_numpy(fh, path):
    """(timestamps, watts) of the rows after the header, read by numpy's C
    reader, or None when the row loop must decide: when _plain_blocks or
    numpy raises or warns, fewer than two rows are read, a watt value is
    not finite or the timestamps do not increase.

    Every numpy warning is an error here. A body with no rows only warns
    ("input contained no data"), and numpy releases that keep the
    deprecated integer-via-float fallback parse an int64 field that is not
    an integer (1.5, 1e3, nan, a value outside int64) as a float and cast
    it, with only a DeprecationWarning; both go to the row loop, which
    refuses them.
    """
    ts_idx, pw_idx = _header_columns(_csv_rows(csv.reader(fh), path), path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(chain.from_iterable(_plain_blocks(fh)), dtype=_BODY_DTYPE,
                              delimiter=",", usecols=(ts_idx, pw_idx), comments=None,
                              ndmin=1)
    except (ValueError, Warning):
        return None
    timestamps, watts = body["timestamp"], body["power_w"]
    if (len(body) < 2 or not np.isfinite(watts).all()
            or not (timestamps[1:] > timestamps[:-1]).all()):
        return None
    return timestamps, watts


def refuse_nul(path):
    """Raise DataError naming path if it holds a NUL, which no file name
    can hold and on which open raises ValueError, not OSError."""
    text = os.fsdecode(path)
    if "\0" in text:
        raise DataError(f"{text!r}: a path cannot hold a NUL character")


def _csv_rows(reader, path):
    """The rows of reader; its csv.Error, such as a field longer than
    csv.field_size_limit(), is raised as a DataError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _read_body_rows(fh, path):
    """(timestamps, watts) of fh, header included, read row by row.

    The reference reader: it accepts every input the loader accepts and
    raises every error it reports, each body error with its line.
    """
    reader = csv.reader(fh)
    rows = _csv_rows(reader, path)
    ts_idx, pw_idx = _header_columns(rows, path)
    timestamps = array("q")
    watts = array("d")
    for row in rows:
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
    if not timestamps:
        raise DataError(f"{path}: no data rows")
    if len(timestamps) < 2:
        raise DataError(f"{path}: cannot infer period from a single row")
    return np.frombuffer(timestamps, dtype=np.int64), np.frombuffer(watts)


def load_channel_csv(path, name=None):
    """Read a ``timestamp,power_w`` channel CSV into a uniform PowerSeries.

    The sampling period is the step between the first two rows. Timestamps
    must be strictly increasing and on that grid; up to MAX_FILL_SAMPLES
    consecutive missing samples are forward-filled, larger gaps are
    rejected. Unparsable rows (timestamps outside int64 included), NaN and
    infinite watts and non-increasing timestamps are rejected with their
    line. Negative watts are clamped to zero (counted in one warning).

    numpy's C reader parses the rows of a file whose text is ASCII without
    quotes or U+001C-U+001F, with at least two rows, increasing int64
    integer timestamps and finite watts; every file write_channel_csv
    writes is one. Any other file goes to the row loop, which decides
    whether it loads and writes every error message, so accepted input and
    messages do not depend on which reader ran.
    """
    path = str(path)
    refuse_nul(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            body = _read_body_numpy(fh, path)
            if body is None:
                fh.seek(0)
                body = _read_body_rows(fh, path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    timestamps, values = body
    # Increasing int64 values differ by less than 2**64, so their
    # differences taken as uint64 are exact.
    steps = np.diff(timestamps.view(np.uint64))
    period = int(steps[0])
    if period > np.iinfo(np.int64).max:
        raise DataError(f"{path}: period of {period} s is outside the int64 range")
    off_grid = steps % period != 0
    counts = steps // period  # samples from each row up to the next one
    bad = off_grid | (counts > MAX_FILL_SAMPLES + 1)
    if bad.any():
        i = int(bad.argmax())
        ts = int(timestamps[i + 1])
        if off_grid[i]:
            raise DataError(f"{path}: timestamp {ts} is off the {period}-second grid")
        raise DataError(f"{path}: gap of {counts[i] - 1} samples before t={ts} "
                        f"exceeds the fill limit of {MAX_FILL_SAMPLES}")
    clamped = np.count_nonzero(values < 0)
    if clamped:
        values[values < 0] = 0.0
        log.warning("%s: clamped %d negative power values to 0 W", path, clamped)
    # Forward-fill: each row's value repeats up to the next row.
    filled = np.repeat(values, np.append(counts.astype(np.intp), 1))
    return PowerSeries(name if name is not None else path, period,
                       int(timestamps[0]), filled)


def _field_texts(block, alone):
    """The texts of one block of a field's values. A number is its repr,
    which for an int or a float is what str() gives; any other value is
    str() of it, quoted by _quoted. alone: the field is its row's only one."""
    if block.dtype.kind in "iuf":
        return list(map(repr, block.tolist()))
    return [_quoted(str(value), alone) for value in block.tolist()]


def _quoted(text, alone):
    """text as a CSV field, quoted as RFC 4180 asks when it holds a comma,
    a quote, CR or LF; also when it is empty and alone in its row, where an
    unquoted empty field would make an empty line, which reads as no row."""
    quote = any(c in text for c in ',"\r\n') or (alone and not text)
    return '"' + text.replace('"', '""') + '"' if quote else text


def _refuse_unencodable(path, texts):
    """Raise DataError naming path and the first of texts that UTF-8
    cannot encode, such as the lone surrogate os.fsdecode makes of an
    argument byte that does not decode."""
    for text in map(str, texts):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"{path}: {text!r} cannot be written as UTF-8 "
                            f"({exc.reason})") from None


def write_table(path, header, columns):
    """Write a CSV file: the header row, then row i of every column.

    This is the package's one CSV writer. A column is N values, or an
    (N, k) array whose rows fill k fields. The file is UTF-8 with LF line
    ends on every OS. Rows are formatted from .tolist() blocks of about
    WRITE_BLOCK_FIELDS fields, so the Python objects in hand stay bounded
    however long or wide the table is. No rows writes the header alone.
    A text that UTF-8 cannot encode raises DataError before the file is
    opened.
    """
    # One 1-D array per field: an (N, k) column gives k of them.
    fields = [f for column in columns for f in np.atleast_2d(np.asarray(column).T)]
    _refuse_unencodable(path, chain(header, *(f.tolist() for f in fields
                                              if f.dtype.kind not in "iuf")))
    rows = max(1, WRITE_BLOCK_FIELDS // len(fields))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_quoted(name, len(fields) == 1) for name in header) + "\n")
        for lo in range(0, len(fields[0]), rows):
            texts = [_field_texts(f[lo:lo + rows], len(fields) == 1) for f in fields]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def write_channel_csv(path, series: PowerSeries):
    """Write a channel CSV, each watt value as the repr of its Python float."""
    write_table(path, CSV_HEADER, [series.timestamps(), series.values])


def resample(series: PowerSeries, target_period_s: int) -> PowerSeries:
    """Change the sampling period by an integer factor.

    Downsampling mean-pools; upsampling forward-fills, refusing factors
    that would fabricate more than MAX_FILL_SAMPLES values per sample.
    A target period below 1 s raises DataError.
    """
    if target_period_s < 1:
        raise DataError(f"{series.name}: target period {target_period_s}s is below 1s")
    period = series.period_s
    if target_period_s == period:
        return series
    factor, rest = divmod(max(period, target_period_s), min(period, target_period_s))
    if rest:
        raise DataError(
            f"{series.name}: cannot resample {period}s -> {target_period_s}s "
            f"(non-integer factor)")
    if target_period_s > period:
        usable = (len(series) // factor) * factor
        pooled = series.values[:usable].reshape(-1, factor).mean(axis=1)
        return replace(series, period_s=target_period_s, values=pooled)
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


def _window_view(series, window):
    """(T - window + 1, window) read-only view of a 1-D series; (0, window)
    when the series is shorter than one window."""
    if series.size < window:
        return np.empty((0, window), dtype=series.dtype)
    return np.lib.stride_tricks.sliding_window_view(series, window)


@dataclass
class WindowSet:
    """Windows over three aligned 1-D series: window i is samples
    starts[i] .. starts[i] + window - 1 of each series.

    The set holds the series and the (N,) starts, not N x L values, so
    selecting and normalizing windows costs O(samples) however many windows
    overlap. batch(indices) gathers the (B, L) rows of a mini-batch; the
    inputs, targets and states properties gather all N rows on every
    access, for callers that want the (N, L) arrays whole.
    """
    x: np.ndarray         # (T,) aggregate watts (or standardized values)
    y: np.ndarray         # (T,) appliance watts (or normalized values)
    s: np.ndarray         # (T,) binary labels
    window: int
    starts: np.ndarray    # (N,) start sample of each window

    def __len__(self):
        return self.starts.size

    def _rows(self, series, indices=slice(None)):
        return _window_view(series, self.window)[self.starts[indices]]

    def batch(self, indices):
        """(inputs, targets, states) of the windows at indices, each (B, L)."""
        return tuple(self._rows(series, indices)
                     for series in (self.x, self.y, self.s))

    @property
    def inputs(self):
        return self._rows(self.x)

    @property
    def targets(self):
        return self._rows(self.y)

    @property
    def states(self):
        return self._rows(self.s)

    def take(self, indices):
        """The windows at indices, over the same series."""
        return replace(self, starts=self.starts[indices])


def _positive_int(value):
    return isinstance(value, (int, np.integer)) and value >= 1


def sliding_windows(x, y, s, window, hop=1) -> WindowSet:
    """All length-``window`` triples at the given hop; window i starts at i*hop.

    Only the starts are made: the set keeps x, y and s as they are. window
    and hop must be positive integers. Series shorter than one window yield
    an empty set (with a warning).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    s = np.asarray(s)
    if not (x.shape == y.shape == s.shape) or x.ndim != 1:
        raise DataError("input, target, and state series must be equal-length 1-D")
    if not _positive_int(window):
        raise DataError(f"window must be a positive integer, got {window!r}")
    if not _positive_int(hop):
        raise DataError(f"hop must be a positive integer, got {hop!r}")
    if x.size < window:
        log.warning("series of %d samples is shorter than one %d-sample window",
                    x.size, window)
    starts = np.arange(0, x.size - window + 1, hop, dtype=np.int64)
    return WindowSet(x, y, s, int(window), starts)


def normalize_windows(ws: WindowSet, meta: NormalizationMeta) -> WindowSet:
    """Standardize the input series and min-max the target series, once per
    sample; the states and the starts pass through.

    Normalizing is elementwise, so a window of the result holds the bytes
    that standardize_input and normalize_target give for that raw window.
    """
    return replace(ws, x=standardize_input(ws.x, meta),
                   y=normalize_target(ws.y, meta))


def split_train_val(ws: WindowSet, val_fraction, gap_samples=0):
    """Contiguous tail split: the last fraction of windows is validation.

    Both sets keep ws's series and differ in their starts only.
    val_fraction has no default here; TrainConfig.val_fraction holds it.

    gap_samples > 0 additionally drops trailing training windows so that
    every training window start is at least gap_samples + 1 samples before
    the first validation window start (gap_samples = window - 1 means no
    sample is shared across the split). A negative gap is refused: it would
    put validation windows into the training set.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise DataError("val_fraction must be in [0, 1)")
    if gap_samples < 0:
        raise DataError(f"gap_samples must be >= 0, got {gap_samples}")
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
    An appliance whose longest off gap or activation is past the float
    range raises DataError before anything is drawn.
    """
    if period_s < 1:
        raise DataError(f"period_s must be >= 1, got {period_s}")
    if not noise_std >= 0:
        raise DataError(f"noise_std must be >= 0, got {noise_std}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if not (isfinite(duration_scale) and duration_scale > 0):
        raise DataError(f"duration_scale must be finite and > 0, got {duration_scale}")
    n = int(duration_s) // int(period_s)
    if n < 1:
        raise DataError("duration too short for one sample")
    if n * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
        raise DataError(f"{n} samples are past numpy's index range")
    for spec in specs:
        if spec.max_power_w <= 2 * spec.on_threshold_w:
            raise DataError(
                f"{spec.name}: max_power_w must exceed twice the on threshold "
                f"for synthesis")
        # The largest value each draw below can compute must be a float.
        for key, value, longest in (
                ("min_off_s", spec.min_off_s, 5.0 * spec.min_off_s),
                ("min_on_s", spec.min_on_s, 3.0 * spec.min_on_s),
                ("duration_scale", duration_scale, 3.0 * spec.min_on_s * duration_scale)):
            if not isfinite(longest):
                raise DataError(f"{spec.name}: {key} = {value} makes the longest "
                                f"synthesized interval overflow")
    rng = np.random.default_rng(seed)
    appliance_series = []
    total = np.zeros(n, dtype=np.float64)
    for spec in specs:
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
