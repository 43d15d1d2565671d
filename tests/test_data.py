"""Data pipeline: CSV round-trips, alignment, labeling, windows, synthesis."""

import csv
import logging
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilmnet import data
from nilmnet.errors import DataError

from conftest import traced_peak
from oracles import load_channel_csv_direct, write_channel_csv_direct


def series(values, period=3, t0=0, name="s"):
    return data.PowerSeries(name, period, t0, np.asarray(values, dtype=float))


# Written values: any finite non-negative float, -0.0, integral watts, and
# the subnormal, tiny and huge ends of the float64 range. A PowerSeries
# refuses infinite watts, so no channel holds them.
WRITTEN_FLOATS = (st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
                  | st.integers(0, 10**7).map(float)
                  | st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300,
                                     1e300, 1.7976931348623157e308]))

LOADER_FAULTS = ("off_grid", "long_gap", "not_increasing", "non_finite",
                 "unparsable")


@st.composite
def channel_csv_texts(draw):
    """A channel file with blank lines, negative and -0.0 watts, gaps of 0-3
    missing samples, either column order, and at most one injected fault."""
    fault = draw(st.none() | st.sampled_from(LOADER_FAULTS))
    period = draw(st.integers(2 if fault == "off_grid" else 1, 7))
    n = draw(st.integers(1 if fault is None else 3, 20))
    stamps = [draw(st.integers(-10**6, 10**6))]
    for i in range(1, n):
        # the first step is the period; later steps skip 0-3 samples
        stamps.append(stamps[-1] + period * (1 + (i > 1) * draw(st.integers(0, 3))))
    watts = [repr(draw(st.floats(-50.0, 5000.0) | st.sampled_from([-0.0, 0.0])))
             for _ in range(n)]
    fields = [[str(ts), w] for ts, w in zip(stamps, watts)]
    at = draw(st.integers(1, n - 1)) if n > 1 else 0
    if fault in ("off_grid", "long_gap"):
        # a new step before row `at`, later rows shifted with it; an
        # off-grid step may also skip more than 3 samples (the grid error wins)
        step = (draw(st.integers(1, 7 * period).filter(lambda k: k % period))
                if fault == "off_grid" else period * draw(st.integers(5, 7)))
        shift = stamps[at - 1] + step - stamps[at]
        for row in fields[at:]:
            row[0] = str(int(row[0]) + shift)
    elif fault == "not_increasing":
        fields[at][0] = str(stamps[at - 1] - draw(st.integers(0, 2 * period)))
    elif fault == "non_finite":
        fields[at][1] = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity"]))
    elif fault == "unparsable":
        fields[at] = draw(st.sampled_from([[fields[at][0], "oops"],
                                           ["1.5", fields[at][1]],
                                           [fields[at][0]]]))
    columns = draw(st.sampled_from([(0, 1), (1, 0)]))
    header = ",".join(data.CSV_HEADER[c] for c in columns)
    lines = [header]
    for row in fields:
        lines.extend([""] * draw(st.integers(0, 2)))
        lines.append(",".join(row[c] for c in columns if c < len(row)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


# Spellings that numpy's reader and the row loop may take differently.
ASCII_PADDINGS = [" ", "\t", "\f", "\v"]
EXOTIC_PADDINGS = ["\xa0", "\x1c", "\x1f"]
DIGITS = "0123456789"
EXOTIC_DIGITS = ["\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                 "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
                 "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",
                 "\u24ea\u2460\u2461\u2462\u2463\u2464\u2465\u2466\u2467\u2468"]
NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "iNF", "Infinity",
              "-Infinity", "1e400"]
QUOTED_NOTES = ['"a\nb"', '"a\r\nb"', '"a\rb"', '"q""q"', 'x"y', '""',
                '"a,1,2,b"']
LINE_ENDS = ["\n", "\r\n", "\r"]
EDGES = ("digits", "underscore", "padding", "quoted", "doubled_quote",
         "quoted_note", "open_quote", "non_finite", "missing_column",
         "not_increasing", "int64_wrap", "float_timestamp")


@st.composite
def edge_csv_texts(draw):
    """A channel file with \\n, \\r\\n and lone \\r line ends, ASCII padding,
    signs, exponents, int64 edge timestamps, extra columns and either header
    order, plus up to three EDGES: non-ASCII digits in a whole column, an
    underscore, non-ASCII or U+001C/U+001F padding, a quoted number, a
    doubled quote, a quoted note (embedded line ends included), a quote left
    open at the end of the file, a spelling of nan or inf, a missing
    column, a timestamp that does not increase, a step from the top of
    int64 to its bottom, or a timestamp that is not an integer within int64
    (a decimal point, an exponent, nan, inf or a value beyond int64)."""
    columns = draw(st.sampled_from([("timestamp", "power_w"),
                                    ("power_w", "timestamp"),
                                    ("timestamp", "power_w", "note"),
                                    ("note", "power_w", "timestamp")]))
    period = draw(st.integers(1, 4))
    ts = draw(st.integers(-10**6, 10**6)
              | st.sampled_from([-2**63, 2**63 - 1 - 12 * period]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        rows.append({"timestamp": str(ts), "note": draw(st.sampled_from(["", "x"])),
                     "power_w": draw(st.floats(-50.0, 5000.0).map(repr)
                                     | st.integers(0, 10**6).map(str)
                                     | st.sampled_from(["1e3", "1E-3", ".5", "5.",
                                                        "2.5e+2"])),
                     "tail": ["extra"] if draw(st.integers(0, 9)) == 0 else []})
        ts += period * draw(st.sampled_from([1, 1, 2]))
    for row in rows:
        for col in ("timestamp", "power_w"):
            if not row[col].startswith("-") and draw(st.integers(0, 5)) == 0:
                row[col] = "+" + row[col]
            if draw(st.integers(0, 3)) == 0:
                row[col] = (draw(st.sampled_from(ASCII_PADDINGS)) + row[col]
                            + draw(st.sampled_from(ASCII_PADDINGS)))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in range(len(rows) + 1)]
    short = set()
    for edge in draw(st.lists(st.sampled_from(EDGES), max_size=3)) if rows else []:
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        col = draw(st.sampled_from(["timestamp", "power_w"]))
        if edge == "digits":  # the whole column, so numpy's misreads can increase
            script = str.maketrans(DIGITS, draw(st.sampled_from(EXOTIC_DIGITS)))
            for other in rows:
                other[col] = other[col].translate(script)
        elif edge == "underscore" and len(row[col]) > 2:
            cut = draw(st.integers(1, len(row[col]) - 1))
            row[col] = row[col][:cut] + "_" + row[col][cut:]
        elif edge == "padding":
            pad = draw(st.sampled_from(EXOTIC_PADDINGS))
            row[col] = draw(st.sampled_from([pad + row[col], row[col] + pad]))
        elif edge == "quoted":
            row[col] = f'"{row[col]}"'
        elif edge == "doubled_quote":
            row[col] = f'"{row[col]}""x"'
        elif edge == "quoted_note":
            note = draw(st.sampled_from(QUOTED_NOTES))
            if "note" in columns:
                row["note"] = note
            else:
                row["tail"].append(note)
        elif edge == "open_quote":
            ends[-1] = ',"open\nquote'
        elif edge == "non_finite":
            row["power_w"] = draw(st.sampled_from(NON_FINITE))
        elif edge == "missing_column":
            short.add(at)
        elif edge == "not_increasing" and at > 0:
            row["timestamp"] = rows[at - 1]["timestamp"]
        elif edge == "int64_wrap" and at > 0:
            rows[at - 1]["timestamp"], row["timestamp"] = str(2**63 - 1), str(-2**63)
        elif edge == "float_timestamp":
            stamp = row["timestamp"].strip()
            row["timestamp"] = draw(st.sampled_from(
                [stamp + ".0", stamp + ".5", stamp + "e0", "1e3", "nan", "-inf",
                 str(2**63), str(-2**63 - 1)]))
    lines = [",".join(columns)]
    for at, row in enumerate(rows):
        fields = [row[c] for c in columns][:len(columns) - (at in short)]
        blank_line = draw(st.sampled_from(["", "", "\n"]))
        lines.append(blank_line + ",".join(fields + row["tail"]))
    return "".join(line + end for line, end in zip(lines, ends))


def loader_outcome(path, caplog):
    """load_channel_csv(path) as comparable values: period, t0, value bytes
    and logged warnings, or the error, each with the Python warnings the
    load raised. Python warnings are recorded, never raised, so the loader
    runs as under the default filters (an error filter would change what
    numpy does)."""
    caplog.clear()
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        try:
            with caplog.at_level(logging.WARNING, logger="nilmnet.data"):
                loaded = data.load_channel_csv(path, name="ch")
            outcome = (loaded.period_s, loaded.t0, loaded.values.tobytes(),
                       [r.getMessage() for r in caplog.records])
        except DataError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
    return outcome, [f"{w.category.__name__}: {w.message}" for w in raised]


def refuse_row_loop(*_):
    raise AssertionError("the row loop ran")


class TestPowerSeries:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("at", [0, 5, 9])
    def test_non_finite_values_rejected(self, bad, at):
        values = np.full(10, 3.0)
        values[at] = bad
        with pytest.raises(DataError, match="non-finite"):
            data.PowerSeries("agg", 3, 0, values)

    def test_negative_values_rejected(self):
        with pytest.raises(DataError, match="negative"):
            data.PowerSeries("agg", 3, 0, [1.0, -0.5])


class TestChannelCsv:
    def test_three_rows_six_second_period(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text("timestamp,power_w\n100,1.0\n106,2.0\n112,3.0\n")
        loaded = data.load_channel_csv(path)
        assert len(loaded) == 3
        assert loaded.period_s == 6
        assert loaded.t0 == 100
        np.testing.assert_array_equal(loaded.values, [1.0, 2.0, 3.0])

    def test_out_of_order_timestamps_rejected(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text("timestamp,power_w\n100,1.0\n94,2.0\n")
        with pytest.raises(DataError, match="not after"):
            data.load_channel_csv(path)

    def test_round_trip_reproduces_file(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        third = tmp_path / "c.csv"
        original = series([0.0, 15.5, 123.456, 2.25], period=6, t0=1000)
        data.write_channel_csv(first, original)
        loaded = data.load_channel_csv(first)
        np.testing.assert_array_equal(loaded.values, original.values)
        assert (loaded.period_s, loaded.t0) == (6, 1000)
        data.write_channel_csv(second, loaded)
        data.write_channel_csv(third, data.load_channel_csv(second))
        assert second.read_bytes() == third.read_bytes()
        assert first.read_bytes() == second.read_bytes()

    def test_unparsable_row_reports_line_number(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text("timestamp,power_w\n100,1.0\n103,oops\n")
        with pytest.raises(DataError, match=r":3"):
            data.load_channel_csv(path)

    def test_line_numbers_count_lines_inside_quoted_fields(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text('timestamp,power_w,note\n0,1.0,"a\nb"\n3,oops,x\n')
        with pytest.raises(DataError, match=r"ch\.csv:4: unparsable"):
            data.load_channel_csv(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_watts_rejected_with_line(self, tmp_path, text):
        path = tmp_path / "ch.csv"
        path.write_text(f"timestamp,power_w\n100,1.0\n103,{text}\n106,2.0\n")
        with pytest.raises(DataError, match=r"ch\.csv:3: non-finite"):
            data.load_channel_csv(path)

    def test_negative_watts_clamped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "ch.csv"
        path.write_text("timestamp,power_w\n0,-5.0\n3,-1.0\n6,2.0\n")
        with caplog.at_level("WARNING"):
            loaded = data.load_channel_csv(path)
        np.testing.assert_array_equal(loaded.values, [0.0, 0.0, 2.0])
        assert "clamped 2" in caplog.text

    def test_small_gap_forward_filled(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text("timestamp,power_w\n0,1.0\n3,2.0\n15,3.0\n")
        loaded = data.load_channel_csv(path)
        np.testing.assert_array_equal(loaded.values, [1, 2, 2, 2, 2, 3])

    def test_large_gap_rejected(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text("timestamp,power_w\n0,1.0\n3,2.0\n18,3.0\n")
        with pytest.raises(DataError, match="gap"):
            data.load_channel_csv(path)

    def test_off_grid_timestamp_rejected(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text("timestamp,power_w\n0,1.0\n3,2.0\n7,3.0\n")
        with pytest.raises(DataError, match="grid"):
            data.load_channel_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text("time,watts\n0,1.0\n")
        with pytest.raises(DataError, match="header"):
            data.load_channel_csv(path)

    @given(channel_csv_texts())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_row_by_row_oracle(self, tmp_path, caplog, text):
        path = str(tmp_path / "ch.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            period, t0, values, clamped = load_channel_csv_direct(path)
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                data.load_channel_csv(path)
            assert str(raised.value) == str(exc)
            return
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="nilmnet.data"):
            loaded = data.load_channel_csv(path, name="ch")
        assert (loaded.name, loaded.period_s, loaded.t0) == ("ch", period, t0)
        assert loaded.values.tobytes() == np.array(values, dtype=np.float64).tobytes()
        warnings = [r.getMessage() for r in caplog.records]
        assert warnings == ([f"{path}: clamped {clamped} negative power values "
                             f"to 0 W"] if clamped else [])

    @pytest.mark.parametrize("row", ["9223372036854775808,1.0",
                                     "-9223372036854775809,1.0"])
    def test_timestamp_outside_int64_rejected_with_line(self, tmp_path, row):
        path = tmp_path / "ch.csv"
        path.write_text(f"timestamp,power_w\n\n{row}\n")
        with pytest.raises(DataError, match=r"ch\.csv:3: unparsable"):
            data.load_channel_csv(path)

    def test_int64_extremes_load(self, tmp_path):
        lo, hi = -2**63, 2**63 - 1
        path = tmp_path / "ch.csv"
        path.write_text(f"timestamp,power_w\n{lo},1.0\n{lo + 4},2.0\n"
                        f"{hi - 3},3.0\n{hi},4.0\n")
        with pytest.raises(DataError, match="gap"):
            data.load_channel_csv(path)
        path.write_text(f"timestamp,power_w\n{hi - 8},1.0\n{hi - 4},2.0\n{hi},3.0\n")
        loaded = data.load_channel_csv(path)
        assert loaded.timestamps()[-1] == hi

    def test_period_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_text(f"timestamp,power_w\n{-2**63},1.0\n{2**63 - 1},2.0\n")
        with pytest.raises(DataError, match="period .*int64"):
            data.load_channel_csv(path)

    def test_non_utf8_row_rejected(self, tmp_path):
        path = tmp_path / "ch.csv"
        path.write_bytes(b"timestamp,power_w\n0,1.0\n3,\xff\n")
        with pytest.raises(DataError, match=r"ch\.csv: not UTF-8"):
            data.load_channel_csv(path)

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, line):
        rows = ["timestamp,power_w", "0,1.0", "3,2.0", "6,3.0"]
        limit = csv.field_size_limit()
        rows[line - 1] += "," + "x" * (limit + 1)
        path = tmp_path / "ch.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError,
                           match=rf"ch\.csv:{line}: field larger than field limit \({limit}\)"):
            data.load_channel_csv(path)

    # numpy reads U+0968 (Devanagari two) as 2360 and U+2460 (circled one),
    # which int refuses, as 9264; it strips U+001C as whitespace; a step
    # from 2**63 - 1 to -2**63 wraps to +1 in int64 arithmetic; csv.reader
    # refuses a field over 131072 characters; without quote rules, numpy
    # would split the first column of the last example at its commas.
    # Timestamps that are not integers within int64 end the list: numpy
    # releases with the integer-via-float fallback would read them as
    # 1, 3000, 6, 1000, a NaN cast or -2**63.
    @example("timestamp,power_w\n0,1.0\n1,2.0\n\u0968,3.0\n", 64)
    @example("timestamp,power_w\n0,1.0\n\u2460,2.0\n", 64)
    @example("timestamp,power_w\n0,1.0\n1,2.0\x1c\n", 64)
    @example(f"timestamp,power_w\n{2**63 - 1},1.0\n{-2**63},2.0\n", 64)
    @example("timestamp,power_w\n\n\n", 64)
    @example("timestamp,power_w\n0,1.0," + "x" * 131073 + "\n1,2.0\n",
             data.READ_BLOCK_CHARS)
    @example('note,power_w,timestamp\n"a,5,1,x",7,3\n"a,6,2,x",8,6\n', 64)
    @example("timestamp,power_w\n0,1.0\n1.5,2.0\n2,3.0\n", 64)
    @example("timestamp,power_w\n0.0,1.0\n3.0,2.0\n6.0,3.0\n", 64)
    @example("timestamp,power_w\n999,1.0\n1e3,2.0\n1001,3.0\n", 64)
    @example("timestamp,power_w\nnan,1.0\n1,2.0\n", 64)
    @example(f"timestamp,power_w\n0,1.0\n{2**63},2.0\n", 64)
    @example(f"timestamp,power_w\n{-2**63 - 1},1.0\n{-2**63 + 4},2.0\n", 64)
    @given(edge_csv_texts(), st.sampled_from([1, 7, 64, data.READ_BLOCK_CHARS]))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_numpy_reader_matches_the_row_loop(self, tmp_path, caplog, text,
                                               block_chars):
        path = tmp_path / "ch.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "READ_BLOCK_CHARS", block_chars)
            either = loader_outcome(path, caplog)
            mp.setattr(data, "_read_body_numpy", lambda fh, path: None)
            row_loop = loader_outcome(path, caplog)
        assert either == row_loop

    @given(st.lists(WRITTEN_FLOATS, min_size=2, max_size=30),
           st.integers(1, 3600), st.integers(-10**12, 10**12),
           st.sampled_from([1, 7, 64, data.READ_BLOCK_CHARS]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_written_files_load_without_the_row_loop(self, tmp_path, values,
                                                     period, t0, block_chars):
        original = series(values, period=period, t0=t0)
        path = tmp_path / "ch.csv"
        data.write_channel_csv(path, original)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "READ_BLOCK_CHARS", block_chars)
            mp.setattr(data, "_read_body_rows", refuse_row_loop)
            loaded = data.load_channel_csv(path)
        assert (loaded.period_s, loaded.t0) == (period, t0)
        assert loaded.values.tobytes() == original.values.tobytes()

    def test_synthesized_house_loads_without_the_row_loop(self, tmp_path,
                                                          monkeypatch):
        spec = data.ApplianceSpec("heater", 64, max_power_w=2000.0)
        aggregate, _ = data.synth_household([spec], 60000, 5.0, seed=1)
        path = tmp_path / "aggregate.csv"
        data.write_channel_csv(path, aggregate)
        assert path.stat().st_size > 4 * data.READ_BLOCK_CHARS
        monkeypatch.setattr(data, "_read_body_rows", refuse_row_loop)
        loaded = data.load_channel_csv(path)
        assert (loaded.period_s, loaded.t0) == (aggregate.period_s, aggregate.t0)
        assert loaded.values.tobytes() == aggregate.values.tobytes()

    @pytest.mark.parametrize("stamp", ["1.5", "1e0", "nan", str(2**63)])
    def test_integer_via_float_fallback_defers_to_the_row_loop(
            self, tmp_path, monkeypatch, stamp):
        # A numpy release with the deprecated fallback warns, then reads
        # the stamp as a float cast to int64; under the default filters
        # that warning is silent and the file would load as 0, 1, 2.
        def fallback_loadtxt(lines, dtype, **_):
            list(lines)
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning, stacklevel=2)
            return np.array([(0, 1.0), (1, 2.0), (2, 3.0)], dtype=dtype)

        path = tmp_path / "ch.csv"
        path.write_text(f"timestamp,power_w\n0,1.0\n{stamp},2.0\n2,3.0\n")
        monkeypatch.setattr(data.np, "loadtxt", fallback_loadtxt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(DataError, match=r"ch\.csv:3: unparsable row"):
                data.load_channel_csv(path)


class TestChannelCsvWriter:
    @given(st.lists(WRITTEN_FLOATS, max_size=30), st.integers(1, 3600),
           st.integers(-10**12, 10**12), st.integers(1, 8))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_row_by_row_writer(self, tmp_path, monkeypatch,
                                           values, period, t0, block_rows):
        monkeypatch.setattr(data, "WRITE_BLOCK_ROWS", block_rows)
        s = series(values, period=period, t0=t0)
        data.write_channel_csv(tmp_path / "new.csv", s)
        write_channel_csv_direct(tmp_path / "ref.csv", s)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestAlign:
    def test_identical_series_unchanged(self):
        a = series([1.0, 2.0, 3.0])
        b = series([4.0, 5.0, 6.0])
        agg, app = data.align_pair(a, b, 3)
        np.testing.assert_array_equal(agg.values, a.values)
        np.testing.assert_array_equal(app.values, b.values)

    def test_mean_pooling_downsample(self):
        one_second = series([1, 2, 3, 4, 5, 6], period=1)
        pooled = data.resample(one_second, 3)
        np.testing.assert_array_equal(pooled.values, [2.0, 5.0])
        assert pooled.period_s == 3

    def test_upsample_forward_fills(self):
        three_second = series([1.0, 2.0], period=3)
        filled = data.resample(three_second, 1)
        np.testing.assert_array_equal(filled.values, [1, 1, 1, 2, 2, 2])

    def test_excessive_upsample_rejected(self):
        coarse = series([1.0, 2.0], period=30)
        with pytest.raises(DataError, match="forward-fill"):
            data.resample(coarse, 3)

    def test_non_integer_factor_rejected(self):
        with pytest.raises(DataError, match="factor"):
            data.resample(series([1.0, 2.0], period=3), 2)

    @pytest.mark.parametrize("target", [0, -1, -3])
    def test_target_period_below_one_second_rejected(self, target):
        s = series([1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="below 1s"):
            data.resample(s, target)
        with pytest.raises(DataError, match="below 1s"):
            data.align_pair(s, s, target)

    def test_disjoint_ranges_rejected(self):
        a = series([1.0, 2.0], t0=0)
        b = series([1.0, 2.0], t0=100)
        with pytest.raises(DataError, match="overlap"):
            data.align_pair(a, b, 3)

    def test_offset_grid_rejected(self):
        a = series([1.0, 2.0, 3.0], t0=0)
        b = series([1.0, 2.0, 3.0], t0=1)
        with pytest.raises(DataError, match="offset"):
            data.align_pair(a, b, 3)

    def test_overlap_is_cut_to_common_range(self):
        a = series([1, 2, 3, 4, 5], t0=0)        # covers [0, 15)
        b = series([10, 20, 30], t0=6)           # covers [6, 15)
        agg, app = data.align_pair(a, b, 3)
        assert len(agg) == len(app) == 3
        assert agg.t0 == app.t0 == 6
        np.testing.assert_array_equal(agg.values, [3, 4, 5])
        np.testing.assert_array_equal(app.values, [10, 20, 30])

    @given(st.lists(st.floats(0.0, 5000.0), max_size=40), st.integers(1, 6),
           st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_downsample_mean_pools_each_block(self, values, period, factor):
        pooled = data.resample(series(values, period=period), period * factor)
        blocks = [values[i:i + factor]
                  for i in range(0, len(values) - factor + 1, factor)]
        assert pooled.period_s == period * factor
        assert pooled.values.tolist() == [sum(b) / factor for b in blocks]

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
           st.sampled_from([2, 4]), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_upsample_then_downsample_is_identity(self, values, factor, scale):
        coarse = series(values, period=factor * scale)
        fine = data.resample(coarse, scale)
        assert len(fine) == factor * len(coarse)
        back = data.resample(fine, factor * scale)
        assert back.values.tobytes() == coarse.values.tobytes()

    @given(st.integers(2, 12), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_upsample_past_fill_limit_refused(self, factor, scale):
        coarse = series([1.0, 2.0], period=factor * scale)
        if factor - 1 > data.MAX_FILL_SAMPLES:
            with pytest.raises(DataError, match="forward-fill"):
                data.resample(coarse, scale)
        else:
            filled = data.resample(coarse, scale)
            assert filled.values.tolist() == [1.0] * factor + [2.0] * factor

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 10),
           st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_aligned_lengths_always_equal(self, la, lb, oa, ob):
        a = series(np.ones(la), t0=3 * oa, name="a")
        b = series(np.ones(lb), t0=3 * ob, name="b")
        try:
            agg, app = data.align_pair(a, b, 3)
        except DataError:
            return
        assert len(agg) == len(app) > 0


def smooth_oracle(raw_state, period, min_on_s, min_off_s):
    """List-based run-length filter: fill short gaps, drop short runs."""
    state = list(raw_state)

    def runs(of):
        found = []
        idx = 0
        while idx < len(state):
            if state[idx] == of:
                start = idx
                while idx < len(state) and state[idx] == of:
                    idx += 1
                found.append((start, idx))
            else:
                idx += 1
        return found

    on_runs = runs(1)
    for (_, end_prev), (start_next, _) in zip(on_runs, on_runs[1:]):
        if (start_next - end_prev) * period < min_off_s:
            for j in range(end_prev, start_next):
                state[j] = 1
    for start, end in runs(1):
        if (end - start) * period < min_on_s:
            for j in range(start, end):
                state[j] = 0
    return np.array(state, dtype=np.int8)


class TestStateSequence:
    spec = data.ApplianceSpec("app", window_l=8, on_threshold_w=15.0,
                              min_on_s=3.0, min_off_s=3.0, max_power_w=100.0)

    @pytest.mark.parametrize("field", ["on_threshold_w", "min_on_s", "min_off_s",
                                       "max_power_w"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_appliance_settings_rejected(self, field, bad):
        with pytest.raises(DataError, match=f"heater: {field} must be finite"):
            data.ApplianceSpec("heater", 64, **{field: bad})

    def test_all_zero_power_is_all_off(self):
        state = data.make_state_sequence(series(np.zeros(10)), self.spec)
        np.testing.assert_array_equal(state, np.zeros(10, dtype=np.int8))

    def test_threshold_is_strict(self):
        spec = data.ApplianceSpec("a", 8, 15.0, 3.0, 3.0, 100.0)
        state = data.make_state_sequence(series([10.0, 20.0, 10.0]), spec)
        np.testing.assert_array_equal(state, [0, 1, 0])
        state = data.make_state_sequence(series([15.0, 15.0001, 0.0]), spec)
        np.testing.assert_array_equal(state, [0, 1, 0])

    def test_single_sample_spike_removed(self):
        spec = data.ApplianceSpec("a", 8, 15.0, 6.0, 3.0, 100.0)  # 2 periods
        state = data.make_state_sequence(series([0, 0, 50, 0, 0]), spec)
        np.testing.assert_array_equal(state, np.zeros(5, dtype=np.int8))

    def test_short_gap_filled(self):
        spec = data.ApplianceSpec("a", 8, 15.0, 3.0, 6.0, 100.0)
        state = data.make_state_sequence(
            series([50, 50, 0, 50, 50]), spec)
        np.testing.assert_array_equal(state, [1, 1, 1, 1, 1])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40),
           st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_matches_run_length_oracle(self, bits, min_on_p, min_off_p):
        values = np.array(bits, dtype=float) * 50.0
        spec = data.ApplianceSpec("a", 4, 15.0, 3.0 * min_on_p,
                                  3.0 * min_off_p, 100.0)
        got = data.make_state_sequence(series(values), spec)
        want = smooth_oracle(bits, 3, 3.0 * min_on_p, 3.0 * min_off_p)
        np.testing.assert_array_equal(got, want)


class TestSlidingWindows:
    @staticmethod
    def toy(n):
        x = np.arange(n, dtype=float)
        return x, x * 10, (x % 2).astype(np.int8)

    def test_five_samples_three_windows(self):
        ws = data.sliding_windows(*self.toy(5), window=3)
        assert len(ws) == 3
        np.testing.assert_array_equal(ws.starts, [0, 1, 2])
        np.testing.assert_array_equal(ws.inputs[1], [1, 2, 3])
        np.testing.assert_array_equal(ws.targets[1], [10, 20, 30])

    def test_exactly_one_window(self):
        ws = data.sliding_windows(*self.toy(4), window=4)
        assert len(ws) == 1
        np.testing.assert_array_equal(ws.inputs[0], [0, 1, 2, 3])

    def test_short_series_yields_empty_set(self, caplog):
        with caplog.at_level("WARNING"):
            ws = data.sliding_windows(*self.toy(3), window=4)
        assert len(ws) == 0
        assert "shorter" in caplog.text

    @given(st.integers(1, 30), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_coverage_counts(self, n, window):
        if n < window:
            return
        ws = data.sliding_windows(*self.toy(n), window=window)
        counts = np.zeros(n, dtype=int)
        for start in ws.starts:
            counts[start:start + window] += 1
        for t in range(n):
            # brute-force count equals the closed form, capped by the
            # total number of windows (the cap matters when n < 2*window-1)
            assert counts[t] == min(t + 1, window, n - t, n - window + 1)

    def test_alignment_by_wall_clock(self):
        x, y, s = self.toy(6)
        ws = data.sliding_windows(x, y, s, window=3)
        for i in range(len(ws)):
            for k in range(3):
                t = ws.starts[i] + k
                assert ws.inputs[i, k] == x[t]
                assert ws.targets[i, k] == y[t]
                assert ws.states[i, k] == s[t]

    @pytest.mark.parametrize("window, hop", [(0, 1), (-1, 1), (3, 2.5)])
    def test_window_and_hop_must_be_positive_integers(self, window, hop):
        with pytest.raises(DataError, match="must be a positive integer"):
            data.sliding_windows(*self.toy(20), window=window, hop=hop)

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
               arrays(np.float64, n, elements=st.floats(0.0, 1e4)),
               arrays(np.float64, n, elements=st.floats(0.0, 1e4)),
               arrays(np.int8, n, elements=st.integers(0, 1)))),
           st.integers(1, 12), st.integers(1, 5),
           st.tuples(st.floats(-1e3, 1e4), st.floats(0.1, 1e3),
                     st.floats(0.0, 100.0), st.floats(1.0, 1e4)),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_batches_are_series_slices_and_normalizing_commutes(
            self, series3, window, hop, stats, pick):
        x, y, s = series3
        ws = data.sliding_windows(x, y, s, window, hop=hop)
        picks = st.lists(st.integers(0, max(len(ws) - 1, 0)),
                         max_size=8 if len(ws) else 0)
        taken = ws.take(np.array(pick.draw(picks), dtype=np.intp))
        rows = np.array(pick.draw(st.lists(st.integers(0, max(len(taken) - 1, 0)),
                                           max_size=8 if len(taken) else 0)),
                        dtype=np.intp)
        inputs, targets, states = taken.batch(rows)
        assert inputs.shape == targets.shape == states.shape == (rows.size, window)
        for row, start in enumerate(taken.starts[rows]):
            assert start % hop == 0 and start + window <= x.size
            np.testing.assert_array_equal(inputs[row], x[start:start + window])
            np.testing.assert_array_equal(targets[row], y[start:start + window])
            np.testing.assert_array_equal(states[row], s[start:start + window])
        mean, std, lo, width = stats
        meta = data.NormalizationMeta(mean, std, lo, lo + width)
        got = data.normalize_windows(taken, meta).batch(rows)
        want = (data.standardize_input(inputs, meta),
                data.normalize_target(targets, meta), states)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestNormalization:
    meta = data.NormalizationMeta(10.0, 2.0, 0.0, 50.0)

    def test_constant_input_maps_to_zero(self):
        out = data.standardize_input(np.full(5, 10.0), self.meta)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_round_trip_inverse(self):
        y = np.linspace(0.0, 50.0, 11)
        back = data.denormalize_target(data.normalize_target(y, self.meta),
                                       self.meta)
        np.testing.assert_allclose(back, y, atol=1e-12)

    def test_denormalize_clamps_at_zero(self):
        out = data.denormalize_target(np.array([-0.5]), self.meta)
        assert out[0] == 0.0

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_statistics_rejected(self, field, bad):
        stats = [10.0, 2.0, 0.0, 50.0]
        stats[field] = bad
        with pytest.raises(DataError, match="finite"):
            data.NormalizationMeta(*stats)

    def test_fit_matches_hand_computation(self):
        agg = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0, 6.0, 4.0])
        app = np.array([0.0, 1.0, 5.0, 2.0, 0.0, 9.0, 3.0, 1.0, 0.0, 4.0])
        meta = data.NormalizationMeta.fit(agg, app)
        assert meta.input_mean == pytest.approx(sum(agg) / 10.0)
        mean = sum(agg) / 10.0
        var = sum((v - mean) ** 2 for v in agg) / 10.0
        assert meta.input_std == pytest.approx(np.sqrt(var))
        assert (meta.target_min, meta.target_max) == (0.0, 9.0)

    def test_degenerate_stats_rejected(self):
        with pytest.raises(DataError):
            data.NormalizationMeta.fit(np.ones(5), np.arange(5.0))
        with pytest.raises(DataError):
            data.NormalizationMeta.fit(np.arange(5.0), np.ones(5))

    @given(st.floats(0.0, 1.0), st.floats(1.5, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_states_invariant_under_normalization_round_trip(self, lo, hi):
        # values exactly at the threshold are excluded: a 1-ulp round-trip
        # error flips the strict comparison there
        meta = data.NormalizationMeta(5.0, 1.0, lo, hi)
        y = np.array([0.0, 10.0, 14.9, 15.1, 42.0, 80.0])
        back = data.denormalize_target(data.normalize_target(y, meta), meta)
        np.testing.assert_array_equal(back > 15.0, y > 15.0)

    def test_normalize_windows_passes_states_through(self):
        ws = data.sliding_windows(np.arange(6.0), np.arange(6.0) * 5,
                                  (np.arange(6) % 2).astype(np.int8), window=3)
        normed = data.normalize_windows(ws, self.meta)
        np.testing.assert_array_equal(normed.states, ws.states)
        np.testing.assert_allclose(
            normed.inputs, (np.asarray(ws.inputs) - 10.0) / 2.0)


class TestSplit:
    @staticmethod
    def windows(n, window=4):
        x = np.arange(n + window - 1, dtype=float)
        return data.sliding_windows(x, x, np.zeros_like(x, dtype=np.int8),
                                    window=window)

    def test_default_fraction_85_15(self):
        train, val = data.split_train_val(self.windows(100), 0.15)
        assert (len(train), len(val)) == (85, 15)

    def test_zero_fraction_all_train(self):
        train, val = data.split_train_val(self.windows(100), 0.0)
        assert (len(train), len(val)) == (100, 0)

    def test_gap_removes_boundary_leakage(self):
        window = 6
        ws = self.windows(200, window=window)
        train, val = data.split_train_val(ws, 0.2, gap_samples=window - 1)
        assert len(val) == 40
        for vs in val.starts:
            for ts in train.starts:
                assert abs(int(vs) - int(ts)) >= window

    def test_split_is_contiguous_tail(self):
        train, val = data.split_train_val(self.windows(50), 0.2)
        assert val.starts[0] > train.starts[-1]
        np.testing.assert_array_equal(val.starts, np.arange(40, 50))

    def test_negative_gap_refused(self):
        # A gap of -5 would keep 4 of the 4 validation windows in training.
        with pytest.raises(DataError, match="gap_samples must be >= 0"):
            data.split_train_val(self.windows(17), 0.25, gap_samples=-5)


class TestWindowMemory:
    def test_training_window_chain_holds_no_window_values(self):
        """The window sets of `nilmnet train` at hop 1 cost O(samples), not
        O(samples x window): the chain peaks below 100 B per sample, where
        (N, L) float64 windows alone would be 1 KB per sample at L=128."""
        n, window = 50_000, 128
        rng = np.random.default_rng(41)
        x = rng.uniform(0.0, 3000.0, n)
        y = rng.uniform(0.0, 2000.0, n)
        s = (y > 1000.0).astype(np.int8)
        with traced_peak() as traced:
            ws = data.sliding_windows(x, y, s, window)
            train, val = data.split_train_val(ws, 0.15, gap_samples=window - 1)
            boundary = int(val.starts[0])
            meta = data.NormalizationMeta.fit(x[:boundary], y[:boundary])
            train = data.normalize_windows(train, meta)
            val = data.normalize_windows(val, meta)
            peak = traced()[1]
        assert len(train) + len(val) == (n - window + 1) - (window - 1)
        assert peak < 100 * n


class TestSynthHousehold:
    specs = [
        data.ApplianceSpec("heater", 64, on_threshold_w=50.0, min_on_s=60.0,
                           min_off_s=60.0, max_power_w=200.0),
        data.ApplianceSpec("fridge", 64, on_threshold_w=15.0, min_on_s=120.0,
                           min_off_s=120.0, max_power_w=60.0),
    ]

    def test_single_appliance_no_noise_aggregate_equals_appliance(self):
        agg, apps = data.synth_household(self.specs[:1], 6000, 0.0, seed=1)
        assert len(apps) == 1
        np.testing.assert_array_equal(agg.values, apps[0].values)

    def test_no_appliances_no_noise_is_zero(self):
        agg, apps = data.synth_household([], 600, 0.0, seed=2)
        assert apps == []
        np.testing.assert_array_equal(agg.values, np.zeros(200))

    def test_noise_residual_is_centered(self):
        # a near-always-on appliance keeps the sum far from 0 W, so the
        # clamp stays inactive and the residual is the raw Gaussian noise
        busy = data.ApplianceSpec("busy", 64, on_threshold_w=25.0,
                                  min_on_s=3000.0, min_off_s=3.0,
                                  max_power_w=400.0)
        agg, apps = data.synth_household([busy], 30000, 10.0, seed=3)
        residual = agg.values - apps[0].values
        n = len(agg)
        assert n == 10000
        assert abs(residual.mean()) < 3.0 * 10.0 / np.sqrt(n)

    def test_bit_reproducible_per_seed(self):
        a1, apps1 = data.synth_household(self.specs, 9000, 5.0, seed=9)
        a2, apps2 = data.synth_household(self.specs, 9000, 5.0, seed=9)
        np.testing.assert_array_equal(a1.values, a2.values)
        for s1, s2 in zip(apps1, apps2):
            np.testing.assert_array_equal(s1.values, s2.values)
        a3, _ = data.synth_household(self.specs, 9000, 5.0, seed=10)
        assert not np.array_equal(a1.values, a3.values)

    def test_levels_and_durations_within_bounds(self):
        _, apps = data.synth_household(self.specs[:1], 60000, 0.0, seed=4)
        values = apps[0].values
        on = values[values > 0]
        assert on.size > 0
        assert on.min() >= 2 * 50.0
        assert on.max() <= 200.0
        spec = self.specs[0]
        for start, end in data._runs(values > 0):
            duration = (end - start) * 3
            assert duration <= 3 * spec.min_on_s + 3

    def test_duration_scale_shrinks_activations(self):
        _, plain = data.synth_household(self.specs[:1], 60000, 0.0, seed=5)
        _, scaled = data.synth_household(self.specs[:1], 60000, 0.0, seed=5,
                                         duration_scale=0.5)
        mean_run = lambda vals: np.mean(
            [end - start for start, end in data._runs(vals > 0)])
        assert mean_run(scaled[0].values) < mean_run(plain[0].values)

    @pytest.mark.parametrize("scale", [-5.0, 0.0, float("nan"), float("inf")])
    def test_unusable_duration_scale_rejected(self, scale):
        with pytest.raises(DataError, match="duration_scale must be finite"):
            data.synth_household(self.specs, 600, duration_scale=scale)

    def test_aggregate_never_negative(self):
        agg, _ = data.synth_household(self.specs, 30000, 50.0, seed=6)
        assert agg.values.min() >= 0.0
