"""Data pipeline: CSV round-trips, alignment, labeling, windows, synthesis."""

import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilmnet import data
from nilmnet.errors import DataError

from oracles import load_channel_csv_direct


def series(values, period=3, t0=0, name="s"):
    return data.PowerSeries(name, period, t0, np.asarray(values, dtype=float))


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

    def test_aggregate_never_negative(self):
        agg, _ = data.synth_household(self.specs, 30000, 50.0, seed=6)
        assert agg.values.min() >= 0.0
