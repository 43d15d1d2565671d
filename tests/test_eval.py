"""Metrics and reconstruction against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilmnet import data, evaluation as ev
from nilmnet.errors import DataError, NumericalError
from nilmnet.model import ClassificationConfig, GatedAttentionModel, RegressionConfig

from oracles import confusion_direct, median_reconstruct_direct, sae_direct


class TestReconstructMedian:
    def test_slices_reconstruct_signal_exactly(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=60)
        window = 7
        windows = np.lib.stride_tricks.sliding_window_view(signal, window)
        starts = np.arange(windows.shape[0])
        out = ev.reconstruct_median(windows, starts, signal.size)
        np.testing.assert_array_equal(out, signal)

    def test_even_coverage_takes_mean_of_middles(self):
        windows = np.array([[1.0, 1.0], [5.0, 5.0]])
        out = ev.reconstruct_median(windows, np.array([0, 1]), 3)
        np.testing.assert_array_equal(out, [1.0, 3.0, 5.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        total = int(rng.integers(10, 40))
        window = int(rng.integers(2, 8))
        starts = np.arange(total - window + 1)
        windows = rng.normal(size=(starts.size, window))
        out = ev.reconstruct_median(windows, starts, total)
        want = median_reconstruct_direct(windows, starts, total)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_duplicate_starts_fall_back_correctly(self):
        rng = np.random.default_rng(3)
        windows = rng.normal(size=(4, 3))
        starts = np.array([0, 0, 1, 2])
        out = ev.reconstruct_median(windows, starts, 5)
        want = median_reconstruct_direct(windows, starts, 5)
        np.testing.assert_allclose(out, want, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("starts", [[0, 1, 2], [0, 0, 1, 2]])
    def test_non_finite_value_rejected(self, bad, starts):
        windows = np.ones((len(starts), 3))
        windows[-1, 1] = bad
        with pytest.raises(DataError, match="finite"):
            ev.reconstruct_median(windows, np.array(starts), 5)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_on_any_start_multiset(self, draw):
        total = draw.draw(st.integers(1, 40))
        window = draw.draw(st.integers(1, total))
        last = total - window
        # A tiling covers every position; extra starts repeat and overlap.
        tiling = sorted({*range(0, last + 1, window), last})
        extra = draw.draw(st.lists(st.integers(0, last), max_size=3 * total))
        starts = np.array(draw.draw(st.permutations(tiling + extra)))
        values = st.one_of(st.integers(-3, 3).map(float),
                           st.floats(-1e6, 1e6, allow_subnormal=False))
        windows = np.array(draw.draw(st.lists(
            st.lists(values, min_size=window, max_size=window),
            min_size=starts.size, max_size=starts.size)))
        out = ev.reconstruct_median(windows, starts, total)
        want = median_reconstruct_direct(windows, starts, total)
        np.testing.assert_array_equal(out, want)

    def test_uncovered_position_rejected(self):
        with pytest.raises(DataError, match="covered"):
            ev.reconstruct_median(np.ones((1, 2)), np.array([0]), 5)

    @given(st.integers(5, 80), st.integers(1, 12), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_on_consistent_windows(self, total, window, seed):
        if window > total:
            return
        signal = np.random.default_rng(seed).normal(size=total)
        windows = np.lib.stride_tricks.sliding_window_view(signal, window)
        out = ev.reconstruct_median(windows, np.arange(windows.shape[0]), total)
        np.testing.assert_array_equal(out, signal)


class TestMae:
    def test_zero_for_identical(self):
        y = np.random.default_rng(1).uniform(0, 100, size=50)
        assert ev.mae(y, y) == 0.0

    def test_hand_value(self):
        assert ev.mae([0.0, 10.0], [0.0, 0.0]) == 5.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        y, y_hat = rng.uniform(0, 50, 30), rng.uniform(0, 50, 30)
        want = sum(abs(a - b) for a, b in zip(y, y_hat)) / 30
        assert ev.mae(y, y_hat) == pytest.approx(want, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            ev.mae(np.zeros(3), np.zeros(4))


class TestSae:
    def test_zero_for_identical(self):
        y = np.random.default_rng(2).uniform(0, 100, size=24)
        assert ev.sae(y, y, 6) == 0.0

    def test_single_period_hand_value(self):
        y = np.full(10, 10.0)       # sums to 100
        y_hat = np.full(10, 4.0)    # sums to 40
        assert ev.sae(y, y_hat, 10) == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        y, y_hat = rng.uniform(0, 50, 37), rng.uniform(0, 50, 37)
        period = int(rng.integers(1, 12))
        assert ev.sae(y, y_hat, period) == pytest.approx(
            sae_direct(y, y_hat, period), abs=1e-12)

    @given(st.integers(1, 60), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_period_one_equals_mae(self, n, seed):
        rng = np.random.default_rng(seed)
        y, y_hat = rng.uniform(0, 50, n), rng.uniform(0, 50, n)
        assert ev.sae(y, y_hat, 1) == ev.mae(y, y_hat)

    def test_trailing_remainder_dropped(self):
        y = np.array([1.0, 1.0, 1.0, 99.0])
        y_hat = np.array([1.0, 1.0, 1.0, 0.0])
        assert ev.sae(y, y_hat, 3) == 0.0  # 4th sample is in the dropped tail

    def test_period_longer_than_series_rejected(self):
        with pytest.raises(DataError, match="period"):
            ev.sae(np.zeros(5), np.zeros(5), 6)


class TestClassificationScores:
    def test_perfect_prediction(self):
        y = np.array([0.0, 20.0, 30.0, 0.0])
        scores = ev.classification_scores(y, y.copy())
        assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)
        assert (scores.tp, scores.fp, scores.fn) == (2, 0, 0)

    def test_all_off_prediction_zero_conventions(self):
        y = np.array([0.0, 20.0, 30.0])
        scores = ev.classification_scores(y, np.zeros(3))
        assert (scores.tp, scores.fp) == (0, 0)
        assert scores.precision == 0.0
        assert scores.f1 == 0.0

    def test_nothing_truly_on(self):
        scores = ev.classification_scores(np.zeros(4), np.full(4, 50.0))
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(0, 40, 60)
        y_hat = rng.uniform(0, 40, 60)
        scores = ev.classification_scores(y, y_hat, 15.0)
        tp, fp, fn = confusion_direct(y, y_hat, 15.0)
        assert (scores.tp, scores.fp, scores.fn) == (tp, fp, fn)
        if tp + fp:
            assert scores.precision == pytest.approx(tp / (tp + fp))
        if tp + fn:
            assert scores.recall == pytest.approx(tp / (tp + fn))

    @given(st.integers(1, 80), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_confusion_counts_partition_true_on_samples(self, n, seed):
        rng = np.random.default_rng(seed)
        y = rng.uniform(0, 40, n)
        y_hat = rng.uniform(0, 40, n)
        scores = ev.classification_scores(y, y_hat, 15.0)
        assert scores.tp + scores.fn == int(np.sum(y > 15.0))


class TestDisaggregate:
    @staticmethod
    def zero_model(window=16):
        reg = RegressionConfig(window=window, filters=2, kernel=4, hidden=3)
        cls_cfg = ClassificationConfig(window=window, filters=(3, 3, 4, 5, 5, 5),
                                       kernels=(10, 8, 6, 5, 5, 5), dense_units=16)
        model = GatedAttentionModel.zeros(reg, cls_cfg, appliance="toy")
        model.norm_meta = data.NormalizationMeta(10.0, 2.0, 0.0, 100.0)
        return model

    def test_zero_model_constant_output(self):
        model = self.zero_model()
        aggregate = data.PowerSeries("agg", 3, 0, np.zeros(40))
        prediction, attention = ev.disaggregate(model, aggregate)
        assert attention is None
        # power=0, gate=0.5 -> normalized 0 -> denormalized to target_min=0
        np.testing.assert_allclose(prediction.values, 0.0, atol=1e-7)
        assert prediction.period_s == 3 and prediction.t0 == 0

    @pytest.mark.parametrize("extra", [0, 1, 32])
    def test_output_length_equals_input_length(self, extra):
        model = self.zero_model()
        n = 16 + extra
        aggregate = data.PowerSeries("agg", 3, 0,
                                     np.abs(np.random.default_rng(4).normal(size=n)))
        prediction, _ = ev.disaggregate(model, aggregate)
        assert len(prediction) == n

    def test_too_short_series_rejected(self):
        model = self.zero_model()
        with pytest.raises(DataError, match="shorter"):
            ev.disaggregate(model, data.PowerSeries("agg", 3, 0, np.zeros(15)))

    def test_missing_norm_meta_rejected(self):
        model = self.zero_model()
        model.norm_meta = None
        with pytest.raises(DataError, match="normalization"):
            ev.disaggregate(model, data.PowerSeries("agg", 3, 0, np.zeros(40)))

    def test_attention_export_shape_and_sums(self):
        reg = RegressionConfig(window=16, filters=2, kernel=4, hidden=3)
        cls_cfg = ClassificationConfig(window=16, filters=(3, 3, 4, 5, 5, 5),
                                       kernels=(10, 8, 6, 5, 5, 5), dense_units=16)
        model = GatedAttentionModel.init(reg, cls_cfg, appliance="toy", seed=5)
        model.norm_meta = data.NormalizationMeta(10.0, 2.0, 0.0, 100.0)
        aggregate = data.PowerSeries(
            "agg", 3, 0, np.abs(np.random.default_rng(5).normal(size=48)) * 20)
        prediction, attention = ev.disaggregate(model, aggregate,
                                                export_attention=True)
        alphas, starts = attention
        assert alphas.shape == (48 - 16 + 1, 16)
        np.testing.assert_array_equal(starts, np.arange(33))
        np.testing.assert_allclose(alphas.sum(axis=1), 1.0, atol=1e-5)
        assert prediction.values.min() >= 0.0

    def test_keeps_no_backward_caches(self):
        reg = RegressionConfig(window=16, filters=2, kernel=4, hidden=3)
        cls_cfg = ClassificationConfig(window=16, filters=(3, 3, 4, 5, 5, 5),
                                       kernels=(10, 8, 6, 5, 5, 5), dense_units=16)
        model = GatedAttentionModel.init(reg, cls_cfg, appliance="toy", seed=5)
        model.norm_meta = data.NormalizationMeta(10.0, 2.0, 0.0, 100.0)
        aggregate = data.PowerSeries(
            "agg", 3, 0, np.abs(np.random.default_rng(5).normal(size=48)) * 20)
        ev.disaggregate(model, aggregate)
        convs = model.regression.convs + model.classification.convs
        assert all(conv._cache is None for conv in convs)
        assert model.regression.bilstm._cache is None
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward(np.zeros((1, 16), dtype=np.float32))

    def test_non_finite_model_output_raises(self):
        reg = RegressionConfig(window=16, filters=2, kernel=4, hidden=3)
        cls_cfg = ClassificationConfig(window=16, filters=(3, 3, 4, 5, 5, 5),
                                       kernels=(10, 8, 6, 5, 5, 5), dense_units=16)
        model = GatedAttentionModel.init(reg, cls_cfg, appliance="toy", seed=5)
        model.norm_meta = data.NormalizationMeta(10.0, 2.0, 0.0, 100.0)
        model.regression.fc2.params.weights["W"][3, 0] = np.nan
        aggregate = data.PowerSeries(
            "agg", 3, 0, np.abs(np.random.default_rng(5).normal(size=48)) * 20)
        with pytest.raises(NumericalError, match="non-finite"):
            ev.disaggregate(model, aggregate)

    def test_output_never_negative(self):
        model = self.zero_model()
        model.norm_meta = data.NormalizationMeta(10.0, 2.0, 5.0, 100.0)
        aggregate = data.PowerSeries("agg", 3, 0, np.zeros(40))
        prediction, _ = ev.disaggregate(model, aggregate)
        assert prediction.values.min() >= 0.0


class TestReportCsv:
    def test_round_trip_and_schema(self, tmp_path):
        rng = np.random.default_rng(6)
        y = rng.uniform(0, 60, 2500)
        y_hat = rng.uniform(0, 60, 2500)
        report = ev.evaluate("kettle", y, y_hat, threshold_w=15.0,
                             period_len_k=1200)
        assert report.sae_dropped_samples == 2500 % 1200
        path = tmp_path / "results.csv"
        ev.write_report_csv(path, [report])
        rows = ev.read_report_csv(path)
        assert len(rows) == 1
        row = rows[0]
        assert row["appliance"] == "kettle"
        assert row["mae_w"] == pytest.approx(ev.mae(y, y_hat))
        assert row["sae_w"] == pytest.approx(ev.sae(y, y_hat, 1200))
        scores = ev.classification_scores(y, y_hat, 15.0)
        assert row["f1"] == pytest.approx(scores.f1)
        header = path.read_text().splitlines()[0]
        assert header == "appliance,mae_w,sae_w,precision,recall,f1,threshold_w,period_len_k"
