"""Training loop behavior: convergence, early stopping, determinism, grid search."""

import gc
import weakref

import numpy as np
import pytest

from nilmnet import checkpoint, data, nn, training
from nilmnet.errors import DataError, NumericalError
from nilmnet.model import ClassificationConfig, GatedAttentionModel, RegressionConfig
from nilmnet.training import TrainConfig, grid_search, train

from conftest import traced_peak

TOY_CLS = ClassificationConfig(filters=(3, 3, 4, 5, 5, 5),
                               kernels=(10, 8, 6, 5, 5, 5), dense_units=16)


def toy_model(hidden=4, filters=2, seed=0):
    reg = RegressionConfig(window=16, filters=filters, kernel=4, hidden=hidden)
    return GatedAttentionModel.init(reg, TOY_CLS, "toy", seed=seed)


def toy_windows(n_samples=220, seed=5, window=16):
    """Single-appliance task: the appliance is the aggregate (no noise)."""
    spec = data.ApplianceSpec("heater", window, on_threshold_w=40.0,
                              min_on_s=24.0, min_off_s=24.0, max_power_w=200.0)
    agg, apps = data.synth_household([spec], n_samples * 3, 0.0, seed=seed)
    states = data.make_state_sequence(apps[0], spec)
    ws = data.sliding_windows(agg.values, apps[0].values, states, window)
    meta = data.NormalizationMeta.fit(agg.values, apps[0].values)
    normed = data.normalize_windows(ws, meta)
    return data.split_train_val(normed, 0.15, gap_samples=window - 1)


class TestTrain:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        train_ws, val_ws = toy_windows()
        model = toy_model()
        before = model.snapshot_weights()
        cfg = TrainConfig(max_epochs=3, base_lr=0.0, seed=1)
        train(model, train_ws, val_ws, cfg)
        after = model.snapshot_weights()
        assert after.size == model.n_params
        assert after.tobytes() == before.tobytes()

    def test_empty_training_set_rejected(self):
        train_ws, val_ws = toy_windows()
        empty = train_ws.take(np.arange(0))
        with pytest.raises(DataError, match="empty"):
            train(toy_model(), empty, val_ws, TrainConfig(max_epochs=1))

    def test_constant_zero_window_loss_non_increasing(self):
        zeros = np.zeros(16)
        ws = data.WindowSet(zeros, zeros.copy(), zeros.copy(), 16,
                            np.zeros(1, dtype=np.int64))
        model = toy_model(seed=2)
        cfg = TrainConfig(max_epochs=25, base_lr=0.001, momentum=0.0,
                          patience=25, seed=2)
        _, record = train(model, ws, ws, cfg)
        losses = record.train_losses
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert all(loss > 0.0 for loss in losses)

    def test_learns_single_appliance_task(self):
        train_ws, val_ws = toy_windows(n_samples=240)
        model = toy_model(hidden=8, seed=3)
        cfg = TrainConfig(max_epochs=30, patience=30, seed=3,
                          base_lr=0.05, batch_size=16)
        _, record = train(model, train_ws, val_ws, cfg)
        assert record.train_losses[-1] < 0.10 * record.train_losses[0]

    def test_best_epoch_parameters_are_restored(self):
        train_ws, val_ws = toy_windows()
        model = toy_model(seed=4)
        cfg = TrainConfig(max_epochs=12, patience=3, seed=4)
        model, record = train(model, train_ws, val_ws, cfg)
        assert record.best_epoch >= 1
        assert record.val_losses[record.best_epoch - 1] == record.best_val_loss
        # the returned parameters reproduce the best recorded validation loss
        total = 0.0
        for lo in range(0, len(val_ws), 64):
            hi = min(lo + 64, len(val_ws))
            total += model.batch_loss(val_ws.inputs[lo:hi],
                                      val_ws.targets[lo:hi],
                                      val_ws.states[lo:hi]) * (hi - lo)
        assert total / len(val_ws) == pytest.approx(record.best_val_loss, rel=1e-5)

    def test_one_epoch_takes_no_weight_snapshot(self, monkeypatch):
        """A snapshot is for a later epoch that could overwrite the best
        weights, and a 1-epoch run has none."""
        calls = []

        def counted(name):
            original = getattr(GatedAttentionModel, name)

            def wrapper(model, *args, **kwargs):
                calls.append(name)
                return original(model, *args, **kwargs)
            return wrapper

        for name in ("snapshot_weights", "restore_weights"):
            monkeypatch.setattr(GatedAttentionModel, name, counted(name))
        train_ws, val_ws = toy_windows()
        _, record = train(toy_model(seed=12), train_ws, val_ws,
                          TrainConfig(max_epochs=1, seed=12))
        assert record.best_epoch == 1
        assert calls == []

    def test_early_stopping_reports_reason(self):
        train_ws, val_ws = toy_windows()
        cfg = TrainConfig(max_epochs=60, patience=2, seed=5)
        _, record = train(toy_model(seed=5), train_ws, val_ws, cfg)
        assert record.stop_reason in ("early_stop", "max_epochs")
        if record.stop_reason == "early_stop":
            assert len(record.train_losses) < 60

    def test_reproducible_loss_sequences(self):
        def run():
            train_ws, val_ws = toy_windows()
            cfg = TrainConfig(max_epochs=4, patience=4, seed=11)
            _, record = train(toy_model(seed=11), train_ws, val_ws, cfg)
            return record
        a, b = run(), run()
        assert a.train_losses == b.train_losses
        assert a.val_losses == b.val_losses
        assert a.best_epoch == b.best_epoch

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_numerical_error(self):
        train_ws, val_ws = toy_windows()
        cfg = TrainConfig(max_epochs=20, base_lr=1e18, patience=20, seed=6)
        with pytest.raises(NumericalError):
            train(toy_model(seed=6), train_ws, val_ws, cfg)

    def test_progress_lines_machine_parsable(self, capsys):
        train_ws, val_ws = toy_windows()
        cfg = TrainConfig(max_epochs=2, patience=2, seed=7)
        train(toy_model(seed=7), train_ws, val_ws, cfg)
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("epoch=")]
        assert len(lines) == 2
        for i, line in enumerate(lines, start=1):
            fields = dict(part.split("=") for part in line.split())
            assert int(fields["epoch"]) == i
            float(fields["train_loss"])
            float(fields["val_loss"])
            float(fields["lr"])


class TestGradVector:
    """train makes the model's grad vector if there is none and releases
    what it made; a vector that existed before the call stays."""

    # A wide classification layer keeps what a run leaves in Python's and
    # numpy's caches, about 130 kB, near 4% of the model; a grad vector
    # left behind would add 100%.
    WIDE_CLS = ClassificationConfig(filters=(3, 3, 4, 5, 5, 5),
                                    kernels=(10, 8, 6, 5, 5, 5), dense_units=8192)

    def test_trained_model_holds_about_its_weights(self):
        train_ws, val_ws = toy_windows()
        reg = RegressionConfig(window=16, filters=2, kernel=4, hidden=4)
        with traced_peak() as traced:
            model, _ = train(GatedAttentionModel.init(reg, self.WIDE_CLS, seed=13),
                             train_ws, val_ws, TrainConfig(max_epochs=2, seed=13))
            held = traced()[0]
        assert held < 1.1 * model.weights.nbytes

    def test_grid_search_best_model_holds_about_its_weights(self):
        train_ws, val_ws = toy_windows()
        with traced_peak() as traced:
            result = grid_search(train_ws, val_ws, TrainConfig(max_epochs=1, seed=14),
                                 filters=[1, 2], kernel=[4], hidden=[2],
                                 cls_cfg=self.WIDE_CLS)
            held = traced()[0]
        assert held < 1.1 * result.best_model.weights.nbytes

    def test_optimizer_built_before_train_steps_the_models_gradients_after(self):
        train_ws, val_ws = toy_windows()
        made, kept = toy_model(seed=15), toy_model(seed=15)
        opt = nn.SgdNesterov(kept.weights, kept.grads, base_lr=0.01, momentum=0.9,
                             decay=0.0)
        for model in (made, kept):
            train(model, train_ws, val_ws, TrainConfig(max_epochs=1, seed=15))
        assert made._grad_vector.vector is None
        assert kept.grads is opt.grads
        kept.train_step_grads(*train_ws.batch(np.arange(8)))
        made.train_step_grads(*train_ws.batch(np.arange(8)))
        assert opt.grads.tobytes() == made.grads.tobytes()
        before = kept.weights.copy()
        opt.step()
        assert kept.weights.tobytes() != before.tobytes()

    def test_released_model_trains_on_to_the_bytes_of_a_kept_one(self, tmp_path):
        train_ws, val_ws = toy_windows()
        cfg = TrainConfig(max_epochs=2, patience=2, seed=16)
        released, kept = toy_model(seed=16), toy_model(seed=16)
        kept.grads
        for model in (released, kept):
            for _ in range(2):
                train(model, train_ws, val_ws, cfg)
        assert released._grad_vector.vector is None
        assert kept._grad_vector.vector is not None
        for name, model in (("released", released), ("kept", kept)):
            checkpoint.save_checkpoint(tmp_path / f"{name}.ckpt", model)
        assert ((tmp_path / "released.ckpt").read_bytes()
                == (tmp_path / "kept.ckpt").read_bytes())


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("base_lr", float("nan")), ("base_lr", float("inf")), ("base_lr", -0.01),
        ("momentum", 5.0), ("momentum", 1.0), ("momentum", -0.1),
        ("momentum", float("nan")), ("decay", -1.0), ("decay", float("nan")),
        ("decay", float("inf"))])
    def test_unusable_optimizer_setting_rejected(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    def test_zero_rate_momentum_and_decay_accepted(self):
        cfg = TrainConfig(base_lr=0.0, momentum=0.0, decay=0.0)
        assert (cfg.base_lr, cfg.momentum, cfg.decay) == (0.0, 0.0, 0.0)


class TestGridSearch:
    def test_single_point_grid_returns_it(self):
        train_ws, val_ws = toy_windows()
        cfg = TrainConfig(max_epochs=2, patience=2, seed=8)
        result = grid_search(train_ws, val_ws, cfg, filters=[2], kernel=[4],
                             hidden=[3], cls_cfg=TOY_CLS)
        assert result.best_config == RegressionConfig(16, 2, 4, 3)
        assert len(result.leaderboard) == 1

    def test_duplicate_point_tie_breaks_to_first(self):
        train_ws, val_ws = toy_windows()
        cfg = TrainConfig(max_epochs=2, patience=2, seed=9)
        result = grid_search(train_ws, val_ws, cfg, filters=[2, 2], kernel=[4],
                             hidden=[3], cls_cfg=TOY_CLS)
        losses = [entry[1] for entry in result.leaderboard]
        assert losses[0] == losses[1]
        assert result.best_config == result.leaderboard[0][0]

    def test_richer_config_beats_degenerate_one(self):
        train_ws, val_ws = toy_windows(n_samples=240)
        cfg = TrainConfig(max_epochs=8, patience=8, seed=10,
                          base_lr=0.05, batch_size=16)
        result = grid_search(train_ws, val_ws, cfg, filters=[1, 4], kernel=[4],
                             hidden=[1, 8], cls_cfg=TOY_CLS)
        # leaderboard points: (1,4,1), (1,4,8), (4,4,1), (4,4,8)
        assert result.best_config.filters == 4
        assert result.best_config.hidden == 8

    def test_only_the_best_model_outlives_its_grid_point(self, monkeypatch):
        train_ws, val_ws = toy_windows()
        earlier = []
        alive_at_start = []

        def tracking_train(model, *args):
            gc.collect()
            alive_at_start.append(sum(ref() is not None for ref in earlier))
            earlier.append(weakref.ref(model))
            return train(model, *args)

        monkeypatch.setattr(training, "train", tracking_train)
        cfg = TrainConfig(max_epochs=1, patience=1, seed=8)
        result = grid_search(train_ws, val_ws, cfg, filters=[1, 2], kernel=[4],
                             hidden=[1, 2], cls_cfg=TOY_CLS)
        assert alive_at_start == [0, 1, 1, 1]
        assert len(result.leaderboard) == 4
        assert any(ref() is result.best_model for ref in earlier)

    def test_empty_grid_rejected(self):
        train_ws, val_ws = toy_windows()
        with pytest.raises(DataError, match="grid"):
            grid_search(train_ws, val_ws, TrainConfig(), filters=[], kernel=[4],
                        hidden=[3], cls_cfg=TOY_CLS)
