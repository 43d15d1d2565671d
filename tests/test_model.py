"""Contracts of the assembled gated attention model."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from nilmnet import nn
from nilmnet.errors import ShapeError
from nilmnet.model import (
    ClassificationConfig,
    GatedAttentionModel,
    RegressionConfig,
    joint_loss,
    parameter_count,
)

from conftest import assert_arena_views, traced_peak
from oracles import finite_difference, max_rel_err

TOY_REG = RegressionConfig(window=16, filters=2, kernel=4, hidden=3)
TOY_CLS = ClassificationConfig(filters=(3, 3, 4, 5, 5, 5),
                               kernels=(10, 8, 6, 5, 5, 5), dense_units=16)


def toy_model(seed=0, dtype=np.float32):
    return GatedAttentionModel.init(TOY_REG, TOY_CLS, "toy", seed=seed, dtype=dtype)


def toy_builds(seed):
    """Builders of a random and of a zero toy model, the two ways to build one."""
    return (lambda: toy_model(seed),
            lambda: GatedAttentionModel.zeros(TOY_REG, TOY_CLS, "toy"))


def all_layers(model):
    reg, cls_net = model.regression, model.classification
    return (reg.convs + [reg.bilstm, reg.attention, reg.fc1, reg.fc2]
            + cls_net.convs + [cls_net.fc1, cls_net.fc2])


class TestZeroInitialized:
    def test_regression_output_zero_attention_uniform(self):
        model = GatedAttentionModel.zeros(TOY_REG, TOY_CLS)
        window = np.random.default_rng(0).normal(size=(1, 16)).astype(np.float32)
        result = model.forward(window)
        np.testing.assert_array_equal(result.power,
                                      np.zeros((1, 16), dtype=np.float32))
        np.testing.assert_allclose(result.attention, 1.0 / 16.0, rtol=1e-6)

    def test_classification_output_half(self):
        model = GatedAttentionModel.zeros(TOY_REG, TOY_CLS)
        window = np.random.default_rng(1).normal(size=(1, 16)).astype(np.float32)
        state = model.forward(window).state
        np.testing.assert_array_equal(state, np.full((1, 16), 0.5, dtype=np.float32))

    def test_gated_output_is_half_power(self):
        model = GatedAttentionModel.zeros(TOY_REG, TOY_CLS)
        window = np.random.default_rng(2).normal(size=(1, 16)).astype(np.float32)
        result = model.forward(window)
        np.testing.assert_array_equal(result.output, 0.5 * result.power)


class TestForward:
    def test_attention_sums_to_one_random_models(self):
        for seed in range(30):
            model = toy_model(seed)
            window = np.random.default_rng(seed + 1000).normal(size=(1, 16))
            alpha = model.forward(window).attention
            assert abs(alpha.sum() - 1.0) <= 1e-6
            assert alpha.shape == (1, 16)

    def test_state_strictly_inside_unit_interval(self):
        model = toy_model(3)
        windows = np.random.default_rng(4).normal(size=(8, 16))
        state = model.forward(windows).state
        assert np.all(state > 0.0) and np.all(state < 1.0)

    def test_gate_is_elementwise_product_bit_exact(self):
        model = toy_model(5)
        windows = np.random.default_rng(6).normal(size=(4, 16))
        result = model.forward(windows)
        np.testing.assert_array_equal(result.output, result.power * result.state)

    def test_gate_zero_power_gives_zero_output(self):
        model = toy_model(7)
        window = np.random.default_rng(8).normal(size=(1, 16))
        result = model.forward(window)
        np.testing.assert_array_equal(result.output * 0.0,
                                      result.power * 0.0 * result.state)
        zeros = np.zeros((1, 16))
        np.testing.assert_array_equal(zeros * result.state, zeros)

    def test_gate_monotone_in_state_for_positive_power(self):
        power = np.abs(np.random.default_rng(9).normal(size=50)) + 0.1
        states = np.sort(np.random.default_rng(10).uniform(0, 1, size=(5, 50)), axis=0)
        outputs = power * states
        assert np.all(np.diff(outputs, axis=0) > 0.0)

    def test_matches_composition_of_verified_kernels(self):
        model = toy_model(11, dtype=np.float64)
        windows = np.random.default_rng(12).normal(size=(2, 16))
        result = model.forward(windows)
        power, alpha, state = result.power, result.attention, result.state

        # independent wiring of the same layer objects
        feats = windows[:, None, :]
        for conv in model.regression.convs:
            feats = conv.forward(feats)
        hidden = model.regression.bilstm.forward(feats.transpose(0, 2, 1))
        context, alpha_ref = model.regression.attention.forward(hidden)
        power_ref = model.regression.fc2.forward(
            model.regression.fc1.forward(context))
        np.testing.assert_array_equal(power, power_ref)
        np.testing.assert_array_equal(alpha, alpha_ref)

        feats = windows[:, None, :]
        for conv in model.classification.convs:
            feats = conv.forward(feats)
        flat = feats.reshape(2, -1)
        state_ref = model.classification.fc2.forward(
            model.classification.fc1.forward(flat))
        np.testing.assert_array_equal(state, state_ref)

    def test_uncached_forward_is_bit_identical_and_keeps_nothing(self):
        model = toy_model(14)
        windows = np.random.default_rng(15).normal(size=(4, 16))
        cached = model.forward(windows)
        uncached = model.forward(windows, cache=False)
        for field in ("output", "power", "state", "attention"):
            np.testing.assert_array_equal(getattr(uncached, field),
                                          getattr(cached, field))
        assert all(layer._cache is None for layer in all_layers(model))
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward(np.zeros((4, 16), dtype=np.float32))

    def test_backward_after_batch_loss_raises(self):
        model = toy_model(16)
        windows = np.random.default_rng(17).normal(size=(4, 16))
        targets = np.zeros((4, 16))
        model.train_step_grads(windows, targets, targets)
        model.batch_loss(windows, targets, targets)
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward(np.zeros((4, 16), dtype=np.float32))

    def test_wrong_window_length_raises(self):
        model = toy_model(13)
        with pytest.raises(ShapeError):
            model.forward(np.zeros(17))

    def test_single_window_without_batch_axis_raises(self):
        model = toy_model(13)
        with pytest.raises(ShapeError, match=r"\(B, 16\)"):
            model.forward(np.zeros(16))


class TestJointLoss:
    def test_zero_targets_zero_output_half_state_is_ln2(self):
        model = GatedAttentionModel.zeros(TOY_REG, TOY_CLS)
        window = np.zeros((1, 16), dtype=np.float32)
        result = model.forward(window)
        loss, _, _ = joint_loss(result.output, result.state,
                                np.zeros((1, 16)), np.zeros((1, 16)))
        assert abs(loss - np.log(2.0)) < 1e-6

    def test_perfect_prediction_leaves_only_bce_floor(self):
        target = np.array([1.0, 0.0, 2.0])
        state = np.array([1.0 - 1e-9, 1e-9, 1.0 - 1e-9])
        loss, _, _ = joint_loss(target, state, target, np.array([1.0, 0.0, 1.0]))
        assert 0.0 <= loss < 1e-6

    def test_non_binary_state_target_rejected(self):
        with pytest.raises(ValueError):
            joint_loss(np.zeros(4), np.full(4, 0.5), np.zeros(4), np.full(4, 0.4))

    def test_full_model_gradients_match_finite_differences(self):
        reg = RegressionConfig(window=8, filters=2, kernel=3, hidden=2)
        cls_cfg = ClassificationConfig(filters=(2, 2, 2, 2, 2, 2),
                                       kernels=(10, 8, 6, 5, 5, 5), dense_units=8)
        model = GatedAttentionModel.init(reg, cls_cfg, seed=21, dtype=np.float64)
        rng = np.random.default_rng(22)
        nn.randomize_biases(model.all_params(), rng)
        windows = rng.normal(size=(2, 8))
        target_power = rng.normal(size=(2, 8))
        target_state = rng.integers(0, 2, size=(2, 8)).astype(np.float64)

        def loss_fn():
            return model.batch_loss(windows, target_power, target_state)

        # NaN everywhere: a gradient that the backward does not write fails.
        model.grads.fill(np.nan)
        model.train_step_grads(windows, target_power, target_state)
        for p in model.all_params():
            for key, w in p.weights.items():
                fd = finite_difference(loss_fn, w, step=1e-5)
                err = max_rel_err(p.grads[key], fd)
                assert err < 1e-4, f"{p.name}.{key}: rel err {err:.2e}"


class TestParameterCounts:
    def test_classification_count_at_window_128(self):
        # hand count: convs 330+7230+7240+10050+12550+12550,
        # fc1 1024*(50*128)+1024, fc2 128*1024+128
        model = GatedAttentionModel.zeros(
            RegressionConfig(window=128, filters=2, kernel=4, hidden=2),
            ClassificationConfig())
        count = sum(p.n_params for p in model.all_params() if p.name.startswith("cls."))
        assert count == 6_735_774

    def test_count_depends_only_on_window(self):
        counts = set()
        for seed in range(3):
            model = GatedAttentionModel.init(
                RegressionConfig(window=32, filters=2, kernel=4, hidden=2),
                ClassificationConfig(), seed=seed)
            counts.add(sum(p.n_params for p in model.all_params() if p.name.startswith("cls.")))
        assert len(counts) == 1


class TestParameterArena:
    """Each test runs on a random and on a zero model."""

    def test_every_tensor_is_a_view_in_all_params_order(self):
        for build in toy_builds(5):
            model = build()
            assert_arena_views(model.all_params(), model.weights, model.grads)
            assert model.weights.size == model.n_params

    def test_optimizer_copies_nothing_and_restore_is_bit_exact(self):
        for build in toy_builds(6):
            model = build()
            weights, grads = model.weights, model.grads
            opt = nn.SgdNesterov(model.weights, model.grads, base_lr=0.05,
                                 momentum=0.9, decay=1e-6)
            assert opt.weights is weights and opt.grads is grads
            saved = model.snapshot_weights()
            assert not np.shares_memory(saved, weights)
            rng = np.random.default_rng(7)
            for _ in range(2):
                model.train_step_grads(rng.normal(size=(4, 16)),
                                       rng.normal(size=(4, 16)),
                                       rng.integers(0, 2, size=(4, 16)))
                opt.step()
            assert weights.tobytes() != saved.tobytes()
            model.restore_weights(saved)
            assert weights.tobytes() == saved.tobytes()
            first = model.all_params()[0].weights["W"]
            np.testing.assert_array_equal(first.reshape(-1), saved[:first.size])

    def test_snapshot_into_out_refreshes_that_buffer(self):
        for build in toy_builds(6):
            model = build()
            buffer = model.snapshot_weights()
            model.all_params()[0].weights["W"][...] += 1.0
            assert buffer.tobytes() != model.snapshot_weights().tobytes()
            assert model.snapshot_weights(out=buffer) is buffer
            assert buffer.tobytes() == model.snapshot_weights().tobytes()
            with pytest.raises(ShapeError):
                model.snapshot_weights(out=buffer[:-1])

    @pytest.mark.parametrize("misshape", [
        lambda s: s[:1], lambda s: s[0], lambda s: s[None], lambda s: s[:-1],
        lambda s: np.append(s, 0),
    ], ids=["one-entry", "scalar", "2-D", "short", "long"])
    def test_restore_rejects_a_snapshot_of_another_shape(self, misshape):
        # The first three would broadcast over every weight.
        for build in toy_builds(6):
            model = build()
            saved = model.snapshot_weights()
            with pytest.raises(ShapeError):
                model.restore_weights(misshape(saved + 1))
            assert model.weights.tobytes() == saved.tobytes()

    def test_rebinding_a_tensor_raises_and_keeps_the_arena_view(self):
        for build in toy_builds(8):
            model = build()
            p = model.all_params()[0]
            for tensors in (p.weights, p.grads):
                with pytest.raises(TypeError):
                    tensors["W"] = np.ones(tensors["W"].shape, model.dtype)
            assert p.weights["W"].base is model.weights
            assert p.grads["W"].base is model.grads
            assert [k for k, _ in p.weights.items()] == list(p.grads.keys()) == ["W", "b"]

    @pytest.mark.parametrize("drift", [-1, 1])
    def test_build_fails_when_parameter_count_drifts_from_the_layers(
            self, monkeypatch, drift):
        monkeypatch.setattr("nilmnet.model.parameter_count",
                            lambda reg, cls_cfg: parameter_count(reg, cls_cfg) + drift)
        for build in toy_builds(8):
            with pytest.raises(ShapeError):
                build()

    def test_dropped_model_is_freed_without_the_cycle_collector(self):
        for build in toy_builds(9):
            model = build()
            group = weakref.ref(model.all_params()[0])
            weights = weakref.ref(model.weights)
            gc.disable()
            try:
                del model
                assert group() is None and weights() is None
            finally:
                gc.enable()


class TestBuildMemory:
    """A build allocates the weight and grad arenas and little besides."""

    # The toy benchmark shape, with the paper's classification branch:
    # cls.fc1 holds 3.3 M of its 3.4 M parameters.
    REG = RegressionConfig(window=64, filters=8, kernel=4, hidden=32)

    @pytest.mark.parametrize("build,bound", [
        (lambda reg: GatedAttentionModel.init(reg, seed=3), 2.25),
        (GatedAttentionModel.zeros, 2.1),
    ], ids=["init", "zeros"])
    def test_peak_is_about_two_arenas(self, build, bound):
        with traced_peak() as traced:
            model = build(self.REG)
            peak = traced()[1]
        assert peak < bound * model.weights.nbytes


class TestTrainStepMemory:
    """A train step hands each forward's activations to one backward."""

    REG = RegressionConfig(window=32, filters=4, kernel=4, hidden=16)
    # A wide classification layer keeps numpy's few kB of cached small
    # blocks under 1% of the model.
    CLS = ClassificationConfig(filters=(3, 3, 4, 5, 5, 5),
                               kernels=(10, 8, 6, 5, 5, 5), dense_units=2048)
    BATCH = 16

    def batch(self):
        rng = np.random.default_rng(30)
        shape = (self.BATCH, self.REG.window)
        return (rng.normal(size=shape), rng.normal(size=shape),
                (rng.random(shape) > 0.5).astype(float))

    def test_step_leaves_no_activations_behind(self):
        windows, power, state = self.batch()
        with traced_peak() as traced:
            model = GatedAttentionModel.init(self.REG, self.CLS, seed=31)
            model.batch_loss(windows, power, state)     # fills lru caches
            before = traced()[0]
            model.train_step_grads(windows, power, state)
            after = traced()[0]
        assert all(layer._cache is None for layer in all_layers(model))
        assert model._gate_cache is None
        assert abs(after - before) < 0.01 * before

    def backward_peaks(self, monkeypatch, layer_cls, seed):
        """One train step; the traced peak above entry of each layer_cls
        backward in it, keyed by layer."""
        windows, power, state = self.batch()
        model = GatedAttentionModel.init(self.REG, self.CLS, seed=seed)
        backward = layer_cls.backward
        above_entry = {}

        def traced_backward(layer, d_out):
            entry = traced()[0]
            tracemalloc.reset_peak()
            result = backward(layer, d_out)
            above_entry[layer] = traced()[1] - entry
            return result

        monkeypatch.setattr(layer_cls, "backward", traced_backward)
        with traced_peak() as traced:
            model.train_step_grads(windows, power, state)
        return model, above_entry

    def test_bilstm_backward_needs_no_second_gate_buffer(self, monkeypatch):
        model, above_entry = self.backward_peaks(monkeypatch, nn.BiLSTM, seed=32)
        # The (2, T, B, 4H) float32 gate buffer.
        gates_nbytes = 2 * self.REG.window * self.BATCH * 4 * self.REG.hidden * 4
        assert list(above_entry) == [model.regression.bilstm]
        assert above_entry[model.regression.bilstm] < gates_nbytes

    def test_dense_backward_writes_its_weight_gradient_in_place(self, monkeypatch):
        model, above_entry = self.backward_peaks(monkeypatch, nn.Dense, seed=33)
        fc1 = model.classification.fc1
        assert len(above_entry) == 4
        # A (2048, 160) gradient computed into a temporary and then added
        # would allocate all of its bytes.
        assert above_entry[fc1] < fc1.params.grads["W"].nbytes


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a, b = toy_model(42), toy_model(42)
        for pa, pb in zip(a.all_params(), b.all_params()):
            for key in pa.weights:
                np.testing.assert_array_equal(pa.weights[key], pb.weights[key])

    def test_different_seed_different_weights(self):
        a, b = toy_model(1), toy_model(2)
        same = all(
            np.array_equal(pa.weights[key], pb.weights[key])
            for pa, pb in zip(a.all_params(), b.all_params())
            for key in pa.weights
        )
        assert not same

    def test_identical_update_sequence_is_bit_identical(self):
        rng = np.random.default_rng(30)
        windows = rng.normal(size=(3, 4, 16)).astype(np.float32)
        tp = rng.normal(size=(3, 4, 16)).astype(np.float32)
        ts = rng.integers(0, 2, size=(3, 4, 16)).astype(np.float32)

        def run():
            model = toy_model(77)
            opt = nn.SgdNesterov(model.weights, model.grads, base_lr=0.01,
                                 momentum=0.9, decay=1e-6)
            for i in range(3):
                model.train_step_grads(windows[i], tp[i], ts[i])
                opt.step()
            return model

        first, second = run(), run()
        for pa, pb in zip(first.all_params(), second.all_params()):
            for key in pa.weights:
                np.testing.assert_array_equal(pa.weights[key], pb.weights[key])
