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
from nilmnet.training import TrainConfig, train

from conftest import assert_arena_views, traced_peak
from oracles import finite_difference, max_rel_err
from test_train import toy_windows

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

    def test_backward_after_uncached_forward_names_the_model(self):
        model = toy_model(18)
        model.forward(np.random.default_rng(19).normal(size=(4, 16)), cache=False)
        with pytest.raises(RuntimeError, match="^model: backward called before forward"):
            model.backward(np.zeros((4, 16), dtype=np.float32))

    def test_backward_after_batch_loss_raises(self):
        model = toy_model(16)
        windows = np.random.default_rng(17).normal(size=(4, 16))
        targets = np.zeros((4, 16))
        model.train_step_grads(windows, targets, targets)
        model.batch_loss(windows, targets, targets)
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward(np.zeros((4, 16), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(1, 16), (16,), (4, 15)])
    @pytest.mark.parametrize("arg", ["d_output", "d_state_extra"])
    def test_backward_refuses_a_gradient_of_another_shape(self, shape, arg):
        # (1, 16) and (16,) would broadcast over the batch of 4.
        model = toy_model(20)
        model.forward(np.random.default_rng(21).normal(size=(4, 16)))
        grads = {"d_output": np.ones((4, 16)), "d_state_extra": np.ones((4, 16))}
        grads[arg] = np.ones(shape)
        with pytest.raises(ShapeError, match="^model: "):
            model.backward(**grads)

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


def v1_layout(reg, cls_cfg):
    """(name, ((key, shape), ...)) of every tensor group in the v1 order,
    written out from the architecture rather than from the model code."""
    f, k, h, window = reg.filters, reg.kernel, reg.hidden, reg.window
    layout = [(f"reg.conv{i + 1}", (("W", (f, 1 if i == 0 else f, k)), ("b", (f,))))
              for i in range(4)]
    layout += [(f"reg.bilstm.{d}", (("W", (4 * h, f)), ("U", (4 * h, h)), ("b", (4 * h,))))
               for d in ("fw", "bw")]
    layout += [("reg.attn", (("W", (h, 2 * h)), ("b", (h,)), ("v", (h,)))),
               ("reg.fc1", (("W", (h, 2 * h)), ("b", (h,)))),
               ("reg.fc2", (("W", (window, h)), ("b", (window,))))]
    prev = 1
    for i, (filters, kernel) in enumerate(zip(cls_cfg.filters, cls_cfg.kernels)):
        layout.append((f"cls.conv{i + 1}", (("W", (filters, prev, kernel)), ("b", (filters,)))))
        prev = filters
    units = cls_cfg.dense_units
    layout += [("cls.fc1", (("W", (units, prev * window)), ("b", (units,)))),
               ("cls.fc2", (("W", (window, units)), ("b", (window,))))]
    return layout


class TestLayout:
    """Group names, key order and shapes follow the v1 tensor order, and the
    counted size is the built one, over seeded small configs."""

    # (classification filters, kernels, regression kernel or None to draw)
    TABLES = {"empty": ((), (), None), "one-layer": ((3,), (5,), None),
              "unequal": ((2, 5, 3), (7, 4, 6), None),
              "kernel-1": ((4, 2), (1, 1), 1)}

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("table", TABLES.values(), ids=list(TABLES))
    def test_groups_follow_the_v1_layout(self, table, seed):
        filters, kernels, reg_kernel = table
        rng = np.random.default_rng(seed)
        reg = RegressionConfig(window=int(rng.integers(2, 12)),
                               filters=int(rng.integers(1, 5)),
                               kernel=reg_kernel or int(rng.integers(1, 6)),
                               hidden=int(rng.integers(1, 5)))
        cls_cfg = ClassificationConfig(filters, kernels, int(rng.integers(1, 6)))
        model = GatedAttentionModel.init(reg, cls_cfg, seed=seed)
        groups = model.all_params()
        assert [(p.name, tuple((key, w.shape) for key, w in p.weights.items()))
                for p in groups] == v1_layout(reg, cls_cfg)
        assert (parameter_count(reg, cls_cfg) == model.n_params
                == sum(p.n_params for p in groups))
        windows, power = rng.normal(size=(2, 3, reg.window))
        loss = model.train_step_grads(windows, power, power > 0)
        assert np.isfinite(loss) and np.isfinite(model.grads).all()


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
            weights = model.weights
            opt = nn.SgdNesterov(model.weights, base_lr=0.05, momentum=0.9,
                                 decay=1e-6)
            assert opt.weights is weights
            saved = model.snapshot_weights()
            assert not np.shares_memory(saved, weights)
            rng = np.random.default_rng(7)
            with model.attached(opt):
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


def toy_batches(seed, count=3, batch=4):
    """count (windows, power, state) float32 mini-batches of toy windows."""
    rng = np.random.default_rng(seed)
    shape = (count, batch, TOY_REG.window)
    windows, power = rng.normal(size=(2, *shape)).astype(np.float32)
    state = rng.integers(0, 2, size=shape).astype(np.float32)
    return list(zip(windows, power, state))


class TestAttachedOptimizer:
    """An attached optimizer gets each layer's gradient as that layer's
    backward returns, and the model makes no grad vector."""

    @staticmethod
    def optimizer(model):
        return nn.SgdNesterov(model.weights, base_lr=0.05, momentum=0.9, decay=1e-3)

    def test_updates_to_the_bytes_of_a_stepped_grad_vector(self):
        """The attached updates equal the model's whole grad vector applied
        as one segment, step by step."""
        kept, attached = toy_model(41), toy_model(41)
        stepped, fed = self.optimizer(kept), self.optimizer(attached)
        with attached.attached(fed):
            for batch in toy_batches(41):
                kept.train_step_grads(*batch)
                stepped.apply(slice(0, kept.n_params), kept.grads)
                stepped.step()
                attached.train_step_grads(*batch)
                fed.step()
                assert attached.weights.tobytes() == kept.weights.tobytes()
        assert fed.velocity.tobytes() == stepped.velocity.tobytes()
        assert attached._grad_vector.vector is None
        assert attached._grad_vector.optimizer is None

    def test_train_inside_an_attached_block_leaves_the_optimizer_attached(self):
        """train attaches its own optimizer for the call and then the one it
        replaced again, so the caller's next step updates the weights as
        the same step of a twin does, and makes no grad vector."""
        train_ws, val_ws = toy_windows()
        batch = toy_batches(44, count=1)[0]
        model, twin = toy_model(44), toy_model(44)
        opt, twin_opt = self.optimizer(model), self.optimizer(twin)
        with model.attached(opt):
            train(model, train_ws, val_ws, TrainConfig(max_epochs=1, seed=44))
            twin.weights[...] = model.weights
            model.train_step_grads(*batch)
            opt.step()
        with twin.attached(twin_opt):
            twin.train_step_grads(*batch)
            twin_opt.step()
        assert model._grad_vector.vector is None
        assert model._grad_vector.optimizer is None
        assert model.weights.tobytes() == twin.weights.tobytes()

    def test_non_finite_loss_hands_over_no_gradient(self):
        model = toy_model(42)
        opt = self.optimizer(model)
        first, (windows, power, state) = toy_batches(42, count=2)
        windows[1, 5] = np.nan
        with model.attached(opt):
            model.train_step_grads(*first)
            opt.step()
            before = model.weights.tobytes(), opt.velocity.tobytes()
            loss = model.train_step_grads(windows, power, state)
        assert not np.isfinite(loss)
        assert (model.weights.tobytes(), opt.velocity.tobytes()) == before
        # Its caches are dropped, as a backward would drop them.
        assert model._cache is None
        assert all(layer._cache is None for layer in all_layers(model))

    def test_first_conv_of_each_branch_computes_no_input_gradient(self, monkeypatch):
        """Nothing reads the gradient of the windows, so the backward of
        each branch's first conv skips it."""
        returned = {}
        backward = nn.Conv1D.backward

        def watched(layer, *args, **kwargs):
            returned[layer.params.name] = result = backward(layer, *args, **kwargs)
            return result

        monkeypatch.setattr(nn.Conv1D, "backward", watched)
        toy_model(43).train_step_grads(*toy_batches(43, count=1)[0])
        assert len(returned) == 10
        assert {name for name, d_x in returned.items() if d_x is None} == {
            "reg.conv1", "cls.conv1"}


class TestBuildMemory:
    """A build allocates the weight arena and little besides: the grad
    vector is made by its first reader, not by the build."""

    # The toy benchmark shape, with the paper's classification branch:
    # cls.fc1 holds 3.3 M of its 3.4 M parameters.
    REG = RegressionConfig(window=64, filters=8, kernel=4, hidden=32)

    @pytest.mark.parametrize("build,bound", [
        (lambda reg: GatedAttentionModel.init(reg, seed=3), 1.15),
        (GatedAttentionModel.zeros, 1.05),
    ], ids=["init", "zeros"])
    def test_peak_is_about_one_arena(self, build, bound):
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
            model.grads                   # makes the vector the backward writes
            before = traced()[0]
            model.train_step_grads(windows, power, state)
            after = traced()[0]
        assert all(layer._cache is None for layer in all_layers(model))
        assert model._cache is None
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

    def test_classification_caches_are_freed_before_the_bilstm_backward(
            self, monkeypatch):
        """The classification backward runs first, so its caches are gone
        before the regression backward allocates its largest arrays."""
        windows, power, state = self.batch()
        model = GatedAttentionModel.init(self.REG, self.CLS, seed=35)
        cls_net = model.classification
        cls_layers = cls_net.convs + [cls_net.fc1, cls_net.fc2]
        backward = nn.BiLSTM.backward
        seen = []

        def watched_backward(layer, d_out):
            seen.append([cls_layer._cache for cls_layer in cls_layers])
            return backward(layer, d_out)

        monkeypatch.setattr(nn.BiLSTM, "backward", watched_backward)
        model.train_step_grads(windows, power, state)
        assert len(seen) == 1 and all(cache is None for cache in seen[0])

    def test_paper_step_peak_is_what_its_largest_arrays_need(self):
        """Traced peak above entry of a train step at the paper's kettle
        shape (L=128 F=32 K=8 H=512) and B=32, the grad vector made first.
        The arrays alive at the regression backward's peak, in MiB: the
        (2, T, B, 4H) gates 64, the (B, T, 2H) output 16 and its gradient
        16, the attention's (B, T, H) projection 8, the (2, T/BLOCK, B, H)
        cell checkpoints 2, the (2, T*B, F) stacked inputs 1 and the four
        (B, F, L) conv outputs 2: 109 MiB. 111.2 MiB was measured. The
        (2, T, B, H) cell trajectory would add 16, and classification
        caches kept through the regression backward 4."""
        reg = RegressionConfig(window=128, filters=32, kernel=8, hidden=512)
        b_sz, steps, hs, f = 32, reg.window, reg.hidden, reg.filters
        model = GatedAttentionModel.init(reg, seed=36)
        rng = np.random.default_rng(36)
        windows, power = rng.normal(size=(2, b_sz, steps))
        state = (rng.random((b_sz, steps)) > 0.5).astype(float)
        model.batch_loss(windows, power, state)     # fills lru caches
        model.grads                   # makes the vector the backward writes
        needed = 4 * (2 * steps * b_sz * 4 * hs                 # gates
                      + 2 * b_sz * steps * 2 * hs               # output, gradient
                      + b_sz * steps * hs                       # projection
                      + 2 * -(-steps // nn.BLOCK) * b_sz * hs   # checkpoints
                      + 2 * steps * b_sz * f                    # stacked inputs
                      + 4 * b_sz * f * steps)                   # conv outputs
        with traced_peak() as traced:
            model.train_step_grads(windows, power, state)
            peak = traced()[1]
        assert peak < 1.05 * needed, f"{peak / 2**20:.1f} MiB"

    def test_dense_backward_writes_its_weight_gradient_in_place(self, monkeypatch):
        model, above_entry = self.backward_peaks(monkeypatch, nn.Dense, seed=33)
        fc1 = model.classification.fc1
        assert len(above_entry) == 4
        # A (2048, 160) gradient computed into a temporary and then added
        # would allocate all of its bytes.
        assert above_entry[fc1] < fc1.params.grads["W"].nbytes


class TestForwardCacheMemory:
    """A cached forward holds less than the sum of what its backward reads:
    each layer caches its input and output, which the layers beside it
    hold anyway, and rebuilds what it can instead of caching it."""

    # The toy benchmark shape, with the paper's classification branch.
    REG = RegressionConfig(window=64, filters=8, kernel=4, hidden=32)
    BATCH = 32

    @staticmethod
    def backward_reads(model, b_sz):
        """Bytes of the arrays every layer's backward reads, summed over the
        layers and the gate, so an array two layers read counts twice."""
        window = model.window
        entries = 2 * b_sz * window                 # the gate's power and state
        for layer in all_layers(model):
            if isinstance(layer, nn.Conv1D):        # input and output
                entries += b_sz * window * (layer.in_channels + layer.filters)
            elif isinstance(layer, nn.Dense):       # input and output
                entries += b_sz * (layer.in_features + layer.units)
            elif isinstance(layer, nn.BiLSTM):      # inputs, gates, cells, output
                d, hs = layer.input_size, layer.hidden_size
                entries += b_sz * window * (2 * d + 8 * hs + 2 * hs + 2 * hs)
            else:                                   # states, tanh, weights
                entries += b_sz * window * (layer.state_size + layer.units + 1)
        return entries * model.dtype.itemsize

    def test_held_bytes_are_below_what_the_backward_reads(self):
        model = GatedAttentionModel.init(self.REG, seed=34)
        windows = np.random.default_rng(34).normal(
            size=(self.BATCH, self.REG.window)).astype(np.float32)
        model.forward(windows, cache=False)         # fills lru caches
        with traced_peak() as traced:
            model.forward(windows)
            held = traced()[0]
        # 6.0 MB held against 9.0 MB read here; caching Conv1D's
        # (B, C_in*K, L) im2col columns would add 10 MB.
        assert held < self.backward_reads(model, self.BATCH)


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
            opt = nn.SgdNesterov(model.weights, base_lr=0.01, momentum=0.9, decay=1e-6)
            with model.attached(opt):
                for i in range(3):
                    model.train_step_grads(windows[i], tp[i], ts[i])
                    opt.step()
            return model

        first, second = run(), run()
        for pa, pb in zip(first.all_params(), second.all_params()):
            for key in pa.weights:
                np.testing.assert_array_equal(pa.weights[key], pb.weights[key])
