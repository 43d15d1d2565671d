"""Analytic gradients vs. central finite differences, plus the optimizer."""

import numpy as np
import pytest

from nilmnet import nn

from oracles import finite_difference, max_rel_err
from test_nn_layers import CONV_CASES

GRAD_TOL = 1e-5
FD_STEP = 1e-5
N_SEEDS = 20


def project_loss(out, weights):
    """Fixed random projection turns any output tensor into a scalar."""
    return float(np.sum(out * weights))


def check_params_and_input(layer, x, forward_fn, seeds_upstream_rng, tol=GRAD_TOL):
    """FD-check parameter grads and the input grad for one layer."""
    probe = seeds_upstream_rng.normal(size=forward_fn(x).shape)

    def loss():
        return project_loss(forward_fn(x), probe)

    loss()  # populate cache
    layer_params = ([layer.fw.params, layer.bw.params] if isinstance(layer, nn.BiLSTM)
                    else [layer.params])
    # The backward must write every gradient entry, so NaN left over fails.
    for p in layer_params:
        for g in p.grads.values():
            g.fill(np.nan)
    d_in = layer.backward(probe)
    for p in layer_params:
        for key, w in p.weights.items():
            fd = finite_difference(loss, w, FD_STEP)
            err = max_rel_err(p.grads[key], fd)
            assert err < tol, f"{p.name}.{key}: rel err {err:.2e}"
    fd_in = finite_difference(loss, x, FD_STEP)
    err = max_rel_err(d_in, fd_in)
    assert err < tol, f"input grad rel err {err:.2e}"


class TestConv1DBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        layer = nn.Conv1D("c", 2, 3, 3, "relu", rng=rng, dtype=np.float64)
        out = layer.forward(rng.normal(size=(2, 2, 6)))
        d_in = layer.backward(np.zeros_like(out))
        assert np.all(d_in == 0.0)
        assert all(np.all(g == 0.0) for g in layer.params.grads.values())

    def test_identity_kernel_passes_upstream_through(self):
        layer = nn.Conv1D("c", 1, 1, 1, "linear", dtype=np.float64)
        layer.params.weights["W"][0, 0, 0] = 1.0
        x = np.random.default_rng(1).normal(size=(1, 1, 5))
        layer.forward(x)
        upstream = np.random.default_rng(2).normal(size=(1, 1, 5))
        np.testing.assert_array_equal(layer.backward(upstream), upstream)

    def test_upstream_shape_mismatch(self):
        rng = np.random.default_rng(3)
        layer = nn.Conv1D("c", 1, 2, 3, rng=rng, dtype=np.float64)
        layer.forward(rng.normal(size=(1, 1, 5)))
        with pytest.raises(nn.ShapeError):
            layer.backward(np.zeros((1, 2, 6)))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        kernel = [1, 2, 3, 4][seed % 4]
        activation = ["linear", "relu"][seed % 2]
        layer = nn.Conv1D("c", 2, 2, kernel, activation, rng=rng, dtype=np.float64)
        layer.params.weights["b"][:] = rng.normal(size=2)
        x = rng.normal(size=(2, 2, 5))
        check_params_and_input(layer, x, layer.forward, rng)

    @pytest.mark.parametrize("batch, c_in, kernel, length", CONV_CASES)
    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_finite_differences_batched_and_long_kernels(self, batch, c_in, kernel,
                                                         length, activation):
        rng = np.random.default_rng(kernel * length)
        layer = nn.Conv1D("c", c_in, 3, kernel, activation, rng=rng, dtype=np.float64)
        layer.params.weights["b"][:] = rng.normal(size=3)
        x = rng.normal(size=(batch, c_in, length))
        check_params_and_input(layer, x, layer.forward, rng)


class TestDenseBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(4)
        layer = nn.Dense("d", 3, 2, "relu", rng=rng, dtype=np.float64)
        out = layer.forward(rng.normal(size=(2, 3)))
        assert np.all(layer.backward(np.zeros_like(out)) == 0.0)
        assert all(np.all(g == 0.0) for g in layer.params.grads.values())

    def test_identity_weight_linear(self):
        layer = nn.Dense("d", 3, 3, "linear", dtype=np.float64)
        layer.params.weights["W"][:] = np.eye(3)
        layer.forward(np.random.default_rng(5).normal(size=(1, 3)))
        upstream = np.random.default_rng(6).normal(size=(1, 3))
        np.testing.assert_array_equal(layer.backward(upstream), upstream)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    @pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid", "tanh"])
    def test_finite_differences(self, seed, activation):
        rng = np.random.default_rng(seed)
        layer = nn.Dense("d", 4, 3, activation, rng=rng, dtype=np.float64)
        layer.params.weights["b"][:] = rng.normal(size=3) * 0.1
        x = rng.normal(size=(2, 4))
        check_params_and_input(layer, x, layer.forward, rng)


class TestLSTMCellBackward:
    """step_backward writes its cell's gradients, as every backward does."""

    @staticmethod
    def cell_and_step(seed):
        """A float64 cell, one step's cache, and upstream (d_h, d_c)."""
        rng = np.random.default_rng(seed)
        cell = nn.LSTMCell("l", 2, 3, rng=rng, dtype=np.float64)
        nn.randomize_biases([cell.params], rng)
        x, h_prev, c_prev = rng.normal(size=(4, 2)), *rng.normal(size=(2, 4, 3))
        _, _, cache = cell.step(x, h_prev, c_prev)
        return cell, cache, *rng.normal(size=(2, 4, 3))

    def test_writes_every_gradient_entry(self):
        stale, cache, d_h, d_c = self.cell_and_step(40)
        for g in stale.params.grads.values():
            g.fill(np.nan)
        stale.step_backward(d_h, d_c, cache)
        fresh, cache, d_h, d_c = self.cell_and_step(40)
        fresh.step_backward(d_h, d_c, cache)
        for key, g in stale.params.grads.items():
            assert np.all(np.isfinite(g))
            np.testing.assert_array_equal(g, fresh.params.grads[key])

    def test_two_backwards_from_one_cache_write_the_same_gradients(self):
        cell, cache, d_h, d_c = self.cell_and_step(41)
        first = cell.step_backward(d_h, d_c, cache)
        once = {key: g.copy() for key, g in cell.params.grads.items()}
        second = cell.step_backward(d_h, d_c, cache)
        for key, g in cell.params.grads.items():
            np.testing.assert_array_equal(g, once[key])
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestBiLSTMBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(7)
        layer = nn.BiLSTM("b", 2, 3, rng=rng, dtype=np.float64)
        out = layer.forward(rng.normal(size=(1, 3, 2)))
        d_in = layer.backward(np.zeros_like(out))
        assert np.all(d_in == 0.0)
        for p in [layer.fw.params, layer.bw.params]:
            assert all(np.all(g == 0.0) for g in p.grads.values())

    def test_single_step_equals_two_cell_gradients(self):
        rng = np.random.default_rng(8)
        layer = nn.BiLSTM("b", 2, 2, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 1, 2))
        layer.forward(x)
        upstream = rng.normal(size=(1, 1, 4))
        d_in = layer.backward(upstream)

        zeros = np.zeros((1, 2))
        fw = nn.LSTMCell("f", 2, 2, dtype=np.float64)
        bw = nn.LSTMCell("w", 2, 2, dtype=np.float64)
        for key in ("W", "U", "b"):
            fw.params.weights[key][...] = layer.fw.params.weights[key]
            bw.params.weights[key][...] = layer.bw.params.weights[key]
        _, _, cache_f = fw.step(x[:, 0, :], zeros, zeros)
        _, _, cache_b = bw.step(x[:, 0, :], zeros, zeros)
        dx_f, _, _ = fw.step_backward(upstream[:, 0, :2], np.zeros((1, 2)), cache_f)
        dx_b, _, _ = bw.step_backward(upstream[:, 0, 2:], np.zeros((1, 2)), cache_b)
        np.testing.assert_allclose(d_in[:, 0, :], dx_f + dx_b, atol=1e-14)
        for key in ("W", "U", "b"):
            np.testing.assert_allclose(layer.fw.params.grads[key],
                                       fw.params.grads[key], atol=1e-14)

    def test_matches_unrolled_cells_at_nontrivial_shape(self):
        """Output, input grad and every weight grad equal step-by-step cells."""
        self.check_against_unrolled_cells(3, 7, 4, 5)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_matches_unrolled_cells_at_one_and_two_steps(self, steps):
        """T=1, where the first step is also the last and no step reads a
        previous h (an empty dU slab), and T=2, the shortest recurrence."""
        layer = self.check_against_unrolled_cells(3, steps, 4, 5)
        if steps == 1:
            for cell in (layer.fw, layer.bw):
                assert np.all(cell.params.grads["U"] == 0.0)

    @staticmethod
    def check_against_unrolled_cells(b_sz, steps, d, hs):
        rng = np.random.default_rng(12)
        layer = nn.BiLSTM("b", d, hs, rng=rng, dtype=np.float64)
        nn.randomize_biases([layer.fw.params, layer.bw.params], rng)
        x = rng.normal(size=(b_sz, steps, d))
        upstream = rng.normal(size=(b_sz, steps, 2 * hs))
        out = layer.forward(x)
        # NaN left in any gradient entry fails, the empty T=1 dU slab too.
        for p in [layer.fw.params, layer.bw.params]:
            for g in p.grads.values():
                g.fill(np.nan)
        d_x = layer.backward(upstream)

        cells = [nn.LSTMCell(n, d, hs, dtype=np.float64) for n in ("f", "w")]
        for cell, fused in zip(cells, (layer.fw, layer.bw)):
            for key in ("W", "U", "b"):
                cell.params.weights[key][...] = fused.params.weights[key]
        want_out = np.zeros_like(out)
        want_dx = np.zeros_like(x)
        # The cell writes each step's gradients; the sequence's are their sum.
        want_grads = [{key: np.zeros_like(g) for key, g in cell.params.grads.items()}
                      for cell in cells]
        orders = (range(steps), range(steps - 1, -1, -1))
        for k, (cell, order) in enumerate(zip(cells, orders)):
            cols = slice(k * hs, (k + 1) * hs)
            h = c = np.zeros((b_sz, hs))
            caches = []
            for t in order:
                h, c, cache = cell.step(x[:, t, :], h, c)
                caches.append(cache)
                want_out[:, t, cols] = h
            d_h = d_c = np.zeros((b_sz, hs))
            for t, cache in zip(reversed(order), reversed(caches)):
                dx_t, d_h, d_c = cell.step_backward(
                    d_h + upstream[:, t, cols], d_c, cache)
                want_dx[:, t, :] += dx_t
                for key, g in cell.params.grads.items():
                    want_grads[k][key] += g

        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_x, want_dx, rtol=0, atol=1e-12)
        for want, fused in zip(want_grads, (layer.fw, layer.bw)):
            for key in ("W", "U", "b"):
                np.testing.assert_allclose(fused.params.grads[key], want[key],
                                           rtol=0, atol=1e-12)
        return layer

    def test_cache_keeps_block_checkpoints_not_the_cell_trajectory(self):
        """A cached forward keeps the stacked inputs, the gates, the output
        and the cell state entering each block of BLOCK steps, the state the
        unrolled cell holds there, and no (2, T, B, H) array."""
        b_sz, steps, d, hs = 3, 2 * nn.BLOCK + 1, 5, 6
        rng = np.random.default_rng(14)
        layer = nn.BiLSTM("b", d, hs, rng=rng, dtype=np.float64)
        nn.randomize_biases([layer.fw.params, layer.bw.params], rng)
        x = rng.normal(size=(b_sz, steps, d))
        out = layer.forward(x)
        xs, gates, checkpoints, cached_out = layer._cache
        assert cached_out is out
        assert xs.shape == (2, steps * b_sz, d)
        assert gates.shape == (2, steps, b_sz, 4 * hs)
        assert checkpoints.shape == (2, 3, b_sz, hs)
        assert all(a.shape != (2, steps, b_sz, hs) for a in layer._cache)
        orders = (range(steps), range(steps - 1, -1, -1))
        for k, (cell, order) in enumerate(zip((layer.fw, layer.bw), orders)):
            h = c = np.zeros((b_sz, hs))
            for s, t in enumerate(order):
                if s % nn.BLOCK == 0:
                    np.testing.assert_allclose(checkpoints[k, s // nn.BLOCK], c,
                                               rtol=0, atol=1e-12)
                h, c, _ = cell.step(x[:, t, :], h, c)

    # (B, T, d, H): one window with T below and one past BLOCK, a last block
    # of one step, a longer sequence, and the paper's kettle shape.
    @pytest.mark.parametrize("shape", [
        (1, nn.BLOCK - 1, 8, 32), (1, nn.BLOCK + 1, 8, 32), (3, 2 * nn.BLOCK + 1, 5, 6),
        (3, 40, 5, 6), (2, 128, 32, 512)])
    def test_backward_bytes_do_not_depend_on_the_checkpoint_interval(
            self, shape, monkeypatch):
        """The backward rebuilds each block's cells from its checkpoint with
        the forward's own ops. With BLOCK past T one block rebuilds the
        whole trajectory, which a cached forward once kept."""
        b_sz, steps, d, hs = shape
        rng = np.random.default_rng(15)
        layer = nn.BiLSTM("b", d, hs, rng=rng)
        nn.randomize_biases([layer.fw.params, layer.bw.params], rng)
        x = rng.normal(size=(b_sz, steps, d)).astype(np.float32)
        upstream = rng.normal(size=(b_sz, steps, 2 * hs)).astype(np.float32)
        results = {}
        for block in (1, 3, nn.BLOCK, steps + 1):
            monkeypatch.setattr(nn, "BLOCK", block)
            layer.forward(x)
            d_x = layer.backward(upstream)
            results[block] = [d_x.tobytes()] + [
                g.tobytes() for cell in (layer.fw, layer.bw) for g in cell.params.grads.values()]
        first, *rest = results.values()
        for block, got in zip(list(results)[1:], rest):
            assert got == first, f"BLOCK={block}"

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.BiLSTM("b", 1, 2, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 3, 1))
        check_params_and_input(layer, x, layer.forward, rng, tol=1e-5)


class TestAttentionBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(9)
        layer = nn.Attention("a", 4, 3, rng=rng, dtype=np.float64)
        context, _ = layer.forward(rng.normal(size=(1, 4, 4)))
        d_hidden = layer.backward(np.zeros_like(context))
        assert np.all(d_hidden == 0.0)
        assert all(np.all(g == 0.0) for g in layer.params.grads.values())

    def test_single_step_passes_upstream_to_state(self):
        rng = np.random.default_rng(10)
        layer = nn.Attention("a", 4, 3, rng=rng, dtype=np.float64)
        layer.forward(rng.normal(size=(1, 1, 4)))
        upstream = rng.normal(size=(1, 4))
        d_hidden = layer.backward(upstream)
        np.testing.assert_allclose(d_hidden[0, 0], upstream[0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.Attention("a", 4, 3, rng=rng, dtype=np.float64)
        layer.params.weights["b"][:] = rng.normal(size=3) * 0.1
        x = rng.normal(size=(2, 3, 4))

        def forward_context(arr):
            return layer.forward(arr)[0]

        check_params_and_input(layer, x, forward_context, rng, tol=1e-6)


# Each entry builds a layer named "layer" and an input for it.
HAND_OFF_LAYERS = {
    "conv1d": lambda rng: (nn.Conv1D("layer", 2, 3, 3, rng=rng, dtype=np.float64),
                           rng.normal(size=(2, 2, 6))),
    "dense": lambda rng: (nn.Dense("layer", 3, 2, "relu", rng=rng, dtype=np.float64),
                          rng.normal(size=(2, 3))),
    "bilstm": lambda rng: (nn.BiLSTM("layer", 2, 3, rng=rng, dtype=np.float64),
                           rng.normal(size=(2, 4, 2))),
    "attention": lambda rng: (nn.Attention("layer", 4, 3, rng=rng, dtype=np.float64),
                              rng.normal(size=(2, 3, 4))),
}


class TestCacheHandOff:
    """A forward's cache goes to exactly one backward, which drops it."""

    @staticmethod
    def forward(layer, x, cache=True):
        out = layer.forward(x, cache=cache)
        return out[0] if isinstance(layer, nn.Attention) else out

    @pytest.mark.parametrize("kind", HAND_OFF_LAYERS)
    def test_backward_after_uncached_forward_raises(self, kind):
        layer, x = HAND_OFF_LAYERS[kind](np.random.default_rng(20))
        out = self.forward(layer, x, cache=False)
        with pytest.raises(RuntimeError, match="layer: backward called before forward"):
            layer.backward(np.ones_like(out))

    @pytest.mark.parametrize("kind", HAND_OFF_LAYERS)
    def test_second_backward_raises_and_adds_nothing(self, kind):
        layer, x = HAND_OFF_LAYERS[kind](np.random.default_rng(21))
        out = self.forward(layer, x)
        layer.backward(np.ones_like(out))
        assert layer._cache is None
        params = [layer.fw.params, layer.bw.params] if kind == "bilstm" else [layer.params]
        once = [g.copy() for p in params for g in p.grads.values()]
        with pytest.raises(RuntimeError, match="layer: backward called before forward"):
            layer.backward(np.ones_like(out))
        for before, g in zip(once, (g for p in params for g in p.grads.values())):
            np.testing.assert_array_equal(g, before)


class TestUpstreamShape:
    @pytest.mark.parametrize("kind", HAND_OFF_LAYERS)
    def test_upstream_of_another_shape_names_the_layer(self, kind):
        layer, x = HAND_OFF_LAYERS[kind](np.random.default_rng(22))
        out = TestCacheHandOff.forward(layer, x)
        with pytest.raises(nn.ShapeError, match="layer: "):
            layer.backward(np.ones(out.shape[:-1] + (out.shape[-1] + 1,)))


class TestLossGradients:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_mse_grad_fd(self, seed):
        rng = np.random.default_rng(seed)
        pred, target = rng.normal(size=5), rng.normal(size=5)
        _, grad = nn.mse_loss(pred, target)
        fd = finite_difference(lambda: nn.mse_loss(pred, target)[0], pred)
        assert max_rel_err(grad, fd) < 1e-6

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_bce_grad_fd(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(0.05, 0.95, size=5)
        target = rng.integers(0, 2, size=5).astype(float)
        _, grad = nn.bce_loss(pred, target)
        fd = finite_difference(lambda: nn.bce_loss(pred, target)[0], pred)
        assert max_rel_err(grad, fd) < 1e-6


class TestSgdNesterov:
    @staticmethod
    def step(opt, g):
        """One step on the whole flat gradient g, as one segment."""
        opt.apply(slice(0, g.size), g)
        opt.step()

    def test_zero_momentum_is_plain_gradient_descent(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=6).astype(np.float32)
        g = rng.normal(size=6).astype(np.float32)
        weights = w.copy()
        opt = nn.SgdNesterov(weights, base_lr=0.05, momentum=0.0, decay=0.0)
        self.step(opt, g.copy())
        expected = w - np.float32(0.05) * g
        np.testing.assert_array_equal(weights, expected)

    def test_zero_gradient_leaves_params_unchanged(self):
        weights = np.ones(4)
        opt = nn.SgdNesterov(weights, base_lr=0.1, momentum=0.9, decay=1e-6)
        for _ in range(5):
            self.step(opt, np.zeros(4))
        np.testing.assert_array_equal(weights, np.ones(4))

    def test_two_step_hand_computed_sequence(self):
        # theta0=1, eta=0.1, mu=0.9, g1=0.5, g2=0.2:
        #   v1 = -0.05,  theta1 = 1 + 0.9*(-0.05) - 0.05  = 0.905
        #   v2 = -0.065, theta2 = 0.905 + 0.9*(-0.065) - 0.02 = 0.8265
        weights = np.array([1.0])
        opt = nn.SgdNesterov(weights, base_lr=0.1, momentum=0.9, decay=0.0)
        self.step(opt, np.array([0.5]))
        assert abs(weights[0] - 0.905) < 1e-12
        self.step(opt, np.array([0.2]))
        assert abs(weights[0] - 0.8265) < 1e-12

    def test_step_leaves_grads_bit_identical(self):
        grads = np.random.default_rng(13).normal(size=nn.STEP_BLOCK + 5)
        before = grads.tobytes()
        opt = nn.SgdNesterov(np.ones_like(grads), base_lr=0.01, momentum=0.9,
                             decay=1e-6)
        for _ in range(2):
            self.step(opt, grads)
            assert grads.tobytes() == before

    def test_segments_applied_then_step_equal_one_whole_step(self):
        """Each segment fed by apply updates to the bytes of one whole
        gradient applied as one segment."""
        rng = np.random.default_rng(14)
        size = nn.STEP_BLOCK + 5
        start = rng.normal(size=size).astype(np.float32)
        whole, fed = start.copy(), start.copy()
        grads = np.empty(size, np.float32)
        stepped = nn.SgdNesterov(whole, base_lr=0.01, momentum=0.9, decay=1e-3)
        applied = nn.SgdNesterov(fed, base_lr=0.01, momentum=0.9, decay=1e-3)
        cuts = (0, 7, nn.STEP_BLOCK + 1, size)
        for _ in range(3):
            grads[...] = rng.normal(size=size)
            self.step(stepped, grads)
            for lo, hi in zip(cuts, cuts[1:]):
                applied.apply(slice(lo, hi), grads[lo:hi].copy())
            applied.step()
            assert whole.tobytes() == fed.tobytes()
            assert stepped.velocity.tobytes() == applied.velocity.tobytes()
        assert applied.step_count == stepped.step_count == 3

    def test_step_without_grads_only_counts(self):
        weights = np.ones(4)
        opt = nn.SgdNesterov(weights, base_lr=0.1, momentum=0.9, decay=0.0)
        opt.step()
        assert opt.step_count == 1 and weights.tobytes() == np.ones(4).tobytes()

    def test_decay_schedule_exact(self):
        opt = nn.SgdNesterov(np.zeros(1), base_lr=0.01, momentum=0.9, decay=1e-6)
        for k in range(100):
            assert opt.effective_lr == 0.01 / (1.0 + 1e-6 * k)
            opt.step()

    def test_lr_non_increasing(self):
        opt = nn.SgdNesterov(np.zeros(1), base_lr=0.01, momentum=0.9, decay=1e-4)
        last = np.inf
        for _ in range(50):
            lr = opt.effective_lr
            assert 0.0 < lr <= last
            last = lr
            opt.step()


class TestGradientCheckHarness:
    @staticmethod
    def _dense_setup(activation="linear"):
        rng = np.random.default_rng(12)
        layer = nn.Dense("d", 3, 2, activation, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 3))
        target = rng.normal(size=(1, 2))

        def loss_fn():
            out = layer.forward(x)
            return nn.mse_loss(out, target)[0]

        def grad_fn():
            out = layer.forward(x)
            loss, d_out = nn.mse_loss(out, target)
            layer.backward(d_out)
            return loss

        return layer, loss_fn, grad_fn

    def test_linear_dense_passes_tight_tolerance(self):
        layer, loss_fn, grad_fn = self._dense_setup()
        report = nn.gradient_check([layer.params], loss_fn, grad_fn, step=1e-5,
                                   tol=1e-10)
        assert all(entry.ok for entry in report)

    def test_corrupted_gradient_is_flagged(self):
        layer, loss_fn, grad_fn = self._dense_setup()

        def corrupted_grad_fn():
            loss = grad_fn()
            layer.params.grads["W"][0, 0] += 1.0
            return loss

        report = nn.gradient_check([layer.params], loss_fn, corrupted_grad_fn,
                                   step=1e-5, tol=1e-6)
        by_name = {entry.name: entry for entry in report}
        assert not by_name["d"].ok
