"""Forward-pass contracts of the differentiable kernels vs. brute-force oracles."""

import re

import numpy as np
import pytest

from nilmnet import nn

from conftest import assert_arena_views, traced_peak
from oracles import (
    attention_direct,
    bce_direct,
    bilstm_direct,
    bilstm_forward_per_direction,
    conv1d_direct,
    dense_direct,
    lstm_step_direct,
    mse_direct,
    softmax_direct,
)

N_SEEDS = 25
# Conv1D shapes (batch, C_in, kernel, length): batches and channels above
# 1, even kernels, and kernels longer than the sequence.
CONV_CASES = [(3, 1, 2, 7), (2, 3, 4, 6), (4, 2, 8, 3), (2, 2, 5, 2), (3, 2, 6, 1)]


class TestExpect:
    """The one shape check every layer, loss and model boundary calls."""

    @pytest.mark.parametrize("shape", [(4, 3), (1, 3), (0, 3)])
    def test_str_entries_match_any_axis(self, shape):
        nn._expect("layer", np.zeros(shape), ("B", 3))

    @pytest.mark.parametrize("shape", [(4, 2), (3,), (3, 3, 1), ()])
    def test_wrong_axis_or_axis_count_names_the_instance(self, shape):
        with pytest.raises(nn.ShapeError,
                           match=rf"^layer: expected \(B, 3\), got {re.escape(str(shape))}$"):
            nn._expect("layer", np.zeros(shape), ("B", 3))


def make_conv(seed, c_in=2, filters=3, kernel=3, activation="linear"):
    rng = np.random.default_rng(seed)
    layer = nn.Conv1D("conv", c_in, filters, kernel, activation,
                      rng=rng, dtype=np.float64)
    layer.params.weights["b"][:] = rng.normal(size=filters)
    return layer, rng


class TestConv1D:
    def test_identity_kernel(self):
        layer = nn.Conv1D("c", 1, 1, 1, "linear", dtype=np.float64)
        layer.params.weights["W"][0, 0, 0] = 1.0
        x = np.array([[[3.0, -1.0, 4.0]]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_zero_weights_relu(self):
        layer = nn.Conv1D("c", 2, 4, 3, "relu", dtype=np.float64)
        x = np.random.default_rng(0).normal(size=(2, 2, 7))
        assert np.all(layer.forward(x) == 0.0)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_matches_direct_convolution(self, seed):
        kernel = [1, 2, 3, 4, 5][seed % 5]
        layer, rng = make_conv(seed, kernel=kernel)
        x = rng.normal(size=(1, 2, 5))
        out = layer.forward(x)
        expected = conv1d_direct(x[0], layer.params.weights["W"],
                                 layer.params.weights["b"])
        assert np.max(np.abs(out[0] - expected)) < 1e-10

    def test_relu_matches_direct(self):
        layer, rng = make_conv(99, activation="relu")
        x = rng.normal(size=(1, 2, 6))
        out = layer.forward(x)
        expected = conv1d_direct(x[0], layer.params.weights["W"],
                                 layer.params.weights["b"], "relu")
        assert np.max(np.abs(out[0] - expected)) < 1e-10

    @pytest.mark.parametrize("batch, c_in, kernel, length", CONV_CASES)
    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_batched_multichannel_matches_direct(self, batch, c_in, kernel, length,
                                                 activation):
        layer, rng = make_conv(kernel * length, c_in=c_in, kernel=kernel,
                               activation=activation)
        x = rng.normal(size=(batch, c_in, length))
        out = layer.forward(x)
        assert out.shape == (batch, 3, length)
        assert out.flags.c_contiguous
        for item in range(batch):
            expected = conv1d_direct(x[item], layer.params.weights["W"],
                                     layer.params.weights["b"], activation)
            assert np.max(np.abs(out[item] - expected)) < 1e-10

    @pytest.mark.parametrize("kernel", [1, 4, 5])
    def test_backward_without_input_grad_writes_the_same_gradients(self, kernel):
        """A backward whose input gradient nothing reads returns None and
        writes the parameter gradients of a full backward, byte for byte."""
        rng = np.random.default_rng(kernel)
        x = rng.normal(size=(3, 2, 9)).astype(np.float32)
        d_out = rng.normal(size=(3, 4, 9)).astype(np.float32)
        grads = []
        for input_grad in (True, False):
            layer = nn.Conv1D("c", 2, 4, kernel, "relu", rng=np.random.default_rng(9))
            layer.forward(x)
            d_x = layer.backward(d_out, input_grad=input_grad)
            assert (d_x is None) is not input_grad
            grads.append(layer.params.grads["W"].base.tobytes())
        assert grads[0] == grads[1]

    def test_channel_mismatch_raises(self):
        layer, _ = make_conv(0)
        with pytest.raises(nn.ShapeError):
            layer.forward(np.zeros((1, 3, 5)))

    @pytest.mark.parametrize("kernel", [4, 8, 16])
    @pytest.mark.parametrize("length", [128, 288, 496, 512, 1024, 1536, 2304])
    def test_length_preserved(self, kernel, length):
        rng = np.random.default_rng(1)
        layer = nn.Conv1D("c", 1, 2, kernel, "relu", rng=rng)
        out = layer.forward(rng.normal(size=(1, 1, length)).astype(np.float32))
        assert out.shape == (1, 2, length)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="unknown activation 'softplus'"):
            nn.Conv1D("c", 1, 1, 1, "softplus")


class TestDense:
    def test_identity(self):
        layer = nn.Dense("d", 3, 3, "linear", dtype=np.float64)
        layer.params.weights["W"][:] = np.eye(3)
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_zero_weight_gives_bias(self):
        layer = nn.Dense("d", 3, 2, "linear", dtype=np.float64)
        layer.params.weights["b"][:] = [4.0, -1.0]
        out = layer.forward(np.ones((1, 3)))
        np.testing.assert_array_equal(out[0], [4.0, -1.0])

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    @pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid", "tanh"])
    def test_matches_direct(self, seed, activation):
        rng = np.random.default_rng(seed)
        layer = nn.Dense("d", 3, 4, activation, rng=rng, dtype=np.float64)
        layer.params.weights["b"][:] = rng.normal(size=4)
        x = rng.normal(size=(1, 3))
        expected = dense_direct(x[0], layer.params.weights["W"],
                                layer.params.weights["b"], activation)
        assert np.max(np.abs(layer.forward(x)[0] - expected)) < 1e-10

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="unknown activation 'softplus'"):
            nn.Dense("d", 3, 2, "softplus")

    def test_shape_mismatch_raises(self):
        layer = nn.Dense("d", 3, 2)
        with pytest.raises(nn.ShapeError):
            layer.forward(np.zeros((1, 4)))


class TestLSTMCell:
    def test_zero_params_zero_state(self):
        cell = nn.LSTMCell("l", 2, 3, dtype=np.float64)
        h, c, cache = cell.step(np.ones((1, 2)), np.zeros((1, 3)), np.zeros((1, 3)))
        np.testing.assert_array_equal(h, np.zeros((1, 3)))
        np.testing.assert_array_equal(c, np.zeros((1, 3)))
        i, f, _, o = nn._split_gates(cache[3])
        assert np.all(i == 0.5) and np.all(f == 0.5) and np.all(o == 0.5)

    def test_zero_cell_state_means_input_times_candidate(self):
        rng = np.random.default_rng(3)
        cell = nn.LSTMCell("l", 2, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 2))
        h_prev = rng.normal(size=(2, 3))
        _, c, cache = cell.step(x, h_prev, np.zeros((2, 3)))
        i, _, g, _ = nn._split_gates(cache[3])
        np.testing.assert_allclose(c, i * g, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cell = nn.LSTMCell("l", 1, 2, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 1))
        h_prev = rng.normal(size=(1, 2))
        c_prev = rng.normal(size=(1, 2))
        h, c, _ = cell.step(x, h_prev, c_prev)
        w = cell.params.weights
        h_ref, c_ref = lstm_step_direct(x[0], h_prev[0], c_prev[0],
                                        w["W"], w["U"], w["b"])
        assert np.max(np.abs(h[0] - h_ref)) < 1e-10
        assert np.max(np.abs(c[0] - c_ref)) < 1e-10

    @pytest.mark.parametrize("d,hs", [(32, 512), (8, 32), (1, 3)])
    def test_init_equals_four_gate_block_draws(self, d, hs):
        # Reference: W and U drawn as four (H, .) gate blocks each, joined.
        rng = np.random.default_rng(17)
        w_limit, u_limit = np.sqrt(6.0 / (d + hs)), np.sqrt(6.0 / (hs + hs))
        w = np.concatenate([rng.uniform(-w_limit, w_limit, (hs, d)).astype(np.float32)
                            for _ in range(4)])
        u = np.concatenate([rng.uniform(-u_limit, u_limit, (hs, hs)).astype(np.float32)
                            for _ in range(4)])
        cell = nn.LSTMCell("l", d, hs, rng=np.random.default_rng(17))
        assert cell.params.weights["W"].tobytes() == w.tobytes()
        assert cell.params.weights["U"].tobytes() == u.tobytes()

    def test_bad_state_shape_raises(self):
        cell = nn.LSTMCell("l", 1, 2)
        with pytest.raises(nn.ShapeError):
            cell.step(np.zeros((1, 1)), np.zeros((1, 3)), np.zeros((1, 3)))

    @pytest.mark.parametrize("c_shape", [(1, 3), (3,), (2, 4)])
    def test_cell_state_of_another_shape_raises(self, c_shape):
        # (1, 3) and (3,) would broadcast over the batch of 2.
        cell = nn.LSTMCell("l", 1, 3)
        with pytest.raises(nn.ShapeError, match="^l: "):
            cell.step(np.zeros((2, 1)), np.zeros((2, 3)), np.zeros(c_shape))


class TestBiLSTM:
    def test_single_step_concatenates_both_directions(self):
        rng = np.random.default_rng(5)
        layer = nn.BiLSTM("b", 2, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 1, 2))
        out = layer.forward(x)
        zeros = np.zeros((1, 3))
        h_fw, _, _ = layer.fw.step(x[:, 0, :], zeros, zeros)
        h_bw, _, _ = layer.bw.step(x[:, 0, :], zeros, zeros)
        np.testing.assert_array_equal(out[0, 0, :3], h_fw[0])
        np.testing.assert_array_equal(out[0, 0, 3:], h_bw[0])

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(6)
        layer = nn.BiLSTM("b", 2, 3, rng=rng, dtype=np.float64)
        for key in ("W", "U", "b"):
            layer.bw.params.weights[key][...] = layer.fw.params.weights[key]
        x = rng.normal(size=(1, 5, 2))
        out = layer.forward(x)
        out_rev = layer.forward(x[:, ::-1, :].copy())
        swapped = np.concatenate([out_rev[:, ::-1, 3:], out_rev[:, ::-1, :3]], axis=2)
        np.testing.assert_allclose(out, swapped, atol=1e-15)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_matches_unrolled_oracle(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.BiLSTM("b", 1, 2, rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 3, 1))
        out = layer.forward(x)
        fw = layer.fw.params.weights
        bw = layer.bw.params.weights
        expected = bilstm_direct(x[0], (fw["W"], fw["U"], fw["b"]),
                                 (bw["W"], bw["U"], bw["b"]))
        assert np.max(np.abs(out[0] - expected)) < 1e-10

    def test_output_width_is_twice_hidden(self):
        rng = np.random.default_rng(7)
        for hidden in (1, 4, 9):
            layer = nn.BiLSTM("b", 2, hidden, rng=rng, dtype=np.float64)
            out = layer.forward(rng.normal(size=(2, 4, 2)))
            assert out.shape == (2, 4, 2 * hidden)

    def test_empty_sequence_raises(self):
        layer = nn.BiLSTM("b", 2, 3)
        with pytest.raises(nn.ShapeError):
            layer.forward(np.zeros((1, 0, 2)))

    @pytest.mark.parametrize("layer", [nn.BiLSTM("layer", 2, 3),
                                       nn.Attention("layer", 2, 3)],
                             ids=["bilstm", "attention"])
    def test_empty_sequence_error_names_the_layer(self, layer):
        with pytest.raises(nn.ShapeError, match="^layer: empty sequence"):
            layer.forward(np.zeros((1, 0, 2)))

    # (B, T, d, H): the toy acceptance dims at a disaggregation batch, at
    # one window and at a small batch, whose GEMMs take other BLAS kernels,
    # an odd shape where no dimension is a power of two, and the paper's
    # kettle shape at the training batch.
    @pytest.mark.parametrize("shape", [(256, 64, 8, 32), (1, 64, 8, 32),
                                       (8, 64, 8, 32), (3, 7, 5, 6),
                                       (32, 128, 32, 512)])
    def test_float32_bit_identical_to_per_direction_kernel(self, shape):
        b_sz, steps, d, hs = shape
        rng = np.random.default_rng(21)
        layer = nn.BiLSTM("b", d, hs, rng=rng)
        nn.randomize_biases([layer.fw.params, layer.bw.params], rng)
        x = rng.normal(size=(b_sz, steps, d)).astype(np.float32)
        out = layer.forward(x)
        want = bilstm_forward_per_direction(layer, x)
        assert out.dtype == want.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, want)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [0, 7])
    def test_direction_slabs_are_the_cells_tensors(self, lead):
        """The (2, ...) W, U and b slabs and their grads are views of the two
        cells' own tensors, also behind another layer's entries; with no
        optimizer attached, the grad slabs are taken from the arena's
        current grad vector."""
        d, hs = 5, 6
        arena = nn.Arena(lead + 8 * hs * (d + hs + 1), np.float32)
        arena.take((lead,))
        layer = nn.BiLSTM("b", d, hs, rng=np.random.default_rng(25), arena=arena)
        built = arena.grad_vector.read()
        arena.grad_vector.release()
        with layer._grad_slabs() as grad_slabs:
            slabs = {"weights": (layer._w, layer._u, layer._b), "grads": grad_slabs}
        assert slabs["grads"][0].base is arena.grad_vector.vector is not built
        for k, cell in enumerate((layer.fw, layer.bw)):
            for kind, views in slabs.items():
                for slab, key in zip(views, ("W", "U", "b")):
                    tensor = getattr(cell.params, kind)[key]
                    assert (slab[k].__array_interface__ == tensor.__array_interface__
                            and slab.base is tensor.base)

    def test_in_place_weight_edit_reaches_the_next_forward(self):
        b_sz, steps, d, hs = 3, 6, 4, 5
        rng = np.random.default_rng(26)
        layer = nn.BiLSTM("b", d, hs, rng=rng)
        x = rng.normal(size=(b_sz, steps, d)).astype(np.float32)
        before = layer.forward(x)
        layer.fw.params.weights["U"][...] *= 2.0
        after = layer.forward(x)
        assert after.tobytes() == bilstm_forward_per_direction(layer, x).tobytes()
        # Only the forward direction's steps that read an h have moved.
        assert after[:, 0, :hs].tobytes() == before[:, 0, :hs].tobytes()
        assert after[:, :, hs:].tobytes() == before[:, :, hs:].tobytes()
        assert not np.array_equal(after[:, 1:, :hs], before[:, 1:, :hs])
        for key in ("W", "b"):
            layer.bw.params.weights[key][...] += 0.25
            assert (layer.forward(x).tobytes()
                    == bilstm_forward_per_direction(layer, x).tobytes())

    def test_uncached_forward_holds_each_h_once(self):
        """Peak of an uncached forward: the output, each h in the output
        only, one block of stacked inputs and of gates, a ring of two cell
        states and the (2, B, .) step buffers. At this shape the inputs of
        all T steps stacked would add 12%, a (2, T, B, H) hidden trajectory
        57%, and the (2, T, B, 4H) gates in place of the block 196%."""
        b_sz, steps, d, hs = 256, 64, 8, 32
        rng = np.random.default_rng(27)
        layer = nn.BiLSTM("b", d, hs, rng=rng)
        x = rng.normal(size=(b_sz, steps, d)).astype(np.float32)
        layer.forward(x, cache=False)
        with traced_peak() as traced:
            layer.forward(x, cache=False)
            peak = traced()[1]
        # Per batch row: 2H output per step, 2 x d stacked inputs and 2 x 4H
        # gates per step of a block of at most BLOCK + 1, a ring of 2 x 2 x H
        # cells, four (2, H) step buffers (zeros, tanh(c), h, i * g) and the
        # (2, 4H) recurrent product; and the (2, H, 4H) contiguous U.T.
        per_row = (steps * 2 * hs + (nn.BLOCK + 1) * (2 * d + 2 * 4 * hs)
                   + 2 * 2 * hs + 4 * 2 * hs + 2 * 4 * hs)
        needed = x.itemsize * (b_sz * per_row + 2 * 4 * hs * hs)
        assert peak < 1.05 * needed

    # (B, T, d, H): T below, at and one past BLOCK, where a last block of
    # one step joins the one before, with one window, whose one-row GEMM
    # would round differently; an odd shape; the paper's kettle shape.
    @pytest.mark.parametrize("shape", [
        (1, nn.BLOCK - 1, 8, 32), (1, nn.BLOCK, 8, 32), (1, nn.BLOCK + 1, 8, 32),
        (1, 2 * nn.BLOCK + 1, 8, 32), (3, nn.BLOCK + 1, 5, 6), (3, 40, 5, 6),
        (2, 128, 32, 512)])
    def test_uncached_forward_equals_cached_byte_for_byte(self, shape):
        b_sz, steps, d, hs = shape
        rng = np.random.default_rng(28)
        layer = nn.BiLSTM("b", d, hs, rng=rng)
        nn.randomize_biases([layer.fw.params, layer.bw.params], rng)
        x = rng.normal(size=(b_sz, steps, d)).astype(np.float32)
        assert layer.forward(x, cache=False).tobytes() == layer.forward(x).tobytes()

    def test_rows_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(23)
        layer = nn.BiLSTM("b", 8, 32, rng=rng)
        x = rng.normal(size=(4, 64, 8)).astype(np.float32)
        batched = layer.forward(x)
        for k in range(len(x)):
            assert layer.forward(x[k:k + 1])[0].tobytes() == batched[k].tobytes()

    def test_each_direction_reads_only_its_own_past(self):
        b_sz, steps, d, hs, t0 = 3, 9, 4, 5, 4
        rng = np.random.default_rng(22)
        layer = nn.BiLSTM("b", d, hs, rng=rng)
        x = rng.normal(size=(b_sz, steps, d)).astype(np.float32)
        before = layer.forward(x)
        x[:, t0] += 1.0
        after = layer.forward(x)
        # The forward half before t0 and the backward half after it have
        # not seen step t0; both halves at t0 have.
        assert after[:, :t0, :hs].tobytes() == before[:, :t0, :hs].tobytes()
        assert after[:, t0 + 1:, hs:].tobytes() == before[:, t0 + 1:, hs:].tobytes()
        assert not np.array_equal(after[:, t0, :hs], before[:, t0, :hs])
        assert not np.array_equal(after[:, t0, hs:], before[:, t0, hs:])


class TestAttention:
    def test_single_step_returns_that_state(self):
        rng = np.random.default_rng(8)
        layer = nn.Attention("a", 4, 3, rng=rng, dtype=np.float64)
        hidden = rng.normal(size=(1, 1, 4))
        context, alpha = layer.forward(hidden)
        np.testing.assert_array_equal(alpha, [[1.0]])
        np.testing.assert_array_equal(context[0], hidden[0, 0])

    def test_identical_rows_give_uniform_weights(self):
        rng = np.random.default_rng(9)
        layer = nn.Attention("a", 4, 3, rng=rng, dtype=np.float64)
        row = rng.normal(size=4)
        hidden = np.tile(row, (1, 5, 1))
        context, alpha = layer.forward(hidden)
        # uniform up to GEMM rounding across row blocks
        np.testing.assert_allclose(alpha[0], 1.0 / 5.0, rtol=1e-12)
        np.testing.assert_allclose(context[0], row, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.Attention("a", 4, 2, rng=rng, dtype=np.float64)
        layer.params.weights["b"][:] = rng.normal(size=2)
        hidden = rng.normal(size=(1, 4, 4))
        context, alpha = layer.forward(hidden)
        w = layer.params.weights
        c_ref, a_ref = attention_direct(hidden[0], w["W"], w["b"], w["v"])
        assert np.max(np.abs(context[0] - c_ref)) < 1e-10
        assert np.max(np.abs(alpha[0] - a_ref)) < 1e-10

    def test_weights_normalized_and_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            layer = nn.Attention("a", 6, 3, rng=rng, dtype=np.float64)
            _, alpha = layer.forward(rng.normal(size=(3, 7, 6)))
            assert np.all(alpha >= 0.0)
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)

    # (B, T, H), states of 2H: one window; T=1, where a last block of one
    # window is a one-row GEMM, and with a last block of two; blocks that
    # end on and past the batch; the toy B=256 and the paper's kettle shape.
    @pytest.mark.parametrize("shape", [
        (1, 1, 4), (nn.BLOCK + 1, 1, 4), (nn.BLOCK + 2, 1, 4), (2 * nn.BLOCK + 1, 1, 4),
        (3, 1, 4), (5, 17, 6), (2 * nn.BLOCK, 3, 5), (256, 64, 32), (32, 128, 512)])
    def test_uncached_forward_equals_cached_byte_for_byte(self, shape):
        b_sz, steps, units = shape
        rng = np.random.default_rng(29)
        layer = nn.Attention("a", 2 * units, units, rng=rng)
        nn.randomize_biases([layer.params], rng)
        hidden = rng.standard_normal((b_sz, steps, 2 * units), dtype=np.float32)
        uncached = layer.forward(hidden, cache=False)
        for got, want in zip(uncached, layer.forward(hidden)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 7])
    def test_any_block_of_windows_gives_the_same_bytes(self, block, monkeypatch):
        rng = np.random.default_rng(30)
        layer = nn.Attention("a", 12, 6, rng=rng)
        hidden = rng.standard_normal((17, 5, 12), dtype=np.float32)
        want = layer.forward(hidden)
        monkeypatch.setattr(nn, "BLOCK", block)
        for got, ref in zip(layer.forward(hidden, cache=False), want):
            assert got.tobytes() == ref.tobytes()

    def test_uncached_paper_batch_holds_one_block_of_projections(self):
        """Peak above entry of an uncached forward at the paper's kettle shape
        and the inference batch: the tanh projections of one block of BLOCK
        windows, four (B, T) arrays (scores, the softmax's shifted scores
        and exponentials, alpha) and the (B, 2H) context."""
        b_sz, steps, units = 256, 128, 512
        rng = np.random.default_rng(31)
        layer = nn.Attention("a", 2 * units, units, rng=rng)
        hidden = rng.standard_normal((b_sz, steps, 2 * units), dtype=np.float32)
        layer.forward(hidden[:nn.BLOCK + 2], cache=False)
        with traced_peak() as traced:
            layer.forward(hidden, cache=False)
            peak = traced()[1]
        needed = hidden.itemsize * (nn.BLOCK * steps * units
                                    + 4 * b_sz * steps + b_sz * 2 * units)
        # 3.3 MiB measured against 3.5 MiB needed; the whole-batch
        # projections alone would be 64 MiB.
        assert peak < needed


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extremes_saturate_without_warnings(self, dtype):
        x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4], dtype=dtype)
        with np.errstate(all="raise"):
            out = nn.sigmoid(x)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out[[0, 2, 4]], [0.0, 0.5, 1.0])
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_point_symmetry(self):
        x = np.random.default_rng(0).normal(scale=10.0, size=1000)
        np.testing.assert_allclose(nn.sigmoid(-x), 1.0 - nn.sigmoid(x),
                                   rtol=0, atol=1e-12)

    def test_matches_logistic_formula(self):
        x = np.linspace(-30.0, 30.0, 601)
        np.testing.assert_allclose(nn.sigmoid(x), 1.0 / (1.0 + np.exp(-x)),
                                   rtol=0, atol=1e-15)


class TestGateActivations:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_tanh_rounds_as_sigmoid_and_tanh(self, dtype):
        """0.5 * tanh(0.5 * x) + 0.5, as the gate pass computes it, is
        sigmoid(x) bit for bit, and the candidate block is tanh(x)."""
        special = [0.0, -0.0, 1e-40, -1e-40, 1.0, -1.0, 20.0, -20.0,
                   1e30, -1e30, np.inf, -np.inf]
        x = np.concatenate([np.linspace(-40.0, 40.0, 80001), special]).astype(dtype)
        z = np.tile(x, 4).reshape(1, -1)
        i, f, g, o = nn._split_gates(nn._gate_activations(z))
        bits = np.uint32 if dtype == np.float32 else np.uint64
        want = nn.sigmoid(x).view(bits)
        for block in (i, f, o):
            assert np.array_equal(block[0].view(bits), want)
        assert np.array_equal(g[0].view(bits), np.tanh(x).view(bits))


class TestSoftmax:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_matches_direct(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=7) * 10.0
        assert np.max(np.abs(nn.softmax(x) - softmax_direct(x))) < 1e-10

    def test_large_scores_stay_finite(self):
        out = nn.softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12


class TestLosses:
    def test_mse_zero_for_equal(self):
        loss, grad = nn.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_mse_half(self):
        loss, grad = nn.mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == 0.5
        np.testing.assert_array_equal(grad, [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_mse_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        pred, target = rng.normal(size=6), rng.normal(size=6)
        loss, _ = nn.mse_loss(pred, target)
        assert abs(loss - mse_direct(pred, target)) < 1e-10

    def test_bce_at_half(self):
        loss, _ = nn.bce_loss(np.array([0.5]), np.array([1.0]))
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_bce_near_perfect_hits_clamp_floor(self):
        loss, grad = nn.bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert 0.0 < loss <= -np.log(1.0 - nn.BCE_EPS) * 1.0001
        assert np.all(grad == 0.0)  # both entries clamped

    def test_bce_rejects_non_binary_target(self):
        with pytest.raises(ValueError):
            nn.bce_loss(np.array([0.5]), np.array([0.3]))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_bce_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(0.01, 0.99, size=6)
        target = rng.integers(0, 2, size=6).astype(float)
        loss, _ = nn.bce_loss(pred, target)
        assert abs(loss - bce_direct(pred, target)) < 1e-10

    def test_loss_shape_mismatch(self):
        with pytest.raises(nn.ShapeError):
            nn.mse_loss(np.zeros(3), np.zeros(4))


class TestFiniteOutputs:
    def test_extreme_inputs_stay_finite(self):
        rng = np.random.default_rng(11)
        conv = nn.Conv1D("c", 1, 2, 4, "relu", rng=rng, dtype=np.float64)
        bilstm = nn.BiLSTM("b", 2, 3, rng=rng, dtype=np.float64)
        attn = nn.Attention("a", 6, 3, rng=rng, dtype=np.float64)
        dense = nn.Dense("d", 6, 5, "sigmoid", rng=rng, dtype=np.float64)
        x = rng.normal(size=(1, 1, 8)) * 1e3
        feats = conv.forward(x)
        hidden = bilstm.forward(feats.transpose(0, 2, 1))
        context, alpha = attn.forward(hidden)
        out = dense.forward(context)
        for arr in (feats, hidden, context, alpha, out):
            assert np.all(np.isfinite(arr))


STANDALONE_LAYERS = {
    "conv": lambda rng: nn.Conv1D("c", 2, 3, 4, rng=rng),
    "dense": lambda rng: nn.Dense("d", 5, 4, "relu", rng=rng, dtype=np.float64),
    "attention": lambda rng: nn.Attention("a", 6, 3, rng=rng),
    "bilstm": lambda rng: nn.BiLSTM("b", 2, 3, rng=rng),
}


class TestStandaloneParameters:
    @pytest.mark.parametrize("kind", sorted(STANDALONE_LAYERS))
    def test_tensors_are_views_of_one_buffer_pair_of_its_own(self, kind):
        def groups(layer):
            return [layer.fw.params, layer.bw.params] if kind == "bilstm" else [layer.params]

        layer = STANDALONE_LAYERS[kind](np.random.default_rng(3))
        weights = groups(layer)[0].weights["W"].base
        grads = groups(layer)[0].grads["W"].base
        assert weights.ndim == grads.ndim == 1 and not np.shares_memory(weights, grads)
        assert_arena_views(groups(layer), weights, grads)
        assert not np.any(grads)
        other = STANDALONE_LAYERS[kind](np.random.default_rng(3))
        assert not np.shares_memory(groups(other)[0].weights["W"], weights)

    @pytest.mark.parametrize("kind", sorted(STANDALONE_LAYERS))
    def test_grad_vector_is_made_by_its_first_read_and_remade_after_release(self, kind):
        layer = STANDALONE_LAYERS[kind](np.random.default_rng(3))
        params = [layer.fw.params, layer.bw.params] if kind == "bilstm" else [layer.params]
        holder = params[0]._grad_vector
        assert holder.vector is None
        first = params[0].grads["W"].base
        assert first is holder.vector
        first.fill(1.0)
        holder.release()
        again = params[-1].grads["W"].base
        assert again is holder.vector is not first and not np.any(again)
        assert_arena_views(params, params[0].weights["W"].base, again)
