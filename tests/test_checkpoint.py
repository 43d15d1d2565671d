"""Checkpoint round-trips and format guards."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilmnet import checkpoint as ckpt
from nilmnet.data import NormalizationMeta
from nilmnet.errors import DataError
from nilmnet.model import (ClassificationConfig, GatedAttentionModel, RegressionConfig,
                           parameter_count)

from conftest import traced_peak

TOY_REG = RegressionConfig(window=64, filters=8, kernel=4, hidden=32)


def random_model(seed):
    rng = np.random.default_rng(seed)
    window = int(rng.choice([8, 16, 24]))
    reg = RegressionConfig(window=window, filters=int(rng.integers(1, 4)),
                           kernel=int(rng.integers(1, 6)),
                           hidden=int(rng.integers(1, 5)))
    cls_cfg = ClassificationConfig(filters=(2, 2, 3, 3, 3, 3),
                                   kernels=(10, 8, 6, 5, 5, 5), dense_units=8)
    model = GatedAttentionModel.init(reg, cls_cfg, appliance=f"app{seed}",
                                     seed=seed)
    if seed % 3 != 0:
        model.norm_meta = NormalizationMeta(
            float(rng.uniform(1, 100)), float(rng.uniform(0.5, 10)),
            0.0, float(rng.uniform(10, 500)))
    return model


def checkpoint_header(window=128, filters=32, kernel=8, hidden=2048,
                      cls_window=None, dense_units=None, n_tensors=37):
    """A v1 header with default classification layers and no tensors after it."""
    cls_cfg = ClassificationConfig()
    parts = [ckpt.MAGIC, struct.pack("<II", ckpt.VERSION, 1), b"x",
             struct.pack("<4I", window, filters, kernel, hidden),
             struct.pack("<II", window if cls_window is None else cls_window,
                         len(cls_cfg.filters))]
    parts += [struct.pack("<II", f, k)
              for f, k in zip(cls_cfg.filters, cls_cfg.kernels)]
    if dense_units is None:
        dense_units = cls_cfg.dense_units
    parts.append(struct.pack("<IBI", dense_units, 0, n_tensors))
    return b"".join(parts)


def criterion_10_configs():
    """The (regression, classification) configs of acceptance criterion 10."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        reg = RegressionConfig(window=int(rng.choice([8, 16, 32])),
                               filters=int(rng.integers(1, 4)),
                               kernel=int(rng.integers(1, 6)),
                               hidden=int(rng.integers(1, 5)))
        yield reg, ClassificationConfig(filters=(2, 2, 3, 3, 3, 3),
                                        kernels=(10, 8, 6, 5, 5, 5),
                                        dense_units=8)


class TestParameterCount:
    @pytest.mark.parametrize("reg,cls_cfg", [
        *criterion_10_configs(),
        (RegressionConfig(window=64, filters=8, kernel=4, hidden=32), None),
        (RegressionConfig(window=128, filters=32, kernel=8, hidden=512), None),
    ])
    def test_matches_built_model(self, reg, cls_cfg):
        cls_cfg = cls_cfg or ClassificationConfig()
        model = GatedAttentionModel.zeros(reg, cls_cfg)
        assert parameter_count(reg, cls_cfg) == model.n_params


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_parameters_bit_exact_and_configs_lossless(self, seed, tmp_path):
        model = random_model(seed)
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, model)
        loaded = ckpt.load_checkpoint(path)
        assert loaded.appliance == model.appliance
        assert loaded.reg_cfg == model.reg_cfg
        assert loaded.cls_cfg == model.cls_cfg
        assert loaded.norm_meta == model.norm_meta
        for pa, pb in zip(model.all_params(), loaded.all_params()):
            assert pa.name == pb.name
            for key in pa.weights:
                np.testing.assert_array_equal(pa.weights[key], pb.weights[key])

    @pytest.mark.parametrize("seed", range(10))
    def test_save_load_save_is_byte_identical(self, seed, tmp_path):
        model = random_model(seed + 100)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        ckpt.save_checkpoint(first, model)
        ckpt.save_checkpoint(second, ckpt.load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_save_copies_no_payload(self, tmp_path):
        model = GatedAttentionModel.zeros(TOY_REG)
        payload = 4 * model.n_params
        with traced_peak() as traced:
            ckpt.save_checkpoint(tmp_path / "model.ckpt", model)
            peak = traced()[1]
        assert peak < payload
        assert (tmp_path / "model.ckpt").stat().st_size > payload

    def test_load_copies_payload_once(self, tmp_path):
        """Beyond the model it fills, a load allocates no copy of the payload:
        each tensor is read straight into the arena."""
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, GatedAttentionModel.init(TOY_REG, seed=1))
        with traced_peak() as traced:
            model = GatedAttentionModel.zeros(TOY_REG)
            zeros_peak = traced()[1]
        payload = 4 * model.n_params
        del model
        with traced_peak() as traced:
            ckpt.load_checkpoint(path)
            load_peak = traced()[1]
        assert load_peak - zeros_peak < 0.25 * payload

    def test_loaded_model_holds_no_grad_vector(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, GatedAttentionModel.init(TOY_REG, seed=1))
        with traced_peak() as traced:
            model = ckpt.load_checkpoint(path)
            held = traced()[0]
        assert held < 1.05 * model.weights.nbytes

    def test_loaded_model_runs_forward_identically(self, tmp_path):
        model = random_model(2)
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, model)
        loaded = ckpt.load_checkpoint(path)
        window = np.random.default_rng(7).normal(size=(1, model.window))
        a = model.forward(window)
        b = loaded.forward(window)
        np.testing.assert_array_equal(a.output, b.output)
        np.testing.assert_array_equal(a.attention, b.attention)


class TestFormatGuards:
    def test_unknown_version_rejected(self, tmp_path):
        model = random_model(1)
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 99"):
            ckpt.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            ckpt.load_checkpoint(path)

    def test_path_with_a_nul_raises_data_error_naming_it(self, tmp_path):
        path = tmp_path / "model\x00.ckpt"
        with pytest.raises(DataError, match="a path cannot hold a NUL") as err:
            ckpt.load_checkpoint(path)
        assert repr(str(path)) in str(err.value)

    def test_truncated_file_rejected(self, tmp_path):
        model = random_model(3)
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError, match="truncated"):
            ckpt.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = random_model(4)
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(DataError, match="trailing"):
            ckpt.load_checkpoint(path)

    def test_short_file_with_large_header_refused_before_allocating(self, tmp_path):
        path = tmp_path / "hostile.ckpt"
        path.write_bytes(checkpoint_header(hidden=2048))
        assert path.stat().st_size == 94
        with traced_peak() as traced:
            with pytest.raises(DataError, match="truncated"):
                ckpt.load_checkpoint(path)
            peak = traced()[1]
        assert peak < 16 * 2 ** 20

    def test_non_finite_normalization_rejected(self, tmp_path):
        model = random_model(1)
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, model)
        blob = path.read_bytes()
        mean = struct.pack("<d", model.norm_meta.input_mean)
        assert blob.count(mean) == 1
        path.write_bytes(blob.replace(mean, struct.pack("<d", float("nan"))))
        with pytest.raises(DataError, match="finite") as err:
            ckpt.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: invalid normalization metadata: ")

    @pytest.mark.parametrize("flag", [2, 255])
    def test_normalization_flag_other_than_0_or_1_rejected(self, flag, tmp_path):
        blob = bytearray(small_checkpoint_bytes(tmp_path))
        at = blob.index(struct.pack("<B4d", 1, 200.0, 300.0, 0.0, 2500.0))
        blob[at] = flag
        path = tmp_path / "flag.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError) as err:
            ckpt.load_checkpoint(path)
        assert str(err.value) == (f"{path}: normalization flag at byte {at} "
                                  f"is {flag}, not 0 or 1")

    @pytest.mark.parametrize("fields", [{"hidden": 0}, {"cls_window": 64}])
    def test_invalid_header_config_is_data_error(self, fields, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(checkpoint_header(**fields))
        with pytest.raises(DataError, match="window|config"):
            ckpt.load_checkpoint(path)

    def test_zero_dense_units_is_invalid_config(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(checkpoint_header(dense_units=0))
        with pytest.raises(DataError, match="invalid model config: dense_units"):
            ckpt.load_checkpoint(path)


def small_checkpoint_bytes(tmp_path):
    reg = RegressionConfig(window=8, filters=1, kernel=2, hidden=1)
    cls_cfg = ClassificationConfig(filters=(1,) * 6,
                                   kernels=(10, 8, 6, 5, 5, 5), dense_units=2)
    model = GatedAttentionModel.init(reg, cls_cfg, appliance="kettle", seed=3)
    model.norm_meta = NormalizationMeta(200.0, 300.0, 0.0, 2500.0)
    path = tmp_path / "small.ckpt"
    ckpt.save_checkpoint(path, model)
    return path.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
class TestNonFiniteWeights:
    """A NaN or an infinity in the first or the last tensor is refused, on
    load as bad input and on save before the file is opened."""

    def test_load_names_the_tensor_and_the_file(self, bad, where, tmp_path):
        model = random_model(4)
        name, w = ckpt._tensor_table(model)[where]
        sentinel = np.array(1234.5, "<f4").tobytes()
        w.reshape(-1)[-1] = 1234.5
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, model)
        blob = path.read_bytes()
        assert blob.count(sentinel) == 1
        path.write_bytes(blob.replace(sentinel, np.array(bad, "<f4").tobytes()))
        with pytest.raises(DataError) as err:
            ckpt.load_checkpoint(path)
        assert str(err.value) == f"{path}: tensor {name!r} holds a non-finite value"

    def test_save_refuses_before_opening_the_file(self, bad, where, tmp_path):
        model = random_model(4)
        name, w = ckpt._tensor_table(model)[where]
        w.reshape(-1)[0] = bad
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"earlier")
        with pytest.raises(DataError) as err:
            ckpt.save_checkpoint(path, model)
        assert str(err.value) == f"{path}: tensor {name!r} holds a non-finite value"
        assert path.read_bytes() == b"earlier"


def test_save_refuses_a_float64_weight_past_the_float32_range(tmp_path):
    """The file stores float32, where 1e39 would be written as inf."""
    reg = RegressionConfig(window=8, filters=1, kernel=2, hidden=2)
    cls_cfg = ClassificationConfig(filters=(), kernels=(), dense_units=2)
    model = GatedAttentionModel.init(reg, cls_cfg, seed=1, dtype=np.float64)
    model.regression.fc1.params.weights["b"][1] = -1e39
    path = tmp_path / "model.ckpt"
    with pytest.raises(DataError, match="'reg.fc1.b' holds a non-finite value"):
        ckpt.save_checkpoint(path, model)
    assert not path.exists()


class TestV1Layout:
    """save_checkpoint writes the v1 layout of the module docstring, byte
    for byte, with the model's one window in the classification slot."""

    TENSORS = ([f"reg.conv{i}.{key}" for i in range(1, 5) for key in "Wb"]
               + [f"reg.bilstm.{d}.{key}" for d in ("fw", "bw") for key in "WUb"]
               + ["reg.attn.W", "reg.attn.b", "reg.attn.v"]
               + [f"reg.fc{i}.{key}" for i in (1, 2) for key in "Wb"]
               + [f"cls.conv{i}.{key}" for i in range(1, 7) for key in "Wb"]
               + [f"cls.fc{i}.{key}" for i in (1, 2) for key in "Wb"])

    @pytest.mark.parametrize("with_meta", [True, False])
    def test_bytes_match_hand_built_layout(self, tmp_path, with_meta):
        reg = RegressionConfig(window=8, filters=1, kernel=2, hidden=1)
        cls_cfg = ClassificationConfig(filters=(1, 2, 1, 1, 1, 1),
                                       kernels=(10, 8, 6, 5, 5, 5), dense_units=2)
        model = GatedAttentionModel.init(reg, cls_cfg, appliance="kettle", seed=3)
        if with_meta:
            model.norm_meta = NormalizationMeta(200.0, 300.0, 0.0, 2500.0)
        want = [b"LDWA", struct.pack("<I", 1), struct.pack("<I", 6), b"kettle",
                struct.pack("<4I", 8, 1, 2, 1),
                struct.pack("<II", 8, 6),
                struct.pack("<12I", 1, 10, 2, 8, 1, 6, 1, 5, 1, 5, 1, 5),
                struct.pack("<I", 2)]
        if with_meta:
            want.append(struct.pack("<B4d", 1, 200.0, 300.0, 0.0, 2500.0))
        else:
            want.append(b"\x00")
        weights = {f"{p.name}.{key}": w
                   for p in model.all_params() for key, w in p.weights.items()}
        assert list(weights) == self.TENSORS
        want.append(struct.pack("<I", len(self.TENSORS)))
        for name in self.TENSORS:
            w = weights[name]
            want += [struct.pack("<I", len(name)), name.encode("ascii"),
                     struct.pack(f"<{1 + w.ndim}I", w.ndim, *w.shape),
                     w.astype("<f4").tobytes()]
        path = tmp_path / "v1.ckpt"
        ckpt.save_checkpoint(path, model)
        assert path.read_bytes() == b"".join(want)


class TestCorruption:
    """Any corrupted file either loads or raises DataError, nothing else."""

    @given(st.data())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_byte_change(self, tmp_path, data):
        blob = bytearray(small_checkpoint_bytes(tmp_path))
        position = data.draw(st.integers(0, len(blob) - 1))
        blob[position] = data.draw(st.integers(0, 255))
        try:
            ckpt.load_checkpoint(self.write(tmp_path, bytes(blob)))
        except DataError:
            pass

    @given(st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation(self, tmp_path, data):
        blob = small_checkpoint_bytes(tmp_path)
        length = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(DataError):
            ckpt.load_checkpoint(self.write(tmp_path, blob[:length]))

    @staticmethod
    def write(tmp_path, blob):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(blob)
        return path
