"""Checkpoint round-trips and format guards."""

import struct
import tracemalloc

import numpy as np
import pytest

from nilmnet import checkpoint as ckpt
from nilmnet.data import NormalizationMeta
from nilmnet.errors import DataError
from nilmnet.model import (ClassificationConfig, GatedAttentionModel, RegressionConfig,
                           parameter_count)


def random_model(seed):
    rng = np.random.default_rng(seed)
    window = int(rng.choice([8, 16, 24]))
    reg = RegressionConfig(window=window, filters=int(rng.integers(1, 4)),
                           kernel=int(rng.integers(1, 6)),
                           hidden=int(rng.integers(1, 5)))
    cls_cfg = ClassificationConfig(window=window, filters=(2, 2, 3, 3, 3, 3),
                                   kernels=(10, 8, 6, 5, 5, 5), dense_units=8)
    model = GatedAttentionModel.init(reg, cls_cfg, appliance=f"app{seed}",
                                     seed=seed)
    if seed % 3 != 0:
        model.norm_meta = NormalizationMeta(
            float(rng.uniform(1, 100)), float(rng.uniform(0.5, 10)),
            0.0, float(rng.uniform(10, 500)))
    return model


def checkpoint_header(window=128, filters=32, kernel=8, hidden=2048,
                      cls_window=None, n_tensors=37):
    """A v1 header with default classification layers and no tensors after it."""
    cls_cfg = ClassificationConfig(window=window)
    parts = [ckpt.MAGIC, struct.pack("<II", ckpt.VERSION, 1), b"x",
             struct.pack("<4I", window, filters, kernel, hidden),
             struct.pack("<II", window if cls_window is None else cls_window,
                         len(cls_cfg.filters))]
    parts += [struct.pack("<II", f, k)
              for f, k in zip(cls_cfg.filters, cls_cfg.kernels)]
    parts.append(struct.pack("<IBI", cls_cfg.dense_units, 0, n_tensors))
    return b"".join(parts)


def criterion_10_configs():
    """The (regression, classification) configs of acceptance criterion 10."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        reg = RegressionConfig(window=int(rng.choice([8, 16, 32])),
                               filters=int(rng.integers(1, 4)),
                               kernel=int(rng.integers(1, 6)),
                               hidden=int(rng.integers(1, 5)))
        yield reg, ClassificationConfig(window=reg.window,
                                        filters=(2, 2, 3, 3, 3, 3),
                                        kernels=(10, 8, 6, 5, 5, 5),
                                        dense_units=8)


class TestParameterCount:
    @pytest.mark.parametrize("reg,cls_cfg", [
        *criterion_10_configs(),
        (RegressionConfig(window=64, filters=8, kernel=4, hidden=32), None),
        (RegressionConfig(window=128, filters=32, kernel=8, hidden=512), None),
    ])
    def test_matches_built_model(self, reg, cls_cfg):
        cls_cfg = cls_cfg or ClassificationConfig(window=reg.window)
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

    def test_loaded_model_runs_forward_identically(self, tmp_path):
        model = random_model(2)
        path = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(path, model)
        loaded = ckpt.load_checkpoint(path)
        window = np.random.default_rng(7).normal(size=model.window)
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
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated"):
                ckpt.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("fields", [{"hidden": 0}, {"cls_window": 64}])
    def test_invalid_header_config_is_data_error(self, fields, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(checkpoint_header(**fields))
        with pytest.raises(DataError, match="window|config"):
            ckpt.load_checkpoint(path)
