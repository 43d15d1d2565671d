"""Binary model checkpoints: bit-exact parameters, lossless configuration.

Layout (all integers little-endian):

    magic               4 bytes  "LDWA"
    version             u32      currently 1
    appliance name      u32 length + utf-8 bytes
    regression config   4 x u32  (window, filters, kernel, hidden)
    classification cfg  u32 window, u32 n_conv, n_conv x (u32 filters,
                        u32 kernel), u32 dense_units
    normalization meta  u8 presence flag, then 4 x f64
                        (input_mean, input_std, target_min, target_max)
    tensor count        u32
    per tensor          u32 name length + utf-8 name, u32 rank,
                        rank x u32 dims, raw float32 little-endian values

Tensors appear in the model's fixed parameter order; loading verifies
names and shapes. Unknown versions are rejected outright.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import NormalizationMeta
from .errors import DataError
from .model import (ClassificationConfig, GatedAttentionModel, RegressionConfig,
                    parameter_count)

MAGIC = b"LDWA"
VERSION = 1


def _pack_str(text):
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.offset = 0

    def take(self, count):
        if self.offset + count > len(self.blob):
            raise DataError(f"{self.path}: truncated checkpoint")
        chunk = self.blob[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u8(self):
        return self.take(1)[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def string(self):
        start = self.offset
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.path}: string at byte {start} is not "
                            f"UTF-8") from None

    def done(self):
        if self.offset != len(self.blob):
            raise DataError(f"{self.path}: {len(self.blob) - self.offset} "
                            f"trailing bytes after checkpoint payload")


def save_checkpoint(path, model: GatedAttentionModel):
    """Serialize configs, normalization metadata, and float32 parameters."""
    reg, cls_cfg = model.reg_cfg, model.cls_cfg
    parts = [
        MAGIC,
        struct.pack("<I", VERSION),
        _pack_str(model.appliance),
        struct.pack("<4I", reg.window, reg.filters, reg.kernel, reg.hidden),
        struct.pack("<II", cls_cfg.window, len(cls_cfg.filters)),
    ]
    for f, k in zip(cls_cfg.filters, cls_cfg.kernels):
        parts.append(struct.pack("<II", f, k))
    parts.append(struct.pack("<I", cls_cfg.dense_units))
    meta = model.norm_meta
    if meta is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<B4d", 1, meta.input_mean, meta.input_std,
                                 meta.target_min, meta.target_max))
    tensors = [(f"{p.name}.{key}", w)
               for p in model.all_params() for key, w in p.weights.items()]
    parts.append(struct.pack("<I", len(tensors)))
    for name, w in tensors:
        parts.append(_pack_str(name))
        parts.append(struct.pack("<I", w.ndim))
        parts.append(struct.pack(f"<{w.ndim}I", *w.shape))
        parts.append(np.ascontiguousarray(w, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> GatedAttentionModel:
    """Rebuild a float32 model; parameters round-trip bit-exactly."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), str(path))
    if reader.take(4) != MAGIC:
        raise DataError(f"{path}: not a model checkpoint (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {version} "
            f"(this build reads version {VERSION})")
    appliance = reader.string()
    reg_dims = [reader.u32() for _ in range(4)]
    cls_window = reader.u32()
    n_conv = reader.u32()
    pairs = [(reader.u32(), reader.u32()) for _ in range(n_conv)]
    dense_units = reader.u32()
    try:
        reg = RegressionConfig(*reg_dims)
        cls_cfg = ClassificationConfig(
            window=cls_window,
            filters=tuple(f for f, _ in pairs),
            kernels=tuple(k for _, k in pairs),
            dense_units=dense_units,
        )
    except DataError as exc:
        raise DataError(f"{path}: invalid model config: {exc}") from None
    if reg.window != cls_cfg.window:
        raise DataError(f"{path}: regression window {reg.window} differs from "
                        f"classification window {cls_cfg.window}")
    meta = None
    if reader.u8():
        meta = NormalizationMeta(reader.f64(), reader.f64(),
                                 reader.f64(), reader.f64())
    # Refuse a header whose parameters cannot fit in the rest of the file
    # before the model for it is allocated.
    needed = 4 * parameter_count(reg, cls_cfg)
    left = len(reader.blob) - reader.offset
    if needed > left:
        raise DataError(f"{path}: truncated checkpoint: the header implies "
                        f"{needed} bytes of float32 parameters, {left} bytes left")
    model = GatedAttentionModel.zeros(reg, cls_cfg, appliance=appliance,
                                      dtype=np.float32)
    model.norm_meta = meta
    expected = [(f"{p.name}.{key}", p.weights[key])
                for p in model.all_params() for key in p.weights]
    count = reader.u32()
    if count != len(expected):
        raise DataError(
            f"{path}: checkpoint holds {count} tensors, model needs "
            f"{len(expected)}")
    for name, target in expected:
        stored_name = reader.string()
        if stored_name != name:
            raise DataError(
                f"{path}: tensor order mismatch: found {stored_name!r}, "
                f"expected {name!r}")
        rank = reader.u32()
        dims = tuple(reader.u32() for _ in range(rank))
        if dims != target.shape:
            raise DataError(
                f"{path}: tensor {name!r} has shape {dims}, expected "
                f"{target.shape}")
        raw = reader.take(4 * int(np.prod(dims, dtype=np.int64)))
        target[...] = np.frombuffer(raw, dtype="<f4").reshape(dims)
    reader.done()
    return model
