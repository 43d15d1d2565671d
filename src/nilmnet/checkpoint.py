"""Binary model checkpoints: bit-exact parameters, lossless configuration.

Layout (all integers little-endian):

    magic               4 bytes  "LDWA"
    version             u32      currently 1
    appliance name      u32 length + utf-8 bytes
    regression config   4 x u32  (window, filters, kernel, hidden)
    classification cfg  u32 window (the regression window again; a
                        model has one), u32 n_conv, n_conv x
                        (u32 filters, u32 kernel), u32 dense_units
    normalization meta  u8 presence flag (0 or 1), then 4 x f64
                        (input_mean, input_std, target_min, target_max)
    tensor count        u32
    per tensor          u32 name length + utf-8 name, u32 rank,
                        rank x u32 dims, raw float32 little-endian values

Tensors appear in the order the model's layers took them from its arena,
listed by one (name, view) table that save and load share; loading
verifies names, shapes and that every value is finite, and saving writes
no value that is not finite in float32. Unknown versions are rejected
outright.
"""

from __future__ import annotations

import os
import struct
import sys

import numpy as np

from .data import NormalizationMeta, refuse_nul
from .errors import DataError
from .model import (ClassificationConfig, GatedAttentionModel, RegressionConfig,
                    parameter_count)

MAGIC = b"LDWA"
VERSION = 1


def _pack_str(text):
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    """Reads fields off an open checkpoint file.

    No read asks for more bytes than the file has left, so a hostile length
    field cannot make it allocate more than the file's size.
    """

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def left(self):
        return self.size - self.fh.tell()

    def take(self, count):
        if count > self.left():
            raise DataError(f"{self.path}: truncated checkpoint")
        return self.fh.read(count)

    def take_into(self, array):
        """Fill a C-contiguous float32 array from little-endian <f4 bytes."""
        if array.nbytes > self.left():
            raise DataError(f"{self.path}: truncated checkpoint")
        self.fh.readinto(memoryview(array).cast("B"))
        if sys.byteorder == "big":
            array.byteswap(inplace=True)

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u8(self):
        return self.take(1)[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def string(self):
        start = self.fh.tell()
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.path}: string at byte {start} is not "
                            f"UTF-8") from None

    def done(self):
        if self.left():
            raise DataError(f"{self.path}: {self.left()} "
                            f"trailing bytes after checkpoint payload")


def _tensor_table(model):
    """(name, view) of every parameter tensor, in serialization order."""
    return [(f"{p.name}.{key}", w) for p in model.all_params() for key, w in p.weights.items()]


FLOAT32_MAX = float(np.finfo(np.float32).max)


def _refuse_non_finite(path, name, w):
    """Raise DataError naming the tensor and the file unless every value of
    w is finite as float32, the file's type, so a float64 weight past its
    range is refused too. min and max propagate NaN, which fails both
    comparisons, so two reductions decide it without a mask the size of
    the tensor."""
    if not (-FLOAT32_MAX <= w.min() and w.max() <= FLOAT32_MAX):
        raise DataError(f"{path}: tensor {name!r} holds a non-finite value")


def save_checkpoint(path, model: GatedAttentionModel):
    """Serialize configs, normalization metadata, and float32 parameters.

    Each tensor goes to the file from its own buffer (a float32 model's
    arena views need no conversion), so no copy of the payload is made. A
    non-finite weight raises DataError before the file is opened.
    """
    reg, cls_cfg = model.reg_cfg, model.cls_cfg
    parts = [
        MAGIC,
        struct.pack("<I", VERSION),
        _pack_str(model.appliance),
        struct.pack("<4I", reg.window, reg.filters, reg.kernel, reg.hidden),
        # The classification window slot repeats the model's one window.
        struct.pack("<II", reg.window, len(cls_cfg.filters)),
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
    tensors = _tensor_table(model)
    for name, w in tensors:
        _refuse_non_finite(path, name, w)
    parts.append(struct.pack("<I", len(tensors)))
    with open(path, "wb") as fh:
        fh.writelines(parts)
        for name, w in tensors:
            fh.write(_pack_str(name))
            fh.write(struct.pack(f"<I{w.ndim}I", w.ndim, *w.shape))
            fh.write(np.ascontiguousarray(w, dtype="<f4"))


def load_checkpoint(path) -> GatedAttentionModel:
    """Rebuild a float32 model; parameters round-trip bit-exactly.

    Each tensor is read with readinto straight into its view of the model's
    arena, which no earlier write has touched, so the payload is copied
    once, by the kernel, and the file is never held in memory as a whole.
    A tensor holding a NaN or an infinity raises DataError naming it, so a
    corrupt file is bad input rather than a model with non-finite outputs.
    """
    refuse_nul(path)
    with open(path, "rb") as fh:
        reader = _Reader(fh, str(path))
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
                filters=tuple(f for f, _ in pairs),
                kernels=tuple(k for _, k in pairs),
                dense_units=dense_units,
            )
        except DataError as exc:
            raise DataError(f"{path}: invalid model config: {exc}") from None
        if reg.window != cls_window:
            raise DataError(f"{path}: regression window {reg.window} differs from "
                            f"classification window {cls_window}")
        flag_at, flag = fh.tell(), reader.u8()
        if flag > 1:
            raise DataError(f"{path}: normalization flag at byte {flag_at} is "
                            f"{flag}, not 0 or 1")
        stats = [reader.f64() for _ in range(4)] if flag else None
        try:
            meta = NormalizationMeta(*stats) if stats else None
        except DataError as exc:
            raise DataError(f"{path}: invalid normalization metadata: {exc}") from None
        # Refuse a header whose parameters cannot fit in the rest of the file
        # before the model for it is allocated.
        needed = 4 * parameter_count(reg, cls_cfg)
        left = reader.left()
        if needed > left:
            raise DataError(f"{path}: truncated checkpoint: the header implies "
                            f"{needed} bytes of float32 parameters, {left} bytes left")
        model = GatedAttentionModel.zeros(reg, cls_cfg, appliance=appliance,
                                          dtype=np.float32)
        model.norm_meta = meta
        expected = _tensor_table(model)
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
            reader.take_into(target)
            _refuse_non_finite(path, name, target)
        reader.done()
        return model
