"""Spans and counters recorded around nilmnet's public callables.

Every probe is installed from the benchmark's side by replacing an attribute
(a module function or a class method) for the duration of a `with` block;
nothing in the package is edited. A span's self time is its duration minus
the durations of the spans it directly encloses, so self times of nested
spans never double count.

GFLOP and megabyte figures are computed from tensor shapes, not measured:
each GEMM (m, k) @ (k, n) counts 2*m*k*n floating-point operations and
itemsize * (m*k + k*n + m*n) bytes moved.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter


@contextlib.contextmanager
def patched(owner, attr, make_wrapper):
    """Replace owner.attr with make_wrapper(original) inside the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Accumulates self time, call counts and work counters per span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans = 0
        self.forward_steps = {}    # sequence length of each layer's last forward
        self._stack = []           # [name, child seconds] of each open span

    def span(self, name, fn, /, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            self.spans += 1
            if self._stack:
                self._stack[-1][1] += duration

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def function(self, name, after=None):
        """Wrapper factory for a module function; after(tracer, args, result)."""
        def make(original):
            def traced(*args, **kwargs):
                result = self.span(name, original, *args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            return traced
        return make

    def method(self, name_of, before=None):
        """Wrapper factory for a method; the span name comes from the instance."""
        def make(original):
            def traced(obj, *args, **kwargs):
                name = name_of(obj)
                if before is not None:
                    before(self, obj, name, args)
                return self.span(name, original, obj, *args, **kwargs)
            return traced
        return make

    def install(self):
        """Context manager that probes every traced layer of nilmnet."""
        from nilmnet import checkpoint, cli, data, evaluation, model, nn, training

        stack = contextlib.ExitStack()
        for cls in (nn.Conv1D, nn.Dense, nn.BiLSTM, nn.Attention):
            for fn in ("forward", "backward"):
                stack.enter_context(patched(
                    cls, fn, self.method(_layer_name(fn), before=_count_gemm)))
        for fn in ("mse_loss", "bce_loss"):
            stack.enter_context(patched(nn, fn, self.function("nn.loss")))
        stack.enter_context(patched(
            nn.SgdNesterov, "step", self.method(_const("nn.SgdNesterov.step"))))

        gated = model.GatedAttentionModel
        for fn in ("forward", "backward", "snapshot_weights", "restore_weights",
                   "train_step_grads", "batch_loss"):
            stack.enter_context(patched(
                gated, fn, self.method(_const(f"model.{fn}"),
                                       before=_count_model_call)))

        stack.enter_context(patched(training, "train", self.function("training.train")))

        for fn in ("disaggregate", "reconstruct_median", "evaluate"):
            stack.enter_context(patched(evaluation, fn,
                                        self.function(f"evaluation.{fn}")))

        stack.enter_context(patched(
            data, "load_channel_csv",
            self.function("data.load_channel_csv", after=_count_loaded_rows)))
        stack.enter_context(patched(
            data, "write_channel_csv",
            self.function("data.write_channel_csv", after=_count_written_rows)))
        for fn in ("align_pair", "make_state_sequence", "sliding_windows",
                   "normalize_windows", "synth_household"):
            stack.enter_context(patched(data, fn, self.function(f"data.{fn}")))

        # cli binds the checkpoint functions by name, so both bindings are probed.
        for owner in (checkpoint, cli):
            stack.enter_context(patched(
                owner, "save_checkpoint",
                self.function("checkpoint.save", after=_count_saved_bytes)))
            stack.enter_context(patched(
                owner, "load_checkpoint",
                self.function("checkpoint.load", after=_count_loaded_bytes)))

        stack.enter_context(patched(
            cli, "main", self.function("cli.main", after=_count_cli_failure)))
        return stack


LAYERS = ("reg.conv", "reg.bilstm", "reg.attn", "reg.dense", "cls.conv", "cls.dense")
SELF_TIMED = (
    "nn.loss", "nn.SgdNesterov.step",
    "model.forward", "model.backward", "model.snapshot_weights",
    "model.restore_weights", "model.train_step_grads", "model.batch_loss",
    "training.train",
    "evaluation.disaggregate", "evaluation.reconstruct_median", "evaluation.evaluate",
    "data.load_channel_csv", "data.write_channel_csv", "data.align_pair",
    "data.make_state_sequence", "data.sliding_windows", "data.normalize_windows",
    "data.synth_household",
    "checkpoint.save", "checkpoint.load", "cli.main",
)
CALL_COUNTED = ("nn.SgdNesterov.step", "evaluation.disaggregate")
COUNTERS = (
    ("training.steps", "calls"), ("training.windows", "windows"),
    ("evaluation.forward_batches", "calls"),
    ("data.load_channel_csv.rows", "rows"), ("data.write_channel_csv.rows", "rows"),
    ("checkpoint.save.bytes", "bytes"), ("checkpoint.load.bytes", "bytes"),
    ("cli.main.fail", "calls"),
)


def per_layer_metrics(tracer, ops, wall_s, overhead_pct):
    """Every per-layer metric of a traced phase, each divided by its operations.

    Dividing by the operation count keeps the figures comparable between
    commits that complete different numbers of operations in the same time.
    """
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value / ops, "unit": unit}

    for layer in LAYERS:
        for fn in ("forward", "backward"):
            put(f"nn.{layer}.{fn}_s", tracer.self_s[f"nn.{layer}.{fn}"], "s")
        put(f"nn.{layer}.gflop", tracer.counts[f"nn.{layer}.gflop"], "GFLOP-computed")
        put(f"nn.{layer}.mbytes", tracer.counts[f"nn.{layer}.mbytes"], "MB-computed")
    for name in SELF_TIMED:
        put(f"{name}.self_s", tracer.self_s[name], "s")
    for name in CALL_COUNTED:
        put(f"{name}.calls", tracer.calls[name], "calls")
    for name, unit in COUNTERS:
        put(name, tracer.counts[name], unit)
    put("trace.spans", tracer.spans, "spans")
    metrics["trace.coverage_pct"] = {
        "value": 100.0 * sum(tracer.self_s.values()) / wall_s, "unit": "%"}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


def _const(name):
    return lambda _obj: name


def _layer_key(layer):
    """'reg.conv' / 'cls.dense' / 'reg.bilstm' / 'reg.attn' for a layer object."""
    params = layer.params if hasattr(layer, "params") else layer.fw.params
    branch, part = params.name.split(".")[:2]
    if part.startswith("conv"):
        part = "conv"
    elif part.startswith("fc"):
        part = "dense"
    return f"{branch}.{part}"


def _layer_name(fn):
    return lambda layer: f"nn.{_layer_key(layer)}.{fn}"


def layer_gemms(layer, fn, arg, steps=None):
    """(flops, bytes) of the GEMMs one forward or backward call performs.

    arg is the call's array argument; an attention backward also needs the
    sequence length of the forward it undoes, passed as steps. Each GEMM is
    listed as (repeats, m, k, n).
    """
    from nilmnet import nn

    b = arg.shape[0]
    if isinstance(layer, nn.Conv1D):
        length, ck, f = arg.shape[2], layer.in_channels * layer.kernel, layer.filters
        fwd = [(1, b * length, ck, f)]
        bwd = [(1, f, b * length, ck), (1, b * length, f, ck)]
    elif isinstance(layer, nn.Dense):
        n, m = layer.in_features, layer.units
        fwd = [(1, b, n, m)]
        bwd = [(1, m, b, n), (1, b, m, n)]
    elif isinstance(layer, nn.BiLSTM):
        cells = 2 * arg.shape[1]          # both directions, every time step
        d, h = layer.input_size, layer.hidden_size
        fwd = [(cells, b, d, 4 * h), (cells, b, h, 4 * h)]
        bwd = [(cells, 4 * h, b, d), (cells, 4 * h, b, h),
               (cells, b, 4 * h, d), (cells, b, 4 * h, h)]
    elif isinstance(layer, nn.Attention):
        if fn == "forward":
            steps = arg.shape[1]
        s, u = layer.state_size, layer.units
        fwd = [(1, b * steps, s, u), (1, b * steps, u, 1), (b, 1, steps, s)]
        bwd = [(1, u, b * steps, s), (1, b * steps, u, s), (b, 1, s, steps)]
    else:
        return 0.0, 0.0
    size = arg.dtype.itemsize
    flops = nbytes = 0.0
    for repeats, m, k, n in (fwd if fn == "forward" else bwd):
        flops += repeats * 2.0 * m * k * n
        nbytes += repeats * size * (m * k + k * n + m * n)
    return flops, nbytes


def _count_gemm(tracer, layer, name, args):
    fn = name.rsplit(".", 1)[1]
    if fn == "forward" and args[0].ndim == 3:
        tracer.forward_steps[id(layer)] = args[0].shape[1]
    flops, nbytes = layer_gemms(layer, fn, args[0],
                                tracer.forward_steps.get(id(layer)))
    key = f"nn.{_layer_key(layer)}"
    tracer.count(f"{key}.gflop", flops / 1e9)
    tracer.count(f"{key}.mbytes", nbytes / 1e6)


def _count_model_call(tracer, _model, name, args):
    if name == "model.forward" and tracer.inside("evaluation.disaggregate"):
        tracer.count("evaluation.forward_batches")
    elif name == "model.train_step_grads":
        tracer.count("training.steps")
        tracer.count("training.windows", len(args[0]))


def _count_loaded_rows(tracer, _args, series):
    tracer.count("data.load_channel_csv.rows", len(series))


def _count_written_rows(tracer, args, _result):
    tracer.count("data.write_channel_csv.rows", len(args[1]))


def _count_saved_bytes(tracer, args, _result):
    tracer.count("checkpoint.save.bytes", os.path.getsize(args[0]))


def _count_loaded_bytes(tracer, args, _result):
    tracer.count("checkpoint.load.bytes", os.path.getsize(args[0]))


def _count_cli_failure(tracer, _args, code):
    if code != 0:
        tracer.count("cli.main.fail")
