"""The four closed-loop workloads of the nilmnet benchmark.

Each workload builds its inputs in `setup(seed)` from synthetic households,
then the runner calls `op()` back to back: one caller, one process, and the
next operation starts when the previous one has been checked. `op()` is the
timed part and returns (work units, result); `check(result)` is untimed and
raises CheckFailed when an output is wrong. Why each workload exists is
written in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

import numpy as np

from nilmnet import checkpoint, cli, data, evaluation, nn, training
from nilmnet.model import GatedAttentionModel, RegressionConfig, joint_loss

from tracing import patched

perf_counter = time.perf_counter

BATCH = 32
WINDOW_STRIDE = 16
NOISE_STD_W = 10.0
MODEL_SEED = 8
HELD_OUT_SEED_OFFSET = 1_000_003   # held-out house seed = workload seed + offset

# The acceptance household: the heater is the target, the fridge is background.
HEATER = data.ApplianceSpec("heater", window_l=64, on_threshold_w=50,
                            min_on_s=36, min_off_s=60, max_power_w=200)
FRIDGE = data.ApplianceSpec("fridge", window_l=64, on_threshold_w=15,
                            min_on_s=120, min_off_s=120, max_power_w=60)
# UK-DALE kettle window length: short, rare, high-power activations.
KETTLE = data.ApplianceSpec("kettle", window_l=128, on_threshold_w=1000,
                            min_on_s=12, min_off_s=300, max_power_w=3000)


TOY = RegressionConfig(window=64, filters=8, kernel=4, hidden=32)
PAPER = RegressionConfig(window=128, filters=32, kernel=8, hidden=512)


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def window_quality(model, ws, meta, threshold_w, chunk=256):
    """Joint loss, and MAE (W) and F1 of the gated output, on raw-watt windows."""
    norm = data.normalize_windows(ws, meta)
    loss_sum, outputs = 0.0, []
    for lo in range(0, len(ws), chunk):
        part = slice(lo, lo + chunk)
        result = model.forward(norm.inputs[part])
        loss, _, _ = joint_loss(result.output, result.state,
                                norm.targets[part].astype(model.dtype),
                                norm.states[part].astype(model.dtype))
        loss_sum += loss * len(result.output)
        outputs.append(result.output)
    watts = data.denormalize_target(np.concatenate(outputs), meta).reshape(-1)
    truth = np.asarray(ws.targets, dtype=np.float64).reshape(-1)
    scores = evaluation.classification_scores(truth, watts, threshold_w)
    return loss_sum / len(ws), evaluation.mae(truth, watts), scores.f1


def windowed_house(specs, seed, n_train, n_val, stride):
    """A household just long enough for n_train + n_val windows at the stride.

    Training windows come first; validation windows start at least one
    window length after the last training window, so no sample is shared.
    Returns (raw train windows, raw validation windows, normalization meta).
    """
    target = specs[0]
    window = target.window_l
    gap = -(-window // stride)
    n_windows = n_train + gap + n_val
    samples = (n_windows - 1) * stride + window
    aggregate, series = data.synth_household(
        specs, samples * 3, noise_std=NOISE_STD_W, seed=seed, period_s=3)
    appliance = series[0]
    states = data.make_state_sequence(appliance, target)
    every = data.sliding_windows(aggregate.values, appliance.values, states, window)
    every = every.take(np.arange(0, len(every), stride))
    train_ws = every.take(np.arange(n_train))
    val_ws = every.take(np.arange(n_train + gap, n_windows))
    boundary = int(val_ws.starts[0])
    meta = data.NormalizationMeta.fit(aggregate.values[:boundary],
                                      appliance.values[:boundary])
    return train_ws, val_ws, meta


def same_model(a, b):
    """Configs, metadata and every weight tensor bit for bit."""
    if (a.reg_cfg, a.cls_cfg, a.appliance, a.norm_meta) != \
            (b.reg_cfg, b.cls_cfg, b.appliance, b.norm_meta):
        return False
    return all(
        pa.name == pb.name and pa.weights.keys() == pb.weights.keys()
        and all(pa.weights[k].dtype == pb.weights[k].dtype
                and pa.weights[k].tobytes() == pb.weights[k].tobytes()
                for k in pa.weights)
        for pa, pb in zip(a.all_params(), b.all_params()))


def train_model(reg_cfg, train_ws, val_ws, meta, cfg, appliance):
    model = GatedAttentionModel.init(reg_cfg, appliance=appliance, seed=MODEL_SEED)
    model, record = training.train(model, data.normalize_windows(train_ws, meta),
                                   data.normalize_windows(val_ws, meta), cfg)
    model.norm_meta = meta
    return model, record


@dataclass(frozen=True)
class TrainSize:
    reg: RegressionConfig
    specs: tuple             # target appliance first
    train_batches: int       # per epoch, all of BATCH windows
    val_windows: int         # monitored by training.train after every epoch
    quality_windows: int     # scored once after the loop; includes the above
    epochs: int
    base_lr: float


class TrainWorkload:
    """One operation is a whole `training.train` call on a fixed schedule.

    The schedule cannot stop early (patience exceeds the epoch count), every
    call starts from the same seeded weights, and the trained model must
    survive a checkpoint round trip bit for bit. Latency samples are train
    steps: from `train_step_grads` entering to `SgdNesterov.step` returning.
    """
    min_ops = 2                       # two same-seed trainings are compared
    throughput_name = "train_windows_per_s"
    latency_name = "train_step_ms"

    def __init__(self, name, size: TrainSize, workdir):
        self.name = name
        self.size = size
        self.ckpt_path = os.path.join(workdir, f"{name}.ckpt")
        self.cfg = training.TrainConfig(
            batch_size=BATCH, max_epochs=size.epochs, patience=size.epochs + 1,
            base_lr=size.base_lr, seed=MODEL_SEED)
        self.first_losses = None
        self.model = self.record = None

    def setup(self, seed):
        s = self.size
        self.train_ws, self.quality_ws, self.meta = windowed_house(
            s.specs, seed, s.train_batches * BATCH,
            max(s.val_windows, s.quality_windows), WINDOW_STRIDE)
        self.val_ws = self.quality_ws.take(np.arange(s.val_windows))

    def hooks(self, samples):
        started = []

        def grads(original):
            def timed(model, *args, **kwargs):
                started.append(perf_counter())
                return original(model, *args, **kwargs)
            return timed

        def step(original):
            def timed(optimizer):
                result = original(optimizer)
                samples.append(perf_counter() - started.pop())
                return result
            return timed

        stack = contextlib.ExitStack()
        stack.enter_context(patched(GatedAttentionModel, "train_step_grads", grads))
        stack.enter_context(patched(nn.SgdNesterov, "step", step))
        return stack

    def op(self):
        model, record = train_model(self.size.reg, self.train_ws, self.val_ws,
                                    self.meta, self.cfg, self.size.specs[0].name)
        return len(self.train_ws) * len(record.train_losses), (model, record)

    def check(self, result):
        model, record = result
        losses = (record.train_losses, record.val_losses)
        check(len(record.train_losses) == self.size.epochs,
              f"schedule ran {len(record.train_losses)} of {self.size.epochs} epochs")
        if self.first_losses is None:
            self.first_losses = losses
        check(losses == self.first_losses, "same-seed trainings gave different losses")
        checkpoint.save_checkpoint(self.ckpt_path, model)
        check(same_model(model, checkpoint.load_checkpoint(self.ckpt_path)),
              "checkpoint save/load is not bit-exact")
        self.model, self.record = model, record

    def quality(self):
        """Joint loss, MAE and F1 of the trained model on the quality windows.

        The quality set is larger than the per-epoch validation set where a
        small model's loss would otherwise swing with the household.
        """
        val_loss, mae_w, f1 = window_quality(self.model, self.quality_ws, self.meta,
                                             self.size.specs[0].on_threshold_w)
        return val_loss, {"val_loss": (val_loss, "loss"), "val_mae_w": (mae_w, "W"),
                          "val_f1": (f1, "ratio")}


@dataclass(frozen=True)
class DisaggSize:
    fixture_batches: int     # training windows of the fixture, in batches
    fixture_lr: float
    held_out_houses: int     # operations cycle through these inputs
    held_out_batches: int    # hop-1 forward batches of 256 windows per house


class DisaggWorkload:
    """One operation is `nilmnet disaggregate --export-attention` via cli.main.

    Setup trains a toy fixture checkpoint on a short seeded schedule and
    writes a few held-out houses; operations cycle through them. Each
    house's window count is a whole number of forward batches, so every
    latency sample (one forward batch) has the same size. Quality is scored
    over all houses together, which averages out one house's luck.
    """
    throughput_name = "disagg_samples_per_s"
    latency_name = "disagg_batch_ms"
    forward_batch = 256          # evaluation.disaggregate's batch size

    def __init__(self, name, size: DisaggSize, workdir):
        self.name = name
        self.size = size
        self.min_ops = size.held_out_houses
        self.workdir = workdir
        self.ckpt_path = os.path.join(workdir, "fixture.ckpt")
        self.out_path = os.path.join(workdir, "prediction.csv")
        self.attention_path = os.path.join(workdir, "prediction.attention.csv")
        self.fixture_losses = None
        self.predictions = {}
        self.calls = 0

    def setup(self, seed):
        s = self.size
        train_ws, val_ws, meta = windowed_house(
            (HEATER, FRIDGE), seed, s.fixture_batches * BATCH, 2 * BATCH,
            WINDOW_STRIDE)
        cfg = training.TrainConfig(batch_size=BATCH, max_epochs=1, patience=2,
                                   base_lr=s.fixture_lr, seed=MODEL_SEED)
        model, record = train_model(TOY, train_ws, val_ws, meta, cfg, HEATER.name)
        losses = (record.train_losses, record.val_losses)
        if self.fixture_losses is None:
            self.fixture_losses = losses
        check(losses == self.fixture_losses,
              "same-seed fixture trainings gave different losses")
        checkpoint.save_checkpoint(self.ckpt_path, model)
        check(same_model(model, checkpoint.load_checkpoint(self.ckpt_path)),
              "checkpoint save/load is not bit-exact")

        samples = s.held_out_batches * self.forward_batch + HEATER.window_l - 1
        self.houses = []
        for i in range(s.held_out_houses):
            aggregate, (heater, _) = data.synth_household(
                (HEATER, FRIDGE), samples * 3, noise_std=NOISE_STD_W,
                seed=seed + HELD_OUT_SEED_OFFSET + i, period_s=3)
            path = os.path.join(self.workdir, f"held_out_{i}.csv")
            data.write_channel_csv(path, aggregate)
            self.houses.append((path, aggregate, heater.values))

    def hooks(self, samples):
        def forward(original):
            def timed(model, *args, **kwargs):
                started = perf_counter()
                result = original(model, *args, **kwargs)
                samples.append(perf_counter() - started)
                return result
            return timed
        return patched(GatedAttentionModel, "forward", forward)

    def op(self):
        house = self.calls % len(self.houses)
        self.calls += 1
        path, aggregate, _ = self.houses[house]
        code = cli.main(["disaggregate", "--checkpoint", self.ckpt_path,
                         "--input", path, "--out", self.out_path,
                         "--export-attention"])
        return len(aggregate), (house, code)

    def check(self, result):
        house, code = result
        _, aggregate, _ = self.houses[house]
        check(code == 0, f"disaggregate exited with {code}")
        table = np.loadtxt(self.out_path, delimiter=",", skiprows=1, ndmin=2)
        check(table.shape == (len(aggregate), 2),
              f"prediction has shape {table.shape}, input {len(aggregate)} samples")
        check(np.array_equal(table[:, 0], aggregate.timestamps()),
              "prediction timestamps differ from the input's")
        prediction = table[:, 1]
        check(np.all(np.isfinite(prediction)), "non-finite prediction")
        check(np.all(prediction >= 0), "negative prediction")
        with open(self.attention_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        windows = len(aggregate) - HEATER.window_l + 1
        check(rows == windows, f"attention export has {rows} rows, expected {windows}")
        first = self.predictions.setdefault(house, prediction)
        check(np.array_equal(prediction, first),
              "repeated disaggregation of one input differs")

    def quality(self):
        """MAE and F1 of the CLI's predictions over every held-out house."""
        truth = np.concatenate([h[2] for h in self.houses])
        prediction = np.concatenate([self.predictions[i] for i in range(len(self.houses))])
        report = evaluation.evaluate(HEATER.name, truth, prediction,
                                     period_len_k=HEATER.window_l)
        return report.mae_w, {"disagg_mae_w": (report.mae_w, "W"),
                              "disagg_f1": (report.f1, "ratio")}


@dataclass(frozen=True)
class IngestSize:
    samples: int             # per channel


class IngestWorkload:
    """One operation is the data path with no model, timed as a whole.

    Synthesize the house from the seed, write its aggregate and heater
    channels as CSV, load both back, align, label, window and normalize,
    then score the aggregate itself as a (poor) heater estimate and write the
    report. The work unit is one loaded CSV row.
    """
    min_ops = 1
    throughput_name = "ingest_rows_per_s"
    latency_name = "ingest_pass_ms"

    def __init__(self, name, size: IngestSize, workdir):
        self.name = name
        self.size = size
        self.paths = {key: os.path.join(workdir, f"{key}.csv")
                      for key in ("aggregate", "heater", "report")}

    def setup(self, seed):
        self.seed = seed
        self.reference = self._synth()

    def _synth(self):
        aggregate, (heater, _) = data.synth_household(
            (HEATER, FRIDGE), self.size.samples * 3, noise_std=NOISE_STD_W,
            seed=self.seed, period_s=3)
        return aggregate, heater

    def hooks(self, samples):
        return contextlib.nullcontext()

    def op(self):
        aggregate, heater = self._synth()
        data.write_channel_csv(self.paths["aggregate"], aggregate)
        data.write_channel_csv(self.paths["heater"], heater)
        loaded_agg = data.load_channel_csv(self.paths["aggregate"], name="aggregate")
        loaded_app = data.load_channel_csv(self.paths["heater"], name="heater")
        agg, app = data.align_pair(loaded_agg, loaded_app, loaded_app.period_s)
        states = data.make_state_sequence(app, HEATER)
        windows = data.sliding_windows(agg.values, app.values, states, HEATER.window_l)
        meta = data.NormalizationMeta.fit(agg.values, app.values)
        normalized = data.normalize_windows(windows, meta)
        report = evaluation.evaluate(HEATER.name, app.values, agg.values,
                                     period_len_k=HEATER.window_l)
        evaluation.write_report_csv(self.paths["report"], [report])
        return len(loaded_agg) + len(loaded_app), (agg, app, normalized, report)

    def check(self, result):
        agg, app, normalized, report = result
        ref_agg, ref_app = self.reference
        check(np.array_equal(agg.values, ref_agg.values),
              "aggregate changed through CSV write/load")
        check(np.array_equal(app.values, ref_app.values),
              "heater channel changed through CSV write/load")
        check(len(normalized) == len(agg) - HEATER.window_l + 1,
              f"{len(normalized)} windows from {len(agg)} samples")
        check(np.all(np.isfinite(normalized.inputs)), "non-finite normalized input")
        truth, estimate = ref_app.values, ref_agg.values
        check(report.mae_w == float(np.mean(np.abs(truth - estimate))),
              "evaluate's MAE differs from the direct computation")
        on_true, on_pred = truth > report.threshold_w, estimate > report.threshold_w
        tp = int(np.sum(on_true & on_pred))
        check((report.tp, report.fp, report.fn)
              == (tp, int(np.sum(on_pred)) - tp, int(np.sum(on_true)) - tp),
              "evaluate's confusion counts differ from the direct computation")
        stored = evaluation.read_report_csv(self.paths["report"])
        check(len(stored) == 1 and stored[0]["mae_w"] == report.mae_w,
              "report CSV does not hold the computed MAE")
        self.report = report

    def quality(self):
        """Scores of the aggregate-as-estimate baseline, checked in check()."""
        r = self.report
        return r.mae_w, {"baseline_mae_w": (r.mae_w, "W"),
                         "baseline_f1": (r.f1, "ratio")}


SIZES = {
    "train_toy": TrainSize(TOY, (HEATER, FRIDGE), train_batches=16, val_windows=64,
                           quality_windows=512, epochs=2, base_lr=0.1),
    "train_paper": TrainSize(PAPER, (KETTLE, FRIDGE), train_batches=4, val_windows=32,
                             quality_windows=32, epochs=1, base_lr=0.02),
    "disagg_toy": DisaggSize(fixture_batches=20, fixture_lr=0.1, held_out_houses=6,
                             held_out_batches=8),
    "ingest_score": IngestSize(samples=20_000),
}

# The smallest sizes at which each workload still runs every code path.
SMALLEST = {
    "train_toy": TrainSize(TOY, (HEATER, FRIDGE), train_batches=1, val_windows=4,
                           quality_windows=8, epochs=1, base_lr=0.1),
    "train_paper": TrainSize(PAPER, (KETTLE, FRIDGE), train_batches=1, val_windows=4,
                             quality_windows=4, epochs=1, base_lr=0.02),
    "disagg_toy": DisaggSize(fixture_batches=1, fixture_lr=0.1, held_out_houses=1,
                             held_out_batches=1),
    "ingest_score": IngestSize(samples=2_000),
}

KINDS = {"train_toy": TrainWorkload, "train_paper": TrainWorkload,
         "disagg_toy": DisaggWorkload, "ingest_score": IngestWorkload}


def make(name, workdir, size=None):
    return KINDS[name](name, size if size is not None else SIZES[name], workdir)
