"""Memory against series length: each entry point's traced peak at N and 2N
samples bounds what it holds per sample. Fixed costs (imports, the model,
BLAS buffers) cancel in the slope; a warm-up call first pays the one-time
costs that would not. A train step's gradients are bounded against the
step's own activations instead, since a step has no length to vary."""

import tracemalloc

import numpy as np
import pytest

from nilmnet import cli, data, evaluation as ev, training
from nilmnet.model import ClassificationConfig, GatedAttentionModel, RegressionConfig

from conftest import traced_peak

N = 20_000
WARM_UP = 2_000


def aggregate(n):
    return data.PowerSeries("agg", 6, 0, np.random.default_rng(n).uniform(0.0, 3000.0, n))


@pytest.fixture(scope="module")
def model():
    reg = RegressionConfig(window=64, filters=2, kernel=4, hidden=3)
    cls_cfg = ClassificationConfig(filters=(3, 3, 4, 5, 5, 5),
                                   kernels=(10, 8, 6, 5, 5, 5), dense_units=16)
    model = GatedAttentionModel.init(reg, cls_cfg, appliance="toy", seed=5)
    model.norm_meta = data.NormalizationMeta(1500.0, 800.0, 0.0, 2000.0)
    return model


def load_channel_csv(n, tmp_path, model):
    path = tmp_path / f"channel_{n}.csv"
    data.write_channel_csv(path, aggregate(n))
    return lambda: data.load_channel_csv(path)


def evaluate(n, tmp_path, model):
    rng = np.random.default_rng(n)
    y, y_hat = rng.uniform(0.0, 100.0, (2, n))
    return lambda: ev.evaluate("toy", y, y_hat)


def training_windows(n, tmp_path, model):
    """The window chain of `nilmnet train` at hop 1 and the paper's L=128."""
    window = 128
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 3000.0, n)
    y = rng.uniform(0.0, 2000.0, n)
    s = (y > 1000.0).astype(np.int8)

    def call():
        ws = data.sliding_windows(x, y, s, window)
        train, val = data.split_train_val(ws, 0.15, gap_samples=window - 1)
        boundary = int(val.starts[0])
        meta = data.NormalizationMeta.fit(x[:boundary], y[:boundary])
        return data.normalize_windows(train, meta), data.normalize_windows(val, meta)
    return call


def disaggregate(export_attention):
    def entry(n, tmp_path, model):
        series = aggregate(n)
        return lambda: ev.disaggregate(model, series, export_attention=export_attention)
    return entry


# (entry point, bound in bytes per sample). The attention export returns the
# (N, L) alphas in the model's float32, 256 B per sample at L=64, and 272 B
# per sample were measured. The training window sets
# hold no window values: (N, L) float64 windows alone would be 1 KB per
# sample at L=128.
SLOPES = [
    pytest.param(load_channel_csv, 80, id="load_channel_csv"),
    pytest.param(evaluate, 32, id="evaluate"),
    pytest.param(training_windows, 100, id="training_windows"),
    pytest.param(disaggregate(False), 64, id="disaggregate-L64"),
    pytest.param(disaggregate(True), 300, id="disaggregate-L64-attention"),
]


@pytest.mark.parametrize("entry,bound", SLOPES)
def test_peak_grows_by_bounded_bytes_per_sample(entry, bound, tmp_path, model):
    entry(WARM_UP, tmp_path, model)()
    peaks = []
    for n in (N, 2 * N):
        call = entry(n, tmp_path, model)
        with traced_peak() as traced:
            call()
            peaks.append(traced()[1])
    slope = (peaks[1] - peaks[0]) / N
    assert slope < bound, f"{slope:.0f} B per sample"


def test_attention_csv_holds_one_block_of_rows(tmp_path):
    """Writing an N x 64 attention table holds one block of about
    data.WRITE_BLOCK_FIELDS fields as Python objects: 0.78 MiB traced at
    N = 20,000 was measured. Blocks of 65,536 rows would hold the whole
    table's 1.3 M floats and their texts: 148 MiB measured."""
    alphas = np.random.default_rng(8).dirichlet(np.ones(64), N).astype(np.float32)
    cli.write_attention_csv(tmp_path / "warm.csv", alphas[:WARM_UP])
    with traced_peak() as traced:
        cli.write_attention_csv(tmp_path / "attention.csv", alphas)
        peak = traced()[1]
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_paper_train_step_holds_one_layers_gradients(monkeypatch):
    """A train step at the paper's kettle shape (L=128 F=32 K=8 H=512) and
    B=32 holds its activations plus the gradients of at most one layer:
    each is applied and dropped as its layer's backward returns. The
    activations are measured as a step that writes a grad vector made
    beforehand: 111.2 MiB traced. The step under train, less the velocity,
    read 123.7 MiB, 12.5 above, at cls.fc1's backward, whose 25 MiB
    gradient is the largest; the whole 38.6 MiB grad vector held through
    the step added 38.9."""
    reg = RegressionConfig(window=128, filters=32, kernel=8, hidden=512)
    rng = np.random.default_rng(37)
    n = 32 + reg.window - 1
    x, y = rng.normal(size=(2, n)).astype(np.float32)
    ws = data.sliding_windows(x, y, (rng.random(n) > 0.5).astype(np.float32), reg.window)
    batch = ws.batch(np.arange(32))
    model = GatedAttentionModel.init(reg, seed=37)
    model.batch_loss(*batch)                        # fills lru caches
    model.grads                   # makes the vector the backward writes
    with traced_peak() as traced:
        model.train_step_grads(*batch)
        activations = traced()[1]
    model._grad_vector.release()

    step_grads = GatedAttentionModel.train_step_grads
    peaks = []

    def traced_step(model, *batch):
        tracemalloc.reset_peak()
        loss = step_grads(model, *batch)
        peaks.append(traced()[1])
        return loss

    monkeypatch.setattr(GatedAttentionModel, "train_step_grads", traced_step)
    with traced_peak() as traced:
        training.train(model, ws, ws.take(np.arange(0)),
                       training.TrainConfig(max_epochs=1, batch_size=32))
    held = peaks[0] - model.weights.nbytes - activations    # less the velocity
    largest = max(p.n_params for p in model.all_params()) * model.dtype.itemsize
    assert held < largest, f"{held / 2**20:.1f} MiB"
