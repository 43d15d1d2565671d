"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. Criteria 7, 8, 9, and 11 share one end-to-end experiment:
a synthetic two-appliance household is generated, a toy-dimension model is
trained through the command-line surface, and held-out houses from the same
generator (one with a shifted activation-duration distribution) are
disaggregated and scored.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from nilmnet import cli, data, nn
from nilmnet import evaluation as ev
from nilmnet.checkpoint import load_checkpoint, save_checkpoint
from nilmnet.model import ClassificationConfig, GatedAttentionModel, RegressionConfig

from oracles import (
    attention_direct,
    bce_direct,
    bilstm_direct,
    confusion_direct,
    conv1d_direct,
    dense_direct,
    lstm_step_direct,
    median_reconstruct_direct,
    mse_direct,
    sae_direct,
    softmax_direct,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion={criterion} status={status} {detail}")
    return ok


# ----------------------------------------------------------------- 1


def test_criterion_1_gradient_correctness(capsys):
    started = time.perf_counter()
    code = cli.main(["gradcheck"])  # toy dims are the command defaults
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("tensor=")]
    with capsys.disabled():
        ok = report(1, code == 0 and elapsed < 60.0 and len(lines) == 17,
                    f"exit={code} tensors={len(lines)} runtime={elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------------- 2


def test_criterion_2_kernel_oracles():
    started = time.perf_counter()
    tol = 1e-10
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)

        conv = nn.Conv1D("c", 2, 3, int(rng.integers(1, 6)), "relu",
                         rng=rng, dtype=np.float64)
        conv.params.weights["b"][:] = rng.normal(size=3)
        x = rng.normal(size=(1, 2, 6))
        want = conv1d_direct(x[0], conv.params.weights["W"],
                             conv.params.weights["b"], "relu")
        worst = max(worst, np.max(np.abs(conv.forward(x)[0] - want)))

        dense = nn.Dense("d", 3, 4, "tanh", rng=rng, dtype=np.float64)
        dense.params.weights["b"][:] = rng.normal(size=4)
        xv = rng.normal(size=(1, 3))
        want = dense_direct(xv[0], dense.params.weights["W"],
                            dense.params.weights["b"], "tanh")
        worst = max(worst, np.max(np.abs(dense.forward(xv)[0] - want)))

        cell = nn.LSTMCell("l", 2, 3, rng=rng, dtype=np.float64)
        xs = rng.normal(size=(1, 2))
        h_prev, c_prev = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        h, c, _ = cell.step(xs, h_prev, c_prev)
        w = cell.params.weights
        h_ref, c_ref = lstm_step_direct(xs[0], h_prev[0], c_prev[0],
                                        w["W"], w["U"], w["b"])
        worst = max(worst, np.max(np.abs(h[0] - h_ref)),
                    np.max(np.abs(c[0] - c_ref)))

        bilstm = nn.BiLSTM("b", 1, 2, rng=rng, dtype=np.float64)
        seq = rng.normal(size=(1, 3, 1))
        fw, bw = bilstm.fw.params.weights, bilstm.bw.params.weights
        want = bilstm_direct(seq[0], (fw["W"], fw["U"], fw["b"]),
                             (bw["W"], bw["U"], bw["b"]))
        worst = max(worst, np.max(np.abs(bilstm.forward(seq)[0] - want)))

        attn = nn.Attention("a", 4, 3, rng=rng, dtype=np.float64)
        attn.params.weights["b"][:] = rng.normal(size=3)
        hidden = rng.normal(size=(1, 4, 4))
        context, alpha = attn.forward(hidden)
        aw = attn.params.weights
        c_ref, a_ref = attention_direct(hidden[0], aw["W"], aw["b"], aw["v"])
        worst = max(worst, np.max(np.abs(context[0] - c_ref)),
                    np.max(np.abs(alpha[0] - a_ref)))

        scores = rng.normal(size=9) * 5
        worst = max(worst, np.max(np.abs(nn.softmax(scores)
                                         - softmax_direct(scores))))

        pred, target = rng.normal(size=7), rng.normal(size=7)
        worst = max(worst, abs(nn.mse_loss(pred, target)[0]
                               - mse_direct(pred, target)))
        probs = rng.uniform(0.02, 0.98, size=7)
        labels = rng.integers(0, 2, size=7).astype(float)
        worst = max(worst, abs(nn.bce_loss(probs, labels)[0]
                               - bce_direct(probs, labels)))
    elapsed = time.perf_counter() - started
    ok = report(2, worst < tol and elapsed < 30.0,
                f"max|delta|={worst:.2e} runtime={elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------------- 3


def test_criterion_3_attention_invariants():
    ok = True
    worst_sum = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        layer = nn.Attention("a", 8, 4, rng=rng, dtype=np.float32)
        hidden = rng.normal(size=(1, 12, 8)).astype(np.float32)
        _, alpha = layer.forward(hidden)
        worst_sum = max(worst_sum, abs(float(alpha.sum()) - 1.0))
        ok &= abs(float(alpha.sum()) - 1.0) <= 1e-6 and bool(np.all(alpha >= 0))

        single = rng.normal(size=(1, 1, 8)).astype(np.float32)
        context, alpha1 = layer.forward(single)
        ok &= bool(np.array_equal(context[0], single[0, 0]))
        ok &= float(alpha1[0, 0]) == 1.0

        row = rng.normal(size=8).astype(np.float32)
        tiled = np.tile(row, (1, 7, 1))
        _, alpha_u = layer.forward(tiled)
        # uniform up to float32 GEMM rounding (identical rows can differ by
        # an ulp across BLAS row blocks)
        ok &= bool(np.max(np.abs(alpha_u[0] - 1.0 / 7.0)) <= 1e-6)
    ok = report(3, ok, f"100 models, worst |sum(alpha)-1|={worst_sum:.2e}")
    assert ok


# ----------------------------------------------------------------- 4


def test_criterion_4_gating_bit_exact():
    ok = True
    for seed in range(20):
        reg = RegressionConfig(window=16, filters=2, kernel=4, hidden=3)
        cls_cfg = ClassificationConfig(filters=(3, 3, 4, 5, 5, 5),
                                       kernels=(10, 8, 6, 5, 5, 5),
                                       dense_units=16)
        dtype = np.float32 if seed % 2 else np.float64
        model = GatedAttentionModel.init(reg, cls_cfg, seed=seed, dtype=dtype)
        windows = np.random.default_rng(seed).normal(size=(3, 16))
        result = model.forward(windows)
        ok &= bool(np.array_equal(result.output, result.power * result.state))
    ok = report(4, ok, "20 random models, float32 and float64")
    assert ok


# ----------------------------------------------------------------- 5


def test_criterion_5_metric_identities():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        y, y_hat = rng.uniform(0, 50, n), rng.uniform(0, 50, n)
        ok &= ev.sae(y, y_hat, 1) == ev.mae(y, y_hat)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        y, y_hat = rng.uniform(0, 50, 41), rng.uniform(0, 50, 41)
        period = int(rng.integers(1, 12))
        ok &= abs(ev.mae(y, y_hat)
                  - sum(abs(a - b) for a, b in zip(y, y_hat)) / 41) < 1e-12
        ok &= abs(ev.sae(y, y_hat, period) - sae_direct(y, y_hat, period)) < 1e-12
        scores = ev.classification_scores(y, y_hat, 25.0)
        ok &= (scores.tp, scores.fp, scores.fn) == confusion_direct(y, y_hat, 25.0)
    all_off = ev.classification_scores(np.array([0.0, 30.0]), np.zeros(2))
    ok &= all_off.precision == 0.0 and all_off.f1 == 0.0
    none_on = ev.classification_scores(np.zeros(2), np.array([30.0, 0.0]))
    ok &= none_on.recall == 0.0 and none_on.f1 == 0.0
    ok = report(5, ok, "sae(K=1)==mae on 100 pairs; oracles on 20 seeds; "
                       "zero-denominator conventions")
    assert ok


# ----------------------------------------------------------------- 6


def test_criterion_6_median_reconstruction():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        total = int(rng.integers(2, 201))
        window = int(rng.integers(1, min(total, 32) + 1))
        signal = rng.normal(size=total)
        windows = np.lib.stride_tricks.sliding_window_view(signal, window)
        out = ev.reconstruct_median(windows)
        ok &= bool(np.array_equal(out, signal))
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        total = int(rng.integers(6, 40))
        window = int(rng.integers(2, 7))
        starts = np.arange(total - window + 1)
        windows = rng.normal(size=(starts.size, window))
        got = ev.reconstruct_median(windows)
        want = median_reconstruct_direct(windows, starts, total)
        ok &= bool(np.allclose(got, want, atol=1e-12))
    ok = report(6, ok, "100 exact slice reconstructions; 20 brute-force "
                       "median comparisons")
    assert ok


# ------------------------------------------------- shared experiment (7-9, 11)

EXPERIMENT_CONFIG = """\
[appliance heater]
window_l = 64
on_threshold_w = 50
min_on_s = 36
min_off_s = 60
max_power_w = 200

[appliance fridge]
window_l = 64
on_threshold_w = 15
min_on_s = 120
min_off_s = 120
max_power_w = 60

[train]
max_epochs = 30
patience = 5
seed = 8
batch_size = 32
base_lr = 0.02
window_stride = 16
val_fraction = 0.15

[model]
filters = 8
kernel = 4
hidden = 32

[metrics]
threshold_w = 15
period_len_k = 1200
"""

WINDOW = 64
TRAIN_DURATION_S = 60_000     # 20,000 samples at 3 s
TEST_DURATION_S = 12_000      # 4,000 samples


def _run(argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, f"command failed ({code}): {argv}"


def _train_and_predict(root, config, tag):
    """One full cmd_train + disaggregate + evaluate round; returns paths."""
    ckpt = root / f"heater_{tag}.ckpt"
    started = time.perf_counter()
    _run(["train", "--config", config,
          "--aggregate", root / "train_house" / "aggregate.csv",
          "--appliance", root / "train_house" / "heater.csv",
          "--appliance-name", "heater", "--out", ckpt])
    train_time = time.perf_counter() - started
    pred_same = root / f"pred_same_{tag}.csv"
    _run(["disaggregate", "--checkpoint", ckpt,
          "--input", root / "test_same" / "aggregate.csv",
          "--out", pred_same, "--export-attention"])
    report_same = root / f"report_same_{tag}.csv"
    _run(["evaluate", "--prediction", pred_same,
          "--truth", root / "test_same" / "heater.csv",
          "--appliance-name", "heater", "--out", report_same,
          "--threshold-w", "15", "--period-k", "1200"])
    return {"ckpt": ckpt, "pred_same": pred_same, "report_same": report_same,
            "train_time": train_time}


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    config = root / "run.ini"
    config.write_text(EXPERIMENT_CONFIG)
    _run(["synth", "--config", config, "--out", root / "train_house",
          "--duration-s", TRAIN_DURATION_S, "--noise-std", "10",
          "--seed", "101"])
    _run(["synth", "--config", config, "--out", root / "test_same",
          "--duration-s", TEST_DURATION_S, "--noise-std", "10",
          "--seed", "202"])
    # unseen-house variant: disjoint seed, activation durations scaled -25%
    _run(["synth", "--config", config, "--out", root / "test_shift",
          "--duration-s", TEST_DURATION_S, "--noise-std", "10",
          "--seed", "303", "--duration-scale", "0.75"])

    first = _train_and_predict(root, config, "a")

    pred_shift = root / "pred_shift.csv"
    _run(["disaggregate", "--checkpoint", first["ckpt"],
          "--input", root / "test_shift" / "aggregate.csv",
          "--out", pred_shift])
    report_shift = root / "report_shift.csv"
    _run(["evaluate", "--prediction", pred_shift,
          "--truth", root / "test_shift" / "heater.csv",
          "--appliance-name", "heater", "--out", report_shift,
          "--threshold-w", "15", "--period-k", "1200"])

    second = _train_and_predict(root, config, "b")

    epochs = len((root / "heater_a.train.csv").read_text().splitlines()) - 1
    return {
        "root": root,
        "first": first,
        "second": second,
        "row_same": ev.read_report_csv(first["report_same"])[0],
        "row_shift": ev.read_report_csv(report_shift)[0],
        "epochs": epochs,
    }


def _mean_on_power(truth_path, threshold=15.0):
    truth = data.load_channel_csv(truth_path)
    on = truth.values[truth.values > threshold]
    return float(on.mean())


def test_criterion_7_end_to_end_desk_scale(experiment):
    row = experiment["row_same"]
    budget = 0.15 * _mean_on_power(
        experiment["root"] / "test_same" / "heater.csv")
    train_time = experiment["first"]["train_time"]
    ok = report(
        7,
        row["f1"] >= 0.90 and row["mae_w"] <= budget
        and experiment["epochs"] <= 30 and train_time < 600.0,
        f"f1={row['f1']:.4f} (>=0.90) mae={row['mae_w']:.2f}W "
        f"(<= {budget:.2f}W) epochs={experiment['epochs']} "
        f"train_time={train_time:.0f}s")
    assert ok


def test_criterion_8_unseen_house_generalization(experiment):
    f1_same = experiment["row_same"]["f1"]
    f1_shift = experiment["row_shift"]["f1"]
    degradation = f1_same - f1_shift
    ok = report(8, degradation <= 0.05,
                f"f1_same={f1_same:.4f} f1_shift={f1_shift:.4f} "
                f"degradation={degradation:+.4f} (<= 0.05)")
    assert ok


def test_criterion_9_determinism(experiment):
    first, second = experiment["first"], experiment["second"]
    same_ckpt = first["ckpt"].read_bytes() == second["ckpt"].read_bytes()
    same_report = first["report_same"].read_bytes() \
        == second["report_same"].read_bytes()
    same_pred = first["pred_same"].read_bytes() == second["pred_same"].read_bytes()
    ok = report(9, same_ckpt and same_report and same_pred,
                f"checkpoints_identical={same_ckpt} "
                f"reports_identical={same_report} "
                f"predictions_identical={same_pred}")
    assert ok


# ----------------------------------------------------------------- 10


def test_criterion_10_checkpoint_round_trip(tmp_path):
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        reg = RegressionConfig(window=int(rng.choice([8, 16, 32])),
                               filters=int(rng.integers(1, 4)),
                               kernel=int(rng.integers(1, 6)),
                               hidden=int(rng.integers(1, 5)))
        cls_cfg = ClassificationConfig(filters=(2, 2, 3, 3, 3, 3),
                                       kernels=(10, 8, 6, 5, 5, 5),
                                       dense_units=8)
        model = GatedAttentionModel.init(reg, cls_cfg, appliance=f"a{seed}",
                                         seed=seed)
        model.norm_meta = data.NormalizationMeta(
            float(rng.uniform(1, 100)), float(rng.uniform(0.5, 5)),
            0.0, float(rng.uniform(10, 300)))
        first = tmp_path / f"m{seed}_a.ckpt"
        second = tmp_path / f"m{seed}_b.ckpt"
        save_checkpoint(first, model)
        save_checkpoint(second, load_checkpoint(first))
        ok &= first.read_bytes() == second.read_bytes()
    ok = report(10, ok, "save->load->save byte-identical for 10 random models")
    assert ok


# ----------------------------------------------------------------- 11


def _attention_localization(attention_path, truth_path, window=WINDOW,
                            band=5):
    """Fraction of single-edge windows whose edge band beats uniform mass."""
    truth = data.load_channel_csv(truth_path)
    state = (truth.values > 15.0).astype(int)
    edges = np.flatnonzero(np.diff(state) != 0) + 1
    hits = total = 0
    for line in Path(attention_path).read_text().splitlines()[1:]:
        parts = line.split(",")
        start = int(parts[0])
        inside = edges[(edges >= start) & (edges < start + window)]
        if inside.size != 1:
            continue
        offset = int(inside[0]) - start
        if not band <= offset <= window - band - 1:
            continue
        alpha = np.array([float(v) for v in parts[1:]])
        total += 1
        hits += alpha[offset - band:offset + band + 1].sum() \
            > (2 * band + 1) / window
    return hits, total


def test_criterion_11_attention_localization(experiment):
    attention_path = Path(str(experiment["first"]["pred_same"])).with_suffix(
        ".attention.csv")
    hits, total = _attention_localization(
        attention_path, experiment["root"] / "test_same" / "heater.csv")
    fraction = hits / total if total else 0.0
    ok = report(11, total > 0 and fraction >= 0.70,
                f"{hits}/{total} single-edge windows beat the uniform "
                f"baseline ({fraction:.3f}, need >= 0.70)")
    assert ok
