"""End-to-end command-line surface: synth -> train -> disaggregate -> evaluate."""

import configparser
import inspect
import re
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilmnet import cli, data, evaluation as ev
from nilmnet.checkpoint import load_checkpoint, save_checkpoint
from nilmnet.errors import DataError
from nilmnet.model import RegressionConfig
from nilmnet.training import TrainConfig, grid_search

from oracles import write_attention_csv_direct
from test_checkpoint import checkpoint_header
from test_data import WRITTEN_FLOATS

CONFIG = """\
[appliance heater]
window_l = 16
on_threshold_w = 40
min_on_s = 24
min_off_s = 24
max_power_w = 200

[train]
max_epochs = 3
patience = 3
seed = 7
batch_size = 16
base_lr = 0.05
window_stride = 1
val_fraction = 0.15

[model]
filters = 2
kernel = 4
hidden = 4

[metrics]
threshold_w = 15
period_len_k = 30
"""

NEGATIVE_SEED_CONFIG = CONFIG.replace("seed = 7", "seed = -1")


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


class TestSynth:
    def test_writes_channels_and_aggregate_sums(self, config_path, tmp_path):
        out = tmp_path / "house"
        assert run(["synth", "--config", config_path, "--out", out,
                    "--duration-s", "3000", "--noise-std", "0",
                    "--seed", "1"]) == 0
        agg = data.load_channel_csv(out / "aggregate.csv")
        app = data.load_channel_csv(out / "heater.csv")
        assert len(agg) == len(app) == 1000
        np.testing.assert_array_equal(agg.values, app.values)

    def test_noisy_aggregate_reproduces_sum_within_noise(self, config_path,
                                                         tmp_path):
        out = tmp_path / "house"
        assert run(["synth", "--config", config_path, "--out", out,
                    "--duration-s", "30000", "--noise-std", "10",
                    "--seed", "2"]) == 0
        agg = data.load_channel_csv(out / "aggregate.csv")
        app = data.load_channel_csv(out / "heater.csv")
        residual = agg.values - app.values
        assert np.percentile(np.abs(residual), 99) < 4.0 * 10.0

    def test_seed_reproducibility(self, config_path, tmp_path):
        for name in ("a", "b"):
            assert run(["synth", "--config", config_path,
                        "--out", tmp_path / name, "--duration-s", "3000",
                        "--noise-std", "5", "--seed", "3"]) == 0
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() \
            == (tmp_path / "b" / "aggregate.csv").read_bytes()

    def test_omitted_flags_match_the_library_defaults(self, config_path, tmp_path,
                                                      capsys):
        defaults = inspect.signature(data.synth_household).parameters
        flags = [(f"--{name.replace('_', '-')}", defaults[name].default)
                 for name in ("noise_std", "period_s", "duration_scale")]
        outputs = []
        for name, extra in (("omitted", []),
                            ("given", [v for flag in flags for v in flag])):
            assert run(["synth", "--config", config_path, "--out", tmp_path / name,
                        "--duration-s", "3000", "--seed", "4", *extra]) == 0
            stdout = capsys.readouterr().out.replace(str(tmp_path / name), "OUT")
            outputs.append((stdout, [(tmp_path / name / f).read_bytes()
                                     for f in ("aggregate.csv", "heater.csv")]))
        assert outputs[0] == outputs[1]

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        assert run(["synth", "--config", tmp_path / "nope.ini",
                    "--out", tmp_path, "--duration-s", "300"]) == 2

    # Each name would replace another channel's file or write outside --out:
    # aggregate.csv in any letter case (macOS and Windows fold case), a
    # twin that differs in case only, a path, a NUL, which no file name
    # holds, and no name at all.
    @pytest.mark.parametrize("sections,message", [
        (["aggregate"], "'aggregate' would overwrite the file of channel 'aggregate'"),
        (["AggreGate"], "'AggreGate' would overwrite the file of channel 'aggregate'"),
        (["heater", "Heater"], "'Heater' would overwrite the file of channel 'heater'"),
        (["../escaped"], "appliance name '../escaped' cannot name"),
        (["a\\b"], "appliance name 'a\\\\b' cannot name"),
        (["a\x00b"], "appliance name 'a\\x00b' cannot name"),
        ([" "], "appliance name '' cannot name"),
    ], ids=["aggregate", "aggregate-case", "case-twin", "slash", "backslash", "nul",
            "empty"])
    def test_name_without_a_file_of_its_own_exits_2(self, tmp_path, capsys,
                                                     sections, message):
        config = tmp_path / "run.ini"
        config.write_text("".join(f"[appliance {name}]\nwindow_l = 16\n"
                                  for name in sections))
        out = tmp_path / "house" / "out"
        assert run(["synth", "--config", config, "--out", out,
                    "--duration-s", "300"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "house").exists()


# Values no config or flag should get through to a traceback: zero, a
# negative, NaN, both infinities, the largest and the smallest positive
# float, an empty value and non-ASCII text (the fullwidth digits parse as
# 12 in Python).
HOSTILE = ("0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "", "\u00e9", "\uff11\uff12")
# A small valid range of each [appliance ...] key, from which synth can
# write a house: an on level drawn above twice the threshold.
VALID_APPLIANCE = {
    "window_l": st.integers(1, 64),
    "on_threshold_w": st.floats(1.0, 100.0),
    "min_on_s": st.floats(1.0, 600.0),
    "min_off_s": st.floats(1.0, 600.0),
    "max_power_w": st.floats(201.0, 3000.0),
}
# The synth flags, each with its type and a valid range, hostile values
# aside; --duration-s stays <= 3000 so that an example writes at most 3000
# rows per channel.
VALID_SYNTH_FLAGS = {
    "--noise-std": (float, st.floats(0.0, 50.0)),
    "--period-s": (int, st.integers(1, 10)),
    "--duration-scale": (float, st.floats(0.1, 4.0)),
    "--seed": (int, st.integers(0, 2**32)),
}


def parses(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


def hostile_or(valid):
    """A valid value as text in about six draws of eight, else a hostile
    text or None for a value left out, so that a fair share of the
    examples write a house."""
    return st.integers(0, 7).flatmap(
        lambda k: valid.map(str) if k < 6 else st.sampled_from(HOSTILE) if k == 6
        else st.none())


class TestSynthProperty:
    # About 3 s on 2 vCPU.
    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exits_0_or_2_and_every_written_channel_loads(self, tmp_path, draw):
        """Hostile or valid [appliance ...] values and synth flags: main
        exits 0 or 2 and raises nothing, and after 0 every channel CSV it
        wrote loads. A flag value that does not parse as the flag's type
        is a usage error, exit 1. Each flag is given as --flag=value, so
        that a value such as -inf reaches its type and is not taken for
        another option."""
        assert set(VALID_APPLIANCE) == set(cli.SCHEMAS["appliance"][0])
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        names = ("heater", "fridge")[:draw.draw(st.integers(1, 2))]
        lines = []
        for name in names:
            lines.append(f"[appliance {name}]")
            for key, valid in VALID_APPLIANCE.items():
                value = draw.draw(hostile_or(valid), label=f"{name}.{key}")
                if value is not None:
                    lines.append(f"{key} = {value}")
        (work / "run.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")
        duration = draw.draw(st.integers(-10, 3000), label="--duration-s")
        argv = ["synth", "--config", work / "run.ini", "--out", work / "house",
                f"--duration-s={duration}"]
        usage_error = False
        for flag, (kind, valid) in VALID_SYNTH_FLAGS.items():
            value = draw.draw(hostile_or(valid), label=flag)
            if value is not None:
                argv.append(f"{flag}={value}")
                usage_error |= not parses(kind, value)
        code = run(argv)
        assert code in ((1,) if usage_error else (0, 2))
        if code == 0:
            written = sorted((work / "house").glob("*.csv"))
            assert [p.stem for p in written] == sorted(("aggregate", *names))
            for path in written:
                data.load_channel_csv(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained pipeline shared by the train/disaggregate tests."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "run.ini"
    config.write_text(CONFIG)
    house = root / "house"
    assert run(["synth", "--config", config, "--out", house,
                "--duration-s", "3000", "--noise-std", "3", "--seed", "5"]) == 0
    ckpt = root / "heater.ckpt"
    assert run(["train", "--config", config,
                "--aggregate", house / "aggregate.csv",
                "--appliance", house / "heater.csv",
                "--appliance-name", "heater", "--out", ckpt]) == 0
    return config, house, ckpt


class TestTrain:
    def test_checkpoint_and_record_written(self, trained):
        config, house, ckpt = trained
        model = load_checkpoint(ckpt)
        assert model.appliance == "heater"
        assert model.window == 16
        assert model.norm_meta is not None
        record = ckpt.with_suffix(".train.csv").read_text().splitlines()
        assert record[0] == "epoch,train_loss,val_loss,wall_time_s,is_best"
        assert len(record) >= 2

    def test_seed_repetition_yields_identical_checkpoints(self, trained,
                                                          tmp_path):
        config, house, _ = trained
        outs = []
        for name in ("one.ckpt", "two.ckpt"):
            out = tmp_path / name
            assert run(["train", "--config", config,
                        "--aggregate", house / "aggregate.csv",
                        "--appliance", house / "heater.csv",
                        "--appliance-name", "heater", "--out", out,
                        "--seed", "21"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_data_file_exits_2(self, config_path, tmp_path, capsys):
        assert run(["train", "--config", config_path,
                    "--aggregate", tmp_path / "missing.csv",
                    "--appliance", tmp_path / "missing2.csv",
                    "--appliance-name", "heater",
                    "--out", tmp_path / "m.ckpt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_appliance_exits_2(self, trained, tmp_path):
        config, house, _ = trained
        assert run(["train", "--config", config,
                    "--aggregate", house / "aggregate.csv",
                    "--appliance", house / "heater.csv",
                    "--appliance-name", "toaster",
                    "--out", tmp_path / "t.ckpt"]) == 2

    def test_grid_flag_runs_and_writes_leaderboard(self, trained, tmp_path):
        config, house, _ = trained
        out = tmp_path / "grid.ckpt"
        assert run(["train", "--config", config,
                    "--aggregate", house / "aggregate.csv",
                    "--appliance", house / "heater.csv",
                    "--appliance-name", "heater", "--out", out,
                    "--grid", "F=1,2;K=4;H=2"]) == 0
        rows = out.with_suffix(".grid.csv").read_text().splitlines()
        assert rows[0] == "filters,kernel,hidden,val_loss,n_params"
        assert len(rows) == 3


class TestDisaggregate:
    def test_row_count_matches_input(self, trained, tmp_path):
        config, house, ckpt = trained
        pred = tmp_path / "pred.csv"
        assert run(["disaggregate", "--checkpoint", ckpt,
                    "--input", house / "aggregate.csv", "--out", pred]) == 0
        agg_rows = (house / "aggregate.csv").read_text().splitlines()
        pred_rows = pred.read_text().splitlines()
        assert len(pred_rows) == len(agg_rows)

    def test_attention_rows_sum_to_one(self, trained, tmp_path):
        config, house, ckpt = trained
        pred = tmp_path / "pred.csv"
        assert run(["disaggregate", "--checkpoint", ckpt,
                    "--input", house / "aggregate.csv", "--out", pred,
                    "--export-attention"]) == 0
        attention = pred.with_suffix(".attention.csv")
        lines = attention.read_text().splitlines()
        assert lines[0].split(",")[:2] == ["window_start", "alpha_0"]
        assert len(lines[0].split(",")) == 17
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")[1:]]
            assert abs(sum(values) - 1.0) <= 1e-5

    def test_rerun_is_byte_identical(self, trained, tmp_path):
        config, house, ckpt = trained
        outs = []
        for name in ("p1.csv", "p2.csv"):
            out = tmp_path / name
            assert run(["disaggregate", "--checkpoint", ckpt,
                        "--input", house / "aggregate.csv", "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_nan_weight_exits_2(self, trained, tmp_path, capsys):
        """A NaN weight in a checkpoint is bad input, refused at load."""
        config, house, ckpt = trained
        model = load_checkpoint(ckpt)
        model.regression.fc2.params.weights["W"][0, 0] = 1234.5
        broken = tmp_path / "nan.ckpt"
        save_checkpoint(broken, model)
        blob = broken.read_bytes()
        sentinel = np.array(1234.5, "<f4").tobytes()
        assert blob.count(sentinel) == 1
        broken.write_bytes(blob.replace(sentinel, np.array(np.nan, "<f4").tobytes()))
        capsys.readouterr()
        assert run(["disaggregate", "--checkpoint", broken,
                    "--input", house / "aggregate.csv",
                    "--out", tmp_path / "pred.csv"]) == 2
        assert "'reg.fc2.W' holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_non_finite_model_output_exits_3(self, trained, tmp_path, monkeypatch):
        """A model whose output is non-finite is a numerical failure."""
        config, house, ckpt = trained
        model = load_checkpoint(ckpt)
        model.regression.fc2.params.weights["W"][0, 0] = np.nan
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: model)
        assert run(["disaggregate", "--checkpoint", ckpt,
                    "--input", house / "aggregate.csv",
                    "--out", tmp_path / "pred.csv"]) == 3
        assert not (tmp_path / "pred.csv").exists()

    def test_hostile_checkpoint_header_exits_2(self, trained, tmp_path):
        config, house, ckpt = trained
        hostile = tmp_path / "hostile.ckpt"
        hostile.write_bytes(checkpoint_header(hidden=2048))
        assert run(["disaggregate", "--checkpoint", hostile,
                    "--input", house / "aggregate.csv",
                    "--out", tmp_path / "pred.csv"]) == 2
        assert not (tmp_path / "pred.csv").exists()


class TestAttentionCsvWriter:
    @given(st.integers(0, 6), st.integers(1, 5), st.data(),
           st.sampled_from([np.float64, np.float32]), st.integers(1, 8))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_row_by_row_writer(self, tmp_path, monkeypatch, n, window,
                                           draw, dtype, block_rows):
        monkeypatch.setattr(data, "WRITE_BLOCK_FIELDS", block_rows * (window + 1))
        values = draw.draw(st.lists(WRITTEN_FLOATS | WRITTEN_FLOATS.map(lambda v: -v),
                                    min_size=n * window, max_size=n * window))
        with np.errstate(over="ignore"):
            alphas = np.array(values, dtype=dtype).reshape(n, window)
        cli.write_attention_csv(tmp_path / "new.csv", alphas)
        write_attention_csv_direct(tmp_path / "ref.csv", alphas, np.arange(n))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestNonUtf8Input:
    """A non-UTF-8 byte in any file the CLI reads is a data error (exit 2)."""

    def test_channel_csv_exits_2(self, trained, tmp_path, capsys):
        config, house, ckpt = trained
        bad = tmp_path / "aggregate.csv"
        bad.write_bytes((house / "aggregate.csv").read_bytes() + b"\xff,1.0\n")
        assert run(["disaggregate", "--checkpoint", ckpt, "--input", bad,
                    "--out", tmp_path / "pred.csv"]) == 2
        assert "aggregate.csv: not UTF-8" in capsys.readouterr().err

    def test_config_section_name_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[appliance h\xffater]\nwindow_l = 16\n")
        assert run(["synth", "--config", bad, "--out", tmp_path / "house",
                    "--duration-s", "300"]) == 2
        assert "bad.ini is not UTF-8" in capsys.readouterr().err

    def test_checkpoint_appliance_name_exits_2(self, trained, tmp_path, capsys):
        config, house, ckpt = trained
        blob = bytearray(ckpt.read_bytes())
        assert blob[12:18] == b"heater"
        blob[12] = 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert run(["disaggregate", "--checkpoint", bad,
                    "--input", house / "aggregate.csv",
                    "--out", tmp_path / "pred.csv"]) == 2
        assert "bad.ckpt: string at byte 8 is not UTF-8" in capsys.readouterr().err


class TestEvaluate:
    def test_identical_files_perfect_scores(self, trained, tmp_path):
        config, house, _ = trained
        out = tmp_path / "results.csv"
        assert run(["evaluate", "--prediction", house / "heater.csv",
                    "--truth", house / "heater.csv",
                    "--appliance-name", "heater", "--out", out,
                    "--period-k", "30"]) == 0
        row = ev.read_report_csv(out)[0]
        assert row["mae_w"] == 0.0
        assert row["sae_w"] == 0.0
        assert row["f1"] == 1.0

    def test_mismatched_lengths_exit_2(self, trained, tmp_path, capsys):
        config, house, _ = trained
        short = tmp_path / "short.csv"
        series = data.load_channel_csv(house / "heater.csv")
        data.write_channel_csv(
            short, data.PowerSeries("s", series.period_s, series.t0,
                                    series.values[:-5]))
        assert run(["evaluate", "--prediction", short,
                    "--truth", house / "heater.csv",
                    "--appliance-name", "heater",
                    "--out", tmp_path / "r.csv"]) == 2

    def test_report_matches_library_calls(self, trained, tmp_path):
        config, house, ckpt = trained
        pred_path = tmp_path / "pred.csv"
        assert run(["disaggregate", "--checkpoint", ckpt,
                    "--input", house / "aggregate.csv", "--out", pred_path]) == 0
        out = tmp_path / "results.csv"
        assert run(["evaluate", "--prediction", pred_path,
                    "--truth", house / "heater.csv",
                    "--appliance-name", "heater", "--out", out,
                    "--threshold-w", "15", "--period-k", "30"]) == 0
        row = ev.read_report_csv(out)[0]
        truth = data.load_channel_csv(house / "heater.csv")
        pred = data.load_channel_csv(pred_path)
        assert row["mae_w"] == pytest.approx(ev.mae(truth.values, pred.values))
        assert row["sae_w"] == pytest.approx(ev.sae(truth.values, pred.values, 30))
        scores = ev.classification_scores(truth.values, pred.values, 15.0)
        assert row["f1"] == pytest.approx(scores.f1)


    @pytest.mark.parametrize("flags,with_config,want", [
        ([], False, (15.0, 1200)),
        ([], True, (25.0, 60)),
        (["--threshold-w", "40"], True, (40.0, 60)),
        (["--period-k", "100"], True, (25.0, 100)),
        (["--threshold-w", "40", "--period-k", "100"], False, (40.0, 100)),
    ])
    def test_flag_beats_metrics_section_beats_default(self, tmp_path, flags,
                                                      with_config, want):
        series = data.PowerSeries("heater", 3, 0, np.arange(1300.0) % 50)
        data.write_channel_csv(tmp_path / "heater.csv", series)
        config = tmp_path / "run.ini"
        config.write_text("[metrics]\nthreshold_w = 25\nperiod_len_k = 60\n")
        out = tmp_path / "results.csv"
        assert run(["evaluate", "--prediction", tmp_path / "heater.csv",
                    "--truth", tmp_path / "heater.csv",
                    "--appliance-name", "heater", "--out", out, *flags,
                    *(["--config", config] if with_config else [])]) == 0
        row = ev.read_report_csv(out)[0]
        assert (row["threshold_w"], row["period_len_k"]) == want


class TestGradcheckCommand:
    ARGS = ["gradcheck", "--window", "8", "--filters", "2", "--kernel", "3",
            "--hidden", "2", "--cls-filters", "2,2,2,2,2,2",
            "--cls-dense", "8"]

    def test_small_dims_pass(self, capsys):
        assert run(self.ARGS) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("tensor=")]
        # regression: 4 convs + 2 lstm directions + attention + 2 dense;
        # classification: 6 convs + 2 dense
        assert len(lines) == 17
        assert all("status=ok" in l for l in lines)

    def test_classification_branch_without_convs_passes(self, capsys):
        args = self.ARGS[:-4] + ["--cls-filters", "", "--cls-dense", "8"]
        assert run(args) == 0
        assert "all 11 parameter tensors" in capsys.readouterr().out

    def test_injected_fault_fails_with_exit_3(self, capsys):
        assert run(self.ARGS + ["--inject-fault"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_more_cls_filters_than_the_layer_table_exits_2(self, capsys):
        args = self.ARGS[:-4] + ["--cls-filters", "2,2,2,2,2,2,2",
                                 "--cls-dense", "8"]
        assert run(args) == 2
        assert "6-layer table (kernels 10,8,6,5,5,5)" in capsys.readouterr().err


class TestOutOfMemory:
    """An input that needs more memory than the host gives exits 2."""

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 243. TiB"), "Unable to allocate 243. TiB"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_2_with_one_error_line(
            self, config_path, tmp_path, monkeypatch, capsys, exc, message):
        def synth_household(*args, **kwargs):
            raise exc

        monkeypatch.setattr(data, "synth_household", synth_household)
        assert run(["synth", "--config", config_path, "--out", tmp_path,
                    "--duration-s", "300"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestIndexRange:
    """A size past numpy's index range exits 2 before anything is allocated."""

    def test_synth_duration_exits_2_with_one_error_line(self, config_path, tmp_path,
                                                        capsys):
        assert run(["synth", "--config", config_path, "--out", tmp_path,
                    "--duration-s", 10 ** 30]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 333333333333333333333333333333 samples ")
        assert err.count("\n") == 1

    def test_gradcheck_hidden_exits_2_with_one_error_line(self, capsys):
        assert run(["gradcheck", "--hidden", "4000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: arena of ") and "index range" in err
        assert err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert run(["disaggregate", "--input", "x.csv", "--out", "y.csv"]) == 1

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nlearning_rate = 1\n")
        assert run(["synth", "--config", bad, "--out", tmp_path,
                    "--duration-s", "300"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_config_section_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[trainer]\nseed = 1\n")
        assert run(["synth", "--config", bad, "--out", tmp_path,
                    "--duration-s", "300"]) == 2

    def test_bad_grid_flag_exits_2(self, config_path, tmp_path, capsys):
        assert run(["train", "--config", config_path,
                    "--aggregate", tmp_path / "a.csv",
                    "--appliance", tmp_path / "b.csv",
                    "--appliance-name", "heater",
                    "--out", tmp_path / "o.ckpt",
                    "--grid", "Q=1,2"]) == 2


class TestEdgeInputs:
    """Out-of-range seeds, periods, noise levels and step sizes exit 2, as
    does a synth house of one sample, which no channel CSV can hold."""

    @pytest.mark.parametrize("argv,config", [
        (["synth", "--period-s", "0"], CONFIG),
        (["synth", "--period-s", "3000"], CONFIG),
        (["synth", "--noise-std", "-1"], CONFIG),
        (["synth", "--seed", "-1"], CONFIG),
        (["synth"], NEGATIVE_SEED_CONFIG),
        (["synth", "--duration-scale", "-5"], CONFIG),
        (["synth", "--duration-scale", "nan"], CONFIG),
        (["gradcheck", "--step", "0"], None),
        (["gradcheck", "--step", "inf"], None),
        (["gradcheck", "--seed", "-1"], None),
        (["gradcheck", "--cls-dense", "0"], None),
        (["gradcheck", "--cls-dense", "-3"], None),
        (["gradcheck", "--tol", "nan"], None),
        (["gradcheck", "--tol", "-1"], None),
    ], ids=["synth-period-0", "synth-one-sample", "synth-noise-negative",
            "synth-seed-negative", "synth-config-seed-negative",
            "synth-duration-scale-negative",
            "synth-duration-scale-nan", "gradcheck-step-0", "gradcheck-step-inf",
            "gradcheck-seed-negative", "gradcheck-cls-dense-0",
            "gradcheck-cls-dense-negative", "gradcheck-tol-nan",
            "gradcheck-tol-negative"])
    def test_exits_2_with_an_error_line(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "run.ini"
            path.write_text(config)
            argv = argv + ["--config", path, "--out", tmp_path / "house",
                           "--duration-s", "3000"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags,config,key", [
        ([], CONFIG.replace("min_off_s = 24", "min_off_s = 1e308"), "min_off_s"),
        ([], CONFIG.replace("min_on_s = 24", "min_on_s = 1e308"), "min_on_s"),
        (["--duration-scale", "1e308"], CONFIG, "duration_scale"),
    ], ids=["min-off", "min-on", "duration-scale"])
    def test_synth_interval_past_the_float_range_exits_2_without_files(
            self, tmp_path, capsys, flags, config, key):
        """Each value is finite, but the longest interval drawn from it is
        not: 5 * min_off_s, 3 * min_on_s, or 3 * min_on_s * duration_scale."""
        path = tmp_path / "run.ini"
        path.write_text(config)
        out = tmp_path / "house"
        assert run(["synth", "--config", path, "--out", out,
                    "--duration-s", "3000", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: heater: {key} = 1e+308 makes the longest ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags,config,message", [
        ([], CONFIG.replace("max_power_w = 200", "max_power_w = 1e308")
         + "[appliance fridge]\nwindow_l = 16\nmax_power_w = 1e308\n",
         "the appliances' max_power_w sum is past the float range"),
        (["--noise-std", "1e308"], CONFIG.replace("max_power_w = 200", "max_power_w = 1e308"),
         "noise_std = 1e+308 makes the aggregate overflow"),
        (["--noise-std", "inf"], CONFIG, "noise_std must be finite and >= 0, got inf"),
    ], ids=["max-power-sum", "noise-sum", "noise-inf"])
    def test_synth_aggregate_past_the_float_range_exits_2_without_files(
            self, tmp_path, capsys, flags, config, message):
        """Two loads, or a load and its noise, whose sum overflows: refused
        with one error line, not a RuntimeWarning and an infinite sample."""
        path = tmp_path / "run.ini"
        path.write_text(config)
        out = tmp_path / "house"
        assert run(["synth", "--config", path, "--out", out,
                    "--duration-s", "3000", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_path_with_a_nul_exits_2_without_checkpoint(self, tmp_path, capsys):
        """A NUL, which no file name holds, in a path the config gives."""
        config = tmp_path / "run.ini"
        config.write_text(CONFIG + "\n[data]\naggregate = a\x00b.csv\n"
                          "appliance = heater.csv\nappliance_name = heater\n")
        out = tmp_path / "m.ckpt"
        assert run(["train", "--config", config, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "error: 'a\\x00b.csv': a path cannot hold a NUL character")
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,name", [
        ("train", "--out", "m\x00.ckpt"),
        ("disaggregate", "--out", "p\x00.csv"),
        ("synth", "--out", "h\x00"),
        ("evaluate", "--out", "r\x00.csv"),
        ("evaluate", "--config", "c\x00.ini"),
    ], ids=["train-out", "disaggregate-out", "synth-out", "evaluate-out",
            "evaluate-config"])
    def test_path_flag_with_a_nul_exits_2_before_writing(
            self, trained, tmp_path, capsys, command, flag, name):
        """A NUL in a path the command writes or reads, given by flag,
        exits 2 with one error line before anything is written."""
        config, house, ckpt = trained
        flags = {
            "train": {"--config": config, "--aggregate": house / "aggregate.csv",
                      "--appliance": house / "heater.csv", "--appliance-name": "heater",
                      "--out": tmp_path / "m.ckpt"},
            "disaggregate": {"--checkpoint": ckpt, "--input": house / "aggregate.csv",
                             "--out": tmp_path / "p.csv"},
            "synth": {"--config": config, "--out": tmp_path / "h", "--duration-s": 300},
            "evaluate": {"--prediction": house / "heater.csv",
                         "--truth": house / "heater.csv", "--appliance-name": "heater",
                         "--out": tmp_path / "r.csv", "--config": config},
        }[command]
        flags[flag] = tmp_path / name
        assert run([command, *(v for item in flags.items() for v in item)]) == 2
        assert capsys.readouterr().err == (
            f"error: {str(tmp_path / name)!r}: a path cannot hold a NUL character\n")
        assert not any(tmp_path.iterdir())

    def test_appliance_name_utf8_cannot_encode_exits_2_without_results(
            self, trained, tmp_path, capsys):
        """An argument byte that does not decode reaches main as a lone
        surrogate, which the UTF-8 results file cannot hold."""
        _, house, _ = trained
        out = tmp_path / "r.csv"
        assert run(["evaluate", "--prediction", house / "heater.csv",
                    "--truth", house / "heater.csv", "--appliance-name", "\udcff",
                    "--out", out, "--period-k", "30"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {out}: '\\udcff' cannot be written as UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("seed_flag", [[], ["--seed", "-1"]],
                             ids=["config", "flag"])
    def test_negative_train_seed_exits_2_without_checkpoint(
            self, trained, tmp_path, capsys, seed_flag):
        _, house, _ = trained
        config = tmp_path / "run.ini"
        config.write_text(CONFIG if seed_flag else NEGATIVE_SEED_CONFIG)
        out = tmp_path / "s.ckpt"
        assert run(["train", "--config", config,
                    "--aggregate", house / "aggregate.csv",
                    "--appliance", house / "heater.csv",
                    "--appliance-name", "heater", "--out", out, *seed_flag]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert not out.exists()

    def test_nan_on_threshold_exits_2_without_checkpoint(self, trained, tmp_path,
                                                         capsys):
        _, house, _ = trained
        config = tmp_path / "run.ini"
        config.write_text(CONFIG.replace("on_threshold_w = 40", "on_threshold_w = nan"))
        out = tmp_path / "s.ckpt"
        assert run(["train", "--config", config,
                    "--aggregate", house / "aggregate.csv",
                    "--appliance", house / "heater.csv",
                    "--appliance-name", "heater", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "error: heater: on_threshold_w must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["long-field", "threshold-nan"])
    def test_evaluate_exits_2_with_an_error_line(self, trained, tmp_path, capsys,
                                                 fault):
        _, house, _ = trained
        truth = house / "heater.csv"
        prediction, extra = truth, []
        if fault == "long-field":
            prediction = tmp_path / "long.csv"
            lines = truth.read_text().splitlines(keepends=True)
            lines[2] = lines[2].rstrip("\n") + ",x" + "x" * 131072 + "\n"
            prediction.write_text("".join(lines))
        else:
            extra = ["--threshold-w", "nan"]
        out = tmp_path / "r.csv"
        assert run(["evaluate", "--prediction", prediction, "--truth", truth,
                    "--appliance-name", "heater", "--out", out, "--period-k", "30",
                    *extra]) == 2
        assert capsys.readouterr().err.startswith(
            "error: " + ("threshold_w must be finite" if extra else
                         f"{prediction}:3: field larger than field limit (131072)"))
        assert not out.exists()


class TestBadModelDims:
    """Unusable model dims, epoch counts, optimizer settings or sampling
    periods exit 2 with an error line."""

    def train(self, config, house, out, *extra):
        return run(["train", "--config", config,
                    "--aggregate", house / "aggregate.csv",
                    "--appliance", house / "heater.csv",
                    "--appliance-name", "heater", "--out", out, *extra])

    def test_zero_filters_in_grid_flag_exits_2_before_training(
            self, trained, tmp_path, capsys):
        config, house, _ = trained
        out = tmp_path / "g.ckpt"
        assert self.train(config, house, out, "--grid", "F=2,0;K=4;H=2") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "grid point=" not in captured.out
        assert not out.exists()

    def test_zero_filters_in_model_section_exits_2(self, trained, tmp_path, capsys):
        _, house, _ = trained
        config = tmp_path / "run.ini"
        config.write_text(CONFIG.replace("filters = 2", "filters = 0"))
        assert self.train(config, house, tmp_path / "m.ckpt") == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_max_epochs_exits_2_without_checkpoint(self, trained, tmp_path,
                                                        capsys):
        _, house, _ = trained
        config = tmp_path / "run.ini"
        config.write_text(CONFIG.replace("max_epochs = 3", "max_epochs = 0"))
        out = tmp_path / "e.ckpt"
        assert self.train(config, house, out) == 2
        assert "max_epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,lines", [
        ("base_lr", "base_lr = nan"),
        ("momentum", "base_lr = 0.05\nmomentum = 5.0"),
        ("decay", "base_lr = 0.05\ndecay = -1"),
    ], ids=["base_lr", "momentum", "decay"])
    def test_unusable_optimizer_setting_exits_2_without_checkpoint(
            self, trained, tmp_path, capsys, key, lines):
        _, house, _ = trained
        config = tmp_path / "run.ini"
        config.write_text(CONFIG.replace("base_lr = 0.05", lines))
        out = tmp_path / "o.ckpt"
        assert self.train(config, house, out) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_3_without_checkpoint(self, trained, tmp_path, capsys):
        _, house, _ = trained
        config = tmp_path / "run.ini"
        config.write_text(CONFIG.replace("base_lr = 0.05", "base_lr = 1e18"))
        out = tmp_path / "d.ckpt"
        assert self.train(config, house, out) == 3
        assert "numerical failure: non-finite loss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("period", [0, -1, -3])
    def test_period_below_one_second_exits_2_without_checkpoint(
            self, trained, tmp_path, capsys, period):
        _, house, _ = trained
        config = tmp_path / "run.ini"
        config.write_text(CONFIG + f"\n[data]\nperiod_s = {period}\n")
        out = tmp_path / "p.ckpt"
        assert self.train(config, house, out) == 2
        assert "below 1s" in capsys.readouterr().err
        assert not out.exists()

    def test_hidden_past_the_index_range_exits_2_without_checkpoint(
            self, trained, tmp_path, capsys):
        _, house, _ = trained
        config = tmp_path / "run.ini"
        config.write_text(CONFIG.replace("hidden = 4", "hidden = 4000000000"))
        out = tmp_path / "h.ckpt"
        assert self.train(config, house, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: arena of ") and "index range" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_gradcheck_zero_hidden_exits_2(self, capsys):
        assert run(["gradcheck", "--hidden", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestRunConfig:
    def test_grid_section_parsed(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CONFIG + "\n[grid]\nfilters = 2,4\nkernel = 4\nhidden = 2\n")
        cfg = cli.load_run_config(path)
        assert cfg.grid == {"filters": [2, 4], "kernel": [4], "hidden": [2]}

    def test_one_grid_vocabulary(self, tmp_path):
        """[grid] keys, --grid keys and grid_search's grid keywords are all
        RegressionConfig's searched field names."""
        names = {f.name for f in fields(RegressionConfig)} - {"window"}
        assert names == {"filters", "kernel", "hidden"}
        path = tmp_path / "run.ini"
        path.write_text(CONFIG + "\n[grid]\nfilters = 2\nkernel = 4\nhidden = 2\n")
        assert set(cli.load_run_config(path).grid) == names
        path.write_text(CONFIG + "\n[grid]\nf_values = 2\n")
        with pytest.raises(DataError, match="allowed: filters, hidden, kernel"):
            cli.load_run_config(path)
        assert set(cli.parse_grid_flag("F=2;K=4;H=2")) == names
        keywords = {name for name, param in
                    inspect.signature(grid_search).parameters.items()
                    if isinstance(param.default, tuple)}
        assert keywords == names

    def test_grid_flag_parser(self):
        grid = cli.parse_grid_flag("F=16,32;K=4;H=256,512")
        assert grid == {"filters": [16, 32], "kernel": [4],
                        "hidden": [256, 512]}
        with pytest.raises(DataError):
            cli.parse_grid_flag("F=a,b")

    def test_two_sections_for_one_appliance_are_refused(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[appliance heater]\nwindow_l = 32\n\n"
                        "[appliance  heater]\nwindow_l = 16\n")
        with pytest.raises(DataError, match=r"sections \[appliance heater\] and "
                                            r"\[appliance  heater\] both name "
                                            r"appliance 'heater'"):
            cli.load_run_config(path)

    def test_defaults_without_sections(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[appliance kettle]\nwindow_l = 128\n")
        cfg = cli.load_run_config(path)
        assert cfg.train_cfg.batch_size == 32
        assert cfg.train_cfg.max_epochs == 100
        assert cfg.train_cfg.base_lr == 0.01
        assert cfg.train_cfg.momentum == 0.9
        assert cfg.train_cfg.decay == 1e-6
        assert cfg.metrics == {}
        assert cfg.appliances["kettle"].on_threshold_w == 15.0

    def test_readme_block_loads_and_names_every_schema_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "run.ini"
        path.write_text(block)
        cfg = cli.load_run_config(path)
        assert cfg.appliances["heater"].window_l == 64
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(block)
        named = {section.split()[0]: set(parser[section])
                 for section in parser.sections()}
        for section, (keys, _) in cli.SCHEMAS.items():
            assert named[section] == set(keys), section


def _non_default(f):
    if f.default is MISSING:
        return 24
    return f.default + 1 if isinstance(f.default, int) else f.default / 2


SCHEMA_FIELDS = [(section, f)
                 for section, cls, skip in [("appliance", data.ApplianceSpec, "name"),
                                            ("train", TrainConfig, None),
                                            ("model", RegressionConfig, "window")]
                 for f in fields(cls) if f.name != skip]


class _Stop(Exception):
    pass


@pytest.mark.parametrize("section,f", SCHEMA_FIELDS,
                         ids=[f"{s}.{f.name}" for s, f in SCHEMA_FIELDS])
def test_each_schema_key_reaches_the_object_built_from_it(
        trained, tmp_path, monkeypatch, section, f):
    """A key set in its section reaches the ApplianceSpec, TrainConfig or the
    RegressionConfig that `nilmnet train` builds."""
    _, house, _ = trained
    sections = {"appliance heater": {"window_l": 16},
                "model": {"filters": 2, "kernel": 4, "hidden": 4}, "train": {}}
    value = _non_default(f)
    sections[next(s for s in sections if s.split()[0] == section)][f.name] = value
    path = tmp_path / "run.ini"
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                                    for k, v in keys.items())
                            for name, keys in sections.items()))
    cfg = cli.load_run_config(path)
    built = {"appliance": cfg.appliances["heater"], "train": cfg.train_cfg}
    if section == "model":
        def stop(model, *_):
            built["model"] = model.reg_cfg
            raise _Stop
        monkeypatch.setattr(cli, "train", stop)
        with pytest.raises(_Stop):
            run(["train", "--config", path, "--aggregate", house / "aggregate.csv",
                 "--appliance", house / "heater.csv", "--appliance-name", "heater",
                 "--out", tmp_path / "m.ckpt"])
    assert getattr(built[section], f.name) == value
