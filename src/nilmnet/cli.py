"""Command-line surface tying the pipeline together.

Commands: synth, train, disaggregate, evaluate, gradcheck. Runs are
configured by an INI file (see RunConfig) plus a small set of flags; every
command is deterministic given identical flags, files, and seed. The CLI
passes on only the values the file or the flags set, so every default lives
once, in the library dataclass or signature that uses it.

Exit codes: 0 success, 1 usage error, 2 data error (bad input, including an
input that needs more memory than is available or a size past numpy's
index range), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import data, evaluation, nn
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import DataError, NumericalError
from .model import (CLS_KERNELS, ClassificationConfig, GatedAttentionModel,
                    RegressionConfig)
from .training import TrainConfig, grid_search, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

APPLIANCE_SECTION = "appliance"
RECORD_COLUMNS = ("epoch", "train_loss", "val_loss", "wall_time_s", "is_best")


def _schema(cls, *skip):
    """INI keys of a config dataclass: {field name: type} and the required names.

    A field without a default is required. `skip` names the fields the
    section does not set (the appliance name, the model's window).
    """
    hints = get_type_hints(cls)
    kept = [f for f in fields(cls) if f.name not in skip]
    return ({f.name: hints[f.name] for f in kept},
            {f.name for f in kept
             if f.default is MISSING and f.default_factory is MISSING})


# Section name -> (keys, required keys), taken from the type each fills.
SCHEMAS = {APPLIANCE_SECTION: _schema(data.ApplianceSpec, "name"),
           "train": _schema(TrainConfig),
           "model": _schema(RegressionConfig, "window")}
_DATA_KEYS = {"aggregate": str, "appliance": str, "appliance_name": str,
              "period_s": int}
_METRICS_KEYS = {"threshold_w": float, "period_len_k": int}


def _parse_int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise DataError(f"expected a comma-separated integer list, got {text!r}") \
            from None


# [grid] takes a list of values for each [model] key, under the same name,
# which is also grid_search's keyword.
_GRID_KEYS = dict.fromkeys(SCHEMAS["model"][0], _parse_int_list)


@dataclass
class RunConfig:
    """Typed view of the INI run configuration.

    Sections: [data] (paths), [train], [model] (single-point F/K/H),
    [grid] (comma lists), [metrics], and one [appliance <name>] per
    appliance. Unknown sections or keys are rejected. It holds only the
    values the file set: `model` and `metrics` are keyword arguments for
    RegressionConfig and evaluation.evaluate, `data` the [data] values. A
    key left out takes the default of the library type or function it fills.
    """
    appliances: dict = field(default_factory=dict)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    model: dict = field(default_factory=dict)
    grid: dict | None = None
    metrics: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


def _read_section(parser, section, allowed, required=()):
    values = {}
    for key, raw in parser.items(section):
        if key not in allowed:
            raise DataError(
                f"config section [{section}]: unknown key {key!r} "
                f"(allowed: {', '.join(sorted(allowed))})")
        try:
            values[key] = allowed[key](raw)
        except (TypeError, ValueError):
            raise DataError(
                f"config section [{section}]: bad value for {key!r}: {raw!r}") \
                from None
    missing = sorted(set(required) - values.keys())
    if missing:
        raise DataError(f"config section [{section}]: {missing[0]} is required")
    return values


def load_run_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"config {path} is not UTF-8 text ({exc.reason})") from None
    except configparser.Error as exc:
        raise DataError(f"malformed config {path}: {exc}") from None
    cfg = RunConfig()
    appliance_sections = {}
    for section in parser.sections():
        if section.startswith(APPLIANCE_SECTION + " "):
            name = section[len(APPLIANCE_SECTION) + 1:].strip()
            if name in appliance_sections:
                raise DataError(f"config: sections [{appliance_sections[name]}] and "
                                f"[{section}] both name appliance {name!r}")
            appliance_sections[name] = section
            values = _read_section(parser, section, *SCHEMAS[APPLIANCE_SECTION])
            cfg.appliances[name] = data.ApplianceSpec(name=name, **values)
        elif section == "train":
            cfg.train_cfg = TrainConfig(**_read_section(parser, section,
                                                        *SCHEMAS[section]))
        elif section == "model":
            cfg.model = _read_section(parser, section, *SCHEMAS[section])
        elif section == "grid":
            cfg.grid = _read_section(parser, section, _GRID_KEYS)
        elif section == "metrics":
            cfg.metrics = _read_section(parser, section, _METRICS_KEYS)
        elif section == "data":
            cfg.data = _read_section(parser, section, _DATA_KEYS)
        else:
            raise DataError(f"config: unknown section [{section}]")
    return cfg


def _given(**values):
    """The keyword arguments a flag set, so the callee's defaults fill the rest."""
    return {key: value for key, value in values.items() if value is not None}


def parse_grid_flag(text):
    """Parse 'F=16,32;K=4,8;H=256,512' into lists for filters/kernel/hidden."""
    names = {"f": "filters", "k": "kernel", "h": "hidden"}
    grid = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"--grid: expected NAME=LIST segments, got {part!r}")
        name, _, listing = part.partition("=")
        key = names.get(name.strip().lower())
        if key is None:
            raise DataError(f"--grid: unknown dimension {name!r} (use F, K, H)")
        grid[key] = _parse_int_list(listing)
    if not grid:
        raise DataError("--grid: empty grid specification")
    return grid


# ---------------------------------------------------------------- commands


def cmd_synth(args):
    cfg = load_run_config(args.config)
    if not cfg.appliances:
        raise DataError("config defines no [appliance <name>] sections")
    # Each channel needs a file of its own in --out, on file systems that
    # fold letter case too.
    taken = {"aggregate": "aggregate"}
    for name in cfg.appliances:
        if not name or any(c in name for c in "/\\\0"):
            raise DataError(f"appliance name {name!r} cannot name a channel file")
        if name.casefold() in taken:
            raise DataError(f"appliance {name!r} would overwrite the file of "
                            f"channel {taken[name.casefold()]!r}")
        taken[name.casefold()] = name
    seed = args.seed if args.seed is not None else cfg.train_cfg.seed
    specs = list(cfg.appliances.values())
    aggregate, appliances = data.synth_household(
        specs, args.duration_s, seed=seed,
        **_given(noise_std=args.noise_std, period_s=args.period_s,
                 duration_scale=args.duration_scale))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data.write_channel_csv(out_dir / "aggregate.csv", aggregate)
    for series in appliances:
        data.write_channel_csv(out_dir / f"{series.name}.csv", series)
    print(f"synth: wrote {1 + len(appliances)} channels "
          f"({len(aggregate)} samples at {aggregate.period_s}s) to {out_dir}")
    return EXIT_OK


def _load_training_series(cfg, args):
    aggregate_path = args.aggregate or cfg.data.get("aggregate")
    appliance_path = args.appliance or cfg.data.get("appliance")
    appliance_name = args.appliance_name or cfg.data.get("appliance_name")
    if not aggregate_path or not appliance_path:
        raise DataError("aggregate and appliance channel paths are required "
                        "(flags or [data] section)")
    if not appliance_name:
        raise DataError("appliance name is required (flag or [data] section)")
    if appliance_name not in cfg.appliances:
        raise DataError(f"config has no [appliance {appliance_name}] section")
    aggregate = data.load_channel_csv(aggregate_path, name="aggregate")
    appliance = data.load_channel_csv(appliance_path, name=appliance_name)
    period = cfg.data.get("period_s", appliance.period_s)
    aggregate, appliance = data.align_pair(aggregate, appliance, period)
    return aggregate, appliance, cfg.appliances[appliance_name]


def cmd_train(args):
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.train_cfg = replace(cfg.train_cfg, seed=args.seed)
    train_cfg = cfg.train_cfg
    aggregate, appliance, spec = _load_training_series(cfg, args)
    window = spec.window_l
    states = data.make_state_sequence(appliance, spec)
    all_windows = data.sliding_windows(aggregate.values, appliance.values,
                                       states, window, hop=train_cfg.window_stride)
    if len(all_windows) == 0:
        raise DataError("no training windows: series shorter than the window")
    train_ws, val_ws = data.split_train_val(
        all_windows, train_cfg.val_fraction, gap_samples=window - 1)
    if len(train_ws) == 0:
        raise DataError("no training windows left after the validation split")
    boundary = int(val_ws.starts[0]) if len(val_ws) else len(aggregate)
    meta = data.NormalizationMeta.fit(aggregate.values[:boundary],
                                      appliance.values[:boundary])
    train_ws = data.normalize_windows(train_ws, meta)
    val_ws = data.normalize_windows(val_ws, meta)

    grid = cfg.grid
    if args.grid:
        grid = parse_grid_flag(args.grid)
    if grid is not None:
        result = grid_search(train_ws, val_ws, train_cfg, appliance=spec.name,
                             **grid)
        model, record = result.best_model, result.best_record
        grid_path = Path(args.out).with_suffix(".grid.csv")
        configs, losses, sizes = zip(*result.leaderboard)
        data.write_table(grid_path, "filters,kernel,hidden,val_loss,n_params".split(","),
                         [[(c.filters, c.kernel, c.hidden) for c in configs], losses, sizes])
        print(f"grid: best f={result.best_config.filters} "
              f"k={result.best_config.kernel} h={result.best_config.hidden} "
              f"leaderboard={grid_path}")
    else:
        reg_cfg = RegressionConfig(window=window, **cfg.model)
        model = GatedAttentionModel.init(reg_cfg, appliance=spec.name,
                                         seed=train_cfg.seed)
        model, record = train(model, train_ws, val_ws, train_cfg)

    model.norm_meta = meta
    save_checkpoint(args.out, model)
    record_path = Path(args.out).with_suffix(".train.csv")
    epochs = np.arange(1, len(record.val_losses) + 1)
    data.write_table(record_path, RECORD_COLUMNS,
                     [epochs, record.train_losses, record.val_losses,
                      [f"{wt:.3f}" for wt in record.wall_times],
                      (epochs == record.best_epoch).astype(np.int64)])
    print(f"stopped={record.stop_reason} best_epoch={record.best_epoch} "
          f"best_val_loss={record.best_val_loss:.6g}")
    print(f"checkpoint={args.out} record={record_path}")
    return EXIT_OK


def cmd_disaggregate(args):
    model = load_checkpoint(args.checkpoint)
    aggregate = data.load_channel_csv(args.input, name="aggregate")
    prediction, alphas = evaluation.disaggregate(
        model, aggregate, export_attention=args.export_attention)
    data.write_channel_csv(args.out, prediction)
    print(f"disaggregate: wrote {len(prediction)} samples to {args.out}")
    if args.export_attention:
        attention_path = Path(args.out).with_suffix(".attention.csv")
        write_attention_csv(attention_path, alphas)
        print(f"attention={attention_path} ({alphas.shape[0]} windows)")
    return EXIT_OK


def write_attention_csv(path, alphas):
    """One row per hop-1 window: its start i, then its L weights as reprs."""
    header = ["window_start"] + [f"alpha_{i}" for i in range(alphas.shape[1])]
    data.write_table(path, header, [np.arange(len(alphas)), alphas])


def cmd_evaluate(args):
    cfg = load_run_config(args.config) if args.config else RunConfig()
    metrics = {**cfg.metrics, **_given(threshold_w=args.threshold_w,
                                       period_len_k=args.period_k)}
    truth = data.load_channel_csv(args.truth, name="truth")
    prediction = data.load_channel_csv(args.prediction, name="prediction")
    if len(truth) != len(prediction):
        raise DataError(f"length mismatch: truth has {len(truth)} samples, "
                        f"prediction has {len(prediction)}")
    if (truth.period_s, truth.t0) != (prediction.period_s, prediction.t0):
        raise DataError("truth and prediction series are not on the same grid")
    report = evaluation.evaluate(args.appliance_name, truth.values,
                                 prediction.values, **metrics)
    evaluation.write_report_csv(args.out, [report])
    print(f"evaluate: appliance={report.appliance} mae_w={report.mae_w:.4g} "
          f"sae_w={report.sae_w:.4g} f1={report.f1:.4f} -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    cls_filters = tuple(_parse_int_list(args.cls_filters))
    if len(cls_filters) > len(CLS_KERNELS):
        raise DataError(
            f"--cls-filters: {len(cls_filters)} entries, but the classification "
            f"branch has a {len(CLS_KERNELS)}-layer table (kernels "
            f"{','.join(map(str, CLS_KERNELS))})")
    if not 0 < args.step < np.inf:
        raise DataError(f"--step must be positive and finite, got {args.step:g}")
    if not 0 < args.tol < np.inf:
        raise DataError(f"--tol must be positive and finite, got {args.tol:g}")
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    reg_cfg = RegressionConfig(window=args.window, filters=args.filters,
                               kernel=args.kernel, hidden=args.hidden)
    cls_cfg = ClassificationConfig(filters=cls_filters,
                                   kernels=CLS_KERNELS[:len(cls_filters)],
                                   dense_units=args.cls_dense)
    model = GatedAttentionModel.init(reg_cfg, cls_cfg, appliance="gradcheck",
                                     seed=args.seed, dtype=np.float64)
    rng = np.random.default_rng(args.seed + 1)
    nn.randomize_biases(model.all_params(), rng)
    windows = rng.normal(size=(2, args.window))
    target_power = rng.normal(size=(2, args.window))
    target_state = rng.integers(0, 2, size=(2, args.window)).astype(np.float64)

    def loss_fn():
        return model.batch_loss(windows, target_power, target_state)

    def grad_fn():
        loss = model.train_step_grads(windows, target_power, target_state)
        if args.inject_fault:
            model.grads[0] += 1.0
        return loss

    entries = nn.gradient_check(model.all_params(), loss_fn, grad_fn,
                                step=args.step, tol=args.tol)
    failed = 0
    for entry in entries:
        status = "ok" if entry.ok else "FAIL"
        print(f"tensor={entry.name} max_rel_err={entry.max_rel_err:.3e} "
              f"status={status}")
        failed += not entry.ok
    if failed:
        print(f"gradcheck: {failed}/{len(entries)} parameter tensors failed "
              f"tolerance {args.tol:g}")
        return EXIT_NUMERIC
    print(f"gradcheck: all {len(entries)} parameter tensors within "
          f"{args.tol:g}")
    return EXIT_OK


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per this CLI's contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="nilmnet",
                     description="Neural energy disaggregation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic household")
    p.add_argument("--config", required=True, help="run config (INI)")
    p.add_argument("--out", required=True, help="output directory for channel CSVs")
    p.add_argument("--duration-s", type=int, required=True)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--period-s", type=int)
    p.add_argument("--duration-scale", type=float,
                   help="scale factor on sampled activation durations")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model for one appliance")
    p.add_argument("--config", required=True)
    p.add_argument("--aggregate", help="aggregate channel CSV")
    p.add_argument("--appliance", help="appliance channel CSV")
    p.add_argument("--appliance-name", help="name of the [appliance ...] section")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--grid", default=None,
                   help="grid search spec, e.g. 'F=16,32;K=4,8;H=256,512'")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("disaggregate", help="run a model over an aggregate channel")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="aggregate channel CSV")
    p.add_argument("--out", required=True, help="prediction channel CSV")
    p.add_argument("--export-attention", action="store_true",
                   help="also write per-window attention weights")
    p.set_defaults(func=cmd_disaggregate)

    p = sub.add_parser("evaluate", help="score a prediction against ground truth")
    p.add_argument("--prediction", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--appliance-name", required=True)
    p.add_argument("--out", required=True, help="results CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--threshold-w", type=float, default=None)
    p.add_argument("--period-k", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients against finite differences")
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--filters", type=int, default=2)
    p.add_argument("--kernel", type=int, default=4)
    p.add_argument("--hidden", type=int, default=3)
    p.add_argument("--cls-filters", default="3,3,4,5,5,5")
    p.add_argument("--cls-dense", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one gradient entry; the check must fail")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (DataError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
