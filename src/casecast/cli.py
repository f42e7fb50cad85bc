"""Command-line front door: `casecast validate|run|reproduce`.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. Flag values override a JSON config file, which overrides the
built-in defaults (the defaults encode the reference study settings, so
`reproduce` needs no flags).
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import checkpoint, evaluation
from .classical import (
    FitError,
    fit_arima,
    forecast_arima_from_series,
    hw_fit,
    hw_forecast,
    prophet_lite_fit,
    prophet_lite_forecast,
)
from .data import (
    DAY,
    DataError,
    bundled_dataset_path,
    check_fields,
    forecast_horizon,
    load_csv,
    observed_horizon,
    shown_path,
    slice_window,
)
from .evaluation import (
    emit_plot,
    emit_table,
    summarize,
    write_lines,
    write_summary_csv,
)
from .lstm import (
    ACTIVATIONS,
    SCHEMAS,
    NonFiniteForecastError,
    TrainConfig,
    TrainingDivergedError,
    forecast_schemas,
)
# not called here: perfbench's tracer patches these two by name in `cli`
from .lstm import run_schema, train_schema_model  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

MODELS = ("lstm-u1", "lstm-u2", "lstm-u3", "arima", "hwaas", "prophet-lite")

class ConfigError(Exception):
    """A configuration file, value or output directory that cannot be used."""


@dataclass(frozen=True)
class RunConfig:
    """The settings of one `run` or `reproduce`, checked when built: a field
    of the wrong type or out of range is a ValueError, and the training
    settings are checked by the TrainConfig they make. Frozen, so a
    RunConfig that exists holds settings that passed these checks."""

    data: str = ""
    model: str = "lstm-u2"
    train_start: dt.date = dt.date(2020, 3, 24)
    train_end: dt.date = dt.date(2020, 4, 23)
    horizon: int = 15
    lookback: int = 1
    activation: str = "elu"
    epochs: int = 2000
    seed: int = 42
    out: str = "out"

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        for name in ("horizon", "lookback"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        try:
            self.train_end + self.horizon * DAY
        except OverflowError:
            raise ValueError(f"horizon {self.horizon} runs past the last representable date") from None
        if not self.out:
            raise ValueError("out must be a non-empty path")
        for name in ("data", "out"):  # a config file may name what no path can
            path = getattr(self, name)
            if "\0" in path:
                raise ValueError(f"{name} must not hold a NUL character")
            try:
                os.fsencode(path)
            except UnicodeEncodeError as exc:
                raise ValueError(f"{name} {exc.object!r} cannot be a path in the file system's "
                                 f"encoding, {exc.encoding}") from None
        _train_config(self, self.activation)


def _parse_train_window(text: str):
    try:
        start, end = text.split(":")
        return dt.date.fromisoformat(start), dt.date.fromisoformat(end)
    except ValueError:
        raise ValueError(f"train window must be YYYY-MM-DD:YYYY-MM-DD, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casecast",
        description="Forecast cumulative COVID-19 case counts with a "
        "from-scratch LSTM and classical baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a dataset CSV")
    p_val.add_argument("--data", default=None, help="CSV path (default: bundled)")

    p_run = sub.add_parser("run", help="train/fit one model and forecast")
    p_rep = sub.add_parser("reproduce", help="run every model and emit tables/plots")
    for p in (p_run, p_rep):
        p.add_argument("--data", default=None)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--train", default=None, help="train window start:end")
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--lookback", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    p_run.add_argument("--model", choices=MODELS, default=None)
    # reproduce trains every activation
    p_run.add_argument("--activation", choices=tuple(ACTIVATIONS), default=None)
    return parser


def _merge_config(args) -> RunConfig:
    """The RunConfig of `args`: the config file's keys, then the flags that
    are set, then `--train`'s two dates, over the defaults, with an empty
    `data` the bundled dataset. A setting that cannot be used, or a config
    file that cannot be read, is a ConfigError."""
    settings = {}
    try:
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8-sig") as fh:
                try:
                    doc = json.load(fh)
                except RecursionError:  # json recurses once per level of nesting
                    raise ValueError("config file nests its JSON too deeply") from None
            if not isinstance(doc, dict):
                raise ValueError("config file must hold a JSON object")
            valid = {f.name for f in fields(RunConfig)}
            for key, value in doc.items():
                if key not in valid:
                    raise ValueError(f"unknown config key {key!r}")
                if key in ("train_start", "train_end") and isinstance(value, str):
                    value = dt.date.fromisoformat(value)
                settings[key] = value
        settings |= {f.name: getattr(args, f.name) for f in fields(RunConfig)
                     if getattr(args, f.name, None) is not None}
        if getattr(args, "train", None):
            settings["train_start"], settings["train_end"] = _parse_train_window(args.train)
        if not settings.get("data"):
            settings["data"] = bundled_dataset_path()
        return RunConfig(**settings)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def _prepare(args):
    """Merge the configuration, load the data, create `--out`, and find and
    check the horizon before any fit: `reproduce` and u1 need all of it
    observed, and an observed case must be positive to score its APE.
    Returns (cfg, ts, dates, actuals)."""
    cfg = _merge_config(args)
    ts = load_csv(cfg.data)
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {shown_path(cfg.out)}: "
                          f"{exc.strerror}") from exc
    observed = args.command == "reproduce" or cfg.model == "lstm-u1"
    horizon_of = observed_horizon if observed else forecast_horizon
    dates, actuals = horizon_of(ts, cfg.train_end, cfg.horizon)
    if actuals is not None and (actuals <= 0).any():
        raise DataError("observed cases over the horizon must be positive to score APE")
    return cfg, ts, dates, actuals


def _check_writable(out: str, names) -> None:
    """Fail before any fit, not after the training, when an artifact cannot
    be written: open each of `names` in `out` for appending, which changes
    no file, and remove the ones this created. The OSError names the path."""
    for name in names:
        path = os.path.join(out, name)
        existed = os.path.lexists(path)
        with open(path, "a"):
            pass
        if not existed:
            os.remove(path)


def _train_config(cfg: RunConfig, activation: str) -> TrainConfig:
    return TrainConfig(epochs=cfg.epochs, activation=activation, seed=cfg.seed)


def _schema(name: str) -> str:
    """The LSTM schema of model `name`, "" for a classical model."""
    return name.split("-", 1)[1] if name.startswith("lstm-") else ""


def _forecast(ts, cfg: RunConfig, name: str):
    """Fit model `name` on the configured window and forecast the horizon.

    An `lstm-*` name trains and forecasts one (schema, config) member
    through `forecast_schemas`, the path `reproduce` takes for all of its
    members. A classical name fits on the cases of the window.
    Returns (forecasts, fit): the fit is the LstmModel or the classical
    fit, which is what a checkpoint stores. A forecast with a NaN or an
    infinity is a NonFiniteForecastError, whatever the model. The horizon
    is checked before (`_prepare`), not here.
    """
    schema = _schema(name)
    if schema:
        member = (schema, _train_config(cfg, cfg.activation))
        ((fit, forecasts),) = forecast_schemas(ts, [member], cfg.train_start, cfg.train_end,
                                               cfg.horizon, cfg.lookback).values()
    else:
        y = slice_window(ts, cfg.train_start, cfg.train_end).cases.astype(float)
        if name == "arima":
            fit = fit_arima(y)
            forecasts = forecast_arima_from_series(fit, y, cfg.horizon)
        elif name == "hwaas":
            fit = hw_fit(y)
            forecasts = hw_forecast(fit, cfg.horizon)
        else:
            fit = prophet_lite_fit(y)
            forecasts = prophet_lite_forecast(fit, cfg.horizon)
        if not np.all(np.isfinite(forecasts)):  # forecast_schemas checks an LSTM's
            raise NonFiniteForecastError(f"non-finite forecast from {name}")
    return forecasts, fit


def _write_forecast_csv(path, dates, forecasts, actuals, seed):
    lines = [f"# seed={seed}", "date,forecast,actual"]
    for k, d in enumerate(dates):
        actual = "" if actuals is None else repr(float(actuals[k]))
        lines.append(f"{d.isoformat()},{repr(float(forecasts[k]))},{actual}")
    write_lines(path, lines)


def cmd_validate(args) -> int:
    ts = load_csv(_merge_config(args).data)
    print(f"{len(ts)} days, {ts.start}..{ts.end}, OK")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg, ts, dates, actuals = _prepare(args)
    scored = ("errors.csv", "summary.csv") if actuals is not None else ()
    _check_writable(cfg.out, ("checkpoint.json", "forecast.csv") + scored)
    schema = _schema(cfg.model)
    forecasts, fit = _forecast(ts, cfg, cfg.model)
    save = checkpoint.save_lstm if schema else checkpoint.save_classical
    save(fit, os.path.join(cfg.out, "checkpoint.json"))
    _write_forecast_csv(os.path.join(cfg.out, "forecast.csv"), dates, forecasts, actuals,
                        cfg.seed)
    if actuals is not None:
        report = summarize(forecasts, actuals, cfg.model, schema)
        emit_table([report], os.path.join(cfg.out, "errors.csv"))
        write_summary_csv([report], os.path.join(cfg.out, "summary.csv"))
        # ASCII only: stdout's encoding follows the locale, which may be ASCII
        print(f"{cfg.model}: MAPE {report.mape:.2f} +/- {report.std:.2f} %")
    else:
        print(f"{cfg.model}: forecast written (no actuals over the horizon)")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cfg, ts, dates, actuals = _prepare(args)
    _check_writable(cfg.out, evaluation.ARTIFACTS)
    classical = {}  # model name -> forecasts
    # the classical fits first: they reject a window before seconds of training
    for name in ("arima", "hwaas", "prophet-lite"):
        classical[name], _ = _forecast(ts, cfg, name)
    cfgs = [_train_config(cfg, a) for a in ("elu", "tanh")]
    lstms = forecast_schemas(ts, [(s, c) for s in SCHEMAS for c in cfgs],
                             cfg.train_start, cfg.train_end, cfg.horizon, cfg.lookback)
    texts, tables, plots, stdout = evaluation.study_report(
        classical, lstms, actuals, dates, seed=cfg.seed, train_start=cfg.train_start,
        train_end=cfg.train_end, horizon=cfg.horizon, lookback=cfg.lookback, epochs=cfg.epochs)
    for name, lines in texts.items():
        write_lines(os.path.join(cfg.out, name), lines)
    for name, reports in tables.items():
        emit_table(reports, os.path.join(cfg.out, name))
    for name, (series, x_labels) in plots.items():
        emit_plot(series, x_labels, os.path.join(cfg.out, name))
    print(*stdout, f"artifacts written to {cfg.out}/", sep="\n")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command and map every expected failure to its exit code."""
    try:
        args = build_parser().parse_args(argv)
        command = {"validate": cmd_validate, "run": cmd_run, "reproduce": cmd_reproduce}
        return command[args.command](args)
    except SystemExit as exc:  # argparse has printed its usage or help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FitError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, NonFiniteForecastError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # reads map their own OSErrors, so this is an artifact write
        path = f" {shown_path(exc.filename)}" if exc.filename else ""
        print(f"config error: cannot write{path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
