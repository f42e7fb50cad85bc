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
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import checkpoint
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
    forecast_horizon,
    load_csv,
    observed_horizon,
    slice_window,
)
from .evaluation import emit_plot, emit_table, summarize, write_lines, write_summary_csv
from .lstm import (
    ACTIVATIONS,
    NonFiniteForecastError,
    TrainConfig,
    TrainingDivergedError,
    run_schema,
    train_schema_model,
    train_schema_models,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

MODELS = ("lstm-u1", "lstm-u2", "lstm-u3", "arima", "hwaas", "prophet-lite")

# published reference results and the tolerance band `reproduce` checks:
# model -> (table label, reference mape, reference std, band)
REFERENCE = {
    "lstm-u1": ("U1-elu", 0.70, 0.30, 2.0),
    "lstm-u2": ("U2-elu", 1.69, 1.35, 5.0),
    "lstm-u3": ("U3-elu", 0.99, 0.51, 5.0),
    "arima": ("arima", 3.24, 1.56, 1.5),
    "hwaas": ("hwaas", 0.47, 0.28, 0.5),
}


class ConfigError(Exception):
    """A configuration file, value or output directory that cannot be used."""


@dataclass
class RunConfig:
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

    def validate(self):
        """Check the type and range of every field; raise ValueError. The
        training settings are checked by the TrainConfig they make."""
        for name, expected in typing.get_type_hints(RunConfig).items():
            value = getattr(self, name)
            if not isinstance(value, expected) or isinstance(value, bool):
                raise ValueError(f"{name} must be of type {expected.__name__}, got {value!r}")
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
        p.add_argument("--activation", choices=tuple(ACTIVATIONS), default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    p_run.add_argument("--model", choices=MODELS, default=None)
    return parser


def _merge_config(args) -> RunConfig:
    cfg = RunConfig()
    try:
        if getattr(args, "config", None):
            with open(args.config) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError("config file must hold a JSON object")
            valid = {f.name for f in fields(RunConfig)}
            for key, value in doc.items():
                if key not in valid:
                    raise ValueError(f"unknown config key {key!r}")
                if key in ("train_start", "train_end") and isinstance(value, str):
                    value = dt.date.fromisoformat(value)
                setattr(cfg, key, value)
        for f in fields(RunConfig):
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(cfg, f.name, value)
        if getattr(args, "train", None):
            cfg.train_start, cfg.train_end = _parse_train_window(args.train)
        if not cfg.data:
            cfg.data = bundled_dataset_path()
        cfg.validate()
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


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
        raise ConfigError(f"cannot create output directory {cfg.out}: {exc.strerror}") from exc
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


def _forecast(ts, cfg: RunConfig, name: str, model=None):
    """Fit model `name` on the configured window and forecast the horizon.

    An `lstm-*` name trains its schema's LSTM with `cfg`, unless `model` is
    given, and runs the schema; a classical name fits on the cases of the
    window. Returns (forecasts, fit): the fit is the LstmModel or the
    classical fit, which is what a checkpoint stores. A forecast with a NaN
    or an infinity is a NonFiniteForecastError, whatever the model. The
    horizon is checked before (`_prepare`), not here.
    """
    schema = _schema(name)
    if schema:
        if model is None:
            model = train_schema_model(
                ts, schema, _train_config(cfg, cfg.activation),
                cfg.train_start, cfg.train_end, cfg.lookback,
            )
        forecasts = run_schema(
            ts, schema, model.config, cfg.train_start, cfg.train_end,
            cfg.horizon, cfg.lookback, model=model,
        ).forecasts
        fit = model
    else:
        y = slice_window(ts, cfg.train_start, cfg.train_end).cases.astype(float)
        if name == "arima":
            fit = fit_arima(y, p=6)
            forecasts = forecast_arima_from_series(fit, y, cfg.horizon)
        elif name == "hwaas":
            fit = hw_fit(y, m=7, phi=0.96)
            forecasts = hw_forecast(fit, cfg.horizon)
        else:
            fit = prophet_lite_fit(y)
            forecasts = prophet_lite_forecast(fit, cfg.horizon)
        if not np.all(np.isfinite(forecasts)):  # run_schema checks an LSTM's
            raise NonFiniteForecastError(f"non-finite forecast from {name}")
    return forecasts, fit


def _write_forecast_csv(path, dates, forecasts, actuals, seed):
    lines = [f"# seed={seed}", "date,forecast,actual"]
    for k, d in enumerate(dates):
        actual = "" if actuals is None else repr(float(actuals[k]))
        lines.append(f"{d.isoformat()},{repr(float(forecasts[k]))},{actual}")
    write_lines(path, lines)


def cmd_validate(args) -> int:
    ts = load_csv(args.data or bundled_dataset_path())
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
    _check_writable(cfg.out, ("table1.csv", "table2.csv", "fig3.svg", "fig4.svg", "summary.md"))
    runs = {}  # table label -> forecasts
    # the classical fits first: they reject a window before seconds of training
    for name in ("arima", "hwaas", "prophet-lite"):
        runs[name], _ = _forecast(ts, cfg, name)
    # one lockstep ensemble of elu and tanh at both input widths; u1 and u2
    # train the same univariate model, so u1 reuses u2's
    members = [(trained, _train_config(cfg, activation))
               for trained in ("u2", "u3") for activation in ("elu", "tanh")]
    models = train_schema_models(ts, members, cfg.train_start, cfg.train_end, cfg.lookback)
    for (trained, _), model in zip(members, models):
        for schema in ("u2", "u1") if trained == "u2" else ("u3",):
            label = f"{schema.upper()}-{model.config.activation}"
            runs[label], _ = _forecast(ts, cfg, f"lstm-{schema}", model=model)
    reports = {label: summarize(forecasts, actuals, label) for label, forecasts in runs.items()}

    # table1: activation ablation (MAPE per schema x activation)
    lines = ["activation,u1,u2,u3"]
    for activation in ("tanh", "elu"):
        row = [activation]
        for schema in ("u1", "u2", "u3"):
            r = reports[f"{schema.upper()}-{activation}"]
            row.append(f"{r.mape:.2f}±{r.std:.2f}")
        lines.append(",".join(row))
    write_lines(os.path.join(cfg.out, "table1.csv"), lines)

    table2_labels = ["U1-elu", "U2-elu", "U3-elu", "arima", "prophet-lite", "hwaas"]
    emit_table([reports[k] for k in table2_labels], os.path.join(cfg.out, "table2.csv"))

    x_labels = [d.isoformat() for d in dates]
    emit_plot(
        [("actual", actuals)]
        + [(s, runs[f"{s.upper()}-elu"]) for s in ("u1", "u2", "u3")],
        x_labels,
        os.path.join(cfg.out, "fig3.svg"),
    )
    emit_plot(
        [
            ("actual", actuals),
            ("U2", runs["U2-elu"]),
            ("ARIMA", runs["arima"]),
            ("HWAAS", runs["hwaas"]),
            ("prophet-lite", runs["prophet-lite"]),
        ],
        x_labels,
        os.path.join(cfg.out, "fig4.svg"),
    )

    summary = [
        "# Reproduction summary",
        "",
        f"Seed: {cfg.seed}; train window {cfg.train_start}..{cfg.train_end}; "
        f"horizon {cfg.horizon}; lookback {cfg.lookback}; epochs {cfg.epochs}.",
        "",
        "| model | MAPE (this run) | reference | within band |",
        "|-------|-----------------|-----------|-------------|",
    ]
    for name, (label, ref, ref_std, band) in REFERENCE.items():
        r = reports[label]
        if name in ("hwaas", "arima"):
            ok = abs(r.mape - ref) <= band
        else:
            ok = r.mape <= band
        summary.append(
            f"| {name} | {r.mape:.2f}±{r.std:.2f} | {ref:.2f}±{ref_std:.2f} | "
            f"{'yes' if ok else 'NO'} |"
        )
    pl = reports["prophet-lite"]
    summary += [
        "",
        f"prophet-lite MAPE {pl.mape:.2f}±{pl.std:.2f} % (qualitative check only: "
        "horizon-growth pattern, not an equality target).",
        "",
        "Outputs: table1.csv (activation ablation), table2.csv (per-day errors),",
        "fig3.svg (LSTM schemas), fig4.svg (method comparison).",
    ]
    write_lines(os.path.join(cfg.out, "summary.md"), summary)

    for name, (label, ref, _, _) in REFERENCE.items():
        print(f"{name}: MAPE {reports[label].mape:.2f} % (reference {ref:.2f} %)")
    print(f"prophet-lite: MAPE {pl.mape:.2f} % (qualitative only)")
    print(f"artifacts written to {cfg.out}/")
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
        path = f" {exc.filename}" if exc.filename else ""
        print(f"config error: cannot write{path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
