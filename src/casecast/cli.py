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
from .data import DAY, DataError, bundled_dataset_path, load_csv, slice_window
from .evaluation import emit_plot, emit_table, summarize, write_summary_csv
from .lstm import (
    ACTIVATIONS,
    TrainConfig,
    TrainingDivergedError,
    run_schema,
    train_schema_model,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

MODELS = ("lstm-u1", "lstm-u2", "lstm-u3", "arima", "hwaas", "prophet-lite")

# published reference results: model -> (mape, std)
REFERENCE_MAPE = {
    "lstm-u1": (0.70, 0.30),
    "lstm-u2": (1.69, 1.35),
    "lstm-u3": (0.99, 0.51),
    "arima": (3.24, 1.56),
    "hwaas": (0.47, 0.28),
}


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
        """Check the type and range of every field; raise ValueError."""
        for name, expected in typing.get_type_hints(RunConfig).items():
            value = getattr(self, name)
            if not isinstance(value, expected) or isinstance(value, bool):
                raise ValueError(f"{name} must be of type {expected.__name__}, got {value!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {tuple(ACTIVATIONS)}")
        for name in ("horizon", "lookback", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.out:
            raise ValueError("out must be a non-empty path")


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
        p.add_argument("--activation", choices=("elu", "tanh"), default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    p_run.add_argument("--model", choices=MODELS, default=None)
    return parser


def _merge_config(args) -> RunConfig:
    cfg = RunConfig()
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
    for key in ("data", "model", "horizon", "lookback", "activation", "epochs", "seed", "out"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "train", None):
        cfg.train_start, cfg.train_end = _parse_train_window(args.train)
    if not cfg.data:
        cfg.data = bundled_dataset_path()
    cfg.validate()
    return cfg


def cmd_validate(path: str | None) -> int:
    path = path or bundled_dataset_path()
    try:
        ts = load_csv(path)
    except DataError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"{len(ts)} days, {ts.start}..{ts.end}, OK")
    return EXIT_OK


def _train_lstm(ts, cfg: RunConfig, schema: str, activation: str):
    """Train the schema's LSTM on the configured window."""
    tcfg = TrainConfig(epochs=cfg.epochs, activation=activation, seed=cfg.seed)
    return train_schema_model(ts, schema, tcfg, cfg.train_start, cfg.train_end, cfg.lookback)


def _forecast_one(ts, cfg: RunConfig, model_name: str):
    """Fit one classical model, forecast the horizon, return (dates, forecasts, fit)."""
    train_ts = slice_window(ts, cfg.train_start, cfg.train_end)
    y = train_ts.cases.astype(float)
    dates = tuple(cfg.train_end + (k + 1) * DAY for k in range(cfg.horizon))
    if model_name == "arima":
        fit = fit_arima(y, p=6)
        return dates, forecast_arima_from_series(fit, y, cfg.horizon), fit
    if model_name == "hwaas":
        fit = hw_fit(y, m=7, phi=0.96)
        return dates, hw_forecast(fit, cfg.horizon), fit
    if model_name == "prophet-lite":
        fit = prophet_lite_fit(y)
        return dates, prophet_lite_forecast(fit, cfg.horizon), fit
    raise ValueError(f"unknown model {model_name!r}")


def _actuals_for(ts, dates):
    if dates[-1] > ts.end or dates[0] < ts.start:
        return None
    i = (dates[0] - ts.start).days
    return ts.cases[i : i + len(dates)].astype(float)


def _write_forecast_csv(path, dates, forecasts, actuals, seed):
    lines = [f"# seed={seed}", "date,forecast,actual"]
    for k, d in enumerate(dates):
        actual = "" if actuals is None else repr(float(actuals[k]))
        lines.append(f"{d.isoformat()},{repr(float(forecasts[k]))},{actual}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    try:
        cfg = _merge_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ts = load_csv(cfg.data)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    os.makedirs(cfg.out, exist_ok=True)
    try:
        if cfg.model.startswith("lstm-"):
            # train explicitly so the checkpoint can be saved
            schema = cfg.model.split("-", 1)[1]
            model = _train_lstm(ts, cfg, schema, cfg.activation)
            run = run_schema(
                ts, schema, model.config, cfg.train_start, cfg.train_end,
                cfg.horizon, cfg.lookback, model=model,
            )
            dates, forecasts = run.dates, run.forecasts
            checkpoint.save_lstm(model, os.path.join(cfg.out, "checkpoint.json"))
        else:
            dates, forecasts, fit = _forecast_one(ts, cfg, cfg.model)
            checkpoint.save_classical(fit, os.path.join(cfg.out, "checkpoint.json"))
    except TrainingDivergedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, FitError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA

    actuals = _actuals_for(ts, dates)
    _write_forecast_csv(
        os.path.join(cfg.out, "forecast.csv"), dates, forecasts, actuals, cfg.seed
    )
    if actuals is not None:
        report = summarize(forecasts, actuals, cfg.model)
        emit_table([report], os.path.join(cfg.out, "errors.csv"), "csv")
        write_summary_csv([report], os.path.join(cfg.out, "summary.csv"))
        print(f"{cfg.model}: MAPE {report.mape:.2f} ± {report.std:.2f} %")
    else:
        print(f"{cfg.model}: forecast written (no actuals over the horizon)")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    try:
        cfg = _merge_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ts = load_csv(cfg.data)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    os.makedirs(cfg.out, exist_ok=True)

    try:
        reports = {}
        runs = {}
        # LSTM schemas, both activations; u1/u2 share one trained model
        for activation in ("elu", "tanh"):
            uni = _train_lstm(ts, cfg, "u2", activation)
            biv = _train_lstm(ts, cfg, "u3", activation)
            for schema, model in (("u1", uni), ("u2", uni), ("u3", biv)):
                run = run_schema(
                    ts, schema, model.config, cfg.train_start, cfg.train_end,
                    cfg.horizon, cfg.lookback, model=model,
                )
                label = f"{schema.upper()}-{activation}"
                runs[label] = run
                reports[label] = summarize(
                    run.forecasts, run.actuals, label, schema
                )
        for name in ("arima", "hwaas", "prophet-lite"):
            dates, forecasts, _ = _forecast_one(ts, cfg, name)
            actuals = _actuals_for(ts, dates)
            runs[name] = (dates, forecasts)
            reports[name] = summarize(forecasts, actuals, name)
    except TrainingDivergedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, FitError) as exc:
        print(f"data error while running models: {exc}", file=sys.stderr)
        return EXIT_DATA

    # table1: activation ablation (MAPE per schema x activation)
    lines = ["activation,u1,u2,u3"]
    for activation in ("tanh", "elu"):
        row = [activation]
        for schema in ("u1", "u2", "u3"):
            r = reports[f"{schema.upper()}-{activation}"]
            row.append(f"{r.mape:.2f}±{r.std:.2f}")
        lines.append(",".join(row))
    with open(os.path.join(cfg.out, "table1.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    table2_labels = ["U1-elu", "U2-elu", "U3-elu", "arima", "prophet-lite", "hwaas"]
    emit_table(
        [reports[k] for k in table2_labels],
        os.path.join(cfg.out, "table2.csv"),
        "csv",
    )

    dates = runs["U2-elu"].dates
    actuals = _actuals_for(ts, dates)
    x_labels = [d.isoformat() for d in dates]
    emit_plot(
        [("actual", actuals)]
        + [(s, runs[f"{s.upper()}-elu"].forecasts) for s in ("u1", "u2", "u3")],
        x_labels,
        os.path.join(cfg.out, "fig3.svg"),
    )
    emit_plot(
        [
            ("actual", actuals),
            ("U2", runs["U2-elu"].forecasts),
            ("ARIMA", runs["arima"][1]),
            ("HWAAS", runs["hwaas"][1]),
            ("prophet-lite", runs["prophet-lite"][1]),
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
    bands = {"lstm-u1": 2.0, "lstm-u2": 5.0, "lstm-u3": 5.0, "arima": 1.5, "hwaas": 0.5}
    key_map = {
        "lstm-u1": "U1-elu", "lstm-u2": "U2-elu", "lstm-u3": "U3-elu",
        "arima": "arima", "hwaas": "hwaas",
    }
    for name, (ref, ref_std) in REFERENCE_MAPE.items():
        r = reports[key_map[name]]
        if name in ("hwaas", "arima"):
            ok = abs(r.mape - ref) <= bands[name]
        else:
            ok = r.mape <= bands[name]
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
    with open(os.path.join(cfg.out, "summary.md"), "w", newline="\n") as fh:
        fh.write("\n".join(summary) + "\n")

    for name, (ref, _) in REFERENCE_MAPE.items():
        r = reports[key_map[name]]
        print(f"{name}: MAPE {r.mape:.2f} % (reference {ref:.2f} %)")
    print(f"prophet-lite: MAPE {pl.mape:.2f} % (qualitative only)")
    print(f"artifacts written to {cfg.out}/")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "validate":
        return cmd_validate(args.data)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "reproduce":
        return cmd_reproduce(args)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
