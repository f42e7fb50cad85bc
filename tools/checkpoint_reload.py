"""Run `casecast run` for one model of each checkpoint kind, load each
`checkpoint.json` back and forecast from the loaded fit, in one process, and
print every field and the forecast.

    PYTHONPATH=src python3 tools/checkpoint_reload.py

Each model runs on the paper split into a temporary directory of its own:
`arima`, `hwaas`, `prophet-lite`, and the LSTMs `lstm-u2` (input width 1)
and `lstm-u3` (input width 2), each at lookback 3 for 20 epochs. A loaded
fit forecasts 15 days by the route README gives for its kind:
`forecast_arima_from_series` on the training cases, `hw_forecast`,
`prophet_lite_forecast`, and `run_schema` with the loaded model. After
`run`'s own line, each model prints the loaded fit's type, then one line per
field with its repr (an array as a list, so every digit shows), then the
forecast's, so two runs can be compared for identical bits. The bitwise
gate (`tools/bitwise_gate.py`) runs this script as one of its entries.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import fields

import numpy as np

from casecast import bundled_dataset_path, checkpoint, cli, load_csv, run_schema, slice_window
from casecast.classical import forecast_arima_from_series, hw_forecast, prophet_lite_forecast
from casecast.lstm import LstmModel, LstmParams

HORIZON = 15
LSTM_FLAGS = ["--lookback", "3", "--epochs", "20"]
RUNS = {"arima": [], "hwaas": [], "prophet-lite": [], "lstm-u2": LSTM_FLAGS, "lstm-u3": LSTM_FLAGS}


def field_lines(fit) -> list[str]:
    """`name = repr(value)` for every field of a loaded fit, an array as a
    list; of an LstmModel, each array of its params and each config field."""
    if isinstance(fit, LstmModel):
        values = {f"params.{k}": getattr(fit.params, k) for k in LstmParams.NAMES}
        values |= {f"config.{f.name}": getattr(fit.config, f.name) for f in fields(fit.config)}
        values["epoch_losses"] = fit.epoch_losses
    else:
        values = {f.name: getattr(fit, f.name) for f in fields(fit)}
    return [f"{k} = {(v.tolist() if isinstance(v, np.ndarray) else v)!r}"
            for k, v in values.items()]


def main() -> None:
    ts = load_csv(bundled_dataset_path())
    cfg = cli.RunConfig()
    y = slice_window(ts, cfg.train_start, cfg.train_end).cases.astype(float)
    for model, flags in RUNS.items():
        with tempfile.TemporaryDirectory(prefix="checkpoint-reload-") as out:
            code = cli.main(["run", "--model", model, *flags, "--out", out])
            if code != cli.EXIT_OK:
                raise SystemExit(f"run --model {model} exited {code}")
            fit = checkpoint.load(os.path.join(out, "checkpoint.json"))
        if isinstance(fit, LstmModel):
            forecasts = run_schema(ts, model.removeprefix("lstm-"), fit.config, cfg.train_start,
                                   cfg.train_end, HORIZON, 3, model=fit).forecasts
        elif model == "arima":
            forecasts = forecast_arima_from_series(fit, y, HORIZON)
        elif model == "hwaas":
            forecasts = hw_forecast(fit, HORIZON)
        else:
            forecasts = prophet_lite_forecast(fit, HORIZON)
        print(model, type(fit).__name__)
        print(*field_lines(fit), sep="\n")
        print(f"forecast = {forecasts.tolist()!r}")


if __name__ == "__main__":
    main()
