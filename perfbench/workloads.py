"""The three benchmark workloads and their correctness checks.

Each workload is built from a seed in its constructor (the set-up), then
repeats one operation. `run` is the timed operation; `check` inspects its
result afterwards, untimed, and records every model result as passed or
failed; `finish` runs once at the end. The program is driven only through
`casecast.cli.main` and the public functions of `lstm`, `classical`,
`data`, `evaluation` and `checkpoint`.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from casecast import checkpoint, classical, cli, data, evaluation, lstm

TRAIN_START = dt.date(2020, 3, 24)
TRAIN_END = dt.date(2020, 4, 23)
HORIZON = 15
MIN_TRAIN_DAYS = 15
# errors the classical fitters and the data layer document; a window that
# raises one of them is a failed model result, not a wrong one
DOCUMENTED_ERRORS = (classical.FitError, data.DataError)
# metric suffix -> casecast model name of the three classical baselines
CLASSICAL = {"hwaas": "hwaas", "arima": "arima", "prophet_lite": "prophet-lite"}


@dataclass(frozen=True)
class Sizes:
    """Work per operation. The defaults keep every run of every workload
    within the time the benchmark contract allows; the self-test uses tiny
    sizes."""

    study_epochs: int = 300
    fit_seq7_epochs: int = 120
    backtest_windows: int = 14
    setup_reps: int = 5


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str | None = None):
        """Count one model result; `problem` marks it wrong, not just failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        if problem:
            self.problems.append(problem)


def load_dataset():
    return data.load_csv(data.bundled_dataset_path())


def _quiet_main(argv):
    """Run the CLI in-process with its console output swallowed, so the
    benchmark's own last stdout line stays the result."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Study:
    """`casecast reproduce`: 4 LSTM fits, 3 classical fits, all artifacts."""

    name = "study"
    min_runs = 2  # the artifacts are compared across repetitions
    results_per_run = 9
    identical = ("table1.csv", "table2.csv", "fig3.svg", "fig4.svg")
    artifacts = identical + ("summary.md",)

    def __init__(self, ts, seed, sizes, workdir):
        self.workdir = workdir
        self.argv = ["reproduce", "--seed", str(seed), "--epochs", str(sizes.study_epochs)]
        self.first_digests = None
        self.mape = {}

    def run(self, tag):
        out = os.path.join(self.workdir, f"study-{tag}")
        return out, _quiet_main(self.argv + ["--out", out])

    def check(self, result, outcome):
        out, code = result
        try:
            self._check(out, code, outcome)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out, code, outcome):
        missing = [a for a in self.artifacts if not os.path.exists(os.path.join(out, a))]
        if code != 0 or missing:
            for _ in range(self.results_per_run):
                outcome.record(False, f"reproduce exit {code}, missing {missing}")
            return
        digests = {a: _digest(os.path.join(out, a)) for a in self.identical}
        if self.first_digests is None:
            self.first_digests = digests
        changed = [a for a in self.identical if digests[a] != self.first_digests[a]]

        with open(os.path.join(out, "table2.csv")) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh]
        raw = {}  # label -> (every per-day APE and the MAPE are finite, MAPE)
        for col, name in enumerate(rows[0]):
            if name.endswith("_raw"):
                values = [float(r[col]) for r in rows[1:]]
                raw[name[: -len("_raw")]] = (all(map(math.isfinite, values)), values[-1])
        with open(os.path.join(out, "table1.csv")) as fh:
            for line in list(fh)[1:]:
                activation, *cells = line.strip().split(",")
                for schema, cell in zip(("U1", "U2", "U3"), cells):
                    mape, std = (float(x) for x in cell.split("±"))
                    raw.setdefault(f"{schema}-{activation}", (math.isfinite(mape + std), mape))
        with open(os.path.join(out, "summary.md")) as fh:
            band = {
                cells[0]: cells[3] == "yes"
                for cells in ([c.strip() for c in line.strip().strip("|").split("|")] for line in fh)
                if len(cells) == 4 and cells[0] in ("arima", "hwaas")
            }

        labels = [f"U{k}-{a}" for a in ("elu", "tanh") for k in (1, 2, 3)]
        for label in labels + list(CLASSICAL.values()):
            finite, mape = raw.get(label, (False, math.nan))
            in_band = band.get(label, False) if label in ("arima", "hwaas") else True
            ok = finite and in_band and not changed
            problem = None
            if not finite:
                problem = f"{label}: non-finite or missing forecast error"
            elif not in_band:
                problem = f"{label}: MAPE {mape:.3f} outside its summary.md band"
            elif changed:
                problem = f"artifacts differ between repetitions: {changed}"
            outcome.record(ok, problem)
        for key, label in CLASSICAL.items():
            self.mape[key] = raw.get(label, (False, math.nan))[1]

    def finish(self, outcome):
        pass


class FitSeq7:
    """`casecast run --model lstm-u3 --lookback 7`, then reload the written
    checkpoint and forecast again through `run_schema(model=...)`."""

    name = "fit_seq7"
    min_runs = 1
    results_per_run = 2
    lookback = 7

    def __init__(self, ts, seed, sizes, workdir):
        self.ts = ts
        self.workdir = workdir
        self.argv = [
            "run", "--model", "lstm-u3", "--lookback", str(self.lookback),
            "--epochs", str(sizes.fit_seq7_epochs), "--seed", str(seed),
        ]
        self.first_forecast = None
        self.mape = {}

    def run(self, tag):
        out = os.path.join(self.workdir, f"fit_seq7-{tag}")
        code = _quiet_main(self.argv + ["--out", out])
        if code != 0:
            return out, code, None
        model = checkpoint.load(os.path.join(out, "checkpoint.json"))
        again = lstm.run_schema(
            self.ts, "u3", model.config, TRAIN_START, TRAIN_END, HORIZON,
            self.lookback, model=model,
        )
        return out, code, again

    def check(self, result, outcome):
        out, code, again = result
        try:
            if code != 0:
                outcome.record(False, f"run exit {code}")
                outcome.record(False, "no checkpoint to reload")
                return
            with open(os.path.join(out, "forecast.csv")) as fh:
                written = [line.strip().split(",")[1] for line in list(fh)[2:]]
            finite = len(written) == HORIZON and all(math.isfinite(float(v)) for v in written)
            if self.first_forecast is None:
                self.first_forecast = written
            if not finite:
                outcome.record(False, "forecast.csv not finite")
            elif written != self.first_forecast:
                outcome.record(False, "forecast.csv differs between repetitions")
            else:
                outcome.record(True)
            same = written == [repr(float(v)) for v in again.forecasts]
            outcome.record(same, None if same else "reloaded checkpoint forecast differs")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def finish(self, outcome):
        """The classical models on the same split through `casecast run`, once
        per benchmark run and untimed: the reference the LSTM forecast is
        read against, and the source of this workload's classical MAPEs."""
        for key, model in CLASSICAL.items():
            out = os.path.join(self.workdir, f"fit_seq7-{model}")
            code = _quiet_main(["run", "--model", model, "--out", out])
            mape = math.nan
            if code == 0:
                with open(os.path.join(out, "summary.csv")) as fh:
                    mape = float(list(fh)[1].split(",")[2])
            ok = code == 0 and math.isfinite(mape)
            outcome.record(ok, None if ok else f"run --model {model}: exit {code}")
            self.mape[key] = mape
            shutil.rmtree(out, ignore_errors=True)


def backtest_windows(n_days):
    """Every (start, length) training window of at least MIN_TRAIN_DAYS days
    whose full HORIZON-day continuation is observed: 465 on the bundled
    59-day series."""
    return [
        (start, length)
        for length in range(MIN_TRAIN_DAYS, n_days - HORIZON + 1)
        for start in range(n_days - HORIZON - length + 1)
    ]


def grid_windows(n_days, count, seed):
    """`count` windows evenly spaced through the pool in (length, start)
    order, so every length band and start region is covered, run in an
    order shuffled by `seed`. The set itself does not depend on the seed:
    window-to-window differences in cost and error are so large that a
    seed-drawn set would move every metric by more than any bound the
    benchmark can hold (see README.md)."""
    pool = backtest_windows(n_days)
    step = len(pool) / count
    grid = [pool[int((k + 0.5) * step)] for k in range(count)]
    order = np.random.default_rng(seed).permutation(count)
    return [grid[k] for k in order]


class Backtest:
    """Rolling-origin classical backtest: ARIMA, HWAAS and prophet-lite fit,
    forecast and APE-scored on every window of a grid. One operation is one
    pass over the grid."""

    name = "backtest"
    min_runs = 1
    models = tuple(CLASSICAL)

    def __init__(self, ts, seed, sizes, workdir):
        self.windows = []
        for start, length in grid_windows(len(ts), sizes.backtest_windows, seed):
            train = data.slice_window(ts, ts.dates[start], ts.dates[start + length - 1])
            actuals = ts.cases[start + length : start + length + HORIZON].astype(float)
            self.windows.append(((start, length), train.cases.astype(float), actuals))
        self.results_per_run = len(self.models) * len(self.windows)
        self.first_forecasts = {}
        self.mapes = {m: {} for m in self.models}
        self.mape = {}

    def run(self, tag):
        return [self._window(y, actuals) for _, y, actuals in self.windows]

    def _window(self, y, actuals):
        fitters = {
            "arima": lambda: classical.forecast_arima_from_series(
                classical.fit_arima(y, p=6), y, HORIZON),
            "hwaas": lambda: classical.hw_forecast(classical.hw_fit(y, m=7, phi=0.96), HORIZON),
            "prophet_lite": lambda: classical.prophet_lite_forecast(
                classical.prophet_lite_fit(y), HORIZON),
        }
        results = {}
        for model, fit in fitters.items():
            try:
                forecast = fit()
                results[model] = (forecast, evaluation.summarize(forecast, actuals, model))
            except DOCUMENTED_ERRORS as exc:
                results[model] = (None, exc)
            except Exception as exc:  # an undocumented error is a wrong result
                results[model] = (None, f"undocumented {type(exc).__name__}: {exc}")
        return results

    def check(self, per_window, outcome):
        for (window, _, _), results in zip(self.windows, per_window):
            for model in self.models:
                forecast, report = results[model]
                if forecast is None:
                    documented = isinstance(report, DOCUMENTED_ERRORS)
                    outcome.record(False, None if documented else f"{window} {model}: {report}")
                elif not np.all(np.isfinite(forecast)):
                    outcome.record(False, f"{window} {model}: non-finite forecast")
                elif self.first_forecasts.setdefault((window, model), forecast.tobytes()) != (
                        forecast.tobytes()):
                    outcome.record(False, f"{window} {model}: forecast differs between passes")
                else:
                    outcome.record(True)
                    self.mapes[model][window] = report.mape

    def finish(self, outcome):
        for model in self.models:
            # summed in window order, so the seeded run order cannot move the last digit
            values = [mape for _, mape in sorted(self.mapes[model].items())]
            self.mape[model] = float(np.mean(values)) if values else math.nan


WORKLOADS = {w.name: w for w in (Study, Backtest, FitSeq7)}
