"""Acceptance gate: one test per release criterion.

Each test prints a single `[ACCEPTANCE] <name>: PASS|FAIL (...)` line with
capture disabled, so the verdicts are visible in any pytest run, then asserts. The LSTM criteria share one session-scoped training matrix
(5 seeds x 2 activations x {univariate, bivariate}, trained as one lockstep
ensemble) because full-scale training dominates the suite's runtime.
"""

import itertools
import statistics
import time

import numpy as np
import pytest

from casecast import TrainConfig, slice_window
from casecast.classical import (
    fit_arima,
    forecast_arima_from_series,
    hw_fit,
    hw_forecast,
)
from casecast.evaluation import ape_series, summarize
from casecast.lstm import SCHEMAS, LstmParams, forecast_schemas, run_schema, train_schema_model
from conftest import TRAIN_END, TRAIN_START
from test_eval import HWAAS_COLUMN
from test_lstm import max_relative_gradient_error

SEEDS = (1, 2, 3, 4, 5)
HORIZON = 15


def report(capfd, criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"\n[ACCEPTANCE] {criterion}: {verdict} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"


def train_cases(series):
    return slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)


@pytest.fixture(scope="session")
def lstm_matrix(series, test_actuals):
    """MAPEs for every (activation, schema, seed) cell at full scale.

    `forecast_schemas` gets every (schema, config) member, schema-major, as
    `reproduce` passes them for its one seed, and trains the 20 models
    (5 seeds x 2 activations x {univariate, bivariate}; u1 shares u2's) as
    one lockstep ensemble. Also keeps each univariate loss curve.
    """
    cfgs = [TrainConfig(activation=activation, seed=seed)
            for activation, seed in itertools.product(("elu", "tanh"), SEEDS)]
    members = [(schema, cfg) for schema in SCHEMAS for cfg in cfgs]
    matrix = forecast_schemas(series, members, TRAIN_START, TRAIN_END, HORIZON)
    mapes = {}
    losses = {}
    for (schema, cfg), (model, forecasts) in matrix.items():
        if schema == "u2":
            losses[(cfg.activation, cfg.seed)] = model.epoch_losses
        rep = summarize(forecasts, test_actuals, "lstm", schema)
        mapes[(cfg.activation, schema, cfg.seed)] = rep.mape
    return {"mapes": mapes, "losses": losses}


def median(matrix, activation, schema):
    return statistics.median(
        matrix["mapes"][(activation, schema, s)] for s in SEEDS
    )


class TestDeterministicBaselines:
    def test_hwaas_band(self, capfd, series, test_actuals):
        # hw_fit imports scipy on the first fit of a process: time the fit alone
        import scipy.optimize  # noqa: F401

        t0 = time.perf_counter()
        fit = hw_fit(train_cases(series), m=7, phi=0.96)
        forecasts = hw_forecast(fit, HORIZON)
        elapsed = time.perf_counter() - t0
        mape = summarize(forecasts, test_actuals, "hwaas").mape
        ok = abs(mape - 0.47) <= 0.5 and elapsed < 5.0
        report(
            capfd,
            "HWAAS band",
            ok,
            f"MAPE={mape:.3f}, target 0.47±0.5, runtime {elapsed:.2f}s < 5s",
        )

    def test_arima_band_and_trend(self, capfd, series, test_actuals):
        y = train_cases(series)
        t0 = time.perf_counter()
        fit = fit_arima(y, p=6)
        forecasts = forecast_arima_from_series(fit, y, HORIZON)
        elapsed = time.perf_counter() - t0
        mape = summarize(forecasts, test_actuals, "arima").mape
        apes = ape_series(test_actuals, forecasts)
        # "weakly increasing across days 4..15": the reference column itself
        # has small local dips, so the operational check is a positive trend
        # line over days 4..15 plus day 15 >= day 4
        tail = apes[3:]
        slope = float(np.polyfit(np.arange(tail.size), tail, 1)[0])
        ok = (
            abs(mape - 3.24) <= 1.5
            and slope > 0
            and tail[-1] >= tail[0]
            and elapsed < 1.0
        )
        report(
            capfd,
            "ARIMA band and trend",
            ok,
            f"MAPE={mape:.3f}, target 3.24±1.5; days-4..15 slope {slope:+.3f}, "
            f"day15 {tail[-1]:.2f} >= day4 {tail[0]:.2f}; runtime {elapsed:.3f}s < 1s",
        )

    def test_eval_arithmetic_on_reference_column(self, capfd):
        apes = np.array(HWAAS_COLUMN)
        mean = float(np.mean(apes))
        population = float(np.std(apes))
        sample = float(np.std(apes, ddof=1))
        # the printed column is rounded to 2 decimals, so one convention
        # should land within rounding (±0.01) of the printed 0.28
        ok = round(mean, 2) == 0.47 and (
            abs(population - 0.28) <= 0.01 or abs(sample - 0.28) <= 0.01
        )
        report(
            capfd,
            "Eval arithmetic",
            ok,
            f"mean={mean:.4f} rounds to 0.47; std population={population:.4f}, "
            f"sample={sample:.4f}, printed 0.28",
        )


class TestLstm:
    def test_gradient_suite(self, capfd):
        t0 = time.perf_counter()
        configs = [
            (seed, hidden, lookback, g)
            for seed, (hidden, lookback) in enumerate(
                itertools.product((1, 2, 4, 8), (1, 2, 3))
            )
            for g in ("elu", "tanh")
        ]
        worst = max(max_relative_gradient_error(*c) for c in configs)
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-4 and elapsed < 30.0 and len(configs) >= 20
        report(
            capfd,
            "Gradient suite",
            ok,
            f"{len(configs)} configs, max relative error {worst:.2e} < 1e-4, "
            f"runtime {elapsed:.1f}s < 30s",
        )

    def test_full_u2_determinism(self, capfd, series):
        runs = []
        for _ in range(2):
            cfg = TrainConfig(seed=42)
            (model,) = train_schema_model(series, [("u2", cfg)], TRAIN_START, TRAIN_END)
            run = run_schema(
                series, "u2", cfg, TRAIN_START, TRAIN_END, HORIZON, model=model
            )
            runs.append((model.params, run.forecasts))
        weights_equal = all(
            np.array_equal(getattr(runs[0][0], name), getattr(runs[1][0], name))
            for name in LstmParams.NAMES
        )
        forecasts_equal = np.array_equal(runs[0][1], runs[1][1])
        report(
            capfd,
            "Determinism",
            weights_equal and forecasts_equal,
            f"two full u2 runs at seed 42: weights bitwise equal={weights_equal}, "
            f"forecasts bitwise equal={forecasts_equal}",
        )

    def test_banded_reproduction(self, capfd, lstm_matrix):
        u1 = median(lstm_matrix, "elu", "u1")
        u2 = median(lstm_matrix, "elu", "u2")
        # loss-curve smoke over the same runs: training must not diverge
        curves = [lstm_matrix["losses"][("elu", s)] for s in SEEDS]
        losses_fell = all(c[-1] <= c[99] for c in curves)
        ok = u1 <= 2.0 and u2 <= 5.0 and losses_fell
        report(
            capfd,
            "Banded reproduction",
            ok,
            f"5-seed medians: u1 {u1:.3f}% <= 2% (reference 0.70), "
            f"u2 {u2:.3f}% <= 5% (reference 1.69); "
            f"loss at epoch 2000 <= epoch 100 on all seeds={losses_fell}",
        )

    def test_schema_ordering(self, capfd, lstm_matrix):
        u2 = median(lstm_matrix, "elu", "u2")
        u3 = median(lstm_matrix, "elu", "u3")
        violators = [
            s
            for s in SEEDS
            if lstm_matrix["mapes"][("elu", "u3", s)]
            > lstm_matrix["mapes"][("elu", "u2", s)]
        ]
        # single-seed violations are reported, not failed
        report(
            capfd,
            "Schema ordering",
            u3 <= u2,
            f"median u3 {u3:.3f}% <= median u2 {u2:.3f}%; "
            f"per-seed violations (informational): {violators or 'none'}",
        )

    def test_activation_ablation(self, capfd, lstm_matrix):
        pairs = {
            schema: (median(lstm_matrix, "elu", schema), median(lstm_matrix, "tanh", schema))
            for schema in ("u1", "u2", "u3")
        }
        ok = all(elu <= tanh for elu, tanh in pairs.values())
        detail = ", ".join(
            f"{schema}: elu {e:.3f}% vs tanh {t:.3f}%" for schema, (e, t) in pairs.items()
        )
        report(capfd, "Activation ablation", ok, detail)
