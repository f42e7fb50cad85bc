import json

import numpy as np

from casecast import TrainConfig
from casecast.checkpoint import load, save_classical, save_lstm
from casecast.classical import (
    ArimaFit,
    HwFit,
    ProphetLiteFit,
    fit_arima,
    forecast_arima_from_series,
    hw_forecast,
    prophet_lite_fit,
    prophet_lite_forecast,
)
from casecast.lstm import LstmModel, LstmParams


def test_lstm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    params = LstmParams.glorot(4, 1, rng)
    params.b[:] = rng.standard_normal(params.b.size)  # written through a view of flat
    model = LstmModel(params, TrainConfig(epochs=3, hidden=4, seed=17), [0.5, 0.25, 0.125])
    path = str(tmp_path / "model.json")
    save_lstm(model, path)
    loaded = load(path)
    assert loaded.config == model.config
    for name, arr in model.params.arrays().items():
        np.testing.assert_array_equal(arr, loaded.params.arrays()[name])
    np.testing.assert_array_equal(loaded.params.flat, model.params.flat)
    assert loaded.epoch_losses == model.epoch_losses


def test_arima_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    y = np.cumsum(rng.uniform(1.0, 3.0, 30))
    fit = fit_arima(y, p=6)
    path = str(tmp_path / "arima.json")
    save_classical(fit, path)
    loaded = load(path)
    assert isinstance(loaded, ArimaFit)
    assert loaded.order == (6, 1, 0)
    assert loaded.intercept == fit.intercept
    np.testing.assert_array_equal(loaded.coefficients, fit.coefficients)
    np.testing.assert_array_equal(
        forecast_arima_from_series(loaded, y, 15), forecast_arima_from_series(fit, y, 15)
    )


def test_hwaas_round_trip(tmp_path):
    fit = HwFit(0.5, 0.1, 0.1, 0.96, 7, 100.0, 3.0, np.arange(7.0) - 3.0, 12.5)
    path = str(tmp_path / "hw.json")
    save_classical(fit, path)
    loaded = load(path)
    assert isinstance(loaded, HwFit)
    assert loaded.phi == 0.96 and loaded.season_length == 7
    np.testing.assert_array_equal(loaded.seasonals, fit.seasonals)
    np.testing.assert_array_equal(hw_forecast(loaded, 15), hw_forecast(fit, 15))


def test_prophet_lite_round_trip(tmp_path):
    fit = prophet_lite_fit(np.cumsum(np.linspace(1.0, 4.0, 31)))
    path = str(tmp_path / "prophet.json")
    save_classical(fit, path)
    loaded = load(path)
    assert isinstance(loaded, ProphetLiteFit)
    assert loaded.n_train == 31 and loaded.fourier_order == 3
    np.testing.assert_array_equal(
        prophet_lite_forecast(loaded, 15), prophet_lite_forecast(fit, 15)
    )


def test_stored_keys_the_fit_lacks_are_ignored(tmp_path):
    # earlier prophet-lite checkpoints also stored the training start date
    fit = prophet_lite_fit(np.cumsum(np.linspace(1.0, 4.0, 31)))
    path = tmp_path / "prophet.json"
    save_classical(fit, str(path))
    doc = json.loads(path.read_text())
    doc["fields"]["start_date"] = "2020-03-24"
    path.write_text(json.dumps(doc, indent=1))
    loaded = load(str(path))
    np.testing.assert_array_equal(
        prophet_lite_forecast(loaded, 15), prophet_lite_forecast(fit, 15)
    )
