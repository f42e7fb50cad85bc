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


# save_lstm's output for the model in test_lstm_checkpoint_bytes_are_pinned; it
# must not depend on the order of LstmParams' arrays in memory
PINNED_LSTM_CHECKPOINT = """\
{
 "format_version": 1,
 "kind": "lstm",
 "config": {
  "epochs": 2,
  "hidden": 1,
  "learning_rate": 0.001,
  "beta1": 0.9,
  "beta2": 0.999,
  "epsilon": 1e-08,
  "activation": "elu",
  "seed": 3
 },
 "params": {
  "wx": {
   "shape": [
    4,
    1
   ],
   "data": [
    "0.5",
    "-0.25",
    "0.125",
    "1.5"
   ]
  },
  "wh": {
   "shape": [
    4,
    1
   ],
   "data": [
    "-0.75",
    "0.375",
    "2.0",
    "-1.0"
   ]
  },
  "b": {
   "shape": [
    4
   ],
   "data": [
    "0.0",
    "1.0",
    "-0.5",
    "0.25"
   ]
  },
  "dense_w": {
   "shape": [
    1,
    1
   ],
   "data": [
    "3.0"
   ]
  },
  "dense_b": {
   "shape": [
    1
   ],
   "data": [
    "-2.5"
   ]
  }
 },
 "epoch_losses": [
  "0.75",
  "0.1"
 ]
}"""


def test_lstm_checkpoint_bytes_are_pinned(tmp_path):
    params = LstmParams(
        wx=np.array([[0.5], [-0.25], [0.125], [1.5]]),
        wh=np.array([[-0.75], [0.375], [2.0], [-1.0]]),
        b=np.array([0.0, 1.0, -0.5, 0.25]),
        dense_w=np.array([[3.0]]),
        dense_b=np.array([-2.5]),
    )
    model = LstmModel(params, TrainConfig(epochs=2, hidden=1, seed=3), [0.75, 0.1])
    path = tmp_path / "model.json"
    save_lstm(model, str(path))
    assert list(json.loads(path.read_text())["params"]) == ["wx", "wh", "b", "dense_w", "dense_b"]
    assert path.read_bytes() == PINNED_LSTM_CHECKPOINT.encode()


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
