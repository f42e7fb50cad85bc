import dataclasses
import json
import re
from dataclasses import fields
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from casecast import TrainConfig, cli, slice_window
from casecast.checkpoint import load, save_classical, save_lstm
from casecast.classical import (
    ArimaFit,
    FitError,
    HwFit,
    ProphetLiteFit,
    fit_arima,
    forecast_arima_from_series,
    hw_fit,
    hw_forecast,
    prophet_lite_fit,
    prophet_lite_forecast,
)
from casecast.lstm import LstmModel, LstmParams, run_schema
from conftest import TRAIN_END, TRAIN_START


def test_lstm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    params = LstmParams.glorot(4, 1, rng)
    params.b[:] = rng.standard_normal(params.b.size)  # written through a view of flat
    model = LstmModel(params, TrainConfig(epochs=3, hidden=4, seed=17), [0.5, 0.25, 0.125])
    path = str(tmp_path / "model.json")
    save_lstm(model, path)
    loaded = load(path)
    assert loaded.config == model.config
    for name in LstmParams.NAMES:
        np.testing.assert_array_equal(getattr(loaded.params, name), getattr(model.params, name))
    np.testing.assert_array_equal(loaded.params.flat, model.params.flat)
    assert loaded.epoch_losses == model.epoch_losses


@pytest.mark.parametrize("hidden, width", [(1, 1), (1, 2), (3, 1), (5, 2)])
def test_every_model_that_builds_loads_back_bit_exact(tmp_path, hidden, width):
    rng = np.random.default_rng(hidden * 10 + width)
    params = LstmParams.glorot(hidden, width, rng)
    params.flat[:] = rng.standard_normal(params.flat.size)
    model = LstmModel(params, TrainConfig(epochs=1, hidden=hidden), [rng.standard_normal()])
    path = str(tmp_path / "model.json")
    save_lstm(model, path)
    loaded = load(path)
    assert (loaded.config, loaded.epoch_losses) == (model.config, model.epoch_losses)
    assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
    assert loaded.params.widths == (width,)


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


@pytest.mark.parametrize("model, lookback", [("lstm-u3", 3), ("lstm-u1", 1)])
def test_reloaded_lstm_checkpoint_forecasts_what_run_wrote(tmp_path, series, model, lookback):
    out = tmp_path / "out"
    argv = ["run", "--model", model, "--epochs", "2", "--lookback", str(lookback),
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    loaded = load(str(out / "checkpoint.json"))
    run = run_schema(series, model.split("-")[1], loaded.config, TRAIN_START, TRAIN_END,
                     15, lookback, model=loaded)
    written = [line.split(",")[1] for line in (out / "forecast.csv").read_text().splitlines()[2:]]
    assert written == [repr(float(v)) for v in run.forecasts]


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


@pytest.mark.parametrize("edit, message", [
    ({"kind": "sarima"},
     r"^unknown checkpoint kind 'sarima', expected one of "
     r"\('lstm', 'arima', 'hwaas', 'prophet-lite'\)$"),
    ({"format_version": None}, "^not a casecast checkpoint: no 'format_version'$"),
    ({"kind": None}, "^not a casecast checkpoint: no 'kind'$"),
    ({"format_version": 2}, "^unsupported checkpoint version 2$"),
    ({"format_version": True}, "^unsupported checkpoint version True$"),
    ({"format_version": 1.0}, "^unsupported checkpoint version 1.0$"),
    ({"format_version": "1"}, "^unsupported checkpoint version '1'$"),
], ids=["kind-unknown", "format-version-missing", "kind-missing", "format-version-2",
        "format-version-true", "format-version-float", "format-version-str"])
def test_a_file_that_is_no_checkpoint_is_a_value_error(tmp_path, edit, message):
    path = tmp_path / "prophet.json"
    save_classical(prophet_lite_fit(np.cumsum(np.linspace(1.0, 4.0, 31))), str(path))
    doc = json.loads(path.read_text())
    for key, value in edit.items():
        if value is None:  # the file lacks the key
            del doc[key]
        else:
            doc[key] = value
    path.write_text(json.dumps(doc, indent=1))
    with pytest.raises(ValueError, match=message):
        load(str(path))


def test_a_json_document_nested_too_deeply_is_a_value_error(tmp_path):
    # json recurses once per level of nesting and gives up at about 1000
    path = tmp_path / "model.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ValueError, match="^not a casecast checkpoint: its JSON nests too deeply$"):
        load(str(path))


@pytest.mark.parametrize("text", ["3", "null", "[]", '"format_version"'])
def test_a_json_document_that_is_no_object_is_a_value_error(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^not a casecast checkpoint: no 'format_version'$"):
        load(str(path))


def _checkpoints(tmp_path, series):
    """One small checkpoint of each kind, and an LSTM of either input
    width: {name: path}."""
    y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
    rng = np.random.default_rng(3)
    lstms = {}
    for name, width, activation in (("lstm-u2", 1, "elu"), ("lstm-u3", 2, "tanh")):
        params = LstmParams.glorot(3, width, rng)
        params.b[:] = rng.standard_normal(params.b.size)
        cfg = TrainConfig(epochs=2, hidden=3, activation=activation)
        lstms[name] = LstmModel(params, cfg, [0.5, 0.25])
    fits = {
        **lstms,
        "arima": fit_arima(y, p=6),
        "hwaas": HwFit(0.5, 0.1, 0.1, 0.96, 7, 100.0, 3.0, np.arange(7.0) - 3.0, 12.5),
        "prophet-lite": prophet_lite_fit(y),
    }
    saved = {}
    for name, fit in fits.items():
        saved[name] = tmp_path / f"{name}.json"
        (save_lstm if isinstance(fit, LstmModel) else save_classical)(fit, str(saved[name]))
    return saved


def _forecast(fit, series):
    """The horizon forecast of any loaded fit, as bytes."""
    y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
    if isinstance(fit, LstmModel):
        schema = "u3" if fit.params.input_dim == 2 else "u2"
        forecasts = run_schema(series, schema, fit.config, TRAIN_START, TRAIN_END, 15, 1,
                               model=fit).forecasts
    elif isinstance(fit, ArimaFit):
        forecasts = forecast_arima_from_series(fit, y, 15)
    elif isinstance(fit, HwFit):
        forecasts = hw_forecast(fit, 15)
    else:
        forecasts = prophet_lite_forecast(fit, 15)
    return forecasts.tobytes()


def _fields(fit):
    """Every field of a fit, an array as its bytes and dtype."""
    if isinstance(fit, LstmModel):
        arrays = [getattr(fit.params, name) for name in LstmParams.NAMES]
        return [fit.config, fit.epoch_losses, *((a.tobytes(), a.dtype) for a in arrays)]
    values = [getattr(fit, f.name) for f in fields(fit)]
    return [(v.tobytes(), v.dtype) if isinstance(v, np.ndarray) else v for v in values]


# settings of the types numpy hands out, each of which a checkpoint writes as
# the int or float its field declares
@pytest.mark.parametrize("make", [
    lambda y: hw_fit(y, m=np.int64(7)),
    lambda y: hw_fit(y, phi=np.float64(0.96)),
    lambda y: fit_arima(y, p=np.int64(2)),
    lambda y: prophet_lite_fit(y, fourier_order=np.int64(2)),
    lambda y: LstmModel(LstmParams.glorot(3, 1, np.random.default_rng(4)),
                        TrainConfig(epochs=2, hidden=3, seed=np.int64(4)), [0.5, 0.25]),
], ids=["hw-m-int64", "hw-phi-float64", "arima-p-int64", "prophet-order-int64",
        "lstm-seed-int64"])
def test_a_fit_from_numpy_scalar_settings_loads_back_bit_exact(tmp_path, series, make):
    fit = make(slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float))
    path = str(tmp_path / "fit.json")
    (save_lstm if isinstance(fit, LstmModel) else save_classical)(fit, path)
    loaded = load(path)
    assert type(loaded) is type(fit)
    assert _fields(loaded) == _fields(fit)
    assert _forecast(loaded, series) == _forecast(fit, series)


def _set(doc, path, value):
    """Replace the entry at `path` (keys and indices) in `doc`."""
    for step in path[:-1]:
        doc = doc[step]
    doc[path[-1]] = value


# a pytest.param gives its case a fixed id, so the case's name does not follow
# the wording of the message it pins
@pytest.mark.parametrize("name, path, value, message", [
    ("hwaas", ["fields"], {}, "^checkpoint field 'fields.alpha' is missing$"),
    ("lstm-u3", ["params"], ..., "^checkpoint field 'params' is missing$"),
    ("lstm-u3", ["config", "hidden"], "3",
     "^checkpoint field 'config.hidden' must be of type int, got '3'$"),
    ("lstm-u3", ["config", "dropout"], 0.5, "^unknown checkpoint field 'config.dropout'$"),
    ("lstm-u3", ["config", "hidden"], 0, "^checkpoint field 'config': hidden must be >= 1$"),
    pytest.param("lstm-u3", ["epoch_losses"], None,
                 r"^checkpoint field 'epoch_losses' must be of type list\[float\], got None$",
                 id="lstm-u3-path5-None-'epoch_losses' must be l"),
    # LstmModel's own rule: params of hidden size 3 are no model of config.hidden 4
    pytest.param("lstm-u3", ["config", "hidden"], 4,
                 "^checkpoint fields do not fit together: params must be one member of hidden"
                 " size 4, got 1 of hidden size 3$",
                 id=r"lstm-u3-path6-4-'params.wx' has shape \["),
    ("lstm-u3", ["params", "wx", "data"], ["0.5"] * 23, r"'params.wx.data' holds 23 values, .* 24"),
    ("lstm-u3", ["params", "b", "data", 0], 0.5, "'params.b.data' must hold floats written as"),
    pytest.param("hwaas", ["fields", "seasonals"], "x",
                 "^checkpoint field 'fields.seasonals' must be of type 1-D int or float ndarray,"
                 " got 'x'$", id="hwaas-path9-x-'fields.seasonals' must "),
    pytest.param("hwaas", ["fields", "season_length"], True,
                 "^checkpoint field 'fields.season_length' must be of type int, got True$",
                 id="hwaas-path10-True-'fields.season_length' m"),
    ("hwaas", ["fields", "season_length"], 6, "'seasonals' must hold 'season_length'"),
    ("arima", ["fields", "order"], [7, 1, 0], "'coefficients' must hold p values"),
    pytest.param("arima", ["fields", "order"], "abc",
                 r"^checkpoint field 'fields.order' must be of type tuple\[int, int, int\],"
                 r" got 'abc'$", id="arima-path13-abc-'fields.order' must be l"),
    ("arima", ["fields", "coefficients", "shape"], [2, 3],
     r"^checkpoint field 'fields.coefficients' must be of type 1-D int or float ndarray,"
     r" got array\(\[\[.*\], \[.*\]\]\)$"),
    ("prophet-lite", ["fields", "fourier_order"], 2, "'coefficients' must hold 2 \\+"),
    *[("hwaas", ["fields", "phi"], phi, r"'phi' must lie in \(0, 1\]")
      for phi in ("nan", "inf", "0.0", "-0.5", "2.0")],
    # prophet_lite_fit's rule for its penalty, which the forecast never reads
    *[("prophet-lite", ["fields", "ridge_lambda"], penalty, "ridge penalty must be a finite")
      for penalty in ("nan", "-5.0", "inf")],
    # the entries of the tuple the checkpoint's list makes are checked as the field's
    *[("arima", ["fields", "order"], order, r"^checkpoint field 'fields.order' must be"
       rf" of type tuple\[int, int, int\], got {re.escape(repr(tuple(order)))}$")
      for order in ([6, "x", 0], [6, 1])],
    # a float in a spelling float() reads but `_text` never writes
    *[("hwaas", ["fields", "level"], stored,
       "^checkpoint field 'fields.level' must hold floats written as strings$")
      for stored in ("1_00", " 100 ", "100", "Infinity")],
    # a state the fit class rejects: unchecked, a level of inf loaded, and
    # hw_forecast on it returned [inf inf]
    *[("hwaas", ["fields", *field], stored,
       f"^checkpoint field 'fields': '{field[0]}' must hold no NaN or infinity$")
      for field, stored in ((["level"], "inf"), (["trend"], "-inf"), (["sse"], "nan"),
                            (["seasonals", "data", 3], "inf"))],
    # data that fills its own shape, but not the one LSTM the other arrays make
    ("lstm-u3", ["params", "dense_w"], {"shape": [1, 3], "data": ["0.5"] * 3},
     r"^checkpoint field 'params': one LSTM of hidden size 3 and input width 2, each >= 1,"
     r" needs .*'dense_w': \(2, 3\).*, got .*'dense_w': \(1, 3\)"),
], ids=lambda v: None if isinstance(v, (list, dict)) else str(v)[:24])
def test_a_malformed_body_is_a_value_error_naming_the_field(tmp_path, series, name, path,
                                                            value, message):
    saved = _checkpoints(tmp_path, series)[name]
    doc = json.loads(saved.read_text())
    if value is ...:  # the file lacks the entry
        del doc[path[0]]
    else:
        _set(doc, path, value)
    saved.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load(str(saved))


def _entries(node, path=()):
    """The path of every entry in a JSON document; of a list, only the first
    and the last entry, so the long data lists do not crowd out the rest."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, len(node) - 1}) if node else []
    else:
        return []
    return [p for k in keys for p in [(*path, k), *_entries(node[k], (*path, k))]]


# a value of each JSON type; a retype puts one of another type in an entry
RETYPES = [None, False, 7, 2.5, "7", "x", [], ["7"], {}]


class TestFuzzedCheckpoint:
    """Whatever single entry of a checkpoint is dropped, retyped or
    truncated, `load` raises a ValueError or returns a fit whose forecast is
    bitwise the original's."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory, series):
        saved = _checkpoints(tmp_path_factory.mktemp("checkpoints"), series)
        return {name: (path.read_text(), _forecast(load(str(path)), series))
                for name, path in saved.items()}

    @settings(derandomize=True, database=None, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_load_raises_a_value_error_or_forecasts_the_same(self, originals, series,
                                                            tmp_path, data):
        name = data.draw(st.sampled_from(sorted(originals)), label="name")
        text, forecast = originals[name]
        doc = json.loads(text)
        path = data.draw(st.sampled_from(_entries(doc)), label="path")
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        value = parent[path[-1]]
        hows = ["drop", "retype"] + (["truncate"] if isinstance(value, list) and value else [])
        how = data.draw(st.sampled_from(hows), label="how")
        if how == "drop":
            del parent[path[-1]]
        elif how == "retype":
            parent[path[-1]] = data.draw(st.sampled_from(
                [v for v in RETYPES if type(v) is not type(value)]), label="value")
        else:
            parent[path[-1]] = value[:data.draw(st.integers(0, len(value) - 1), label="length")]
        target = tmp_path / f"{name}.json"
        target.write_text(json.dumps(doc, indent=1))
        try:
            fit = load(str(target))
        except ValueError:
            return
        assert _forecast(fit, series) == forecast


# JSON values of every type, of the types a field holds among them, and array
# objects, one of them of a shape no fit field has
LEAVES = [None, True, False, 0, 1, 7, -1, 2.5, "", "x", "7", "0.5", [], ["0.5"], [6, 1, 0],
          {}, {"a": 1}, {"shape": [1], "data": ["0.5"]},
          {"shape": [2, 3], "data": ["1.0"] * 6}]
# what a ValueError from the body of a checkpoint starts with: the field at
# fault, or the rule of the fit class that its fields break together
NAMES_A_FIELD = r"^(checkpoint field '[\w.]+'|checkpoint fields do not fit together: )"


class TestFuzzedLeaf:
    """Whatever one leaf of a checkpoint's body is replaced by, `load`
    raises a ValueError naming a field or the fit's cross-field rule, or
    returns a model that forecasts."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory, series):
        saved = _checkpoints(tmp_path_factory.mktemp("checkpoints"), series)
        return {name: path.read_text() for name, path in saved.items()}

    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_load_names_the_field_or_returns_a_model_that_forecasts(self, originals, series,
                                                                   tmp_path, data):
        name = data.draw(st.sampled_from(sorted(originals)), label="name")
        doc = json.loads(originals[name])
        leaves = [p for p in _entries(doc) if p[0] not in ("format_version", "kind")
                  and not isinstance(reduce(getitem, p, doc), (dict, list))]
        path = data.draw(st.sampled_from(leaves), label="path")
        _set(doc, path, data.draw(st.sampled_from(LEAVES), label="value"))
        target = tmp_path / f"{name}.json"
        target.write_text(json.dumps(doc, indent=1))
        try:
            fit = load(str(target))
        except ValueError as exc:
            assert re.match(NAMES_A_FIELD, str(exc)), str(exc)
            return
        _forecast(fit, series)


def _pool(value):
    """The values a fuzzed fit field draws from; the arrays are made of the
    field's own entries, so they keep its length."""
    entries = np.atleast_1d(value)
    return [None, "x", True, np.bool_(True), 0.5 + 0j, float("nan"), np.float32(0.5),
            np.int64(7), list(entries), entries[:, None], entries.astype(str), entries.astype(int)]


class TestFuzzedFit:
    """Whatever one field of a fit is replaced by, building the fit raises a
    FitError, or the fit forecasts, saves, loads back and forecasts again."""

    @pytest.fixture(scope="class")
    def fits(self, series):
        y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
        return [fit_arima(y), hw_fit(y), prophet_lite_fit(y)]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_a_fit_that_builds_saves_loads_and_forecasts(self, fits, series, tmp_path, data):
        fit = data.draw(st.sampled_from(fits), label="fit")
        name = data.draw(st.sampled_from([f.name for f in fields(fit)]), label="field")
        value = data.draw(st.sampled_from(_pool(getattr(fit, name))), label="value")
        try:
            fuzzed = dataclasses.replace(fit, **{name: value})
        except FitError:
            return
        _forecast(fuzzed, series)
        path = str(tmp_path / "fit.json")
        save_classical(fuzzed, path)
        _forecast(load(path), series)
