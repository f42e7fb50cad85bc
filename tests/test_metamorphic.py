"""Metamorphic properties of the one forecast path, `cli._forecast`: changes
to the input that must leave every forecast bitwise unchanged, or scale it
exactly. A change that reads counts past the training window, fits the
normaliser beyond it, reads a calendar date or adds an absolute tolerance
fails here. The LSTMs train for 2 epochs only: the properties hold for any
weights, and each draw trains at most three of them twice.
"""

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casecast import cli
from casecast.classical import FitError
from casecast.data import DataError, TimeSeries
from casecast.lstm import NonFiniteForecastError, TrainingDivergedError
from conftest import TRAIN_END, TRAIN_START

EPOCHS = 2
SHIFT = dt.timedelta(days=400)
# lstm-u1 forecasts each test day from the observed day before it, by design
BLIND_TO_THE_FUTURE = ("lstm-u2", "lstm-u3", "arima", "hwaas", "prophet-lite")
# the bundled series peaks at 135 569 cases, below 2**18, so every count
# times 2**k stays below 2**53, where float64 holds each integer exactly
MAX_SCALE_BITS = 53 - 18


def outcome(ts, cfg, name):
    """The forecast's bytes, or the kind of documented error `_forecast`
    raised, which both sides of a property must then agree on."""
    try:
        forecasts, _ = cli._forecast(ts, cfg, name)
    except (DataError, FitError, NonFiniteForecastError, TrainingDivergedError) as exc:
        return type(exc).__name__
    return forecasts.tobytes()


@pytest.fixture(scope="module")
def paper_split(series):
    cfg = cli.RunConfig(epochs=EPOCHS, train_start=TRAIN_START, train_end=TRAIN_END)
    return cfg, {name: outcome(series, cfg, name) for name in cli.MODELS}


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(increments=st.lists(
    st.tuples(st.integers(0, 100_000), st.integers(0, 1_000)), min_size=15, max_size=15,
))
def test_counts_after_the_training_window_do_not_move_a_forecast(series, paper_split,
                                                                  increments):
    cfg, expected = paper_split
    end = series.dates.index(TRAIN_END)
    assert len(series) - 1 - end == len(increments)  # every day after the window
    cases, deaths = series.cases.copy(), series.deaths.copy()
    steps = np.array(increments)
    cases[end + 1:] = cases[end] + np.cumsum(steps[:, 0])
    deaths[end + 1:] = deaths[end] + np.cumsum(steps[:, 1])
    changed = TimeSeries(series.dates, cases, deaths)
    for name in BLIND_TO_THE_FUTURE:
        assert outcome(changed, cfg, name) == expected[name], name


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(last=st.integers(34, 43), days=st.integers(21, 31))
def test_shifting_every_date_does_not_move_a_forecast(series, last, days):
    # windows ending on or before the paper split's, so that lstm-u1 sees
    # observed values over the whole horizon
    cfg = cli.RunConfig(epochs=EPOCHS, train_start=series.dates[last - days + 1],
                        train_end=series.dates[last])
    shifted = TimeSeries(tuple(d + SHIFT for d in series.dates), series.cases, series.deaths)
    moved = dataclasses.replace(cfg, train_start=cfg.train_start + SHIFT,
                                train_end=cfg.train_end + SHIFT)
    for name in cli.MODELS:
        assert outcome(shifted, moved, name) == outcome(series, cfg, name), name


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, MAX_SCALE_BITS))
def test_scaling_every_count_by_a_power_of_two_scales_every_forecast(series, paper_split, k):
    assert int(series.cases.max()) << k < 2**53
    cfg, expected = paper_split
    scaled = TimeSeries(series.dates, series.cases << k, series.deaths << k)
    for name in cli.MODELS:
        scaled_forecast = np.frombuffer(expected[name]) * 2.0**k
        assert outcome(scaled, cfg, name) == scaled_forecast.tobytes(), name
