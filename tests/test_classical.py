import datetime as dt
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casecast.classical import (
    ArimaFit,
    FitError,
    HwFit,
    _hw_affine_pass,
    difference,
    fit_arima,
    forecast_arima_from_series,
    hw_fit,
    hw_forecast,
    prophet_lite_fit,
    prophet_lite_forecast,
)
from conftest import TRAIN_END, TRAIN_START
from casecast import slice_window


class TestDifference:
    def test_basic(self):
        np.testing.assert_array_equal(difference([5, 7, 10]), [2, 3])

    def test_constant(self):
        np.testing.assert_array_equal(difference([4.0] * 5), np.zeros(4))

    def test_too_short(self):
        with pytest.raises(FitError):
            difference([1.0])


def synth_ar(phi, n, seed=0):
    """Noiseless AR(p) trajectory from random initial conditions."""
    p = len(phi)
    rng = np.random.default_rng(seed)
    y = list(rng.standard_normal(p))
    for _ in range(n - p):
        y.append(float(np.dot(phi, y[-1 : -p - 1 : -1])))
    return np.array(y)


class TestFitAr:
    """fit_arima on series whose first differences are the AR process."""

    def test_recovers_ar1_exactly(self):
        d = [1.0]
        for _ in range(30):
            d.append(0.5 * d[-1])
        fit = fit_arima(np.cumsum(d), p=1)
        assert abs(fit.coefficients[0] - 0.5) < 1e-10
        assert fit.intercept == 0.0

    @pytest.mark.parametrize(
        "phi",
        [
            [0.5],
            [0.4, -0.3],
            [0.3, -0.2, 0.1, 0.05, -0.1, 0.2],
        ],
    )
    def test_recovers_noiseless_coefficients(self, phi):
        y = np.cumsum(synth_ar(phi, 60))
        fit = fit_arima(y, p=len(phi))
        np.testing.assert_allclose(fit.coefficients, phi, atol=1e-8)

    def test_white_noise_gives_small_coefficients(self):
        rng = np.random.default_rng(123)
        d = rng.standard_normal(400)
        fit = fit_arima(np.cumsum(d), p=6)
        assert np.all(np.abs(fit.coefficients) < 0.15)
        r2 = 1.0 - np.var(fit.residuals) / np.var(d[7:])
        assert r2 < 0.05

    def test_residual_variance_bounded_on_training_window(self, series):
        y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
        fit = fit_arima(y, p=6)
        d = difference(y)
        assert np.var(fit.residuals) <= np.var(d[6:]) + 1e-9

    def test_too_short(self):
        with pytest.raises(FitError):
            fit_arima(np.arange(14.0), p=6)


class TestForecastArima:
    def test_pure_drift(self):
        # phi = 1 on the differences carries the last difference forward
        fit = ArimaFit((2, 1, 0), 0.0, np.array([1.0, 0.0]), np.zeros(1), 1.0)
        out = forecast_arima_from_series(fit, [79.0, 86.0, 93.0, 100.0], horizon=4)
        np.testing.assert_allclose(out, [107.0, 114.0, 121.0, 128.0])

    def test_horizon_one_is_one_ar_step(self):
        d = synth_ar([0.4, -0.3], 40, seed=2)
        y = 50.0 + np.cumsum(d)
        fit = fit_arima(y, p=2)
        out = forecast_arima_from_series(fit, y, horizon=1)
        expected = y[-1] + fit.coefficients[0] * d[-1] + fit.coefficients[1] * d[-2]
        assert abs(out[0] - expected) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-0.15, max_value=0.15), min_size=1, max_size=6),
        st.floats(min_value=-1e6, max_value=1e6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_continues_exact_ar_differences(self, phi, level, seed):
        # a series whose differences follow an exact AR(p) is continued
        # exactly: the forecast is the differences' own continuation,
        # integrated from the last level
        d = synth_ar(phi, 2 * len(phi) + 10, seed)
        y = level + np.cumsum(d)
        fit = ArimaFit((len(phi), 1, 0), 0.0, np.array(phi), np.zeros(1), 1.0)
        expected = synth_ar(phi, len(d) + 8, seed)[len(d) :]
        np.testing.assert_allclose(
            forecast_arima_from_series(fit, y, 8), y[-1] + np.cumsum(expected),
            rtol=1e-9, atol=1e-6,
        )

    def test_full_scale_day_one(self, series, test_actuals):
        y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
        fc = forecast_arima_from_series(fit_arima(y), y, 15)
        day1_ape = abs(test_actuals[0] - fc[0]) / test_actuals[0] * 100
        # reference value for day 1 is 0.52 %
        assert day1_ape < 2.0


class TestHoltWinters:
    def test_degenerate_smoothing_tracks_series(self):
        # (alpha, beta, gamma) = (1, 0, 0) from level y0, no trend, no
        # seasonality: each one-step prediction is the previous observation
        y = np.array([3.0, 5.0, 4.0, 6.0, 8.0, 7.0, 9.0, 10.0, 12.0, 11.0, 13.0, 12.0, 14.0, 15.0])
        design, offset, states = _hw_affine_pass(y, 1.0, 0.0, 0.0, 7, 0.96)
        u = np.zeros(design.shape[1])
        u[0] = y[0]
        np.testing.assert_allclose((design @ u + offset)[1:], y[:-1])
        level, trend, *_ = states @ np.append(u, 1.0)
        assert level == y[-1]
        assert trend == 0.0

    def test_final_states_continue_the_recursion(self):
        # the one-step forecast from the final states of y[:n] is the pass's
        # own prediction for y[n], for every n mod m
        rng = np.random.default_rng(5)
        y = np.cumsum(rng.uniform(0.0, 10.0, 30))
        theta = (0.6, 0.3, 0.4)
        u = np.append(rng.standard_normal(8), 1.0)
        design, offset, _ = _hw_affine_pass(y, *theta, 7, 0.96)
        predictions = design @ u[:-1] + offset
        for n in range(14, 21):
            *_, states = _hw_affine_pass(y[:n], *theta, 7, 0.96)
            level, trend, *seasonals = states @ u
            fit = HwFit(*theta, 0.96, 7, level, trend, np.array(seasonals), 0.0)
            assert hw_forecast(fit, 1)[0] == pytest.approx(predictions[n], rel=1e-12)

    def test_linear_trend_recovered(self):
        y = 10.0 + 2.0 * np.arange(28)
        fit = hw_fit(y, m=7, phi=0.96)
        # the damping keeps a pure line from being fit exactly; SSE should
        # still be tiny relative to the series' variation
        assert fit.sse < 1e-4 * np.sum((y - y.mean()) ** 2)
        assert abs(fit.trend - 2.0) < 0.15

    def test_closed_form_two_step(self):
        fit = HwFit(0.5, 0.1, 0.1, 0.5, 7, 100.0, 10.0, np.zeros(7), 0.0)
        out = hw_forecast(fit, 2)
        assert out[1] == 107.5

    def test_damping_flattens(self):
        fit = HwFit(0.5, 0.1, 0.1, 0.96, 7, 100.0, 10.0, np.zeros(7), 0.0)
        out = hw_forecast(fit, 500)
        limit = 100.0 + 10.0 * 0.96 / (1 - 0.96)
        assert abs(out[-1] - limit) < 1e-6

    def test_zero_trend_zero_seasonals(self):
        fit = HwFit(0.5, 0.1, 0.1, 0.96, 7, 42.0, 0.0, np.zeros(7), 0.0)
        np.testing.assert_allclose(hw_forecast(fit, 15), 42.0)

    def test_undamped_equals_linear_formula(self):
        seasonals = np.array([1.0, -2.0, 0.5, 0.0, 1.5, -0.5, -0.5])
        fit = HwFit(0.5, 0.1, 0.1, 1.0, 7, 100.0, 3.0, seasonals, 0.0)
        out = hw_forecast(fit, 10)
        for h in range(1, 11):
            expected = 100.0 + h * 3.0 + seasonals[(h - 1) % 7]
            assert abs(out[h - 1] - expected) < 1e-9

    def test_series_shorter_than_two_seasons(self):
        with pytest.raises(FitError):
            hw_fit(np.arange(10.0), m=7)

    @pytest.mark.parametrize(
        "window",
        [None, (24, 17), (16, 15)],
        ids=["paper-split", "backtest-start24-len17", "backtest-start16-len15"],
    )
    def test_optimizer_beats_coarse_grid(self, series, window):
        # (start, length) index windows of the bundled series, as the
        # backtest draws them; (16, 15) is the shortest
        if window is None:
            y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
        else:
            start, length = window
            y = series.cases[start : start + length].astype(float)
        fit = hw_fit(y, m=7, phi=0.96)

        # independent grid evaluation with the same inner least-squares init
        def sse_at(theta):
            design, offset, *_ = _hw_affine_pass(y, *theta, 7, 0.96)
            u, *_ = np.linalg.lstsq(design, y - offset, rcond=None)
            r = y - offset - design @ u
            return float(r @ r)

        grid = np.linspace(0.0, 1.0, 11)
        grid_best = min(
            sse_at(t) for t in itertools.product(grid, grid, grid)
        )
        assert fit.sse <= grid_best * (1.0 + 1e-6)


class TestProphetLite:
    def test_recovers_pure_line(self):
        y = 3.0 * np.arange(31) + 2.0
        fit = prophet_lite_fit(y, ridge_lambda=1e-8)
        assert abs(fit.coefficients[1] - 3.0) < 1e-4
        assert np.all(np.abs(fit.coefficients[2:7]) < 1e-4)  # changepoint deltas
        fc = prophet_lite_forecast(fit, 5)
        np.testing.assert_allclose(fc, 3.0 * np.arange(31, 36) + 2.0, rtol=1e-6)

    def test_captures_weekly_pattern(self):
        pattern = np.array([0.0, 2.0, -1.0, 3.0, -2.0, 1.0, -3.0])
        y = 50.0 + np.tile(pattern, 4)
        fit = prophet_lite_fit(y, ridge_lambda=1e-6)
        np.testing.assert_allclose(prophet_lite_forecast(fit, 14), y[:14], atol=1e-3)
        assert abs(fit.coefficients[1]) < 1e-3  # trend stays flat

    def test_flat_series_flat_forecast(self):
        fit = prophet_lite_fit(np.full(21, 9.0))
        np.testing.assert_allclose(prophet_lite_forecast(fit, 15), 9.0, rtol=1e-6)

    def test_horizon_zero(self):
        fit = prophet_lite_fit(np.full(21, 9.0))
        assert prophet_lite_forecast(fit, 0).size == 0

    def test_too_short(self):
        with pytest.raises(FitError):
            prophet_lite_fit(np.arange(10.0))

    def test_singular_ridge_system(self):
        # order-4 weekly terms alias order 3 on integer days; with no ridge
        # penalty the normal equations are singular
        with pytest.raises(FitError):
            prophet_lite_fit(np.cumsum(np.arange(1.0, 31.0)), fourier_order=4, ridge_lambda=0.0)

    def test_error_grows_with_horizon_on_real_data(self, series, test_actuals):
        y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
        fc = prophet_lite_forecast(prophet_lite_fit(y), 15)
        apes = np.abs(test_actuals - fc) / test_actuals * 100
        # qualitative horizon-growth pattern only, not an equality target
        assert apes[14] > apes[0]
        assert np.polyfit(np.arange(15), apes, 1)[0] > 0
