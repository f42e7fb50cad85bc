import dataclasses
import datetime as dt
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casecast import classical
from casecast.classical import (
    ArimaFit,
    FitError,
    HwFit,
    ProphetLiteFit,
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

    @pytest.mark.parametrize("p", [0, -1])
    def test_order_below_one_is_a_fit_error(self, p):
        # the rule a checkpoint's ArimaFit must meet on load
        with pytest.raises(FitError, match="AR order must be at least 1"):
            fit_arima(np.cumsum(np.arange(40.0)), p=p)


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

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
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

    @pytest.mark.parametrize("m", [0, -1])
    def test_season_length_below_one_is_a_fit_error(self, m):
        # the rule a checkpoint's HwFit must meet on load
        with pytest.raises(FitError, match="season length must be at least 1"):
            hw_fit(np.arange(30.0), m=m)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf, 0.0, -0.5, 1.0 + 2.0**-52, 2.0])
    def test_damping_outside_zero_one_is_a_fit_error(self, phi, capfd, monkeypatch):
        # the rule a checkpoint's HwFit must meet on load; raised before
        # any pass, so no LAPACK warning and no explosive fit
        monkeypatch.setattr(classical, "_hw_affine_pass", None)
        with pytest.raises(FitError, match=r"damping phi must lie in \(0, 1\]"):
            hw_fit(np.arange(30.0) ** 1.5, phi=phi)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("m", [7.0, np.float64(7.0), "7", True],
                             ids=["float", "float64", "str", "bool"])
    def test_season_length_that_is_no_integer_is_a_fit_error(self, m, monkeypatch):
        monkeypatch.setattr(classical, "_hw_affine_pass", None)
        with pytest.raises(FitError, match=f"^m must be of type int, got {re.escape(repr(m))}$"):
            hw_fit(np.arange(30.0) ** 1.5, m=m)

    def test_undamped_fit_and_a_numpy_season_length_are_accepted(self):
        y = np.arange(30.0) ** 1.5
        fit = hw_fit(y, m=np.int64(7), phi=1.0)
        assert fit.phi == 1.0 and fit.season_length == 7

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


def _row_wise_affine_pass(y, alpha, beta, gamma, m, phi):
    """The row form of `_hw_affine_pass`: every state a numpy row
    [coefficients on u | constant], updated a day at a time. Kept as the
    oracle that the column-by-column pass must match bit for bit."""
    n, k = len(y), m + 1
    states = np.zeros((m + 2, k + 1))  # level, trend, seasonals by t mod m
    states[:k, :k] = np.eye(k)
    states[k, 2:k] = -1.0
    observed = np.zeros(k + 1)  # y_t as a row: no coefficients, constant y_t
    predictions = np.empty((n, k + 1))
    for t in range(n):
        level, trend, season = states[0], states[1], states[2 + t % m]
        observed[k] = y[t]
        damped = level + phi * trend
        predictions[t] = damped + season
        new_level = alpha * (observed - season) + (1 - alpha) * damped
        new_trend = beta * (new_level - level) + (1 - beta) * phi * trend
        states[2 + t % m] = gamma * (observed - damped) + (1 - gamma) * season
        states[0], states[1] = new_level, new_trend
    seasonals = np.roll(states[2:], -(n % m), axis=0)
    return predictions[:, :k], predictions[:, k], np.vstack([states[:2], seasonals])


def _oracle_series(ts):
    """(name, y, m): the paper split, every 5th window of the 465-window
    backtest pool, and a short synthetic series at m = 1 and m = 2."""
    cases = ts.cases.astype(float)
    n_days = len(cases)
    pool = [(start, length) for length in range(15, n_days - 15 + 1)
            for start in range(n_days - 15 - length + 1)]
    assert len(pool) == 465
    yield "paper-split", slice_window(ts, TRAIN_START, TRAIN_END).cases.astype(float), 7
    for start, length in pool[::5]:
        yield f"window-{start}-{length}", cases[start : start + length], 7
    synthetic = np.array([3.0, -1.5, 4.25, 0.0, 7.0, 2.5, -3.0, 6.0])
    yield "synthetic-m1", synthetic, 1
    yield "synthetic-m2", synthetic, 2


def _assert_same_pass(got, want, where):
    for part, a, b in zip(("design", "offset", "states"), got, want):
        assert a.shape == b.shape and a.strides == b.strides, (where, part)
        assert a.tobytes() == b.tobytes(), (where, part)
        assert np.signbit(a).tobytes() == np.signbit(b).tobytes(), (where, part)


class TestAffinePassOracle:
    THETAS = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 0.1, 0.1), (0.9, 0.9, 0.1),
              tuple(np.random.default_rng(11).uniform(0.0, 1.0, 3)),
              tuple(np.random.default_rng(12).uniform(0.0, 1.0, 3))]

    def test_column_pass_is_bitwise_the_row_pass(self, series):
        checked = 0
        for name, y, m in _oracle_series(series):
            for theta in self.THETAS:
                got = _hw_affine_pass(y, *theta, m, 0.96)
                want = _row_wise_affine_pass(y, *theta, m, 0.96)
                for part, a, b in zip(("design", "offset", "states"), got, want):
                    where = (name, theta, part)
                    assert a.shape == b.shape and a.strides == b.strides, where
                    assert a.tobytes() == b.tobytes(), where
                    assert np.signbit(a).tobytes() == np.signbit(b).tobytes(), where
                checked += 1
        assert checked == 96 * len(self.THETAS)

    def test_warm_memo_is_bitwise_the_row_pass(self, series, monkeypatch):
        # (window, theta, m, phi, columns the pass runs): all m + 2 when the
        # memo has no unit columns that long at that theta, else only y's
        cases = series.cases.astype(float)
        theta, other, signed = self.THETAS[4], self.THETAS[5], (0.5, -0.0, 0.5)
        steps = [
            # a longer window, then a shorter one
            (cases[0:44], theta, 7, 0.96, 9), (cases[10:25], theta, 7, 0.96, 1),
            # a shorter window, then longer ones: the entry is rerun longer
            (cases[3:18], theta, 7, 1.0, 9), (cases[1:41], theta, 7, 1.0, 9),
            (cases[4:34], theta, 7, 1.0, 1),
            # one theta under m = 1, 2 and 7 and phi = 0.96 and 1.0
            *[(cases[5:35], other, m, phi, 1 if warm else m + 2) for warm in (False, True)
              for m, phi in [(1, 0.96), (2, 0.96), (2, 1.0), (7, 0.96), (7, 1.0)]],
            # -0.0 and +0.0 are two keys
            (cases[0:30], signed, 7, 0.96, 9), (cases[0:30], np.abs(signed), 7, 0.96, 9),
            (cases[0:30], signed, 7, 0.96, 1),
        ]
        runs, column = [], classical._hw_column

        def spy_column(*args):
            runs.append(1)
            return column(*args)

        monkeypatch.setattr(classical, "_hw_column", spy_column)
        monkeypatch.setattr(classical, "_UNIT_COLUMNS", {})
        for step, (y, theta, m, phi, columns) in enumerate(steps):
            runs.clear()
            got = _hw_affine_pass(y, *theta, m, phi)
            want = _row_wise_affine_pass(y, *theta, m, phi)
            assert len(runs) == columns, step
            _assert_same_pass(got, want, step)
            for part in got:  # nothing returned reaches the memo
                part[...] = np.nan
            _assert_same_pass(_hw_affine_pass(y, *theta, m, phi), want, step)

    def test_paper_split_sse_is_pinned(self, series):
        # the digits the row form gave; LAPACK's summation order (the BLAS
        # build) sets the last of them, the pass must not move any
        y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
        assert repr(hw_fit(y, m=7, phi=0.96).sse) == "4169410.702786425"

    def test_the_one_interior_optimum_is_pinned(self, series):
        # 2020-04-02..2020-04-16, the one backtest window whose fit leaves
        # the (1, 1, 1) corner: gamma lands one ulp below 1
        y = series.cases[22:37].astype(float)
        assert series.start + dt.timedelta(days=22) == dt.date(2020, 4, 2)
        fit = hw_fit(y, m=7, phi=0.96)
        assert (fit.alpha, fit.beta, fit.gamma) == (1.0, 1.0, 1.0 - 2.0**-53)


def _memo_free_hw_fit(y, m, phi):
    """`hw_fit` with no memo: every objective call runs the row-wise pass,
    which stores nothing between calls, and the least squares, and the
    winner is solved once more. Kept as the oracle that the memoised fit
    must match bit for bit."""

    def solve_init(theta):
        design, offset, states = _row_wise_affine_pass(y, *theta, m, phi)
        u, *_ = np.linalg.lstsq(design, y - offset, rcond=None)
        residuals = y - offset - design @ u
        return float(residuals @ residuals), states @ np.append(u, 1.0)

    best = None
    for start in ([0.5, 0.1, 0.1], [0.9, 0.9, 0.1], [1.0, 1.0, 1.0], [0.3, 0.1, 0.5]):
        result = classical.minimize(
            lambda theta: solve_init(theta)[0],
            x0=np.array(start),
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * 3,
        )
        if best is None or result.fun < best.fun:
            best = result
    alpha, beta, gamma = (float(w) for w in best.x)
    sse, final = solve_init((alpha, beta, gamma))
    return HwFit(alpha, beta, gamma, phi, m, float(final[0]), float(final[1]), final[2:], sse)


@pytest.fixture(scope="module")
def memo_free_fits(series):
    """`_memo_free_hw_fit` of every `_oracle_series` input, by name."""
    return {name: _memo_free_hw_fit(y, m, 0.96) for name, y, m in _oracle_series(series)}


def _assert_same_fit(got, want, name):
    for field in ("alpha", "beta", "gamma", "level", "trend", "sse"):
        assert repr(getattr(got, field)) == repr(getattr(want, field)), (name, field)
    assert got.seasonals.tobytes() == want.seasonals.tobytes(), name


class TestSolveOncePerTheta:
    def test_fit_is_bitwise_the_memo_free_fit(self, series, memo_free_fits):
        checked = 0
        for name, y, m in _oracle_series(series):
            got, want = hw_fit(y, m=m, phi=0.96), memo_free_fits[name]
            for field in ("alpha", "beta", "gamma", "level", "trend", "sse"):
                assert repr(getattr(got, field)) == repr(getattr(want, field)), (name, field)
            assert got.seasonals.tobytes() == want.seasonals.tobytes(), name
            checked += 1
        assert checked == 96

    def test_fit_order_does_not_move_a_bit(self, series, memo_free_fits):
        # each fit starts from the unit columns the previous one left, so
        # ascending, descending and shuffled runs meet different warm memos
        windows = [(name, y) for name, y, _ in _oracle_series(series)
                   if name.startswith("window-")]
        shuffled = [windows[i] for i in np.random.default_rng(24).permutation(len(windows))]
        for order in (windows, windows[::-1], shuffled):
            for name, y in order:
                _assert_same_fit(hw_fit(y, m=7, phi=0.96), memo_free_fits[name], name)
        assert len(windows) == 93

    @pytest.mark.parametrize("last_m", [7, 2])
    def test_memo_holds_only_the_last_fits_thetas(self, series, monkeypatch, last_m):
        cases = series.cases.astype(float)
        for start, length in [(0, 20), (5, 30), (10, 15), (2, 40)]:
            hw_fit(cases[start : start + length], m=7, phi=0.96)
        keys, affine_pass = set(), classical._hw_affine_pass

        def spy_pass(y, alpha, beta, gamma, m, phi):
            keys.add(classical._theta_key(alpha, beta, gamma, m, phi))
            return affine_pass(y, alpha, beta, gamma, m, phi)

        monkeypatch.setattr(classical, "_hw_affine_pass", spy_pass)
        hw_fit(cases[30:44], m=last_m, phi=0.96)
        assert set(classical._UNIT_COLUMNS) == keys
        assert len(keys) >= 10

    def test_paper_split_solves_each_theta_once(self, series, monkeypatch):
        # scipy asks the same 28 questions: 7 objective values and 7
        # gradients of one forward difference per weight. 8 of them repeat a
        # theta, and the winner's states come from its earlier solve
        y = slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float)
        thetas, questions = [], []
        affine_pass, minimize = classical._hw_affine_pass, classical.minimize

        def spy_pass(y, alpha, beta, gamma, m, phi):
            thetas.append(np.array([alpha, beta, gamma], dtype=float).tobytes())
            return affine_pass(y, alpha, beta, gamma, m, phi)

        def spy_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            questions.append(result.nfev + 3 * result.njev)
            return result

        monkeypatch.setattr(classical, "_hw_affine_pass", spy_pass)
        monkeypatch.setattr(classical, "minimize", spy_minimize)
        hw_fit(y, m=7, phi=0.96)
        assert len(questions) == 4 and sum(questions) == 28
        assert len(thetas) == len(set(thetas)) == 20


class TestForwardDifference:
    def test_is_bitwise_scipys_default_gradient(self, series):
        # scipy's L-BFGS-B with no jac returns its own finite-difference
        # gradient at the point it stops. A small maxiter stops it early; on
        # the paper split and window (22, 15) the points are corners and
        # (1, 1, 1 - 2**-53), on a noisy synthetic series interior ones
        from scipy import optimize

        t = np.arange(35.0)
        noisy = (100.0 + 2.0 * t + 5.0 * np.sin(2 * np.pi * t / 7)
                 + 3.0 * np.random.default_rng(7).standard_normal(35))
        windows = [slice_window(series, TRAIN_START, TRAIN_END).cases.astype(float),
                   series.cases[22:37].astype(float), noisy]
        points = set()
        for y, maxiter in itertools.product(windows, [1, 2, 3, None]):
            def sse(theta):
                design, offset, _ = _hw_affine_pass(y, *theta, 7, 0.96)
                u, *_ = np.linalg.lstsq(design, y - offset, rcond=None)
                residuals = y - offset - design @ u
                return float(residuals @ residuals)

            options = {} if maxiter is None else {"maxiter": maxiter}
            for start in ([0.5, 0.1, 0.1], [0.9, 0.9, 0.1], [1.0, 1.0, 1.0], [0.3, 0.1, 0.5]):
                result = optimize.minimize(sse, x0=np.array(start), method="L-BFGS-B",
                                           bounds=[(0.0, 1.0)] * 3, options=options)
                got = classical._forward_difference(sse, result.x)
                assert got.tobytes() == result.jac.tobytes(), (maxiter, start, result.x)
                points.add(tuple(result.x))
        coordinates = {x for point in points for x in point}
        assert {0.0, 1.0, 1.0 - 2.0**-53} <= coordinates
        assert sum(0.0 < min(p) and max(p) < 1.0 for p in points) >= 5

    @pytest.mark.parametrize("x, step", [
        (0.0, 1e-8), (0.3, 1e-8), (1.0 - 5e-9, -1e-8), (1.0 - 2.0**-53, -1e-8), (1.0, -1e-8),
    ])
    def test_steps_back_only_where_a_step_forward_leaves_one(self, x, step):
        # each coordinate alone, the others held, and the difference
        # divided by the step the coordinate actually took
        theta, weights = np.array([0.5, x, 0.25]), np.array([1.0, 3.0, -2.0])
        asked = []

        def f(point):
            asked.append(point.copy())
            return float(point @ weights)

        gradient = classical._forward_difference(f, theta)
        assert len(asked) == 4 and asked[0].tobytes() == theta.tobytes()
        stepped = asked[2]
        assert stepped[[0, 2]].tolist() == [0.5, 0.25]
        assert stepped[1] == x + step and 0.0 <= stepped[1] <= 1.0
        assert gradient[1] == (float(stepped @ weights) - float(theta @ weights)) / ((x + step) - x)


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

    def test_negative_fourier_order_is_a_fit_error(self):
        with pytest.raises(FitError, match="'fourier_order' >= 0"):
            prophet_lite_fit(np.cumsum(np.arange(1.0, 31.0)), fourier_order=-1)

    @pytest.mark.parametrize("penalty", [np.nan, -5.0, np.inf, -np.inf])
    def test_ridge_penalty_that_is_no_finite_non_negative_number_is_a_fit_error(self, penalty):
        # raised before the solve, which fails on a NaN penalty with numpy's
        # LinAlgError and accepts a negative one
        with pytest.raises(FitError, match="ridge penalty must be a finite number >= 0"):
            prophet_lite_fit(np.cumsum(np.arange(1.0, 31.0)), ridge_lambda=penalty)

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


def _continue_ar2(series):
    fit = ArimaFit((2, 1, 0), 0.0, np.array([0.4, -0.3]), np.zeros(1), 1.0)
    return forecast_arima_from_series(fit, series, 3)


@pytest.mark.parametrize("fitter", [hw_fit, prophet_lite_fit, fit_arima, _continue_ar2],
                         ids=["hw_fit", "prophet_lite_fit", "fit_arima",
                              "forecast_arima_from_series"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_series_is_a_fit_error(fitter, bad, capfd, monkeypatch):
    # raised before any solve: no LAPACK warning, no optimizer call
    monkeypatch.setattr(classical, "minimize", None)
    with pytest.raises(FitError, match="^series has a non-finite value$"):
        fitter(np.r_[np.arange(19.0), bad])
    assert capfd.readouterr() == ("", "")


ARIMA_RULE = r"^'order' must be \(p, 1, 0\) with p >= 1 and 'coefficients' must hold p values$"
HW_RULE = r"^'seasonals' must hold 'season_length' >= 1 values and 'phi' must lie in \(0, 1\]$"
PROPHET_RULE = (r"^'coefficients' must hold 2 \+ len\('changepoints'\) \+ 2 \* 'fourier_order'"
                r" values, 'fourier_order' >= 0$")
ARIMA = ArimaFit((6, 1, 0), 0.0, np.zeros(6), np.zeros(9), 1.0)
HW = HwFit(0.5, 0.1, 0.1, 0.96, 7, 100.0, 3.0, np.zeros(7), 1.0)
PROPHET = ProphetLiteFit(31, np.arange(5.0), np.zeros(13), 3, 1.0)
UNRANGED_REALS = [("hw", HW, "alpha"), ("hw", HW, "beta"), ("hw", HW, "gamma"), ("hw", HW, "sse"),
                  ("arima", ARIMA, "condition_number")]
ARRAYS = [("arima", ARIMA, "coefficients"), ("arima", ARIMA, "residuals"), ("hw", HW, "seasonals"),
          ("prophet", PROPHET, "changepoints"), ("prophet", PROPHET, "coefficients")]


@pytest.mark.parametrize("fit, broken, rule", [
    (ARIMA, {"order": (7, 1, 0)}, ARIMA_RULE),
    (ARIMA, {"order": (6, 0, 0)}, ARIMA_RULE),
    (ARIMA, {"order": (0, 1, 0), "coefficients": np.zeros(0)}, ARIMA_RULE),
    # hw_forecast of this fit divides by its season length
    (HW, {"season_length": 0, "seasonals": np.zeros(0)}, HW_RULE),
    (HW, {"seasonals": np.zeros(6)}, HW_RULE),
    (HW, {"phi": 1.5}, HW_RULE),
    (HW, {"phi": np.nan}, HW_RULE),
    (PROPHET, {"fourier_order": 2}, PROPHET_RULE),
    # 2 + 5 - 2 coefficients: only the sign of the order is at fault
    (PROPHET, {"fourier_order": -1, "coefficients": np.zeros(5)}, PROPHET_RULE),
    # each fitter's rule for a setting: a float here is an IndexError in
    # hw_forecast and a TypeError in the other two forecasts
    (HW, {"season_length": 7.0}, "^season_length must be of type int, got 7.0$"),
    (ARIMA, {"order": (6.0, 1, 0)},
     r"^order must be of type tuple\[int, int, int\], got \(6.0, 1, 0\)$"),
    (PROPHET, {"fourier_order": 3.0}, "^fourier_order must be of type int, got 3.0$"),
    (PROPHET, {"fourier_order": True}, "^fourier_order must be of type int, got True$"),
    *[(PROPHET, {"ridge_lambda": penalty}, "^ridge penalty must be a finite number >= 0")
      for penalty in (np.nan, -5.0, np.inf)],
], ids=["arima-p-not-len", "arima-d-0", "arima-p-0", "hw-m-0", "hw-seasonals-short",
        "hw-phi-1.5", "hw-phi-nan", "prophet-order-not-len", "prophet-order-negative",
        "hw-m-float", "arima-p-float", "prophet-order-float", "prophet-order-bool",
        "prophet-ridge-nan", "prophet-ridge-negative", "prophet-ridge-inf"])
def test_a_fit_with_a_broken_field_is_a_fit_error_naming_its_rule(fit, broken, rule):
    with pytest.raises(FitError, match=rule):
        dataclasses.replace(fit, **broken)


@pytest.mark.parametrize("fit, broken, message", [
    (HW, {"level": "100"}, "^level must be of type float, got '100'$"),
    (HW, {"level": None}, "^level must be of type float, got None$"),
    (HW, {"trend": None}, "^trend must be of type float, got None$"),
    (HW, {"trend": True}, "^trend must be of type float, got True$"),
    (ARIMA, {"intercept": "x"}, "^intercept must be of type float, got 'x'$"),
    (PROPHET, {"n_train": 31.5}, "^n_train must be of type int, got 31.5$"),
    (PROPHET, {"n_train": True}, "^n_train must be of type int, got True$"),
    (PROPHET, {"n_train": -5}, "^training length must be at least 1, got -5$"),
    (PROPHET, {"n_train": 0}, "^training length must be at least 1, got 0$"),
    # the float fields no range rule reads, and every array field
    *[(fit, {name: value}, f"^{name} must be of type float, got {value!r}$")
      for _, fit, name in UNRANGED_REALS for value in (None, "x")],
    *[(fit, {name: value}, f"^{name} must be of type 1-D int or float ndarray, got "
                           f"{re.escape(repr(value))}$")
      for _, fit, name in ARRAYS
      for value in (getattr(fit, name).astype(str), getattr(fit, name)[:, None])],
], ids=["hw-level-str", "hw-level-none", "hw-trend-none", "hw-trend-bool", "arima-intercept-str",
        "prophet-n-train-float", "prophet-n-train-bool", "prophet-n-train-negative",
        "prophet-n-train-zero",
        *[f"{kind}-{name}-{how}" for kind, _, name in UNRANGED_REALS for how in ("none", "str")],
        *[f"{kind}-{name}-{how}" for kind, _, name in ARRAYS for how in ("str-dtype", "2-d")]])
def test_a_scalar_fit_field_of_the_wrong_kind_is_a_fit_error(fit, broken, message):
    # unchecked, each built, and then its forecast or its checkpoint's save
    # raised a bare numpy or Python error, or the forecast ran from nonsense
    with pytest.raises(FitError, match=message):
        dataclasses.replace(fit, **broken)


# the integer setting of each fitter besides hw_fit's m, which
# TestHoltWinters checks by the same rule; the message names the setting
@pytest.mark.parametrize("fitter, setting", [
    (fit_arima, "p"), (prophet_lite_fit, "fourier_order"),
], ids=["arima-p", "prophet-fourier-order"])
@pytest.mark.parametrize("value", [2.0, np.float64(2.0), "2", True],
                         ids=["float", "float64", "str", "bool"])
def test_an_integer_setting_that_is_no_integer_is_a_fit_error(fitter, setting, value):
    message = f"^{setting} must be of type int, got {re.escape(repr(value))}$"
    with pytest.raises(FitError, match=message):
        fitter(np.cumsum(np.arange(1.0, 41.0)), **{setting: value})


# the real-valued setting of each fitter, and of the one fit class that
# holds one unchecked by a range alone
@pytest.mark.parametrize("fitter, setting", [
    (hw_fit, "phi"), (prophet_lite_fit, "ridge_lambda"),
    (lambda y, phi: dataclasses.replace(HW, phi=phi), "phi"),
], ids=["hw-phi", "prophet-ridge-lambda", "hw-fit-phi"])
@pytest.mark.parametrize("value", ["0.9", True, np.bool_(True), None, 0.9 + 0j],
                         ids=["str", "bool", "numpy-bool", "none", "complex"])
def test_a_real_setting_that_is_no_real_number_is_a_fit_error(fitter, setting, value):
    message = f"^{setting} must be of type float, got {re.escape(repr(value))}$"
    with pytest.raises(FitError, match=message):
        fitter(np.cumsum(np.arange(1.0, 41.0)), **{setting: value})


@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.5), np.float64(0.9)],
                         ids=["int", "int64", "float32", "float64"])
def test_a_real_setting_takes_ints_and_numpy_numbers(value):
    y = np.cumsum(np.arange(1.0, 41.0))
    assert hw_fit(y, phi=value).phi == value
    assert prophet_lite_fit(y, ridge_lambda=value).ridge_lambda == value
    assert dataclasses.replace(HW, phi=value).phi == value
