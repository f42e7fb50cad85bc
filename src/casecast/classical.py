"""Classical baselines: AR(6) on first differences (conditional least
squares), Holt-Winters additive with damped trend, and a simplified
Prophet-style regressor (piecewise-linear trend + weekly Fourier terms
with ridge). All fitters are deterministic functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize


class FitError(Exception):
    pass


# ---------------------------------------------------------------------------
# ARIMA(p,1,0) via conditional least squares


@dataclass(frozen=True)
class ArimaFit:
    order: tuple[int, int, int]
    intercept: float  # always 0.0: no intercept is fitted; kept in checkpoints
    coefficients: np.ndarray  # phi_1..phi_p
    residuals: np.ndarray  # in-sample one-step errors on the differenced scale
    condition_number: float


def difference(series) -> np.ndarray:
    """First difference; output[k] = input[k+1] - input[k]."""
    series = np.asarray(series, dtype=float)
    if len(series) < 2:
        raise FitError("series too short to difference")
    return np.diff(series)


def fit_arima(series, p: int = 6) -> ArimaFit:
    """Difference once to y, then OLS of y_t on (y_{t-1}, ..., y_{t-p})
    over t = p+1..n, with no intercept.

    Conditional least squares; exact for models without MA terms.
    """
    y = difference(series)
    n = len(y)
    if n < 2 * p + 2:
        raise FitError(f"need at least {2 * p + 2} differenced points, got {n}")
    design = np.column_stack([y[p - k - 1 : n - k - 1] for k in range(p)])
    target = y[p:]
    cond = float(np.linalg.cond(design))
    if cond > 1e12:
        raise FitError(f"singular normal equations, condition number {cond:.3g}")
    phi, *_ = np.linalg.lstsq(design, target, rcond=None)
    return ArimaFit((p, 1, 0), 0.0, phi, target - design @ phi, cond)


def forecast_arima_from_series(fit: ArimaFit, series, horizon: int = 15):
    """Iterate the AR recursion on the differences of `series`, feeding
    forecasts back, then integrate from its last observed level."""
    series = np.asarray(series, dtype=float)
    p = fit.order[0]
    hist = list(difference(series)[-p:])
    if len(hist) < p:
        raise FitError(f"need the last {p} differences")
    steps = []
    for _ in range(horizon):
        nxt = float(np.dot(fit.coefficients, hist[::-1]))
        steps.append(nxt)
        hist.append(nxt)
        hist.pop(0)
    return series[-1] + np.cumsum(steps)


# ---------------------------------------------------------------------------
# Holt-Winters additive seasonal, damped trend


@dataclass(frozen=True)
class HwFit:
    alpha: float
    beta: float
    gamma: float
    phi: float
    season_length: int
    level: float
    trend: float
    seasonals: np.ndarray  # last m seasonal indices, oldest first
    sse: float


def _hw_affine_pass(y, alpha, beta, gamma, m, phi):
    """Run the recursions of `hw_fit` with every state kept affine in the
    initial states u = (l0, b0, s0..s_{m-2}): a state is one row
    [coefficients on u | constant], and the last initial seasonal is
    -(sum of the rest) so the indices stay de-meaned.

    Returns (design, offset, states): the one-step predictions are
    design @ u + offset, and `states` holds the final level, trend and the
    last m seasonals (oldest first, so forecast step h uses seasonal
    (h-1) mod m) as rows; their values are states @ np.append(u, 1.0).
    """
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


def hw_fit(series, m: int = 7, phi: float = 0.96) -> HwFit:
    """Fit the additive damped-trend model

    level:   l_t = a (y_t - s_{t-m}) + (1-a)(l_{t-1} + phi b_{t-1})
    trend:   b_t = b (l_t - l_{t-1}) + (1-b) phi b_{t-1}
    seasonal s_t = g (y_t - l_{t-1} - phi b_{t-1}) + (1-g) s_{t-m}

    with one-step prediction l_{t-1} + phi b_{t-1} + s_{t-m}. The weights
    (a, b, g) minimise the in-sample one-step SSE by multi-start L-BFGS-B
    on [0,1]^3. For fixed weights the recursions are linear in the initial
    states, so level/trend/seasonal starts are solved exactly by least
    squares inside the objective.
    """
    y = np.asarray(series, dtype=float)
    if len(y) < 2 * m:
        raise FitError(f"need at least two seasons ({2 * m} points), got {len(y)}")

    def solve_init(theta):
        design, offset, states = _hw_affine_pass(y, *theta, m, phi)
        u, *_ = np.linalg.lstsq(design, y - offset, rcond=None)
        residuals = y - offset - design @ u
        return float(residuals @ residuals), states @ np.append(u, 1.0)

    best = None
    for start in ([0.5, 0.1, 0.1], [0.9, 0.9, 0.1], [1.0, 1.0, 1.0], [0.3, 0.1, 0.5]):
        result = minimize(
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


def hw_forecast(fit: HwFit, horizon: int = 15) -> np.ndarray:
    """y_hat(t+h) = level + (phi + phi^2 + ... + phi^h) * trend + seasonal."""
    damp = np.cumsum(fit.phi ** np.arange(1, horizon + 1))
    seasonal = np.array([fit.seasonals[h % fit.season_length] for h in range(horizon)])
    return fit.level + damp * fit.trend + seasonal


# ---------------------------------------------------------------------------
# Prophet-lite: piecewise-linear trend + weekly Fourier terms, ridge LS


@dataclass(frozen=True)
class ProphetLiteFit:
    n_train: int
    changepoints: np.ndarray  # day offsets of the hinge knots
    coefficients: np.ndarray  # [intercept, slope, deltas..., fourier...]
    fourier_order: int
    ridge_lambda: float


def _prophet_design(t, changepoints, fourier_order):
    cols = [np.ones_like(t), t]
    for cp in changepoints:
        cols.append(np.maximum(0.0, t - cp))
    for k in range(1, fourier_order + 1):
        cols.append(np.sin(2 * np.pi * k * t / 7.0))
        cols.append(np.cos(2 * np.pi * k * t / 7.0))
    return np.column_stack(cols)


def prophet_lite_fit(
    series,
    fourier_order: int = 3,
    ridge_lambda: float = 1.0,
) -> ProphetLiteFit:
    """Hinge-parameterized trend (knots at the 10/30/50/70/90 percent points
    of the training range, so the trend stays continuous) plus order-3 weekly
    Fourier terms, solved by ridge least squares. Intercept and base slope
    are left unpenalized."""
    y = np.asarray(series, dtype=float)
    n = len(y)
    if n < 14:
        raise FitError(f"need at least 14 daily observations, got {n}")
    t = np.arange(n, dtype=float)
    changepoints = np.quantile(t, [0.1, 0.3, 0.5, 0.7, 0.9])
    design = _prophet_design(t, changepoints, fourier_order)
    k = design.shape[1]
    penalty = np.full(k, ridge_lambda)
    penalty[:2] = 0.0
    lhs = design.T @ design + np.diag(penalty)
    cond = np.linalg.cond(lhs)
    if not (np.isfinite(cond) and cond < 1e14):
        raise FitError(f"singular ridge system, condition number {cond:.3g}")
    coefficients = np.linalg.solve(lhs, design.T @ y)
    return ProphetLiteFit(n, changepoints, coefficients, fourier_order, ridge_lambda)


def prophet_lite_forecast(fit: ProphetLiteFit, horizon: int = 15) -> np.ndarray:
    """Extend the design matrix past the training range; the last trend
    segment extrapolates linearly, seasonality repeats."""
    t = np.arange(fit.n_train, fit.n_train + horizon, dtype=float)
    design = _prophet_design(t, fit.changepoints, fit.fourier_order)
    return design @ fit.coefficients
