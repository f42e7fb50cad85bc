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
    intercept: float
    coefficients: np.ndarray  # phi_1..phi_p
    residuals: np.ndarray  # in-sample one-step errors on the differenced scale
    condition_number: float


def difference(series, d: int = 1) -> np.ndarray:
    """First difference; output[k] = input[k+1] - input[k]."""
    if d != 1:
        raise ValueError("only d=1 is supported")
    series = np.asarray(series, dtype=float)
    if len(series) < 2:
        raise FitError("series too short to difference")
    return np.diff(series)


def integrate(diffs, first_value: float) -> np.ndarray:
    """Inverse of difference: cumulative sum prepended with the first value."""
    return np.concatenate([[first_value], first_value + np.cumsum(diffs)])


def fit_ar(diff_series, p: int = 6, intercept: bool = False) -> ArimaFit:
    """OLS of y_t on (1, y_{t-1}, ..., y_{t-p}) over t = p+1..n.

    Conditional least squares; exact for models without MA terms.
    """
    y = np.asarray(diff_series, dtype=float)
    n = len(y)
    if n < 2 * p + 2:
        raise FitError(f"need at least {2 * p + 2} differenced points, got {n}")
    rows = np.column_stack([y[p - k - 1 : n - k - 1] for k in range(p)])
    design = np.column_stack([np.ones(n - p), rows]) if intercept else rows
    target = y[p:]
    cond = float(np.linalg.cond(design))
    if cond > 1e12:
        raise FitError(f"singular normal equations, condition number {cond:.3g}")
    beta, *_ = np.linalg.lstsq(design, target, rcond=None)
    if intercept:
        c, phi = beta[0], beta[1:]
    else:
        c, phi = 0.0, beta
    residuals = target - design @ beta
    return ArimaFit((p, 1, 0), float(c), phi, residuals, cond)


def forecast_arima(fit: ArimaFit, last_diffs, last_level: float, horizon: int = 15):
    """Iterate the AR recursion on the differenced scale, feeding forecasts
    back, then integrate from the last observed level."""
    p = fit.order[0]
    hist = list(np.asarray(last_diffs, dtype=float)[-p:])
    if len(hist) < p:
        raise FitError(f"need the last {p} differences")
    steps = []
    for _ in range(horizon):
        nxt = fit.intercept + float(np.dot(fit.coefficients, hist[::-1]))
        steps.append(nxt)
        hist.append(nxt)
        hist.pop(0)
    return last_level + np.cumsum(steps)


def fit_arima(series, p: int = 6, intercept: bool = False) -> ArimaFit:
    """Difference once, then conditional least squares."""
    return fit_ar(difference(series), p, intercept)


def forecast_arima_from_series(fit: ArimaFit, series, horizon: int = 15):
    series = np.asarray(series, dtype=float)
    return forecast_arima(fit, difference(series), series[-1], horizon)


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


def hw_heuristic_init(y, m: int):
    """Simple moment-based initial states: first-season mean level, trend
    from the gap between the first two season means, seasonal indices as
    de-meaned first-season deviations."""
    y = np.asarray(y, dtype=float)
    level = float(np.mean(y[:m]))
    trend = float((np.mean(y[m : 2 * m]) - np.mean(y[:m])) / m)
    seasonals = y[:m] - level
    return level, trend, seasonals - seasonals.mean()


def hw_smooth(y, alpha, beta, gamma, m: int = 7, phi: float = 0.96, init=None):
    """Run the additive damped-trend recursions with fixed weights.

    level:   l_t = a (y_t - s_{t-m}) + (1-a)(l_{t-1} + phi b_{t-1})
    trend:   b_t = b (l_t - l_{t-1}) + (1-b) phi b_{t-1}
    seasonal s_t = g (y_t - l_{t-1} - phi b_{t-1}) + (1-g) s_{t-m}

    Returns (sse, level, trend, last m seasonal indices ordered so that
    forecasting step h uses index (h-1) mod m, fitted one-step predictions).
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    level, trend, init_seasonals = hw_heuristic_init(y, m) if init is None else init
    seasonals = list(np.asarray(init_seasonals, dtype=float))
    fitted = np.empty(n)
    sse = 0.0
    for t in range(n):
        s_old = seasonals[t % m]
        predicted = level + phi * trend + s_old
        fitted[t] = predicted
        err = y[t] - predicted
        sse += err * err
        new_level = alpha * (y[t] - s_old) + (1 - alpha) * (level + phi * trend)
        new_trend = beta * (new_level - level) + (1 - beta) * phi * trend
        seasonals[t % m] = gamma * (y[t] - level - phi * trend) + (1 - gamma) * s_old
        level, trend = new_level, new_trend
    last = np.array([seasonals[(n + k) % m] for k in range(m)])
    return sse, level, trend, last, fitted


def _hw_affine_pass(y, alpha, beta, gamma, m, phi):
    """Propagate the recursions with states kept affine in the initial-state
    vector u = (l0, b0, s0..s_{m-2}); the last seasonal is -(sum of the rest)
    so the indices stay de-meaned. Returns the one-step-prediction design
    (C, E) with predictions C u + E, plus the affine final states."""
    n = len(y)
    k = 1 + m  # level, trend, m-1 free seasonals
    eye = np.eye(k)
    level = (eye[0], 0.0)
    trend = (eye[1], 0.0)
    seasonals = [(eye[2 + j], 0.0) for j in range(m - 1)]
    tail = np.zeros(k)
    tail[2:] = -1.0
    seasonals.append((tail, 0.0))
    design = np.zeros((n, k))
    offset = np.zeros(n)
    for t in range(n):
        sc, se = seasonals[t % m]
        design[t] = level[0] + phi * trend[0] + sc
        offset[t] = level[1] + phi * trend[1] + se
        nlc = alpha * (-sc) + (1 - alpha) * (level[0] + phi * trend[0])
        nle = alpha * (y[t] - se) + (1 - alpha) * (level[1] + phi * trend[1])
        ntc = beta * (nlc - level[0]) + (1 - beta) * phi * trend[0]
        nte = beta * (nle - level[1]) + (1 - beta) * phi * trend[1]
        nsc = gamma * (-level[0] - phi * trend[0]) + (1 - gamma) * sc
        nse = gamma * (y[t] - level[1] - phi * trend[1]) + (1 - gamma) * se
        seasonals[t % m] = (nsc, nse)
        level, trend = (nlc, nle), (ntc, nte)
    last = [seasonals[(n + j) % m] for j in range(m)]
    return design, offset, level, trend, last


def hw_fit(series, m: int = 7, phi: float = 0.96) -> HwFit:
    """Fit the additive damped-trend model.

    The smoothing weights are chosen by Nelder-Mead on the in-sample
    one-step SSE (multi-start, clamped to [0,1]^3 with a quadratic
    out-of-box penalty). For fixed weights the recursions are linear in the
    initial states, so level/trend/seasonal starts are solved exactly by
    least squares inside the objective.
    """
    y = np.asarray(series, dtype=float)
    if len(y) < 2 * m:
        raise FitError(f"need at least two seasons ({2 * m} points), got {len(y)}")
    scale = float(np.mean(np.abs(y))) or 1.0

    def solve_init(theta):
        design, offset, level, trend, last = _hw_affine_pass(y, *theta, m, phi)
        u, *_ = np.linalg.lstsq(design, y - offset, rcond=None)
        residuals = y - offset - design @ u
        return float(residuals @ residuals), u, level, trend, last

    def objective(theta):
        clamped = np.clip(theta, 0.0, 1.0)
        penalty = float(np.sum((theta - clamped) ** 2)) * scale * scale
        sse, *_ = solve_init(clamped)
        return sse + penalty

    best = None
    for start in ([0.5, 0.1, 0.1], [0.9, 0.9, 0.1], [1.0, 1.0, 1.0], [0.3, 0.1, 0.5]):
        result = minimize(
            objective,
            x0=np.array(start),
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 3000},
        )
        if best is None or result.fun < best.fun:
            best = result
    alpha, beta, gamma = np.clip(best.x, 0.0, 1.0)
    sse, u, level, trend, last = solve_init((alpha, beta, gamma))
    final_level = float(level[0] @ u + level[1])
    final_trend = float(trend[0] @ u + trend[1])
    final_seasonals = np.array([c @ u + e for c, e in last])
    return HwFit(
        float(alpha), float(beta), float(gamma), phi, m,
        final_level, final_trend, final_seasonals, sse,
    )


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
    if horizon == 0:
        return np.empty(0)
    t = np.arange(fit.n_train, fit.n_train + horizon, dtype=float)
    design = _prophet_design(t, fit.changepoints, fit.fourier_order)
    return design @ fit.coefficients


def prophet_lite_fitted(fit: ProphetLiteFit) -> np.ndarray:
    t = np.arange(fit.n_train, dtype=float)
    return _prophet_design(t, fit.changepoints, fit.fourier_order) @ fit.coefficients
