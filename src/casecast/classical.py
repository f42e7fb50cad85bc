"""Classical baselines: AR(6) on first differences (conditional least
squares), Holt-Winters additive with damped trend, and a simplified
Prophet-style regressor (piecewise-linear trend + weekly Fourier terms
with ridge). All fitters are deterministic functions of their inputs.

Each fit class checks, when it is built, the declared type of every field
(`data.check_fields`), then the rule its forecast needs of its fields
together, and last that no float field or array holds a NaN or an infinity
(`_finite_state`); each fault is a `FitError` naming the field or the rule. So
every fit object that exists, fitted, built by hand or loaded from a
checkpoint, can be saved, loaded back and forecast. The fitters check the
types (`data.check_value`) and ranges of their own settings before any
solve.

scipy is imported only when a Holt-Winters fit runs (`hw_fit`, through
`minimize`). Importing this module, the other fitters, forecasting from a
fit and loading a checkpoint need numpy alone, so every command that fits
no Holt-Winters model starts without paying for scipy's import.

The Holt-Winters optimizer's gradient follows casecast's own rule,
`_forward_difference`: forward differences of step 1e-8, as scipy's
L-BFGS-B takes them when it is given no `jac`. The tests pin the two to
the same bits, so every fit is the one scipy's default gives, without
scipy's finite-difference setup on each gradient.

The module holds one piece of state, `_UNIT_COLUMNS`: the data-free
columns of the Holt-Winters affine pass at each weight vector the latest
`hw_fit` solved. Those columns see 0.0 for every observation, so they are
a function of (alpha, beta, gamma, phi, m) alone, and they are keyed by the
exact bits of those five. A stored column holds the very floats a fresh
pass computes, so no fit's result depends on the fits that ran before it;
consecutive fits (the windows of a backtest) revisit most weight vectors
and skip all but one column of each pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import check_fields, check_value, field_types


class FitError(Exception):
    pass


def _finite(series) -> np.ndarray:
    """`series` as a float array; a NaN or an infinity is a FitError, before
    any least squares or optimizer sees it."""
    y = np.asarray(series, dtype=float)
    if not np.isfinite(y).all():
        raise FitError("series has a non-finite value")
    return y


def _ridge_penalty(value) -> None:
    """A FitError unless the ridge penalty `value`, a real number, is finite
    and >= 0."""
    if not 0.0 <= value < np.inf:  # NaN fails too
        raise FitError(f"ridge penalty must be a finite number >= 0, got {value}")


def _finite_state(fit) -> None:
    """A FitError naming the first float field or array of `fit` that holds
    a NaN or an infinity; run after the fit's other rules, so a range rule
    (phi's, the ridge penalty's) keeps its own message."""
    for name, declared in field_types(type(fit)).items():
        value = getattr(fit, name)  # a float field may hold an int no numpy type holds
        if (declared is float and not abs(value) < np.inf
                or declared is np.ndarray and not np.isfinite(value).all()):
            raise FitError(f"'{name}' must hold no NaN or infinity")


# ---------------------------------------------------------------------------
# ARIMA(p,1,0) via conditional least squares


@dataclass(frozen=True)
class ArimaFit:
    order: tuple[int, int, int]
    intercept: float  # always 0.0: no intercept is fitted; kept in checkpoints
    coefficients: np.ndarray  # phi_1..phi_p
    residuals: np.ndarray  # in-sample one-step errors on the differenced scale
    condition_number: float

    def __post_init__(self):
        check_fields(self, FitError)
        p = self.order[0]
        if not (p >= 1 and self.order[1:] == (1, 0) and len(self.coefficients) == p):
            raise FitError("'order' must be (p, 1, 0) with p >= 1 and 'coefficients' must hold"
                           " p values")
        _finite_state(self)


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
    series = _finite(series)
    check_value("p", int, p, FitError)
    if p < 1:
        raise FitError(f"AR order must be at least 1, got {p}")
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
    series = _finite(series)
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

    def __post_init__(self):
        check_fields(self, FitError)
        m = self.season_length
        if not (m >= 1 and len(self.seasonals) == m and 0.0 < self.phi <= 1.0):
            raise FitError("'seasonals' must hold 'season_length' >= 1 values and 'phi' must"
                           " lie in (0, 1]")
        _finite_state(self)


def _hw_column(observed, level, trend, seasons, alpha, beta, gamma, phi):
    """One column of `_hw_affine_pass`: the recursions from `level`, `trend`
    and the m initial `seasons`, run over `observed` on Python floats.

    Returns the one-step predictions, the level and the trend before day 0
    and after each day, and `seasons` extended in place by every seasonal
    written. Day t reads seasons[t], the one written at t - m, or an initial
    one when t < m, so the seasonals held after day t - 1 are
    seasons[t : t + m], oldest first.
    """
    keep_level, keep_trend, keep_season = 1 - alpha, (1 - beta) * phi, 1 - gamma
    predictions, levels, trends = [], [level], [trend]
    for t, obs in enumerate(observed):
        season = seasons[t]
        damped = level + phi * trend
        predictions.append(damped + season)
        new_level = alpha * (obs - season) + keep_level * damped
        trend = beta * (new_level - level) + keep_trend * trend
        seasons.append(gamma * (obs - damped) + keep_season * season)
        level = new_level
        levels.append(level)
        trends.append(trend)
    return predictions, levels, trends, seasons


def _theta_key(alpha, beta, gamma, m, phi):
    """The exact bits of (alpha, beta, gamma, phi), and m: a float key would
    take -0.0 for +0.0."""
    return struct.pack("4d", alpha, beta, gamma, phi), m


# _theta_key -> the m + 1 unit columns of a pass at that theta, as arrays
# with one row per column: predictions (per day), levels and trends (before
# day 0 and after each day), seasonals (initial ones, then each written).
# They see 0.0 for every observation, so they depend on the theta alone.
_UNIT_COLUMNS = {}


def _hw_affine_pass(y, alpha, beta, gamma, m, phi):
    """Run the recursions of `hw_fit` with every state kept affine in the
    initial states u = (l0, b0, s0..s_{m-2}): a state is one row
    [coefficients on u | constant], and the last initial seasonal is
    -(sum of the rest) so the indices stay de-meaned.

    Returns (design, offset, states): the one-step predictions are
    design @ u + offset, and `states` holds the final level, trend and the
    last m seasonals (oldest first, so forecast step h uses seasonal
    (h-1) mod m) as rows; their values are states @ np.append(u, 1.0).

    Every step is elementwise across the k + 1 columns of a row, so each
    column runs its own recursion (`_hw_column`): the constant column sees
    y_t, every coefficient column sees 0.0. Python floats round add,
    subtract and multiply exactly as numpy's float64 does; with the
    operations in the row form's order and grouping ((1 - b) phi is one
    factor) the output is that form's, bit for bit, signed zeros included.
    The k coefficient columns depend on (alpha, beta, gamma, phi, m) alone,
    so they come from `_UNIT_COLUMNS` when a pass at that theta already ran
    them for at least len(y) days: a column's first n days do not depend on
    the days after them, so its rows [:n] and its states after day n - 1
    are what a pass of length n computes. Only the constant column runs
    again. `predictions` stays one (n, k + 1) C-order array, filled by copy,
    so `design` is the same strided view: another layout changes the BLAS
    summation order of `design @ u` and with it the last digits of the SSE.
    No returned array shares memory with the memo.
    """
    # Python floats: np.float64 scalars give the same bits, more slowly
    alpha, beta, gamma, phi = float(alpha), float(beta), float(gamma), float(phi)
    y = np.asarray(y, dtype=float).tolist()
    n, k = len(y), m + 1
    key = _theta_key(alpha, beta, gamma, m, phi)
    units = _UNIT_COLUMNS.get(key)
    if units is None or units[0].shape[1] < n:
        columns = (
            _hw_column([0.0] * n, float(j == 0), float(j == 1),
                       # s0..s_{m-2}, then -(their sum); +0.0 where j has no weight
                       [float(i == j) for i in range(2, k)] + [-1.0 if j >= 2 else 0.0],
                       alpha, beta, gamma, phi)
            for j in range(k)
        )
        # struct packs Python floats several times faster than np.array reads them
        rows = np.frombuffer(b"".join(struct.pack(f"{4 * n + m + 2}d", *p, *lv, *tr, *s)
                                      for p, lv, tr, s in columns)).reshape(k, -1)
        units = _UNIT_COLUMNS[key] = (rows[:, :n], rows[:, n : 2 * n + 1],
                                      rows[:, 2 * n + 1 : 3 * n + 2], rows[:, 3 * n + 2 :])
    unit_predictions, unit_levels, unit_trends, unit_seasons = units
    predictions = np.empty((n, k + 1))
    states = np.empty((m + 2, k + 1))  # level, trend, last m seasonals
    predictions[:, :k] = unit_predictions[:, :n].T
    states[0, :k], states[1, :k] = unit_levels[:, n], unit_trends[:, n]
    states[2:, :k] = unit_seasons[:, n : n + m].T
    column, levels, trends, seasons = _hw_column(y, 0.0, 0.0, [0.0] * m,
                                                 alpha, beta, gamma, phi)
    predictions[:, k] = column
    states[:, k] = [levels[-1], trends[-1]] + seasons[n:]
    return predictions[:, :k], predictions[:, k], states


def _forward_difference(f, theta):
    """The gradient of `f` at `theta` in [0, 1]^k by forward differences of
    absolute step 1e-8, with the step turned to -1e-8 on a coordinate where
    theta + 1e-8 would pass 1.0: float for float what L-BFGS-B estimates
    when `minimize` gets no `jac` (its default `eps` and scipy's 1-sided
    rule for a step that leaves the bounds), without scipy's per-gradient
    setup. The derivative divides by the step theta actually took,
    (theta_i + h) - theta_i."""
    f0 = f(theta)
    gradient = np.empty(len(theta))
    for i, x in enumerate(theta):
        h = -1e-8 if x + 1e-8 > 1.0 else 1e-8
        stepped = theta.copy()
        stepped[i] = x + h
        gradient[i] = (f(stepped) - f0) / ((x + h) - x)
    return gradient


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call. `hw_fit` looks
    it up here by name, so a caller can wrap it to count evaluations: a
    result's `nfev` counts the direct objective calls and `njev` the
    gradients, each of which asks one more value per weight."""
    from scipy import optimize

    return optimize.minimize(*args, **kwargs)


def hw_fit(series, m: int = 7, phi: float = 0.96) -> HwFit:
    """Fit the additive damped-trend model

    level:   l_t = a (y_t - s_{t-m}) + (1-a)(l_{t-1} + phi b_{t-1})
    trend:   b_t = b (l_t - l_{t-1}) + (1-b) phi b_{t-1}
    seasonal s_t = g (y_t - l_{t-1} - phi b_{t-1}) + (1-g) s_{t-m}

    with one-step prediction l_{t-1} + phi b_{t-1} + s_{t-m}, for an
    integer m >= 1 and a real damping phi in (0, 1]. The weights (a, b, g)
    minimise the in-sample one-step SSE by multi-start L-BFGS-B on [0,1]^3.
    Its gradient comes from `_forward_difference`, a rule of casecast's own
    that the memo-free oracle and `TestForwardDifference` pin, bit for bit,
    to scipy's `jac=None` default. For fixed weights the recursions are
    linear in the initial states, so level/trend/seasonal starts are solved
    exactly by least squares inside the objective. The initial states are
    solved once for each distinct candidate (a, b, g) in a fit: the starts
    and their finite differences revisit points, and the winner reuses its
    solve. When it returns, `_UNIT_COLUMNS` holds the unit columns of this
    fit's candidates and no others, ready for the next fit.
    """
    y = _finite(series)
    check_value("m", int, m, FitError)
    if m < 1:
        raise FitError(f"season length must be at least 1, got {m}")
    check_value("phi", float, phi, FitError)
    if not 0.0 < phi <= 1.0:  # NaN and the infinities fail too
        raise FitError(f"damping phi must lie in (0, 1], got {phi}")
    if len(y) < 2 * m:
        raise FitError(f"need at least two seasons ({2 * m} points), got {len(y)}")

    # _theta_key -> (sse, u, states). Lives for this call only: each distinct
    # theta is solved once
    solved = {}

    def solve_init(theta):
        key = _theta_key(*theta, m, phi)
        if key not in solved:
            design, offset, states = _hw_affine_pass(y, *theta, m, phi)
            u, *_ = np.linalg.lstsq(design, y - offset, rcond=None)
            residuals = y - offset - design @ u
            solved[key] = float(residuals @ residuals), u, states
        return solved[key]

    def objective(theta):
        return solve_init(theta)[0]

    best = None
    for start in ([0.5, 0.1, 0.1], [0.9, 0.9, 0.1], [1.0, 1.0, 1.0], [0.3, 0.1, 0.5]):
        result = minimize(
            objective,
            x0=np.array(start),
            jac=lambda theta: _forward_difference(objective, theta),
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * 3,
        )
        if best is None or result.fun < best.fun:
            best = result
    alpha, beta, gamma = (float(w) for w in best.x)
    sse, u, states = solve_init((alpha, beta, gamma))
    # keep this fit's unit columns only: the next fit revisits most of them
    for key in _UNIT_COLUMNS.keys() - solved.keys():
        _UNIT_COLUMNS.pop(key, None)
    final = states @ np.append(u, 1.0)
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

    def __post_init__(self):
        check_fields(self, FitError)
        k = self.fourier_order
        _ridge_penalty(self.ridge_lambda)
        if self.n_train < 1:
            raise FitError(f"training length must be at least 1, got {self.n_train}")
        if not (k >= 0 and len(self.coefficients) == 2 + len(self.changepoints) + 2 * k):
            raise FitError("'coefficients' must hold 2 + len('changepoints') + 2 * 'fourier_order'"
                           " values, 'fourier_order' >= 0")
        _finite_state(self)


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
    are left unpenalized. The Fourier order is an integer (a negative one
    is the fit class's FitError) and the ridge penalty a finite real number
    >= 0.
    """
    y = _finite(series)
    check_value("fourier_order", int, fourier_order, FitError)
    check_value("ridge_lambda", float, ridge_lambda, FitError)
    _ridge_penalty(ridge_lambda)
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
