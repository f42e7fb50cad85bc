"""LSTM forecaster built from scratch: forward pass, exact
backpropagation through time, Adam, and the three forecasting schemas
(u1 one-step teacher-forced, u2 recursive, u3 recursive bivariate).

Gate layout: the four gate blocks are stacked row-wise in the order
input, forget, output, candidate, so one matvec per source covers all
gates. `forward` is the one implementation of the cell; callers that
need a single gate slice the stacked arrays (block k is rows k*H..(k+1)*H).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .data import (
    TimeSeries,
    WindowedDataset,
    WindowError,
    fit_normalizer,
    forecast_horizon,
    make_windows,
    slice_window,
)

SCHEMAS = ("u1", "u2", "u3")


class TrainingDivergedError(Exception):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
        self.epoch = epoch


class NonFiniteForecastError(Exception):
    """A trained model forecast a NaN or an infinity."""


def elu(x):
    """x for x > 0, exp(x) - 1 otherwise (alpha = 1)."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, x, np.expm1(x))


def _elu_grad(x, fx):
    return np.where(np.asarray(x) > 0, 1.0, fx + 1.0)


def _tanh_grad(x, fx):
    return 1.0 - fx * fx


# name -> (g, dg); dg takes the pre-activation and the activation value
ACTIVATIONS = {
    "elu": (elu, _elu_grad),
    "tanh": (np.tanh, _tanh_grad),
}


# the doubles next to 0 and 1: 1 / (1 + exp(-x)) rounds to exactly 1.0 once
# x > ~36.7 and to 0.0 once exp overflows (x < ~-709.8); sigmoid clamps to these
# so a gate is never exactly shut or exactly open
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid(x):
    """Logistic function with values strictly inside (0, 1)."""
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
    return np.maximum(np.minimum(y, _SIGMOID_HI), _SIGMOID_LO)


class LstmParams:
    """All weights of one LSTM layer plus the linear dense head, stored in one
    contiguous float64 vector `flat`. The five named arrays are reshaped views
    into it, laid out in the order of NAMES:

    wx (4H, D) input-to-gate, rows stacked i|f|o|c; wh (4H, H) hidden-to-gate;
    b (4H,); dense_w (D_out, H); dense_b (D_out,).
    """

    NAMES = ("wx", "wh", "b", "dense_w", "dense_b")

    def __init__(self, wx, wh, b, dense_w, dense_b):
        arrays = [np.asarray(a, dtype=float) for a in (wx, wh, b, dense_w, dense_b)]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        start = 0
        for name, a in zip(self.NAMES, arrays):
            setattr(self, name, self.flat[start : start + a.size].reshape(a.shape))
            start += a.size

    @property
    def hidden(self) -> int:
        return self.wh.shape[1]

    @property
    def input_dim(self) -> int:
        return self.wx.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.NAMES}

    def zeros_like(self) -> "LstmParams":
        """Parameters of the same shapes, all zero (a gradient accumulator)."""
        return LstmParams(**{k: np.zeros(a.shape) for k, a in self.arrays().items()})

    @classmethod
    def zeros(cls, hidden: int, input_dim: int):
        return cls(
            wx=np.zeros((4 * hidden, input_dim)),
            wh=np.zeros((4 * hidden, hidden)),
            b=np.zeros(4 * hidden),
            dense_w=np.zeros((input_dim, hidden)),
            dense_b=np.zeros(input_dim),
        )

    @classmethod
    def glorot(cls, hidden: int, input_dim: int, rng: np.random.Generator):
        """Glorot-uniform weights per matrix, all biases zero."""

        def uni(rows, cols):
            limit = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-limit, limit, size=(rows, cols))

        return cls(
            wx=np.vstack([uni(hidden, input_dim) for _ in range(4)]),
            wh=np.vstack([uni(hidden, hidden) for _ in range(4)]),
            b=np.zeros(4 * hidden),
            dense_w=uni(input_dim, hidden),
            dense_b=np.zeros(input_dim),
        )


def forward(params: LstmParams, inputs, g: str = "elu"):
    """Run the sequence from zero state and apply the linear head to the
    final hidden vector. Each step is

        i = sigma(Wix x + Wih h + bi), f and o alike;
        c' = f*c + i*g(Wcx x + Wch h + bc); h' = o*g(c'),

    with the activation g applied both to the candidate and to the cell
    output. Returns (y, cache); cache["steps"] holds one tuple
    (x, h, c, i, f, o, a_c, g(a_c), c', g(c')) per step, everything
    bptt_gradient needs for an exact reverse pass."""
    gfun, _ = ACTIVATIONS[g]
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != params.input_dim:
        raise ValueError(
            f"input dim {inputs.shape[1]}, expected {params.input_dim}"
        )
    hdim = params.hidden
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    steps = []
    for x in inputs:
        a = params.wx @ x + params.wh @ h + params.b
        ifo = sigmoid(a[: 3 * hdim])
        i, f, o = ifo[:hdim], ifo[hdim : 2 * hdim], ifo[2 * hdim :]
        a_c = a[3 * hdim :]
        g_in = gfun(a_c)
        c_new = f * c + i * g_in
        gc = gfun(c_new)
        steps.append((x, h, c, i, f, o, a_c, g_in, c_new, gc))
        c = c_new
        h = o * gc
    y = params.dense_w @ h + params.dense_b
    return y, {"steps": steps, "h_final": h, "g": g}


def bptt_gradient(params: LstmParams, inputs, target, g: str = "elu"):
    """Exact gradient of the squared error ||y - target||^2 with respect to
    every parameter array, by reverse-mode differentiation through the
    unrolled recurrence. Returns (loss, grads), grads an LstmParams."""
    _, dgfun = ACTIVATIONS[g]
    y, cache = forward(params, inputs, g)
    target = np.asarray(target, dtype=float)
    err = y - target
    loss = float(err @ err)

    hdim = params.hidden
    grads = params.zeros_like()
    grads.dense_w += np.outer(2.0 * err, cache["h_final"])
    grads.dense_b += 2.0 * err

    dh = params.dense_w.T @ (2.0 * err)
    dc = np.zeros(hdim)
    for x, h_prev, c_prev, i, f, o, a_c, g_in, c_new, gc in reversed(cache["steps"]):
        do = dh * gc
        dc = dc + dh * o * dgfun(c_new, gc)
        di = dc * g_in
        dg_in = dc * i
        df = dc * c_prev
        da = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg_in * dgfun(a_c, g_in),
            ]
        )
        grads.wx += np.outer(da, x)
        grads.wh += np.outer(da, h_prev)
        grads.b += da
        dh = params.wh.T @ da
        dc = dc * f
    return loss, grads


@dataclass
class AdamState:
    """Adam's moment estimates, flat vectors laid out like LstmParams.flat,
    and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, params: LstmParams):
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_update(
    params: LstmParams,
    grads: LstmParams,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One Adam step with bias correction over the whole flat parameter
    vector; updates params and state in place."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    grad, m, v = grads.flat, state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    params.flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    hidden: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    activation: str = "elu"
    seed: int = 42

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class LstmModel:
    params: LstmParams
    config: TrainConfig
    epoch_losses: list[float]


def train(dataset: WindowedDataset, cfg: TrainConfig) -> LstmModel:
    """Batch-size-1 training: one Adam step per sample, sample order
    reshuffled every epoch from the run's single seeded RNG (so the whole
    run stays deterministic given the seed)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    input_dim = dataset.inputs.shape[2]
    params = LstmParams.glorot(cfg.hidden, input_dim, rng)
    state = AdamState.like(params)
    losses = []
    n = len(dataset)
    for epoch in range(1, cfg.epochs + 1):
        total = 0.0
        for k in rng.permutation(n):
            loss, grads = bptt_gradient(
                params, dataset.inputs[k], dataset.targets[k], cfg.activation
            )
            total += loss
            adam_update(
                params, grads, state, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon
            )
        mean_loss = total / n
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(epoch)
        losses.append(mean_loss)
    return LstmModel(params, cfg, losses)


def forecast_recursive(predict, seed_window: np.ndarray, horizon: int = 15):
    """Predict `horizon` steps by feeding each output back into the window:
    predict, append, drop the oldest, repeat. All channels are fed back.

    `predict(window) -> vector` maps a (lookback, channels) window to the
    next step."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    window = np.atleast_2d(np.asarray(seed_window, dtype=float)).copy()
    outputs = []
    for _ in range(horizon):
        y = np.atleast_1d(np.asarray(predict(window), dtype=float))
        outputs.append(y)
        window = np.vstack([window[1:], y])
    return np.array(outputs).reshape(horizon, -1) if horizon else np.empty((0, window.shape[1]))


@dataclass(frozen=True)
class ForecastRun:
    schema: str
    train_start: dt.date
    train_end: dt.date
    dates: tuple[dt.date, ...]
    forecasts: np.ndarray  # predicted total cases, original units
    actuals: np.ndarray | None  # observed total cases where available


def _schema_training_values(ts: TimeSeries, schema: str, train_start, train_end):
    """Slice the schema's training window and fit the normaliser on it.
    Returns (normaliser, normalised training values)."""
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    bivariate = schema == "u3"
    train_ts = slice_window(ts, train_start, train_end)
    spec = fit_normalizer(train_ts, bivariate)
    return spec, spec.normalize(train_ts.channels(bivariate))


def train_schema_model(
    ts: TimeSeries,
    schema: str,
    cfg: TrainConfig,
    train_start: dt.date,
    train_end: dt.date,
    lookback: int = 1,
) -> LstmModel:
    """Fit a model on the schema's training window. u1 and u2 share the same
    (univariate) training path; u3 is bivariate."""
    _, train_vals = _schema_training_values(ts, schema, train_start, train_end)
    return train(make_windows(train_vals, lookback), cfg)


def run_schema(
    ts: TimeSeries,
    schema: str,
    cfg: TrainConfig,
    train_start: dt.date,
    train_end: dt.date,
    horizon: int = 15,
    lookback: int = 1,
    model: LstmModel | None = None,
) -> ForecastRun:
    """Execute one of the forecasting protocols over the test horizon.

    u1: one step ahead per test day from the most recent observed values.
    u2: recursive 15-day forecast, cases only, no access to test actuals.
    u3: like u2 with (cases, deaths) as input and output; cases are scored.

    Without `model`, one is trained with `cfg` first; with it, the model's
    own configuration (its activation) is used.
    """
    forecast_dates, actuals = forecast_horizon(ts, train_end, horizon)
    if schema == "u1" and actuals is None:
        raise WindowError("u1 needs observed values over the whole horizon")
    spec, train_vals = _schema_training_values(ts, schema, train_start, train_end)
    if model is None:
        model = train(make_windows(train_vals, lookback), cfg)
    activation = model.config.activation

    def predict(window):
        return forward(model.params, window, activation)[0]

    if schema == "u1":
        all_vals = spec.normalize(ts.channels(bivariate=False))
        preds = []
        for date in forecast_dates:
            j = (date - ts.start).days
            if j < lookback:
                raise WindowError("not enough history before the first test day")
            preds.append(predict(all_vals[j - lookback : j]))
        preds = np.array(preds)
    else:
        preds = forecast_recursive(predict, train_vals[-lookback:], horizon)

    denorm = spec.denormalize(preds)
    forecasts = denorm[:, 0]
    if not np.all(np.isfinite(forecasts)):
        raise NonFiniteForecastError(f"non-finite forecast under schema {schema}")
    return ForecastRun(schema, train_start, train_end, forecast_dates, forecasts, actuals)
