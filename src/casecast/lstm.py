"""LSTM forecaster built from scratch: forward pass, exact
backpropagation through time, Adam, and the three forecasting schemas
(u1 one-step teacher-forced, u2 recursive, u3 recursive bivariate).

Gate layout: the four gate blocks are stacked row-wise in the order
input, forget, output, candidate, so one matvec per source covers all
gates. `forward` is the one implementation of the cell; callers that
need a single gate slice the stacked arrays (block k is rows k*H..(k+1)*H).

Member axis: `forward`, `bptt_gradient` and `adam_update` also take a stack
of E independent models (`LstmParams.stack`) and advance all of them in one
call, which is how `train` runs an ensemble in lockstep. Every stacked
operation is a per-member matmul, a broadcast or an elementwise op, so row e
of each result is bitwise what member e alone would give.

Members may differ in input width D: the stack zero-pads each to the widest.
A padded entry adds only products with a zero to a sum, which leaves the sum
exact, and gets a zero gradient, so Adam never moves it. The one exception
is the dense head: numpy computes a one-row product with a different kernel
than a two-row one, whose bits differ, so `forward` computes the head once
per distinct width, each member at its own width.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
from dataclasses import dataclass, fields

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
    def __init__(self, epoch: int, cfg: TrainConfig):
        super().__init__(
            f"non-finite training loss at epoch {epoch} "
            f"(activation {cfg.activation}, seed {cfg.seed})"
        )
        self.epoch = epoch


class NonFiniteForecastError(Exception):
    """A trained model forecast a NaN or an infinity."""


def elu(x):
    """x for x > 0, exp(x) - 1 otherwise (alpha = 1)."""
    x = np.asarray(x, dtype=float)
    # expm1 only where x <= 0: on a large positive x it would overflow
    return np.expm1(x, out=x.copy(), where=x <= 0)


def _elu_grad(fx):
    # 1 where x > 0 (there fx + 1 = x + 1 > 1), else fx + 1 = exp(x) <= 1
    return np.minimum(fx + 1.0, 1.0)


def _tanh_grad(fx):
    return 1.0 - fx * fx


# name -> (g, dg); dg takes the activation value fx = g(x)
ACTIVATIONS = {
    "elu": (elu, _elu_grad),
    "tanh": (np.tanh, _tanh_grad),
}


def _activation(g, members: int):
    """(g, dg) for a stack of `members`: `g` is one activation name for all
    of them or a sequence of names, one per member."""
    if isinstance(g, str):
        return ACTIVATIONS[g]
    g = tuple(g)
    if len(g) != members:
        raise ValueError(f"{len(g)} activations for {members} members")
    return ACTIVATIONS[g[0]] if len(set(g)) == 1 else _mixed_activation(g)


@functools.lru_cache
def _mixed_activation(names: tuple[str, ...]):
    """Each activation is applied to every row, and np.where keeps each
    member's own, so every row is exactly its activation's value."""
    masks = {name: np.array([n == name for n in names])[:, None] for name in dict.fromkeys(names)}

    def select(k, x):
        out = None
        for name, mask in masks.items():
            value = ACTIVATIONS[name][k](x)
            out = value if out is None else np.where(mask, value, out)
        return out

    return functools.partial(select, 0), functools.partial(select, 1)


# the doubles next to 0 and 1: 1 / (1 + exp(-x)) rounds to exactly 1.0 once
# x > ~36.7 and to 0.0 once exp overflows (x < ~-709.8); sigmoid clamps to these
# so a gate is never exactly shut or exactly open
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid(x, out=None):
    """Logistic function with values strictly inside (0, 1)."""
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
    return np.maximum(np.minimum(y, _SIGMOID_HI), _SIGMOID_LO, out=out)


def _matvec(w, v):
    """Row e is w[e] @ v[e]. Stacked np.matmul runs, per member, the same
    BLAS kernel as the 2-D product of one model, also for a transposed w
    (np.einsum does not)."""
    return (w @ v[:, :, None])[:, :, 0]


class LstmParams:
    """All weights of one LSTM layer plus the linear dense head, stored in one
    contiguous float64 vector `flat`. The five named arrays are reshaped views
    into it, laid out in the order of NAMES:

    wx (4H, D) input-to-gate, rows stacked i|f|o|c; b (4H,); dense_w (D_out, H);
    dense_b (D_out,); wh (4H, H) hidden-to-gate, last, so the rest is a prefix.

    A stack of E models of one hidden size (`stack`) has `flat` of shape
    (E, P) and the same views with a leading member axis: wx (E, 4H, D) and
    so on, D the widest member's input width. `widths` holds each member's
    own width (None for one model).
    """

    NAMES = ("wx", "b", "dense_w", "dense_b", "wh")

    def __init__(self, wx, wh, b, dense_w, dense_b):
        arrays = [np.asarray(a, dtype=float) for a in (wx, b, dense_w, dense_b, wh)]
        self._bind(np.concatenate([a.ravel() for a in arrays]), [a.shape for a in arrays], None)

    def _bind(self, flat, shapes, widths):
        """Point the named arrays at `flat`, (P,) or (E, P); `shapes` are
        one model's."""
        self.flat, self._shapes, self.widths = flat, shapes, widths
        start = 0
        for name, shape in zip(self.NAMES, shapes):
            end = start + math.prod(shape)
            setattr(self, name, flat[..., start:end].reshape(flat.shape[:-1] + shape))
            start = end

    def _on(self, flat, widths):
        """Parameters of this layout whose views lie on `flat`."""
        params = object.__new__(LstmParams)
        params._bind(flat, self._shapes, widths)
        return params

    @property
    def hidden(self) -> int:
        return self.wh.shape[-1]

    @property
    def input_dim(self) -> int:
        return self.wx.shape[-1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.NAMES}

    def zeros_like(self) -> "LstmParams":
        """Parameters of the same shapes, all zero (a gradient accumulator)."""
        return self._on(np.zeros(self.flat.shape), self.widths)

    def _widened(self, width: int) -> "LstmParams":
        """This model with zero input columns, head rows and head biases
        appended up to input width `width`."""
        pad = width - self.input_dim
        return LstmParams(
            np.pad(self.wx, ((0, 0), (0, pad))), self.wh, self.b,
            np.pad(self.dense_w, ((0, pad), (0, 0))), np.pad(self.dense_b, (0, pad)),
        )

    @classmethod
    def stack(cls, members: list["LstmParams"]) -> "LstmParams":
        """E models of one hidden size as one stack, on a new (E, P) `flat`;
        each is zero-padded to the widest input width."""
        widths = tuple(m.input_dim for m in members)
        padded = [m._widened(max(widths)) for m in members]
        return padded[0]._on(np.stack([m.flat for m in padded]), widths)

    def stacked(self) -> "LstmParams":
        """One model as a stack of one member, sharing its storage."""
        return self._on(self.flat[None], (self.input_dim,))

    def member(self, e: int) -> "LstmParams":
        """Member e of a stack as one model of its own input width, on new
        contiguous storage."""
        width = self.widths[e]
        return LstmParams(
            self.wx[e, :, :width], self.wh[e], self.b[e],
            self.dense_w[e, :width], self.dense_b[e, :width],
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


@functools.lru_cache
def _width_groups(widths: tuple[int, ...]):
    """(width, rows) for each distinct member width of a stack; rows selects
    that width's members, and is every row when all share one width."""
    if len(set(widths)) == 1:
        return ((widths[0], slice(None)),)
    return tuple((w, np.flatnonzero(np.array(widths) == w)) for w in dict.fromkeys(widths))


def forward(params: LstmParams, inputs, g="elu"):
    """Run the sequence from zero state and apply the linear head to the
    final hidden vector. Each step is

        i = sigma(Wix x + Wih h + bi), f and o alike;
        c' = f*c + i*g(Wcx x + Wch h + bc); h' = o*g(c'),

    with the activation g applied both to the candidate and to the cell
    output. One model takes inputs (L, D) and returns y (D,); a stack of E
    takes inputs (E, L, D), one activation name or one per member, and
    returns y (E, D), each member's inputs and outputs zero beyond its own
    width. Returns (y, cache). The cache holds, over L steps and
    E members (E = 1 for one model), everything bptt_gradient needs for an
    exact reverse pass: "x" (L, E, D); "h" and "c" (L+1, E, H), the states
    before each step and after the last; "ifo" (L, E, 3H), the gates;
    "g_in" and "gc" (L, E, H): g of the candidate pre-activation and g of
    the new cell state."""
    inputs = np.asarray(inputs, dtype=float)
    one = params.flat.ndim == 1
    if one:
        params, inputs = params.stacked(), np.atleast_2d(inputs)[None]
    if inputs.shape[2] != params.input_dim:
        raise ValueError(f"input dim {inputs.shape[2]}, expected {params.input_dim}")
    members, steps = inputs.shape[:2]
    gfun, _ = _activation(g, members)
    hdim = params.hidden
    # the input term of every step in one matmul, still one product per
    # (member, step), so each is the one a per-step matvec would give
    xw = (params.wx[:, None] @ inputs[..., None])[..., 0]
    h = np.zeros((steps + 1, members, hdim))
    c = np.zeros((steps + 1, members, hdim))
    ifo = np.empty((steps, members, 3 * hdim))
    g_in, gc = np.empty((2, steps, members, hdim))
    for t in range(steps):
        # the state starts at zero: step 0 has no recurrent term
        a = xw[:, t] + _matvec(params.wh, h[t]) + params.b if t else xw[:, t] + params.b
        sigmoid(a[:, : 3 * hdim], out=ifo[t])
        i, f, o = ifo[t, :, :hdim], ifo[t, :, hdim : 2 * hdim], ifo[t, :, 2 * hdim :]
        g_in[t] = gfun(a[:, 3 * hdim :])
        np.add(f * c[t], i * g_in[t], out=c[t + 1])
        gc[t] = gfun(c[t + 1])
        np.multiply(o, gc[t], out=h[t + 1])
    y = np.zeros((members, params.input_dim))
    for width, rows in _width_groups(params.widths):
        y[rows, :width] = (
            _matvec(params.dense_w[rows, :width], h[steps][rows]) + params.dense_b[rows, :width]
        )
    cache = {"x": inputs.transpose(1, 0, 2), "h": h, "c": c, "ifo": ifo, "g_in": g_in, "gc": gc}
    return (y[0] if one else y), cache


def bptt_gradient(params: LstmParams, inputs, target, g="elu"):
    """Exact gradient of the squared error ||y - target||^2 with respect to
    every parameter array, by reverse-mode differentiation through the
    unrolled recurrence. One model returns (loss, grads), grads an
    LstmParams; a stack (inputs (E, L, D), targets (E, D)) returns the
    losses (E,) and the stacked gradients."""
    one = params.flat.ndim == 1
    if one:
        params = params.stacked()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))[None]
        target = np.asarray(target, dtype=float)[None]
    y, cache = forward(params, inputs, g)
    _, dgfun = _activation(g, len(y))
    err = y - np.asarray(target, dtype=float)
    loss = (err[:, None, :] @ err[:, :, None])[:, 0, 0]

    hdim = params.hidden
    x, h, c, ifo, g_in, gc = (cache[k] for k in ("x", "h", "c", "ifo", "g_in", "gc"))
    # the factors that need no reverse-pass state, for every step at once
    dgc, dga, not_ifo = dgfun(gc), dgfun(g_in), 1.0 - ifo
    grads = params.zeros_like()
    grads.dense_w += (2.0 * err)[:, :, None] * h[-1][:, None, :]
    grads.dense_b += 2.0 * err

    dh = _matvec(params.dense_w.transpose(0, 2, 1), 2.0 * err)
    dc = np.zeros(dh.shape)
    d_ifo = np.empty((len(y), 3 * hdim))
    da = np.empty((len(y), 4 * hdim))
    for t in reversed(range(len(x))):
        i, f, o = ifo[t, :, :hdim], ifo[t, :, hdim : 2 * hdim], ifo[t, :, 2 * hdim :]
        np.multiply(dh, gc[t], out=d_ifo[:, 2 * hdim :])
        dc = dc + dh * o * dgc[t]
        np.multiply(dc, g_in[t], out=d_ifo[:, :hdim])
        np.multiply(dc, c[t], out=d_ifo[:, hdim : 2 * hdim])
        np.multiply(d_ifo * ifo[t], not_ifo[t], out=da[:, : 3 * hdim])
        np.multiply(dc * i, dga[t], out=da[:, 3 * hdim :])
        grads.wx += da[:, :, None] * x[t][:, None, :]
        grads.b += da
        if t:  # h[0] = 0 adds nothing to wh's gradient, and nothing flows past step 0
            grads.wh += da[:, :, None] * h[t][:, None, :]
            dh = _matvec(params.wh.transpose(0, 2, 1), da)
            dc = dc * f
    if one:
        return float(loss[0]), grads.member(0)
    return loss, grads


@dataclass
class AdamState:
    """Adam's moment estimates, laid out like LstmParams.flat (one row per
    member of a stack), the step count, and the end of the prefix of flat that
    Adam steps: all of it (None) unless the entries past it get no gradient."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    live: int | None = None

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
    """One Adam step with bias correction over the live prefix of the flat
    parameter vector, elementwise, so it steps every member of a stack at
    once; updates params and state in place."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    live = np.s_[..., : state.live]
    grad, m, v = grads.flat[live], state.m[live], state.v[live]
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    params.flat[live] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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


def train(
    dataset: WindowedDataset, cfg: TrainConfig, *others: tuple[WindowedDataset, TrainConfig]
) -> list[LstmModel]:
    """Batch-size-1 training of one model per (dataset, config) member, all
    in lockstep: each step takes one sample per member and one Adam step for
    all of them. The first member is (dataset, cfg); `others` are the rest.

    Each member draws its Glorot init and its per-epoch sample order from
    its own np.random.default_rng(seed), so every returned model is bitwise
    the one `train(its_dataset, its_config)` gives alone. Members' datasets
    must share the window count and the lookback and may differ in channel
    count; their configs may differ only in seed and activation. If a mean
    epoch loss is non-finite, TrainingDivergedError names the lowest-index
    member diverging at the earliest such epoch."""
    datasets = (dataset, *(d for d, _ in others))
    cfgs = (cfg, *(c for _, c in others))
    for other in cfgs[1:]:
        differ = [f.name for f in fields(TrainConfig)
                  if getattr(other, f.name) != getattr(cfg, f.name)
                  and f.name not in ("seed", "activation")]
        if differ:
            raise ValueError(
                f"ensemble members may differ only in seed and activation, not in {differ}"
            )
    for other in datasets[1:]:
        if other.inputs.shape[:2] != dataset.inputs.shape[:2]:
            raise ValueError(
                "ensemble members must share the window count and the lookback, "
                f"not {other.inputs.shape[:2]} and {dataset.inputs.shape[:2]}"
            )
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    params = LstmParams.stack([
        LstmParams.glorot(cfg.hidden, d.inputs.shape[2], rng) for d, rng in zip(datasets, rngs)
    ])
    # (E, n, L, D) and (E, n, D), every member zero-padded to the widest
    inputs = np.zeros((len(cfgs),) + dataset.inputs.shape[:2] + (params.input_dim,))
    targets = np.zeros((len(cfgs), len(dataset), params.input_dim))
    for e, d in enumerate(datasets):
        inputs[e, ..., : d.inputs.shape[2]] = d.inputs
        targets[e, :, : d.targets.shape[1]] = d.targets
    members = np.arange(len(cfgs))
    activations = tuple(c.activation for c in cfgs)
    state = AdamState.like(params)
    if dataset.inputs.shape[1] == 1:
        # one step from the zero state: wh gets no gradient, and Adam would
        # move it by exactly 0, so only the prefix before it is stepped
        state.live = params.flat.shape[-1] - params.wh[0].size
    n = len(dataset)
    losses = np.empty((cfg.epochs, len(cfgs)))
    for epoch in range(cfg.epochs):
        total = np.zeros(len(cfgs))
        # row j holds every member's j-th sample of this epoch
        for ks in np.stack([rng.permutation(n) for rng in rngs], axis=1):
            loss, grads = bptt_gradient(
                params, inputs[members, ks], targets[members, ks], activations
            )
            total += loss
            adam_update(
                params, grads, state, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon
            )
        losses[epoch] = total / n
        diverged = np.flatnonzero(~np.isfinite(losses[epoch]))
        if diverged.size:
            raise TrainingDivergedError(epoch + 1, cfgs[diverged[0]])
    return [
        LstmModel(params.member(e), c, losses[:, e].tolist()) for e, c in enumerate(cfgs)
    ]


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


def train_schema_models(
    ts: TimeSeries,
    members: list[tuple[str, TrainConfig]],
    train_start: dt.date,
    train_end: dt.date,
    lookback: int = 1,
) -> list[LstmModel]:
    """Fit one model per (schema, config) member on its schema's training
    window, all as one lockstep ensemble (see `train`). u1 and u2 share the
    same (univariate) training path; u3 is bivariate."""
    datasets = {}
    for schema, _ in members:
        if schema not in datasets:
            _, train_vals = _schema_training_values(ts, schema, train_start, train_end)
            datasets[schema] = make_windows(train_vals, lookback)
    (schema, cfg), *others = members
    return train(datasets[schema], cfg, *((datasets[s], c) for s, c in others))


def train_schema_model(
    ts: TimeSeries,
    schema: str,
    cfg: TrainConfig,
    train_start: dt.date,
    train_end: dt.date,
    lookback: int = 1,
) -> LstmModel:
    """`train_schema_models` for one member."""
    (model,) = train_schema_models(ts, [(schema, cfg)], train_start, train_end, lookback)
    return model


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
        (model,) = train(make_windows(train_vals, lookback), cfg)
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
    return ForecastRun(forecast_dates, forecasts, actuals)
