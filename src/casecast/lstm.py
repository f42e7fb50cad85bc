"""LSTM forecaster built from scratch: forward pass, exact
backpropagation through time, Adam, and the three forecasting schemas
(u1 one-step teacher-forced, u2 recursive, u3 recursive bivariate).

Gate layout: the four gate blocks are stacked row-wise in the order
input, forget, output, candidate, so one matvec per source covers all
gates. `forward` is the one implementation of the cell; callers that
need a single gate slice the stacked arrays (block k is rows k*H..(k+1)*H).

Member axis: `forward` and `bptt_gradient` take only a stack of E
independent models (`LstmParams.stack`) and advance all of them in one call;
one model is the stack `LstmParams.stack([params])`. `adam_update` is
elementwise, so it steps a stack as it steps one model. `train` runs an
ensemble in lockstep this way. Every stacked operation is a per-member
matmul, a broadcast or an elementwise op, so row e of each result is bitwise
what a stack of member e alone would give.

Contiguity: a step on a stack is some 75 small numpy calls, and a call on a
strided operand costs two to three times one on a contiguous operand of the
same size. So a stack's `flat` is name-major (every member's wx, then every
member's b, ...), which makes each named array one contiguous block, and
inside a step the gates are gate-major, (4, E, H), which makes each gate of
all members one contiguous block. Neither layout changes a product's
operands or an elementwise op's values, so neither changes a bit.

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
from dataclasses import dataclass, field, fields

import numpy as np

from .data import (
    TimeSeries,
    WindowedDataset,
    WindowError,
    fit_normalizer,
    forecast_horizon,
    make_windows,
    observed_horizon,
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

    A stack of E models of one hidden size (`stack`) has the same views with a
    leading member axis, wx (E, 4H, D) and so on, D the widest member's input
    width. Its `flat` is one (E*P,) vector laid out name-major: the wx of
    every member, then every b, dense_w, dense_b and wh, so each named array
    is one C-contiguous block and the blocks before wh are again a prefix.
    `widths` holds each member's own width (None for one model).
    """

    NAMES = ("wx", "b", "dense_w", "dense_b", "wh")

    def __init__(self, wx, wh, b, dense_w, dense_b):
        arrays = [np.asarray(a, dtype=float) for a in (wx, b, dense_w, dense_b, wh)]
        self._bind(np.concatenate([a.ravel() for a in arrays]), [a.shape for a in arrays], None)

    def _bind(self, flat, shapes, widths):
        """Point the named arrays at the 1-D `flat`, name-major for a stack;
        `shapes` are one model's."""
        self.flat, self._shapes, self.widths = flat, shapes, widths
        lead = () if widths is None else (len(widths),)
        start = 0
        for name, shape in zip(self.NAMES, shapes):
            end = start + math.prod(lead + shape)
            setattr(self, name, flat[start:end].reshape(lead + shape))
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

    def zeros_like(self) -> "LstmParams":
        """Parameters of the same shapes, all zero (a gradient accumulator)."""
        return self._on(np.zeros(self.flat.shape), self.widths)

    @classmethod
    def stack(cls, members: list["LstmParams"]) -> "LstmParams":
        """E models of one hidden size as one stack, on a new (E*P,) `flat`;
        each is zero-padded to the widest input width (its wx columns,
        dense_w rows and dense_b entries past its own width stay zero)."""
        widths = tuple(m.input_dim for m in members)
        widest = members[widths.index(max(widths))]
        stack = widest._on(np.zeros(len(members) * widest.flat.size), widths)
        for e, member in enumerate(members):
            for name in cls.NAMES:
                a = getattr(member, name)
                getattr(stack, name)[e][tuple(slice(n) for n in a.shape)] = a
        return stack

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
    that width's members, as a slice when they are adjacent in the stack (a
    view) and as an index array otherwise (a copy)."""
    groups = []
    for width in dict.fromkeys(widths):
        rows = np.flatnonzero(np.array(widths) == width)
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        groups.append((width, rows))
    return tuple(groups)


def _gate_major(rows, hdim):
    """E contiguous rows of the four gate blocks, (E, 4H) or (E, 4H, 1), as
    a (4, E, H) view, gate k in [k]."""
    return rows.reshape(len(rows), 4, hdim).transpose(1, 0, 2)


def forward(params: LstmParams, inputs, g="elu"):
    """Run the sequence from zero state and apply the linear head to the
    final hidden vector. Each step is

        i = sigma(Wix x + Wih h + bi), f and o alike;
        c' = f*c + i*g(Wcx x + Wch h + bc); h' = o*g(c'),

    with the activation g applied both to the candidate and to the cell
    output. A stack of E models takes inputs (E, L, D) and one activation
    name or one per member, and returns y (E, D), each member's inputs and
    outputs zero beyond its own width. Returns (y, cache). The cache holds,
    over L steps and E members, everything bptt_gradient needs for an
    exact reverse pass: "x" (L, E, D); "h" and "c" (L+1, E, H), the states
    before each step and after the last; "ifo" (L, 3, E, H), the gates i, f
    and o; "g" (L, 2, E, H), g of the candidate pre-activation and g of the
    new cell state. A step holds its pre-activations gate-major too,
    (4, E, H), so each gate of all members is one contiguous block."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape[2:] != (params.input_dim,):
        raise ValueError(f"inputs of shape {inputs.shape}, expected (E, L, {params.input_dim})")
    members, steps = inputs.shape[:2]
    gfun, _ = _activation(g, members)
    hdim = params.hidden
    # the input term of every step in one matmul, still one product per
    # (member, step), so each is the one a per-step matvec would give;
    # read gate-major, (L, 4, E, H)
    xw = (params.wx[:, None] @ inputs[..., None]).reshape(members, steps, 4, hdim)
    xw = xw.transpose(1, 2, 0, 3)
    b = _gate_major(params.b, hdim)
    h = np.zeros((steps + 1, members, hdim))
    c = np.zeros((steps + 1, members, hdim))
    ifo = np.empty((steps, 3, members, hdim))
    gv = np.empty((steps, 2, members, hdim))
    a = np.empty((4, members, hdim))
    hw = np.empty((members, 4 * hdim, 1))  # the recurrent term, one matvec per member
    hw_gates = _gate_major(hw, hdim)
    for t in range(steps):
        # the state starts at zero: step 0 has no recurrent term
        if t:
            np.matmul(params.wh, h[t, :, :, None], out=hw)
            np.add(xw[t], hw_gates, out=a)
            a += b
        else:
            np.add(xw[t], b, out=a)
        sigmoid(a[:3], out=ifo[t])
        gv[t, 0] = gfun(a[3])
        np.add(ifo[t, 1] * c[t], ifo[t, 0] * gv[t, 0], out=c[t + 1])
        gv[t, 1] = gfun(c[t + 1])
        np.multiply(ifo[t, 2], gv[t, 1], out=h[t + 1])
    y = np.zeros((members, params.input_dim))
    for width, rows in _width_groups(params.widths):
        y[rows, :width] = (
            _matvec(params.dense_w[rows, :width], h[steps][rows]) + params.dense_b[rows, :width]
        )
    cache = {"x": inputs.transpose(1, 0, 2), "h": h, "c": c, "ifo": ifo, "g": gv}
    return y, cache


def bptt_gradient(params: LstmParams, inputs, target, g="elu", out=None):
    """Exact gradient of the squared error ||y - target||^2 with respect to
    every parameter array, by reverse-mode differentiation through the
    unrolled recurrence. A stack of E models takes inputs (E, L, D) and
    targets (E, D), and returns the losses (E,) and the stacked gradients.

    The gradients go to a new stack, or into `out`, a stack of params'
    layout, whose entries are zeroed first, but for wh at lookback 1: that
    gradient is exactly zero (the state starts at zero), so it is neither
    zeroed nor written, and a zeroed `out` reused over steps keeps it zero."""
    y, cache = forward(params, inputs, g)
    _, dgfun = _activation(g, len(y))
    err = y - np.asarray(target, dtype=float)
    loss = (err[:, None, :] @ err[:, :, None])[:, 0, 0]

    hdim = params.hidden
    x, h, c, ifo, gv = (cache[k] for k in ("x", "h", "c", "ifo", "g"))
    # the factors that need no reverse-pass state, for every step at once
    dg, not_ifo = dgfun(gv), 1.0 - ifo
    if out is None:
        grads = params.zeros_like()
    else:
        grads = out
        grads.flat[: grads.flat.size - (grads.wh.size if len(x) == 1 else 0)] = 0.0
    two_err = 2.0 * err
    grads.dense_w += two_err[:, :, None] * h[-1][:, None, :]
    grads.dense_b += two_err

    dh = _matvec(params.dense_w.transpose(0, 2, 1), two_err)
    dc = np.zeros(dh.shape)
    d_ifo = np.empty(ifo.shape[1:])
    da = np.empty((4, len(y), hdim))
    # da's rows, (E, 4H, 1), the layout of the products with wx, wh and b
    da_rows = np.empty((len(y), 4 * hdim, 1))
    da_gates = _gate_major(da_rows, hdim)
    wh_t = params.wh.transpose(0, 2, 1)
    for t in reversed(range(len(x))):
        np.multiply(dh, gv[t, 1], out=d_ifo[2])
        dc = dc + dh * ifo[t, 2] * dg[t, 1]
        np.multiply(dc, gv[t, 0], out=d_ifo[0])
        np.multiply(dc, c[t], out=d_ifo[1])
        np.multiply(d_ifo * ifo[t], not_ifo[t], out=da[:3])
        np.multiply(dc * ifo[t, 0], dg[t, 0], out=da[3])
        da_gates[...] = da  # the step's one transposing copy
        grads.wx += da_rows * x[t, :, None, :]
        grads.b += da_rows[:, :, 0]
        if t:  # h[0] = 0 adds nothing to wh's gradient, and nothing flows past step 0
            grads.wh += da_rows * h[t, :, None, :]
            dh = (wh_t @ da_rows)[:, :, 0]
            dc = dc * ifo[t, 1]
    return loss, grads


@dataclass
class AdamState:
    """Adam's moment estimates, laid out like LstmParams.flat, the step
    count, the end of the prefix of flat that Adam steps (all of it, None,
    unless the entries past it get no gradient), and two scratch vectors of
    flat's size that each step writes its temporaries into."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    live: int | None = None
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty((2,) + self.m.shape)

    @classmethod
    def like(cls, params: LstmParams):
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_update(params: LstmParams, grads: LstmParams, state: AdamState, cfg: TrainConfig):
    """One Adam step with bias correction over the live prefix of the flat
    parameter vector, elementwise, so it steps every member of a stack at
    once; updates params and state in place. With lr, beta1, beta2 and eps
    the learning rate, betas and epsilon of `cfg`, each operation is the one of

        m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g;
        p -= lr * (m/bc1) / (sqrt(v/bc2) + eps),

    in that order, with the temporaries in `state.scratch`."""
    lr, beta1, beta2, eps = cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    live = slice(state.live)
    grad, m, v = grads.flat[live], state.m[live], state.v[live]
    step, denom = state.scratch[:, live]
    m *= beta1
    m += np.multiply(1.0 - beta1, grad, out=step)
    v *= beta2
    np.multiply(1.0 - beta2, grad, out=step)
    v += np.multiply(step, grad, out=step)
    np.multiply(lr, np.divide(m, bc1, out=step), out=step)
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += eps
    params.flat[live] -= np.divide(step, denom, out=step)


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
            raise ValueError(f"activation must be one of {tuple(ACTIVATIONS)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    grads = params.zeros_like()  # bptt_gradient refills it at every step
    state = AdamState.like(params)
    if dataset.inputs.shape[1] == 1:
        # one step from the zero state: wh gets no gradient, and Adam would
        # move it by exactly 0, so only the prefix before it is stepped
        state.live = params.flat.size - params.wh.size
    n = len(dataset)
    losses = np.empty((cfg.epochs, len(cfgs)))
    for epoch in range(cfg.epochs):
        total = np.zeros(len(cfgs))
        # row j holds every member's j-th sample of this epoch
        for ks in np.stack([rng.permutation(n) for rng in rngs], axis=1):
            loss, grads = bptt_gradient(
                params, inputs[members, ks], targets[members, ks], activations, grads
            )
            total += loss
            adam_update(params, grads, state, cfg)
        losses[epoch] = total / n
        diverged = np.flatnonzero(~np.isfinite(losses[epoch]))
        if diverged.size:
            raise TrainingDivergedError(epoch + 1, cfgs[diverged[0]])
    return [
        LstmModel(params.member(e), c, losses[:, e].tolist()) for e, c in enumerate(cfgs)
    ]


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
    *,
    model: LstmModel,
) -> ForecastRun:
    """Execute one of the forecasting protocols over the test horizon with
    a trained `model`, under the model's own configuration (its activation).

    Every schema starts from the last `lookback` normalised training days,
    forecasts one day, appends a day to the window and drops the oldest:

    u1: appends the observed day, so each forecast is one step ahead of
        observed history;
    u2: appends its own forecast, cases only, no access to test actuals;
    u3: like u2 with (cases, deaths) as input and output; cases are scored.

    A training window shorter than `lookback`, or a u1 horizon the series
    does not cover, is a WindowError. `cfg` is not read; the benchmark still
    passes it by position.
    """
    horizon_of = observed_horizon if schema == "u1" else forecast_horizon
    forecast_dates, actuals = horizon_of(ts, train_end, horizon)
    spec, train_vals = _schema_training_values(ts, schema, train_start, train_end)
    if len(train_vals) < lookback:
        raise WindowError("not enough history before the first test day")
    params, activation = LstmParams.stack([model.params]), model.config.activation
    preds = np.empty((horizon, train_vals.shape[1]))
    fed_back = spec.normalize(actuals[:, None]) if schema == "u1" else preds
    window = train_vals[-lookback:]
    for k in range(horizon):
        preds[k] = forward(params, window[None], activation)[0][0]
        window = np.vstack([window[1:], fed_back[k]])

    forecasts = spec.denormalize(preds)[:, 0]
    if not np.all(np.isfinite(forecasts)):
        raise NonFiniteForecastError(f"non-finite forecast under schema {schema}")
    return ForecastRun(forecast_dates, forecasts, actuals)
