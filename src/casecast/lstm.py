"""LSTM forecaster built from scratch: forward pass, exact
backpropagation through time, Adam, and the three forecasting schemas
(u1 one-step teacher-forced, u2 recursive, u3 recursive bivariate).

Gate layout: the four gate blocks are stacked row-wise in the order
input, forget, output, candidate, so one matvec per source covers all
gates. `forward` is the one implementation of the cell; callers that
need a single gate slice the stacked arrays (block k is rows k*H..(k+1)*H).

Member axis: every `LstmParams` is a stack of E independent models, and one
model is a stack of one (E = 1). `forward` and `bptt_gradient` advance all
members in one call. `adam_update` is elementwise, so it steps a stack of
any size alike. `train` runs an ensemble in lockstep this way. Every stacked
operation is a per-member matmul, a broadcast or an elementwise op, so row e
of each result is bitwise what a stack of member e alone would give.

Contiguity: a training step on a stack is some 75 small numpy calls at
lookback 1 and some 33 more per further time step, and a call on a strided
operand costs two to three times one on a contiguous operand of the same
size. So a stack's `flat` is name-major (every member's wx, then every
member's b, ...), which makes each named array one contiguous block, and
inside a step the gates are gate-major, (4, E, H), which makes each gate of
all members one contiguous block. Neither layout changes a product's
operands or an elementwise op's values, so neither changes a bit.

Workspace: such a step is limited by the fixed cost of each numpy call, not
by its arithmetic, so a step writes into arrays allocated once and reads
views of them built once. `train` builds one `Workspace` for its stack's
(E, L, D, H) and activations. Besides the parameters, every array a
training step writes lies in the workspace, or, for Adam's moments and
temporaries, in the `AdamState`. The workspace holds the states, gates
and activation values of every step, which the reverse pass reads, the
forward step's temporaries and output, the reverse pass's dc, d_ifo and da,
a store of every step's da rows, and the gradient stack. It allocates each
of these itself, one buffer of its exact shape per array, or holds it as a
view of one that it allocated, and holds no view of params or of a caller's
array. It also holds, one tuple per step, every view of its buffers that the
forward and reverse loops touch, and both loops pass `out` by position: a
multiply that builds its operands' views costs about 450 ns, one on views
built in advance with `out` passed by position about 250 ns. `forward` and
`bptt_gradient` take the workspace as an argument, and it alone carries the
activations; `run_schema` builds one per forecast and reuses it on every
day. What they return lies in the workspace and is valid until the
workspace's next call. The operands read from the parameters are bound
once too, by `LstmParams` itself, with `flat`: wx as columns, b gate-major,
wh and dense_w transposed, and each width group's dense_w and dense_b
blocks. They stay valid because `flat` is only ever written in
place (Adam subtracts from it) and no code rebinds it or a named array, so
every caller, `train`, `run_schema` and a checkpoint's model alike, reads
the same views. `AdamState` needs no views: it allocates its moments and
temporaries at exactly the size of the prefix of `flat` that it steps.

Two more rules follow from the fixed cost of a call. A masked ufunc
(`where=`) costs about five times an unmasked one on a (4, 32) array, 1.6
against 0.31 us, and allocates its mask, so `elu` makes four unmasked calls
instead of one masked one. A Python-float operand costs some 0.1 us more
per call than a 0-d float64 array (np.subtract(1.0, x, out) 0.37 us, with
a 0-d 1.0 0.26 us), and the same double gives the same result. So the
kernels' constants are 0-d arrays made at import, and each `AdamState`
holds Adam's settings as 0-d arrays, made when it is built.

The reverse loop carries only the recurrence and fills the store; the wx, b
and wh gradients are then each one product and one np.add.reduce over the
store's step axis. wx's terms are laid out (L, E, D, 4H), gate axis
innermost, and summed into wx transposed, so their product's inner loop
runs over 4H, not over D. Each sum is bitwise the per-step one: the store
runs in the loop's order, t = L-1 first, and numpy adds a non-innermost axis
in index order, so each sum adds the same terms in the same order. Only the
sign of a zero sum may differ, -0.0 where accumulating into a zeroed stack
gave +0.0, and Adam, whose moments start at +0.0, steps both to the same
bits.

Members may differ in input width D: the stack zero-pads each to the widest.
A padded entry adds only products with a zero to a sum, which leaves the sum
exact, and gets a zero gradient, so Adam never moves it. The one exception
is the dense head: numpy computes a one-row product with a different kernel
than a two-row one, whose bits differ, so `forward` computes the head once
per distinct width, each member at its own width. The members of one width
are adjacent in a stack, a rule `LstmParams` enforces, so each width's head
is one product on views bound once. `train_schema_model` trains its members
univariate first, so any member list it is given keeps the rule.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .data import (
    DataError,
    TimeSeries,
    WindowedDataset,
    check_fields,
    fit_normalizer,
    forecast_horizon,
    make_windows,
    observed_horizon,
    slice_window,
)

SCHEMAS = ("u1", "u2", "u3")


class TrainingDivergedError(Exception):
    """A mean epoch loss turned non-finite at `epoch` (from 1) of the member
    trained with `cfg`. Its args are its constructor's, so it pickles."""

    def __init__(self, epoch: int, cfg: TrainConfig):
        super().__init__(epoch, cfg)
        self.epoch = epoch

    def __str__(self):
        epoch, cfg = self.args
        return (f"non-finite training loss at epoch {epoch} "
                f"(activation {cfg.activation}, seed {cfg.seed})")


class NonFiniteForecastError(Exception):
    """A trained model forecast a NaN or an infinity."""


# the kernels' constants as 0-d float64 operands: a ufunc converts a Python
# float operand on every call (see the module docstring), and the same double
# gives the same result
_ZERO, _ONE, _TWO = np.array(0.0), np.array(1.0), np.array(2.0)


def elu(x, out=None):
    """x for x > 0, exp(x) - 1 otherwise (alpha = 1), into `out` if given:
    x itself or an array that does not overlap x."""
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape)
    elif out is x:
        x = x.copy()  # out is written before x's last read
    # expm1 of min(x, 0), signed as x so -0.0 stays -0.0, never overflows,
    # and max(x, expm1(x)) = expm1(x) for x <= 0, as expm1(x) >= x there
    np.minimum(x, _ZERO, out=out)
    np.copysign(out, x, out)
    np.expm1(out, out)
    return np.maximum(x, out, out=out)


def _elu_grad(fx, out=None):
    # 1 where x > 0 (there fx + 1 = x + 1 > 1), else fx + 1 = exp(x) <= 1
    out = np.add(fx, _ONE, out)
    return np.minimum(out, _ONE, out=out)


def _tanh_grad(fx, out=None):
    out = np.multiply(fx, fx, out)
    return np.subtract(_ONE, out, out)


# name -> (g, dg); dg takes the activation value fx = g(x). Each is called
# as f(x, out=None) and returns out, a new array when out is None
ACTIVATIONS = {
    "elu": (elu, _elu_grad),
    "tanh": (np.tanh, _tanh_grad),
}


def _activation(names, members: int):
    """(g, dg) for a stack of `members`, from a sequence of activation names,
    one per member."""
    names = tuple(names)
    if len(names) != members or not set(names) <= ACTIVATIONS.keys():
        raise ValueError(f"activations {names} for {members} members: "
                         f"expected one of {tuple(ACTIVATIONS)} per member")
    return ACTIVATIONS[names[0]] if len(set(names)) == 1 else _mixed_activation(names)


def _mixed_activation(names: tuple[str, ...]):
    """The first activation writes every row, and each other one copies its
    value into its own members' rows, so every row is exactly its
    activation's value. Each activation's functions are looked up here,
    once."""
    first, *rest = dict.fromkeys(names)
    masks = {name: np.array([n == name for n in names])[:, None] for name in rest}

    def bound(k):
        head = ACTIVATIONS[first][k]
        others = [(ACTIVATIONS[name][k], mask) for name, mask in masks.items()]

        def select(x, out=None):
            out = head(x, out)
            for fn, mask in others:
                np.copyto(out, fn(x), where=mask)
            return out

        return select

    return bound(0), bound(1)


# the doubles next to 0 and 1: 1 / (1 + exp(-x)) rounds to exactly 1.0 once
# x > ~36.7 and to 0.0 once exp overflows (x < ~-709.8); _sigmoid clamps to
# these so a gate is never exactly shut or exactly open. They are 0-d
# arrays, which `clip` takes without converting a scalar on each call
_SIGMOID_LO = np.array(np.nextafter(0.0, 1.0))
_SIGMOID_HI = np.array(np.nextafter(1.0, 0.0))


def _sigmoid(x, out):
    """The logistic function into `out`, with values strictly inside (0, 1),
    for a caller that ignores exp's overflow; a NaN stays NaN."""
    np.exp(np.negative(x, out), out)
    np.divide(_ONE, np.add(_ONE, out, out), out)
    return out.clip(_SIGMOID_LO, _SIGMOID_HI, out)


class LstmParams:
    """All weights of a stack of E LSTM layers of one hidden size, each with
    its linear dense head, stored in one contiguous float64 vector `flat`.
    The five named arrays are reshaped views into it, each with a leading
    member axis, laid out in the order of NAMES:

    wx (E, 4H, D) input-to-gate, rows stacked i|f|o|c; b (E, 4H);
    dense_w (E, D_out, H); dense_b (E, D_out); wh (E, 4H, H) hidden-to-gate,
    last, so the rest is a prefix.

    D is the widest member's input width, and `widths` holds each member's
    own. `flat` is one (E*P,) vector laid out name-major: the wx of every
    member, then every b, dense_w, dense_b and wh, so each named array is one
    C-contiguous block and the blocks before wh are again a prefix. The
    constructor and `glorot` take one model's arrays and give a stack of one,
    whose `flat` is those arrays concatenated in the order of NAMES.

    The operands the kernels read are bound with the named arrays, as views
    of `flat`: `wx_cols` (E, 1, 4H, D), wx ready for the input term of every
    step; `b_gates`, b gate-major (4, E, H); `wh_t` and `dense_w_t`, wh and
    dense_w transposed; and `head_blocks`, per width group of
    `_width_groups`, that group's dense_w and dense_b blocks. `flat` and the
    named arrays are only ever written in place, never rebound, so each view
    keeps reading the current weights.

    The members of one input width are adjacent in a stack: `stack` of
    widths that interleave, (1, 2, 1) say, is a ValueError naming them,
    raised when the views are bound, before any step.
    """

    NAMES = ("wx", "b", "dense_w", "dense_b", "wh")

    def __init__(self, wx, wh, b, dense_w, dense_b):
        arrays = [np.asarray(a, dtype=float) for a in (wx, b, dense_w, dense_b, wh)]
        flat = np.concatenate([a.ravel() for a in arrays])
        self._bind(flat, [a.shape for a in arrays], (arrays[0].shape[-1],))

    def _bind(self, flat, shapes, widths):
        """Point the named arrays and the kernels' operands at the 1-D
        `flat`, name-major; `shapes` are one member's."""
        self.flat, self._shapes, self.widths = flat, shapes, widths
        start = 0
        for name, shape in zip(self.NAMES, shapes):
            shape = (len(widths),) + shape
            end = start + math.prod(shape)
            setattr(self, name, flat[start:end].reshape(shape))
            start = end
        self.wx_cols = self.wx[:, None]
        self.b_gates = _gate_major(self.b, self.hidden)
        self.wh_t = self.wh.transpose(0, 2, 1)
        self.dense_w_t = self.dense_w.transpose(0, 2, 1)
        self.head_blocks = tuple((self.dense_w[rows, :width], self.dense_b[rows, :width])
                                 for width, rows in _width_groups(widths))

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
        """Stacks of one of one hidden size as one stack, on a new (E*P,)
        `flat`; each is zero-padded to the widest input width (its wx
        columns, dense_w rows and dense_b entries past its own width stay
        zero). The members of one width must be adjacent, or this is a
        ValueError."""
        widths = tuple(m.input_dim for m in members)
        widest = members[widths.index(max(widths))]
        stack = widest._on(np.zeros(len(members) * widest.flat.size), widths)
        for e, member in enumerate(members):
            for name in cls.NAMES:
                (a,) = getattr(member, name)
                getattr(stack, name)[e][tuple(slice(n) for n in a.shape)] = a
        return stack

    def member(self, e: int) -> "LstmParams":
        """Member e as a stack of one of its own input width, on new
        contiguous storage."""
        width = self.widths[e]
        return LstmParams(
            self.wx[e, :, :width], self.wh[e], self.b[e],
            self.dense_w[e, :width], self.dense_b[e, :width],
        )

    @classmethod
    def glorot(cls, hidden: int, input_dim: int, rng: np.random.Generator):
        """One model of Glorot-uniform weights per matrix and all biases
        zero, as a stack of one."""

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


def _width_groups(widths: tuple[int, ...]):
    """(width, rows) for each distinct member width of a stack, in the
    stack's order; rows is the slice of that width's members, which must be
    adjacent: a stack whose widths interleave is a ValueError naming them."""
    if len(set(widths)) != len(list(itertools.groupby(widths))):  # a width in two runs
        raise ValueError(f"the members of one input width must be adjacent in a stack, "
                         f"got widths {widths}")
    return tuple((width, slice(widths.index(width), widths.index(width) + widths.count(width)))
                 for width in dict.fromkeys(widths))


def _gate_major(rows, hdim):
    """E contiguous rows of the four gate blocks, (E, 4H) or (E, 4H, 1), as
    a (4, E, H) view, gate k in [k]."""
    return rows.reshape(len(rows), 4, hdim).transpose(1, 0, 2)


class Workspace:
    """Every array that `forward` and `bptt_gradient` write for a stack of E
    members of hidden size H and widest input width D, run over L steps under
    `activations`, one name per member. The kernels read the activations and
    the dense head's width groups only from here:

    - what `forward` leaves for the reverse pass: `h` and `c` (L+1, E, H),
      the states before each step and after the last, whose row 0 is the
      zero state and stays zero; `ifo` (L, 3, E, H), the gates i, f and o;
      `g` (L, 2, E, H), g of the candidate pre-activation and g of the new
      cell state; and the output `y` (E, D), whose entries past a member's
      own width stay zero;
    - the forward step's temporaries: the input terms of all steps, the
      recurrent term, the pre-activations and one (E, H) product, and one
      product buffer per dense-head group of adjacent members;
    - the reverse pass's error and losses, the activation derivatives and
      1 - ifo of all steps, dh, dc, d_ifo and da, and `store`, every
      step's da rows (L, E, 4H, 1) in the order the reverse loop visits
      them, t = L-1 first;
    - the products of the store with x and with h that the weight gradients
      sum, `x_terms` (L, E, D, 4H), gate axis innermost, and `h_terms`
      (L-1, E, 4H, H), and `grads`, the gradient stack, of params' layout.

    Each array is a buffer of its own, but for `hw_gates`, a gate-major view
    of `hw`. A call writes each of these it uses whole, but for the fixed
    zeros above and wh's gradient at lookback 1, which is exactly zero (the
    state starts at zero) and so is never written.

    The workspace also binds, once, every view of its buffers that a call
    reads or writes, so no step builds one. `forward_steps` and
    `reverse_steps` hold one tuple of views per step, in the order each loop
    visits the steps and unpacks the tuple, the gate-major views of `xw`
    and `store` among them; `a_ifo`, `a_c`, `d_gates`,
    `da_ifo`, `da_c` and `dh_rows` are fixed slices of the step's
    temporaries; `err_rows`, `err_cols`, `two_err_cols` (dense_b's
    gradient, 2 * err, as columns) and `h_last_rows` are the loss's and the
    dense head's operands; `store_rows`, `store_b` and `h_operands` are the
    store's operands in the gradient sums, and `wx_grad_t` the transposed
    wx gradient they sum into; and `heads` holds, per width group, its
    views of h and y and its product buffer. None of these views is of
    `params` or of a caller's array."""

    def __init__(self, params: LstmParams, steps: int, activations):
        members, hdim, width = len(params.widths), params.hidden, params.input_dim
        self.gfun, self.dgfun = _activation(activations, members)
        gates = 4 * hdim
        self.xw = np.empty((members, steps, gates, 1))
        # read gate-major, (L, 4, E, H)
        xw_gates = self.xw.reshape(members, steps, 4, hdim).transpose(1, 2, 0, 3)
        self.h = np.zeros((steps + 1, members, hdim))
        self.c = np.zeros((steps + 1, members, hdim))
        self.ifo = np.empty((steps, 3, members, hdim))
        self.g = np.empty((steps, 2, members, hdim))
        self.a = np.empty((4, members, hdim))
        self.hw = np.empty((members, gates, 1))  # the recurrent term, one matvec per member
        self.hw_gates = _gate_major(self.hw, hdim)
        self.tmp = np.empty((members, hdim))
        self.y = np.zeros((members, width))

        self.err = np.empty((members, width))
        self.loss = np.empty((members, 1, 1))
        self.dg = np.empty(self.g.shape)
        self.not_ifo = np.empty(self.ifo.shape)
        self.dh = np.empty((members, hdim, 1))
        self.dc = np.empty((members, hdim))
        self.d_ifo = np.empty((3, members, hdim))
        self.da = np.empty((4, members, hdim))
        # da's rows, the layout of the products with wx, wh and b; step s of
        # the reverse loop is t = L-1-s
        self.store = np.empty((steps, members, gates, 1))
        store_gates = self.store.reshape(steps, members, 4, hdim).transpose(0, 2, 1, 3)
        # the store's products with x and with h, which the wx and wh
        # gradients sum; h[0] = 0 adds nothing, so one step fewer for h
        self.x_terms = np.empty((steps, members, width, gates))
        self.h_terms = np.empty((steps - 1, members, gates, hdim))
        self.grads = params.zeros_like()

        # the views the kernels read, bound once (see the module docstring)
        self.a_ifo, self.a_c = self.a[:3], self.a[3]
        self.d_gates = tuple(self.d_ifo)  # i, f, o
        self.da_ifo, self.da_c = self.da[:3], self.da[3]
        self.dh_rows = self.dh[:, :, 0]
        # the loss's and the dense head's gradient operands
        self.err_rows, self.err_cols = self.err[:, None, :], self.err[:, :, None]
        self.two_err_cols = self.grads.dense_b[:, :, None]
        self.h_last_rows = self.h[-1][:, None, :]
        self.wx_grad_t = self.grads.wx.transpose(0, 2, 1)
        h_cols = self.h[..., None]  # (L+1, E, H, 1), wh's operand
        self.forward_steps = [
            (xw_gates[t], h_cols[t], self.ifo[t], *self.ifo[t], *self.g[t],
             self.c[t], self.c[t + 1], self.h[t + 1])
            for t in range(steps)
        ]
        self.reverse_steps = [
            (t, self.ifo[t], *self.ifo[t], *self.g[t], *self.dg[t], self.not_ifo[t], self.c[t],
             store_gates[s], self.store[s])
            for s, t in enumerate(reversed(range(steps)))
        ]
        # the store's operands in the gradient sums: its rows (L, E, 1, 4H)
        # for wx's terms, its columns for b's sum, and with h in the store's
        # step order for wh's terms
        self.store_rows = self.store.reshape(steps, members, 1, gates)
        self.store_b = self.store[..., 0]
        self.h_operands = (self.store[:-1], self.h[-2:0:-1, :, None, :])
        # per width group: h's last row as columns, the product, its rows
        # and y's block
        self.heads = []
        for group_width, rows in _width_groups(params.widths):
            product = np.empty((rows.stop - rows.start, group_width, 1))
            self.heads.append((h_cols[steps, rows], product, product[:, :, 0],
                               self.y[rows, :group_width]))


def forward(params: LstmParams, inputs, ws: Workspace):
    """Run the sequence from zero state and apply the linear head to the
    final hidden vector. Each step is

        i = sigma(Wix x + Wih h + bi), f and o alike;
        c' = f*c + i*g(Wcx x + Wch h + bc); h' = o*g(c'),

    with the activation g applied both to the candidate and to the cell
    output. A stack of E models takes inputs (E, L, D) and returns y (E, D),
    each member's inputs and outputs zero beyond its own width. Inputs of
    another shape, or of another L than `ws`'s, are a ValueError naming both. A step holds
    its pre-activations gate-major, (4, E, H), so each gate of all members is
    one contiguous block.

    `ws` is a Workspace built for this stack and L, and its activations are
    the g of each member. y is `ws.y`, and the call leaves in `ws` only what
    it computes, which with the inputs is all that `bptt_gradient` reads for
    an exact reverse pass: `ws.h`, `ws.c`, `ws.ifo` and `ws.g`. Each holds
    until the workspace's next call. Each step reads the views `ws` and
    `params` bound and passes `out` by position.

    A pre-activation below ~-709.8 overflows sigmoid's exp, harmlessly (see
    `_sigmoid`): the caller ignores exp's overflow, as `train` and
    `run_schema` do under np.errstate(over="ignore")."""
    inputs = np.asarray(inputs, dtype=float)
    expected = (len(params.widths), len(ws.forward_steps), params.input_dim)
    if inputs.shape != expected:
        raise ValueError(f"inputs of shape {inputs.shape}, expected {expected}")
    add, multiply, gfun, tmp = np.add, np.multiply, ws.gfun, ws.tmp
    a, a_ifo, a_c = ws.a, ws.a_ifo, ws.a_c
    # the input term of every step in one matmul, still one product per
    # (member, step), so each is the one a per-step matvec would give
    np.matmul(params.wx_cols, inputs[..., None], ws.xw)
    b, wh, hw, hw_gates = params.b_gates, params.wh, ws.hw, ws.hw_gates
    for t, (xw, h, ifo, i, f, o, g_in, g_c, c, c_new, h_new) in enumerate(ws.forward_steps):
        # the state starts at zero: step 0 has no recurrent term
        if t:
            np.matmul(wh, h, hw)
            add(xw, hw_gates, a)
            add(a, b, a)
        else:
            add(xw, b, a)
        _sigmoid(a_ifo, ifo)
        gfun(a_c, g_in)
        multiply(f, c, c_new)
        add(c_new, multiply(i, g_in, tmp), c_new)
        gfun(c_new, g_c)
        multiply(o, g_c, h_new)
    for (h_last, product, product_rows, y_rows), (w, bias) in zip(ws.heads, params.head_blocks):
        np.matmul(w, h_last, product)
        add(product_rows, bias, y_rows)
    return ws.y


def bptt_gradient(params: LstmParams, inputs, target, ws: Workspace):
    """Exact gradient of the squared error ||y - target||^2 with respect to
    every parameter array, by reverse-mode differentiation through the
    unrolled recurrence. A stack of E models takes inputs (E, L, D) and
    targets (E, D), and returns the losses (E,) and the stacked gradients.

    Both lie in `ws`, as `forward`'s results do; the reverse pass reads what
    `forward` left there and `inputs`, converted once here and read
    step-major. The reverse loop carries only the recurrence, dh and dc,
    and stores each step's da; after it, the wx, b and wh gradients are
    each summed over the store in one reduction. As for `forward`, the
    caller ignores exp's overflow."""
    inputs = np.asarray(inputs, dtype=float)
    y = forward(params, inputs, ws)
    add, multiply, tmp, dc, dh = np.add, np.multiply, ws.tmp, ws.dc, ws.dh_rows
    d_ifo, (d_i, d_f, d_o), da, da_ifo, da_c = ws.d_ifo, ws.d_gates, ws.da, ws.da_ifo, ws.da_c
    # the factors that need no reverse-pass state, for every step at once
    ws.dgfun(ws.g, ws.dg)
    np.subtract(_ONE, ws.ifo, ws.not_ifo)
    err = np.subtract(y, target, ws.err)
    np.matmul(ws.err_rows, ws.err_cols, ws.loss)

    grads, steps, two_err = ws.grads, len(ws.reverse_steps), ws.two_err_cols
    multiply(_TWO, err, grads.dense_b)
    multiply(two_err, ws.h_last_rows, grads.dense_w)
    np.matmul(params.dense_w_t, two_err, ws.dh)
    dc.fill(0.0)
    wh_t = params.wh_t
    for t, ifo, i, f, o, g_in, g_c, dg_in, dg_c, not_ifo, c, store_gates, store in (
            ws.reverse_steps):
        multiply(dh, g_c, d_o)
        add(dc, multiply(multiply(dh, o, tmp), dg_c, tmp), dc)
        multiply(dc, g_in, d_i)
        multiply(dc, c, d_f)
        multiply(multiply(d_ifo, ifo, d_ifo), not_ifo, da_ifo)
        multiply(multiply(dc, i, da_c), dg_in, da_c)
        store_gates[...] = da  # the step's one transposing copy
        if t:  # nothing flows past step 0
            np.matmul(wh_t, store, ws.dh)
            multiply(dc, f, dc)
    # numpy reduces a non-innermost axis in index order, which is the loop's
    # order, so each sum adds its terms as a per-step accumulation would
    multiply(ws.store_rows, inputs.transpose(1, 0, 2)[::-1, :, :, None], ws.x_terms)
    np.add.reduce(ws.x_terms, axis=0, out=ws.wx_grad_t)
    np.add.reduce(ws.store_b, axis=0, out=grads.b)
    if steps > 1:  # h[0] = 0 adds nothing to wh's gradient
        multiply(*ws.h_operands, ws.h_terms)
        np.add.reduce(ws.h_terms, axis=0, out=grads.wh)
    return ws.loss[:, 0, 0], grads


class AdamState:
    """Adam's run over one stack: its settings, the prefix of
    LstmParams.flat it steps, its moment estimates `m` and `v`, its two
    temporaries `step` and `denom`, and the step count `t`.

    `steps` is the lookback of the windows it trains on: at 1, `prefix` is
    the slice of flat before wh, and otherwise all of it. The four vectors
    are allocated at exactly the prefix's size, each a buffer of its own,
    which `adam_update` reads and writes whole.

    `operands` holds beta1, 1 - beta1, beta2, 1 - beta2, the learning rate
    and epsilon of `cfg`, each that Python expression's value as a 0-d
    float64 array (see the module docstring), and `beta1` and `beta2` the
    betas as floats, for the bias corrections. Every setting is read
    through float(), so two configs that compare equal step alike."""

    def __init__(self, params: LstmParams, cfg: TrainConfig, steps: int):
        # one step from the zero state: wh gets no gradient, and Adam would
        # move it by exactly 0, so only the prefix before it is stepped
        size = params.flat.size - params.wh.size if steps == 1 else params.flat.size
        self.prefix, self.t = slice(size), 0
        self.m, self.v, self.step, self.denom = (np.zeros(size) for _ in range(4))
        beta1, beta2 = self.beta1, self.beta2 = float(cfg.beta1), float(cfg.beta2)
        self.operands = tuple(np.array(value) for value in (
            beta1, 1.0 - beta1, beta2, 1.0 - beta2, float(cfg.learning_rate), float(cfg.epsilon)))


def adam_update(params: LstmParams, grads: LstmParams, state: AdamState):
    """One Adam step with bias correction over `state`'s prefix of the flat
    parameter vector, elementwise, so it steps every member of a stack at
    once; updates params and state in place. With lr, beta1, beta2 and eps
    the learning rate, betas and epsilon of `state`, each operation is the
    one of

        m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g;
        p -= lr * (m/bc1) / (sqrt(v/bc2) + eps),

    in that order, with m, v and the temporaries in `state`'s vectors and
    the settings its 0-d `operands`."""
    b1, one_b1, b2, one_b2, lr, eps = state.operands
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    grad, p = grads.flat[state.prefix], params.flat[state.prefix]
    m, v, step, denom = state.m, state.v, state.step, state.denom
    add, multiply, divide = np.add, np.multiply, np.divide
    multiply(m, b1, m)
    add(m, multiply(one_b1, grad, step), m)
    multiply(v, b2, v)
    multiply(one_b2, grad, step)
    add(v, multiply(step, grad, step), v)
    multiply(lr, divide(m, bc1, step), step)
    np.sqrt(divide(v, bc2, denom), denom)
    add(denom, eps, denom)
    np.subtract(p, divide(step, denom, step), p)  # one pass over the stepped parameters


# 500 times the paper's 2000: `train` allocates an (epochs, members) loss
# history up front, 160 MB for the 20-member acceptance ensemble at this cap
MAX_EPOCHS = 1_000_000


@dataclass(frozen=True)
class TrainConfig:
    """The training settings of one model. A setting of the wrong type or
    out of range is a ValueError naming it. The types are those of
    `data.check_value`: `epochs`, `hidden` and `seed` are ints or numpy
    integers, the four float settings real numbers (an int too, as a
    checkpoint may hold `1`), `activation` a str, and none a bool."""

    epochs: int = 2000
    hidden: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    activation: str = "elu"
    seed: int = 42

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.epochs > MAX_EPOCHS:
            raise ValueError(f"epochs must be <= {MAX_EPOCHS}")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        for name in ("learning_rate", "epsilon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a positive finite number")
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
    the one a one-member `train` call gives. Members' datasets must share
    the window count and the lookback and may differ in channel count, but
    the members of one channel count must be adjacent (see `LstmParams`):
    an interleaved member list is a ValueError before any step. Their
    configs may differ only in seed and activation. If a mean
    epoch loss is non-finite, TrainingDivergedError names the lowest-index
    member diverging at the earliest such epoch. numpy's floating-point
    warnings on the way there are silenced: that error is the one report."""
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
    ws = Workspace(params, dataset.inputs.shape[1], tuple(c.activation for c in cfgs))
    # the members' configs differ only in seed and activation: one state serves them all
    state = AdamState(params, cfg, dataset.inputs.shape[1])
    n = len(dataset)
    losses = np.empty((cfg.epochs, len(cfgs)))
    # a diverging member overflows on its way to a non-finite mean loss; the
    # check on that loss reports the divergence, numpy's warnings only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            total = np.zeros(len(cfgs))
            # row j holds every member's j-th sample of this epoch
            order = np.stack([rng.permutation(n) for rng in rngs], axis=1)
            for x, y in zip(inputs[members, order], targets[members, order]):
                loss, grads = bptt_gradient(params, x, y, ws)
                total += loss
                adam_update(params, grads, state)
            losses[epoch] = total / n
            finite = np.isfinite(losses[epoch])
            if not finite.all():  # argmin: the first False
                raise TrainingDivergedError(epoch + 1, cfgs[finite.argmin()])
    return [
        LstmModel(params.member(e), c, losses[:, e].tolist()) for e, c in enumerate(cfgs)
    ]


@dataclass(frozen=True)
class ForecastRun:
    forecasts: np.ndarray  # predicted total cases, original units


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
    ts: TimeSeries, members: list[tuple[str, TrainConfig]], train_start: dt.date,
    train_end: dt.date, lookback: int = 1,
) -> list[LstmModel]:
    """Fit a model for each (schema, config) member on the schema's
    normalised training window: the cases alone, or (cases, deaths) for u3.
    The u1 and u2 members of one config share one model, trained once. The
    distinct members train as one lockstep ensemble (see `train`), the
    univariate ones first and each kind in the order it first appears, so
    each width's members are adjacent in the stack, whatever the members'
    order, and each model is bitwise its one-member fit. A
    TrainingDivergedError names the first diverging member in that
    training order. Returns one model per member, in the members' order;
    no members is a ValueError."""
    if not members:
        raise ValueError("train_schema_model needs at least one member")
    # u1 and u2 train on the same cases: a u1 member forecasts with the u2 model
    shared = [("u2" if schema == "u1" else schema, cfg) for schema, cfg in members]
    # univariate first, a stable sort: each width's members adjacent
    trained = sorted(dict.fromkeys(shared), key=lambda member: member[0] == "u3")
    windows = {s: make_windows(_schema_training_values(ts, s, train_start, train_end)[1],
                               lookback) for s, _ in trained}
    pairs = [(windows[schema], cfg) for schema, cfg in trained]
    models = dict(zip(trained, train(*pairs[0], *pairs[1:])))
    return [models[member] for member in shared]


def forecast_schemas(
    ts: TimeSeries, members: list[tuple[str, TrainConfig]], train_start: dt.date,
    train_end: dt.date, horizon: int = 15, lookback: int = 1,
) -> dict[tuple[str, TrainConfig], tuple[LstmModel, np.ndarray]]:
    """Train every (schema, config) member in one `train_schema_model` call,
    then forecast each member's schema with its model through `run_schema`.
    Returns {(schema, config): (model, forecasts)} in the members' order;
    no members, or a member given twice, whose entries would collide, is a
    ValueError."""
    if len(set(members)) < len(members):
        raise ValueError(f"forecast_schemas got member {max(members, key=members.count)} twice")
    models = train_schema_model(ts, members, train_start, train_end, lookback)
    return {(schema, cfg): (model, run_schema(ts, schema, cfg, train_start, train_end, horizon,
                                              lookback, model=model).forecasts)
            for (schema, cfg), model in zip(members, models)}


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
    does not cover, is a DataError. `cfg` is not read; the benchmark still
    passes it by position.
    """
    horizon_of = observed_horizon if schema == "u1" else forecast_horizon
    _, actuals = horizon_of(ts, train_end, horizon)
    spec, train_vals = _schema_training_values(ts, schema, train_start, train_end)
    if len(train_vals) < lookback:
        raise DataError("not enough history before the first test day")
    ws = Workspace(model.params, lookback, (model.config.activation,))
    preds = np.empty((horizon, train_vals.shape[1]))
    fed_back = spec.normalize(actuals[:, None]) if schema == "u1" else preds
    window = train_vals[-lookback:]
    # a saturated gate overflows sigmoid's exp, harmlessly (see `forward`)
    with np.errstate(over="ignore"):
        for k in range(horizon):
            preds[k] = forward(model.params, window[None], ws)[0]
            window = np.vstack([window[1:], fed_back[k]])

    forecasts = spec.denormalize(preds)[:, 0]
    if not np.all(np.isfinite(forecasts)):
        raise NonFiniteForecastError(f"non-finite forecast under schema {schema}")
    return ForecastRun(forecasts)
