import datetime as dt
import math
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casecast import TrainConfig, train, train_schema_model
from casecast.data import (
    DataError,
    WindowedDataset,
    fit_normalizer,
    make_windows,
    slice_window,
)
from casecast import lstm
from casecast.lstm import (
    ACTIVATIONS,
    MAX_EPOCHS,
    SCHEMAS,
    AdamState,
    LstmModel,
    LstmParams,
    NonFiniteForecastError,
    adam_update,
    bptt_gradient,
    elu,
    forward,
    run_schema,
)

TRAIN_START = dt.date(2020, 3, 24)
TRAIN_END = dt.date(2020, 4, 23)
TEST_START = dt.date(2020, 4, 24)


class TestElu:
    def test_zero(self):
        assert elu(0.0) == 0.0

    def test_identity_on_positives(self):
        assert elu(2.5) == 2.5

    def test_negative_branch(self):
        assert math.isclose(float(elu(-1.0)), math.exp(-1.0) - 1.0, rel_tol=1e-12)

    def test_large_input_does_not_overflow(self):
        x = np.array([800.0, -1.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324])
        with np.errstate(over="ignore"):
            expected = np.where(x > 0, x, np.expm1(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = elu(x)
        assert out.tobytes() == expected.tobytes()


def sigmoid(x):
    """The cell's gate function on a new array."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return lstm._sigmoid(x, np.empty(x.shape))


class TestSigmoid:
    def test_stays_inside_open_interval_at_extremes(self):
        y = sigmoid(np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0]))
        assert np.all(y > 0.0) and np.all(y < 1.0)
        assert y[2] == 0.5

    def test_clamp_keeps_nan_and_sends_infinities_to_the_bounds(self):
        # one clip call and np.minimum then np.maximum give these same values
        x = np.array([np.nan, -np.nan, np.inf, -np.inf, -746.0])
        y = sigmoid(x)
        assert np.isnan(y[:2]).all()
        assert y[2] == lstm._SIGMOID_HI
        assert y[3] == y[4] == lstm._SIGMOID_LO
        with np.errstate(over="ignore"):
            min_max = _min_max_sigmoid(x, np.empty(x.shape))
        assert np.isnan(min_max[:2]).all() and min_max[2:].tobytes() == y[2:].tobytes()


def zero_params(hidden, input_dim):
    return LstmParams.glorot(hidden, input_dim, np.random.default_rng(0)).zeros_like()


def gate_blocks(mat, hidden):
    """The input, forget, output and candidate blocks of a stacked array."""
    return [mat[k * hidden : (k + 1) * hidden] for k in range(4)]


def fresh_forward(params, inputs, activations=("elu",)):
    """forward on a fresh workspace."""
    return forward(params, inputs, lstm.Workspace(params, inputs.shape[1], activations))


def cell_steps(params, inputs, g="elu"):
    """What forward leaves in its workspace for a stack of one on inputs
    (L, D) under activation g, as per-step dicts keyed by the cell's
    quantities."""
    ws = lstm.Workspace(params, len(inputs), (g,))
    forward(params, inputs[None], ws)
    steps = []
    for t in range(len(inputs)):
        i, f, o = ws.ifo[t, :, 0]  # gate-major: (3, E, H)
        g_in, gc = ws.g[t, :, 0]
        steps.append({
            "x": inputs[t], "h": ws.h[t, 0], "c": ws.c[t, 0],
            "i": i, "f": f, "o": o, "g_in": g_in,
            "c_new": ws.c[t + 1, 0], "gc": gc,
        })
    return steps


class TestLstmStep:
    def test_all_zero_params(self):
        params = zero_params(3, 1)
        for g in ("elu", "tanh"):
            (step,) = cell_steps(params, np.array([[0.7]]), g)
            np.testing.assert_allclose(step["i"], 0.5)
            np.testing.assert_allclose(step["f"], 0.5)
            np.testing.assert_allclose(step["o"], 0.5)
            np.testing.assert_allclose(step["c_new"], 0.0)
            np.testing.assert_allclose(step["o"] * step["gc"], 0.0)

    def test_saturated_forget_gate(self):
        params = zero_params(2, 1)
        params.b[0, 2:4] = 10.0  # forget-gate bias rows
        params.wx[0, 6:8, 0] = [3.0, -0.5]  # candidate rows: step one writes the cell
        # step two sees x = 0 and (with wh = 0) a zero candidate, so only f acts
        _, second = cell_steps(params, np.array([[1.0], [0.0]]))
        c0 = second["c"]
        assert np.all(np.abs(c0) > 0.1)
        np.testing.assert_allclose(second["c_new"], sigmoid(10.0) * c0, rtol=1e-12)
        assert abs(second["c_new"][0] / c0[0] - 0.99995) < 1e-4

    @pytest.mark.parametrize("g", ["elu", "tanh"])
    def test_scalar_hand_trace(self, g):
        # single hidden unit; the whole recurrence is scalar arithmetic
        w_ix, w_fx, w_ox, w_cx = 0.3, -0.2, 0.5, 0.8
        w_ih, w_fh, w_oh, w_ch = 0.1, 0.4, -0.3, 0.6
        b_i, b_f, b_o, b_c = 0.05, -0.1, 0.2, 0.0
        params = LstmParams(
            wx=np.array([[w_ix], [w_fx], [w_ox], [w_cx]]),
            wh=np.array([[w_ih], [w_fh], [w_oh], [w_ch]]),
            b=np.array([b_i, b_f, b_o, b_c]),
            dense_w=np.array([[1.0]]),
            dense_b=np.array([0.0]),
        )
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        act = (lambda v: v if v > 0 else math.exp(v) - 1.0) if g == "elu" else math.tanh

        xs = (0.4, -1.2, 0.9)
        steps = cell_steps(params, np.array(xs)[:, None], g)
        h, c = 0.0, 0.0
        for x, step in zip(xs, steps):
            i = sig(w_ix * x + w_ih * h + b_i)
            f = sig(w_fx * x + w_fh * h + b_f)
            o = sig(w_ox * x + w_oh * h + b_o)
            c = f * c + i * act(w_cx * x + w_ch * h + b_c)
            h = o * act(c)
            assert abs(step["c_new"][0] - c) < 1e-12
            assert abs((step["o"] * step["gc"])[0] - h) < 1e-12

    def test_dimension_mismatch(self):
        params = zero_params(2, 1)
        ws = lstm.Workspace(params, 1, ("elu",))
        with pytest.raises(ValueError):
            forward(params, np.array([[[1.0, 2.0]]]), ws)
        with pytest.raises(ValueError, match="expected"):  # one model's (L, D) is no stack
            forward(params, np.array([[1.0]]), ws)

    @pytest.mark.parametrize("members, shape", [(1, (1, 5, 1)), (1, (1, 2, 1)), (2, (1, 3, 1))],
                             ids=["more-steps-than-lookback", "fewer-steps", "one-member-of-two"])
    def test_inputs_must_match_the_stack_and_the_lookback(self, members, shape):
        params = LstmParams.stack([zero_params(2, 1)] * members)
        ws = lstm.Workspace(params, 3, ("elu",) * members)
        message = re.escape(f"inputs of shape {shape}, expected ({members}, 3, 1)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            forward(params, np.zeros(shape), ws)

    @pytest.mark.parametrize("members, activations", [
        (1, "elu"), (3, "elu"), (4, "tanh"),  # a bare name, also one of as many letters
        (2, ("elu",)), (1, ("elu", "elu")), (2, ("elu", "relu")),
    ])
    def test_workspace_takes_one_known_activation_per_member(self, members, activations):
        params = LstmParams.stack([zero_params(2, 1)] * members)
        with pytest.raises(ValueError, match="expected one of"):
            lstm.Workspace(params, 1, activations)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_gates_stay_in_open_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        params = LstmParams.glorot(4, 2, rng)
        for step in cell_steps(params, 10.0 * rng.standard_normal((3, 2))):
            for gate in (step["i"], step["f"], step["o"]):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)

    def test_identity_activation_exposes_affine_structure(self):
        # with g = identity the cell is c' = f c + i * a_c and h = o * c'
        # an activation pair is called as f(x, out=None) and returns out
        def identity(x, out=None):
            return np.positive(x, out=out)

        def one(fx, out=None):
            return np.power(fx, 0.0, out=out)  # fx**0 is 1 for every fx

        ACTIVATIONS["identity"] = (identity, one)
        try:
            rng = np.random.default_rng(7)
            params = LstmParams.glorot(3, 1, rng)
            params.b[:] = rng.standard_normal(12)
            w_cx = gate_blocks(params.wx[0], 3)[3]
            w_ch = gate_blocks(params.wh[0], 3)[3]
            b_c = gate_blocks(params.b[0], 3)[3]
            for step in cell_steps(params, rng.standard_normal((3, 1)), "identity"):
                a_c = w_cx @ step["x"] + w_ch @ step["h"] + b_c
                np.testing.assert_allclose(
                    step["c_new"], step["f"] * step["c"] + step["i"] * a_c, rtol=1e-12
                )
                np.testing.assert_allclose(
                    step["o"] * step["gc"], step["o"] * step["c_new"], rtol=1e-12
                )
        finally:
            del ACTIVATIONS["identity"]


class TestLstmParams:
    def test_write_through_a_view_shows_in_flat(self):
        params = zero_params(2, 1)
        params.b[0, 3] = 5.0
        assert params.flat[params.wx.size + 3] == 5.0
        assert np.count_nonzero(params.flat) == 1

    def test_views_lie_in_order_in_flat(self):
        params = zero_params(3, 2)
        for k, name in enumerate(LstmParams.NAMES):
            getattr(params, name)[...] = k + 1.0
        sizes = (4 * 3 * 2, 4 * 3, 2 * 3, 2, 4 * 3 * 3)  # wx, b, dense_w, dense_b, wh
        expected = np.concatenate([np.full(n, k + 1.0) for k, n in enumerate(sizes)])
        np.testing.assert_array_equal(params.flat, expected)

    def test_zeros_like_has_the_same_views_on_new_storage(self):
        params = LstmParams.glorot(3, 2, np.random.default_rng(2))
        before = params.flat.copy()
        grads = params.zeros_like()
        grads.wh[:] = 1.0
        np.testing.assert_array_equal(grads.flat[: -4 * 3 * 3], 0.0)
        np.testing.assert_array_equal(grads.flat[-4 * 3 * 3 :], 1.0)
        np.testing.assert_array_equal(params.flat, before)
        for name in LstmParams.NAMES:
            assert getattr(grads, name).shape == getattr(params, name).shape


class TestForward:
    def test_zero_params_returns_dense_bias(self):
        params = zero_params(3, 1)
        params.dense_b[:] = 4.25
        y = fresh_forward(params, np.array([[[0.1], [0.9]]]))
        assert y.shape == (1, 1)
        np.testing.assert_allclose(y, 4.25)

    def test_length_one_equals_single_step(self):
        rng = np.random.default_rng(3)
        params = LstmParams.glorot(4, 1, rng)
        x = np.array([0.3])
        i, f, o, a_c = gate_blocks(params.wx[0] @ x + params.b[0], 4)
        h = sigmoid(o) * elu(sigmoid(i) * elu(a_c))
        y = fresh_forward(params, x[None, None, :])
        np.testing.assert_array_equal(y[0], params.dense_w[0] @ h + params.dense_b[0])

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        params = LstmParams.glorot(4, 2, rng)
        seq = rng.random((1, 5, 2))
        y1 = fresh_forward(params, seq)
        y2 = fresh_forward(params, seq)
        np.testing.assert_array_equal(y1, y2)


def fresh_gradient(params, inputs, target, activations=("elu",)):
    """bptt_gradient on a fresh workspace."""
    return bptt_gradient(
        params, inputs, target, lstm.Workspace(params, inputs.shape[1], activations)
    )


def finite_difference_grads(params, inputs, target, activations, step=1e-5):
    """Central differences of the squared-error loss of the member that owns
    each coordinate of the stack's flat, perturbed in place (the named arrays
    see each change)."""
    flat = params.flat
    # member e owns every coordinate of row e of each named array
    owner = params.zeros_like()
    for name in LstmParams.NAMES:
        a = getattr(owner, name)
        a[...] = np.arange(len(a)).reshape((-1,) + (1,) * (a.ndim - 1))
    out = np.zeros_like(flat)
    for j, e in enumerate(owner.flat.astype(int)):
        orig = flat[j]
        flat[j] = orig + step
        lp, _ = fresh_gradient(params, inputs, target, activations)
        flat[j] = orig - step
        lm, _ = fresh_gradient(params, inputs, target, activations)
        flat[j] = orig
        out[j] = (lp[e] - lm[e]) / (2 * step)
    return out


def max_relative_gradient_error(seed, hidden, lookback, g):
    rng = np.random.default_rng(seed)
    params = LstmParams.glorot(hidden, 1, rng)
    inputs = rng.random((1, lookback, 1))
    target = rng.random((1, 1))
    _, grads = fresh_gradient(params, inputs, target, (g,))
    numeric = finite_difference_grads(params, inputs, target, (g,))
    # bptt writes the named arrays, the differences perturb flat: read the
    # former, in flat's name-major order, so that a view which stops
    # aliasing flat shows as an error
    analytic = np.concatenate([getattr(grads, name).ravel() for name in LstmParams.NAMES])
    denom = np.maximum(np.abs(numeric), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestBptt:
    def test_zero_loss_gives_zero_gradient(self):
        params = zero_params(3, 1)
        loss, grads = fresh_gradient(params, np.array([[[0.5]]]), np.array([[0.0]]))
        np.testing.assert_array_equal(loss, [0.0])
        np.testing.assert_array_equal(grads.flat, 0.0)
        assert grads.flat.shape == params.flat.shape

    def test_dense_bias_gradient_is_twice_the_error(self):
        rng = np.random.default_rng(11)
        params = LstmParams.glorot(4, 1, rng)
        inputs, target = rng.random((1, 3, 1)), rng.random((1, 1))
        y = fresh_forward(params, inputs)
        _, grads = fresh_gradient(params, inputs, target)
        np.testing.assert_allclose(grads.dense_b, 2.0 * (y - target), rtol=1e-12)

    @pytest.mark.parametrize("g", ["elu", "tanh"])
    def test_matches_finite_differences(self, g):
        assert max_relative_gradient_error(42, hidden=4, lookback=3, g=g) < 1e-4

    @pytest.mark.parametrize("lookback", [1, 3])
    def test_out_is_zeroed_and_filled_bitwise(self, lookback):
        # a workspace holds what its last call wrote; the next call must give
        # what a fresh workspace gives, across activations and input widths
        rng = np.random.default_rng(12)
        widths, g = (2, 1, 2), ("elu", "tanh", "elu")
        params = LstmParams.stack([LstmParams.glorot(4, w, rng) for w in widths])

        def sample():
            inputs, target = rng.random((3, lookback, 2)), rng.random((3, 2))
            for e, width in enumerate(widths):
                inputs[e, :, width:] = target[e, width:] = 0.0
            return inputs, target

        ws = lstm.Workspace(params, lookback, g)
        for array in [a for a in vars(ws).values() if isinstance(a, np.ndarray)]:
            array[...] = np.nan
        ws.grads.flat[:] = np.nan
        # all but what no call writes: the zero state, the outputs past a
        # member's width and, at lookback 1, wh's gradient, which is exactly 0
        ws.h[0] = ws.c[0] = 0.0
        for e, width in enumerate(widths):
            ws.y[e, width:] = 0.0
        if lookback == 1:
            ws.grads.wh[...] = 0.0
        for inputs, target in (sample(), sample()):
            loss, fresh = fresh_gradient(params, inputs, target, g)
            again, grads = bptt_gradient(params, inputs, target, ws)
            assert grads is ws.grads
            assert grads.flat.tobytes() == fresh.flat.tobytes()
            assert again.tobytes() == loss.tobytes()

    @pytest.mark.parametrize("members, hidden, width", [(1, 1, 1), (3, 4, 2), (20, 32, 2)])
    def test_weight_gradients_sum_the_store_in_step_order(self, members, hidden, width):
        # bptt sums each weight gradient over the store's step axis with one
        # np.add.reduce, which equals a per-step accumulation bitwise only if
        # numpy adds that axis in index order. On this column pairwise
        # summation, which numpy uses along an innermost axis, gives 0
        column = np.tile([1e16, 1.0, -1e16, 1.0], 4)
        assert np.add.reduce(column) == 0.0
        in_order = 0.0
        for term in column:
            in_order += term
        assert in_order == 1.0
        rng = np.random.default_rng(0)
        params = LstmParams.stack([LstmParams.glorot(hidden, width, rng) for _ in range(members)])
        ws = lstm.Workspace(params, len(column), ("elu",) * members)
        grads = ws.grads
        # the store's rows (L, E, 4H) and its products with x, (L, E, D, 4H),
        # summed into wx transposed, and with h, (L, E, 4H, H)
        steps = ws.store.shape[:-1]
        for shape, out in ((steps, grads.b), (ws.x_terms.shape, grads.wx.transpose(0, 2, 1)),
                           (steps + (hidden,), grads.wh)):
            terms = np.zeros(shape)
            terms[(slice(None),) + (-1,) * out.ndim] = column
            np.add.reduce(terms, axis=0, out=out)
            assert out[(-1,) * out.ndim] == in_order

    @pytest.mark.parametrize("widths, lookback", [((1, 1, 2, 2), 1), ((2,), 7), ((1, 2, 1), 3)],
                             ids=["reproduce", "fit-seq7", "interleaved-lookback3"])
    def test_workspace_owns_every_array_it_holds(self, widths, lookback):
        # every array, each view in its per-step and head lists too, is the
        # workspace's own buffer or a view of one: none is a view of params
        # or of the caller's inputs, and none aliases an unlisted buffer
        rng = np.random.default_rng(lookback)
        params = LstmParams.stack([LstmParams.glorot(4, w, rng) for w in widths])
        members, width = len(widths), params.input_dim
        ws = lstm.Workspace(params, lookback, [("elu", "tanh")[e % 2] for e in range(members)])
        inputs = rng.random((members, lookback, width))
        bptt_gradient(params, inputs, rng.random((members, width)), ws)
        assert ws.x_terms.shape == (lookback, members, width, 16)
        assert ws.h_terms.shape == (lookback - 1, members, 16, 4)
        assert len(ws.forward_steps) == len(ws.reverse_steps) == lookback
        arrays = {}
        for name, value in vars(ws).items():
            if isinstance(value, np.ndarray):
                arrays[name] = value
            elif isinstance(value, (list, tuple)):
                for k, item in enumerate(value):
                    for j, a in enumerate(item if isinstance(item, tuple) else (item,)):
                        # all but the dense head's index rows, which are ints
                        if isinstance(a, np.ndarray) and a.dtype == float:
                            arrays[f"{name}[{k}][{j}]"] = a
        views = [name for name in arrays if name.startswith(("forward_steps", "reverse_steps"))]
        assert len(views) == lookback * (11 + 12)  # each step's forward and reverse views
        strays = []
        for name, root in arrays.items():
            while root.base is not None:
                root = root.base
            if not any(root is a for a in arrays.values()):
                strays.append(name)
        assert strays == []


def _min_max_sigmoid(x, out):
    """`_sigmoid` clamped by np.minimum, then np.maximum."""
    np.exp(np.negative(x, out=out), out=out)
    np.divide(1.0, np.add(1.0, out, out=out), out=out)
    return np.maximum(np.minimum(out, lstm._SIGMOID_HI, out=out), lstm._SIGMOID_LO, out=out)


def _per_step_workspace(params, steps, activations):
    """The arrays `_per_step_forward` and `_per_step_bptt` write, each
    allocated here, with the wx gradient's terms laid out (L, E, 4H, D)."""
    members, hdim, width = len(params.widths), params.hidden, params.input_dim
    gates = 4 * hdim
    ws = types.SimpleNamespace()
    ws.gfun, ws.dgfun = lstm._activation(activations, members)
    ws.groups = lstm._width_groups(params.widths)
    ws.xw = np.empty((members, steps, gates, 1))
    ws.xw_gates = ws.xw.reshape(members, steps, 4, hdim).transpose(1, 2, 0, 3)
    ws.h = np.zeros((steps + 1, members, hdim))
    ws.c = np.zeros((steps + 1, members, hdim))
    ws.ifo = np.empty((steps, 3, members, hdim))
    ws.g = np.empty((steps, 2, members, hdim))
    ws.a = np.empty((4, members, hdim))
    ws.hw = np.empty((members, gates, 1))
    ws.hw_gates = lstm._gate_major(ws.hw, hdim)
    ws.tmp = np.empty((members, hdim))
    ws.y = np.zeros((members, width))
    ws.err = np.empty((members, width))
    ws.loss = np.empty((members, 1, 1))
    ws.dg = np.empty(ws.g.shape)
    ws.not_ifo = np.empty(ws.ifo.shape)
    ws.dh = np.empty((members, hdim, 1))
    ws.dc = np.empty((members, hdim))
    ws.d_ifo = np.empty((3, members, hdim))
    ws.da = np.empty((4, members, hdim))
    ws.store = np.empty((steps, members, gates, 1))
    ws.store_gates = ws.store.reshape(steps, members, 4, hdim).transpose(0, 2, 1, 3)
    ws.x_terms = np.empty((steps, members, gates, width))
    ws.h_terms = np.empty((steps - 1, members, gates, hdim))
    ws.grads = params.zeros_like()
    return ws


def _per_step_forward(params, inputs, ws):
    """The per-step form of `forward`: each step indexes every view it
    touches and passes `out` by keyword. Kept as the oracle that the kernel
    on views bound once per workspace must match bit for bit."""
    inputs = np.asarray(inputs, dtype=float)
    steps = inputs.shape[1]
    gfun, h, c, ifo, gv, a, tmp = ws.gfun, ws.h, ws.c, ws.ifo, ws.g, ws.a, ws.tmp
    np.matmul(params.wx[:, None], inputs[..., None], out=ws.xw)
    xw = ws.xw_gates
    b = lstm._gate_major(params.b, params.hidden)
    with np.errstate(over="ignore"):
        for t in range(steps):
            if t:
                np.matmul(params.wh, h[t, :, :, None], out=ws.hw)
                np.add(xw[t], ws.hw_gates, out=a)
                a += b
            else:
                np.add(xw[t], b, out=a)
            _min_max_sigmoid(a[:3], ifo[t])
            gfun(a[3], gv[t, 0])
            np.multiply(ifo[t, 1], c[t], out=c[t + 1])
            c[t + 1] += np.multiply(ifo[t, 0], gv[t, 0], out=tmp)
            gfun(c[t + 1], gv[t, 1])
            np.multiply(ifo[t, 2], gv[t, 1], out=h[t + 1])
    y = ws.y
    for width, rows in ws.groups:
        y[rows, :width] = (
            lstm._matvec(params.dense_w[rows, :width], h[steps][rows])
            + params.dense_b[rows, :width]
        )
    return y


def _per_step_bptt(params, inputs, target, ws):
    """The per-step form of `bptt_gradient`, over `_per_step_forward`."""
    inputs = np.asarray(inputs, dtype=float)
    y = _per_step_forward(params, inputs, ws)
    x, h, c, ifo, gv = inputs.transpose(1, 0, 2), ws.h, ws.c, ws.ifo, ws.g
    dg = ws.dgfun(gv, ws.dg)
    not_ifo = np.subtract(1.0, ifo, out=ws.not_ifo)
    err = np.subtract(y, target, out=ws.err)
    np.matmul(err[:, None, :], err[:, :, None], out=ws.loss)
    grads, steps = ws.grads, len(x)
    two_err = np.multiply(2.0, err, out=grads.dense_b)
    np.multiply(two_err[:, :, None], h[-1][:, None, :], out=grads.dense_w)
    np.matmul(params.dense_w.transpose(0, 2, 1), two_err[:, :, None], out=ws.dh)
    dh, dc, d_ifo, da, tmp = ws.dh[:, :, 0], ws.dc, ws.d_ifo, ws.da, ws.tmp
    store = ws.store
    dc.fill(0.0)
    wh_t = params.wh.transpose(0, 2, 1)
    for s, t in enumerate(reversed(range(steps))):
        np.multiply(dh, gv[t, 1], out=d_ifo[2])
        dc += np.multiply(np.multiply(dh, ifo[t, 2], out=tmp), dg[t, 1], out=tmp)
        np.multiply(dc, gv[t, 0], out=d_ifo[0])
        np.multiply(dc, c[t], out=d_ifo[1])
        np.multiply(np.multiply(d_ifo, ifo[t], out=d_ifo), not_ifo[t], out=da[:3])
        np.multiply(np.multiply(dc, ifo[t, 0], out=da[3]), dg[t, 0], out=da[3])
        ws.store_gates[s] = da
        if t:
            np.matmul(wh_t, store[s], out=ws.dh)
            dc *= ifo[t, 1]
    np.multiply(store, x[::-1, :, None, :], out=ws.x_terms)
    np.add.reduce(ws.x_terms, axis=0, out=grads.wx)
    np.add.reduce(store[..., 0], axis=0, out=grads.b)
    if steps > 1:
        np.multiply(store[:-1], h[-2:0:-1, :, None, :], out=ws.h_terms)
        np.add.reduce(ws.h_terms, axis=0, out=grads.wh)
    return ws.loss[:, 0, 0], grads


class TestKernelOracle:
    @pytest.mark.parametrize("widths, lookback, activations, scale", [
        ((1, 1, 2, 2), 1, ("elu", "tanh", "elu", "tanh"), 1.0),
        ((2,), 7, ("elu",), 1.0),
        ((2,), 7, ("tanh",), 1.0),
        ((1, 2, 1), 3, ("tanh", "elu", "elu"), 1.0),
        # pre-activations far past +-36.7 and -709.8: every gate clamps
        ((1, 2, 1), 3, ("elu", "tanh", "elu"), 2000.0),
        ((2,), 7, ("elu",), 2000.0),
    ], ids=["reproduce", "fit-seq7", "fit-seq7-tanh", "interleaved-lookback3",
            "interleaved-saturated", "fit-seq7-saturated"])
    def test_kernel_is_bitwise_the_per_step_oracle(self, widths, lookback, activations, scale):
        rng = np.random.default_rng(lookback + len(widths))
        params = LstmParams.stack([LstmParams.glorot(5, w, rng) for w in widths])
        params.wh[...] *= 4.0  # recurrent terms of the same order as the input terms
        members, width = len(widths), params.input_dim
        ws = lstm.Workspace(params, lookback, activations)
        want = _per_step_workspace(params, lookback, activations)
        saturated = 0
        for _ in range(3):  # the second and third calls reuse both workspaces
            inputs = scale * rng.uniform(-1.0, 1.0, (members, lookback, width))
            target = rng.random((members, width))
            for e, w in enumerate(widths):
                inputs[e, :, w:] = target[e, w:] = 0.0
            loss, grads = bptt_gradient(params, inputs, target, ws)
            want_loss, want_grads = _per_step_bptt(params, inputs, target, want)
            pairs = {"y": (ws.y, want.y), "loss": (loss, want_loss),
                     "grads": (grads.flat, want_grads.flat), "h": (ws.h, want.h),
                     "c": (ws.c, want.c), "ifo": (ws.ifo, want.ifo), "g": (ws.g, want.g)}
            for name, (got, expected) in pairs.items():
                assert got.tobytes() == expected.tobytes(), name
            saturated += np.count_nonzero((ws.ifo == lstm._SIGMOID_LO)
                                          | (ws.ifo == lstm._SIGMOID_HI))
        assert (saturated > 0) == (scale > 1.0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = zero_params(2, 1)
        params.dense_b[:] = 3.0
        adam_update(params, params.zeros_like(), AdamState.like(params), TrainConfig())
        np.testing.assert_array_equal(params.dense_b, 3.0)

    def test_first_step_with_unit_gradient(self):
        params = zero_params(1, 1)
        grads = params.zeros_like()
        grads.dense_b[:] = 1.0
        adam_update(params, grads, AdamState.like(params), TrainConfig(learning_rate=1e-3))
        # bias-corrected first step: -lr * 1 / (1 + eps)
        assert abs(params.dense_b[0, 0] + 1e-3) < 1e-10

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = zero_params(2, 1)
            grads = params.zeros_like()
            grads.flat[:] = 0.3
            state = AdamState.like(params)
            for _ in range(3):
                adam_update(params, grads, state, TrainConfig())
            results.append(params.dense_w.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_matches_per_array_reference_bitwise(self):
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        cfg = TrainConfig(learning_rate=lr, beta1=beta1, beta2=beta2, epsilon=eps)
        rng = np.random.default_rng(5)
        params = LstmParams.glorot(3, 2, rng)
        state = AdamState.like(params)
        # reference: Adam one named array at a time, moments in dicts
        expected = {k: getattr(params, k).copy() for k in LstmParams.NAMES}
        m = {k: np.zeros_like(a) for k, a in expected.items()}
        v = {k: np.zeros_like(a) for k, a in expected.items()}
        for t in range(1, 4):
            grads = params.zeros_like()
            for k in LstmParams.NAMES:  # written through the named views
                a = getattr(grads, k)
                a[...] = rng.standard_normal(a.shape)
            adam_update(params, grads, state, cfg)
            bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
            for k, arr in expected.items():
                grad = getattr(grads, k)
                m[k] *= beta1
                m[k] += (1.0 - beta1) * grad
                v[k] *= beta2
                v[k] += (1.0 - beta2) * grad * grad
                arr -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
        assert state.t == 3
        np.testing.assert_array_equal(
            params.flat, np.concatenate([expected[k].ravel() for k in LstmParams.NAMES])
        )


class TestTrain:
    @pytest.mark.parametrize("setting, message", [
        ({"seed": -1}, "^seed must be >= 0$"),
        ({"activation": "relu"}, r"^activation must be one of \('elu', 'tanh'\)$"),
        ({"hidden": 0}, "^hidden must be >= 1$"),
        ({"hidden": -2}, "^hidden must be >= 1$"),
        ({"learning_rate": -1.0}, "^learning_rate must be a positive finite number$"),
        ({"learning_rate": 0.0}, "^learning_rate must be a positive finite number$"),
        ({"learning_rate": math.inf}, "^learning_rate must be a positive finite number$"),
        ({"learning_rate": math.nan}, "^learning_rate must be a positive finite number$"),
        ({"epsilon": 0.0}, "^epsilon must be a positive finite number$"),
        ({"epsilon": -1e-8}, "^epsilon must be a positive finite number$"),
        ({"epsilon": math.inf}, "^epsilon must be a positive finite number$"),
        ({"epsilon": math.nan}, "^epsilon must be a positive finite number$"),
    ], ids=["seed-negative", "activation-unknown", "hidden-zero", "hidden-negative",
            "learning-rate-negative", "learning-rate-zero", "learning-rate-inf",
            "learning-rate-nan", "epsilon-zero", "epsilon-negative", "epsilon-inf",
            "epsilon-nan"])
    def test_config_rejects_a_setting_out_of_range(self, setting, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**setting)

    @pytest.mark.parametrize("setting", [
        {"epochs": 2.5}, {"hidden": 4.0}, {"epochs": math.nan}, {"epochs": True},
        {"seed": "3"}, {"learning_rate": "0.1"}, {"epsilon": True}, {"beta1": True},
        {"activation": ["elu"]},
    ], ids=["epochs-float", "hidden-float", "epochs-nan", "epochs-bool", "seed-str",
            "learning-rate-str", "epsilon-bool", "beta1-bool", "activation-list"])
    def test_config_rejects_a_setting_of_the_wrong_type(self, setting):
        (name,) = setting
        with pytest.raises(ValueError, match=f"^{name} must be of type .*, got "):
            TrainConfig(**setting)

    def test_config_takes_numpy_numbers_and_an_int_for_a_float(self):
        cfg = TrainConfig(epochs=np.int64(3), hidden=np.int32(4), seed=np.int64(4),
                          learning_rate=1, beta1=np.float64(0.5))
        assert (cfg.epochs, cfg.hidden, cfg.seed, cfg.learning_rate) == (3, 4, 4, 1)

    def test_config_caps_epochs(self):
        assert TrainConfig(epochs=MAX_EPOCHS).epochs == MAX_EPOCHS
        with pytest.raises(ValueError, match=f"^epochs must be <= {MAX_EPOCHS}$"):
            TrainConfig(epochs=MAX_EPOCHS + 1)

    def test_reachable_targets_drive_loss_to_zero(self):
        inputs = np.full((5, 1, 1), 0.5)
        targets = np.full((5, 1), 0.5)
        ds = WindowedDataset(inputs, targets)
        (model,) = train(ds, TrainConfig(epochs=400, hidden=8, seed=0))
        assert model.epoch_losses[-1] < 1e-6

    def test_same_seed_is_bitwise_identical(self):
        values = np.linspace(0.0, 1.0, 12)[:, None]
        ds = make_windows(values, lookback=2)
        cfg = TrainConfig(epochs=5, hidden=4, seed=9)
        (m1,), (m2,) = train(ds, cfg), train(ds, cfg)
        for k in LstmParams.NAMES:
            np.testing.assert_array_equal(getattr(m1.params, k), getattr(m2.params, k))


def lockstep_dataset(input_dim, lookback):
    values = np.cumsum(np.random.default_rng(input_dim).random((14, input_dim)), axis=0)
    return make_windows(values / values.max(axis=0), lookback)


MEMBERS = [("elu", 3), ("tanh", 4), ("elu", 5)]
# (input width, activation, seed); the widths interleave, so neither width's
# members form a contiguous block of the stack
MIXED_WIDTHS = [(1, "elu", 3), (2, "tanh", 4), (1, "tanh", 5), (2, "elu", 6)]
# each width's members adjacent, as `reproduce` and the acceptance fixture stack them
ADJACENT_WIDTHS = [(1, "elu", 3), (1, "tanh", 4), (2, "elu", 5), (2, "tanh", 6)]


def mixed_width_members(lookback, epochs, widths=MIXED_WIDTHS):
    return [
        (lockstep_dataset(width, lookback),
         TrainConfig(epochs=epochs, hidden=5, activation=activation, seed=seed))
        for width, activation, seed in widths
    ]


def offset(view, flat):
    """Where `view` starts in `flat`, in entries."""
    return (view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]) // 8


class TestLockstep:
    @pytest.mark.parametrize("input_dim", [1, 2])
    @pytest.mark.parametrize("lookback", [1, 3])
    def test_members_equal_their_serial_runs_bitwise(self, input_dim, lookback):
        ds = lockstep_dataset(input_dim, lookback)
        cfgs = [TrainConfig(epochs=4, hidden=5, activation=a, seed=s) for a, s in MEMBERS]
        members = [(ds, cfg) for cfg in cfgs]
        ensemble = train(*members[0], *members[1:])
        assert [m.config for m in ensemble] == cfgs
        for cfg, member in zip(cfgs, ensemble):
            (alone,) = train(ds, cfg)
            assert member.params.flat.tobytes() == alone.params.flat.tobytes()
            assert member.epoch_losses == alone.epoch_losses
            assert member.params.flat.flags.c_contiguous and member.params.flat.ndim == 1

    @pytest.mark.parametrize("lookback", [1, 3])
    def test_members_of_mixed_widths_equal_their_serial_runs_bitwise(self, lookback):
        members = mixed_width_members(lookback, epochs=4)
        ensemble = train(*members[0], *members[1:])
        for (ds, cfg), member in zip(members, ensemble):
            (alone,) = train(ds, cfg)
            assert member.params.flat.tobytes() == alone.params.flat.tobytes()
            assert member.epoch_losses == alone.epoch_losses

    @pytest.mark.parametrize("widths, kind", [
        (MIXED_WIDTHS, np.ndarray), (ADJACENT_WIDTHS, slice),
    ], ids=["interleaved", "adjacent"])
    def test_dense_head_views_adjacent_width_groups_and_copies_the_rest(self, widths, kind):
        groups = lstm._width_groups(tuple(w for w, _, _ in widths))
        assert [w for w, _ in groups] == [1, 2]
        assert all(isinstance(rows, kind) for _, rows in groups)

    @pytest.mark.parametrize("lookback", [1, 3])
    def test_members_of_adjacent_widths_equal_their_serial_runs_bitwise(self, lookback):
        members = mixed_width_members(lookback, epochs=4, widths=ADJACENT_WIDTHS)
        ensemble = train(*members[0], *members[1:])
        for (ds, cfg), member in zip(members, ensemble):
            (alone,) = train(ds, cfg)
            assert member.params.flat.tobytes() == alone.params.flat.tobytes()
            assert member.epoch_losses == alone.epoch_losses

    def test_stack_arrays_are_name_major_blocks_and_adam_steps_the_prefix(self, monkeypatch):
        members = mixed_width_members(lookback=1, epochs=1, widths=ADJACENT_WIDTHS)
        real, seen = lstm.adam_update, []

        def spy(params, grads, state, *args):
            seen.append((params, grads, state.live))
            real(params, grads, state, *args)

        monkeypatch.setattr(lstm, "adam_update", spy)
        train(*members[0], *members[1:])
        params, grads, live = seen[0]
        assert {id(g) for _, g, _ in seen} == {id(grads)}  # one gradient stack, reused
        for stack in (params, grads):
            assert stack.flat.ndim == 1 and stack.flat.flags.c_contiguous
            start = 0
            for name in LstmParams.NAMES:
                a = getattr(stack, name)
                assert a.flags.c_contiguous and np.shares_memory(a, stack.flat)
                assert len(a) == len(members) and offset(a, stack.flat) == start
                start += a.size
            assert start == stack.flat.size
        # one step from the zero state: Adam steps exactly wx|b|dense_w|dense_b
        assert live == sum(getattr(params, name).size for name in LstmParams.NAMES[:4])
        assert live == offset(params.wh, params.flat)

    def test_padded_entries_stay_zero_and_members_keep_their_width(self, monkeypatch):
        members = mixed_width_members(lookback=1, epochs=3)
        real, widths = lstm.adam_update, []

        def checked(params, grads, *args):
            real(params, grads, *args)
            widths.append(params.widths)
            for arrays in (params, grads):
                for e, width in enumerate(params.widths):
                    assert not arrays.wx[e, :, width:].any()
                    assert not arrays.dense_w[e, width:].any()
                    assert not arrays.dense_b[e, width:].any()

        monkeypatch.setattr(lstm, "adam_update", checked)
        models = train(*members[0], *members[1:])
        assert len(widths) == 3 * len(members[0][0])
        assert set(widths) == {tuple(w for w, _, _ in MIXED_WIDTHS)}
        for (ds, cfg), model in zip(members, models):
            width = ds.inputs.shape[2]
            assert model.params.input_dim == width and model.params.widths == (width,)
            assert model.params.wx.shape == (1, 4 * cfg.hidden, width)
            assert model.params.dense_w.shape == (1, width, cfg.hidden)
            assert model.params.dense_b.shape == (1, width)

    @pytest.mark.parametrize("values, lookback", [
        (np.linspace(0.0, 1.0, 16)[:, None], 3),  # 13 windows, as lockstep_dataset(1, 1) has
        (np.linspace(0.0, 1.0, 13)[:, None], 1),
    ], ids=["lookback", "window-count"])
    def test_members_must_share_window_count_and_lookback(self, values, lookback):
        cfg = TrainConfig(epochs=1, hidden=3)
        with pytest.raises(ValueError, match="window count and the lookback"):
            train(lockstep_dataset(1, 1), cfg, (make_windows(values, lookback), cfg))

    @pytest.mark.parametrize("lookback", [1, 3])
    def test_one_member_equals_a_plain_bptt_and_adam_loop(self, lookback):
        # the reference steps all of flat with Adam; at lookback 1 train skips wh
        ds = lockstep_dataset(1, lookback)
        cfg = TrainConfig(epochs=3, hidden=5, activation="tanh", seed=6)
        rng = np.random.default_rng(cfg.seed)
        params = LstmParams.glorot(cfg.hidden, 1, rng)
        state = AdamState.like(params)
        losses = []
        for _ in range(cfg.epochs):
            total = 0.0
            for k in rng.permutation(len(ds)):
                loss, grads = fresh_gradient(
                    params, ds.inputs[k][None], ds.targets[k][None], (cfg.activation,)
                )
                total += loss[0]
                adam_update(params, grads, state, cfg)
            losses.append(total / len(ds))
        (model,) = train(ds, cfg)
        assert model.params.flat.tobytes() == params.flat.tobytes()
        assert model.epoch_losses == losses

    @pytest.mark.parametrize("field, value", [
        ("hidden", 6), ("epochs", 3), ("learning_rate", 2e-3),
    ])
    def test_members_may_differ_only_in_seed_and_activation(self, field, value):
        base = TrainConfig(epochs=2, hidden=5)
        other = TrainConfig(**{**base.__dict__, "seed": 7, "activation": "tanh", field: value})
        with pytest.raises(ValueError, match=field):
            train(lockstep_dataset(1, 1), base, (lockstep_dataset(1, 1), other))

    @pytest.mark.parametrize("nan_from, named", [
        ({1: 1, 2: 1}, 1),  # two members at epoch 1: the lower index
        ({0: 2, 2: 1}, 2),  # member 2 at epoch 1 comes before member 0 at epoch 2
    ], ids=["lower-index-first", "earlier-epoch-first"])
    def test_divergence_names_the_first_diverging_member(self, monkeypatch, nan_from, named):
        ds = lockstep_dataset(1, 1)
        cfgs = [TrainConfig(epochs=3, hidden=5, activation=a, seed=s) for a, s in MEMBERS]
        real, calls = lstm.bptt_gradient, []

        def nan_loss(*args):
            loss, grads = real(*args)
            epoch = len(calls) // len(ds) + 1
            calls.append(epoch)
            for member, first in nan_from.items():
                if epoch >= first:
                    loss[member] = np.nan
            return loss, grads

        monkeypatch.setattr(lstm, "bptt_gradient", nan_loss)
        with pytest.raises(lstm.TrainingDivergedError) as info:
            train(ds, cfgs[0], *((ds, cfg) for cfg in cfgs[1:]))
        activation, seed = MEMBERS[named]
        epoch = nan_from[named]
        assert info.value.epoch == epoch and max(calls) == epoch
        assert str(info.value) == (
            f"non-finite training loss at epoch {epoch} (activation {activation}, seed {seed})"
        )

    def test_stack_views_share_flat_and_members_copy_their_row(self):
        rng = np.random.default_rng(8)
        singles = [LstmParams.glorot(3, 2, rng) for _ in range(2)]
        stack = LstmParams.stack(singles)
        assert stack.flat.shape == (2 * singles[0].flat.size,)
        for name in LstmParams.NAMES:
            a = getattr(stack, name)
            assert a.shape == (2,) + getattr(singles[0], name).shape[1:]
            assert np.shares_memory(a, stack.flat)
        stack.b[1, 0] = 9.0
        member = stack.member(1)
        assert member.b[0, 0] == 9.0 and not np.shares_memory(member.flat, stack.flat)
        row = np.concatenate([getattr(stack, name)[1].ravel() for name in LstmParams.NAMES])
        assert member.flat.tobytes() == row.tobytes() and member.widths == (2,)
        narrow = LstmParams.glorot(3, 1, rng)
        mixed = LstmParams.stack([narrow, singles[1]])
        assert mixed.widths == (1, 2) and mixed.input_dim == 2
        assert not mixed.wx[0, :, 1:].any() and not mixed.dense_w[0, 1:].any()
        for e, single in enumerate([narrow, singles[1]]):
            assert mixed.member(e).flat.tobytes() == single.flat.tobytes()


def width(schema):
    return 2 if schema == "u3" else 1


def stub_model(schema):
    return LstmModel(zero_params(4, width(schema)), TrainConfig(epochs=1, hidden=4), [])


def glorot_model(schema, rng):
    return LstmModel(LstmParams.glorot(4, width(schema), rng), TrainConfig(epochs=1, hidden=4), [])


def forecast(series, schema, model, days=None, **kwargs):
    """run_schema with `model` on the paper split, or on its last `days`."""
    start = TRAIN_START if days is None else TRAIN_END - dt.timedelta(days=days - 1)
    return run_schema(series, schema, model.config, start, TRAIN_END, model=model, **kwargs)


def stub_forward(monkeypatch, step):
    """Make lstm.forward return `step(window)`, the next normalised day, and
    record every (lookback, D) window it is given."""
    windows = []

    def fake(params, x, ws):
        # run_schema forecasts on a stack of one: x (1, L, D), y (1, D)
        windows.append(x[0].copy())
        return step(x[0])[None]

    monkeypatch.setattr(lstm, "forward", fake)
    return windows


class TestRunSchema:
    def test_u1_u2_share_training_path(self, series):
        cfg = TrainConfig(epochs=3, hidden=4, seed=2)
        (m1,) = train_schema_model(series, [("u1", cfg)], TRAIN_START, TRAIN_END)
        (m2,) = train_schema_model(series, [("u2", cfg)], TRAIN_START, TRAIN_END)
        for k in LstmParams.NAMES:
            np.testing.assert_array_equal(getattr(m1.params, k), getattr(m2.params, k))

    @pytest.mark.parametrize("lookback", [1, 3])
    def test_forecast_schemas_is_bitwise_the_one_model_path(self, series, lookback):
        # what `reproduce` tabulates is what `run --model lstm-uX` gives
        cfgs = [TrainConfig(epochs=3, hidden=4, activation="elu", seed=1),
                TrainConfig(epochs=3, hidden=4, activation="tanh", seed=2)]
        members = [(s, c) for s in SCHEMAS for c in cfgs]
        matrix = lstm.forecast_schemas(series, members, TRAIN_START, TRAIN_END, 15, lookback)
        assert list(matrix) == members
        for (schema, cfg), (model, forecasts) in matrix.items():
            (alone,) = train_schema_model(series, [(schema, cfg)], TRAIN_START, TRAIN_END,
                                          lookback)
            run = run_schema(series, schema, cfg, TRAIN_START, TRAIN_END, 15, lookback,
                             model=alone)
            assert model.params.flat.tobytes() == alone.params.flat.tobytes(), (schema, cfg)
            assert forecasts.tobytes() == run.forecasts.tobytes(), (schema, cfg)

    def test_forecast_schemas_needs_a_member(self, series):
        with pytest.raises(ValueError, match="at least one member"):
            lstm.forecast_schemas(series, [], TRAIN_START, TRAIN_END)

    def test_forecast_schemas_rejects_a_repeated_member_before_training(self, series,
                                                                        monkeypatch):
        # a repeated member would collide on its (schema, config) key
        def no_training(*args):
            raise AssertionError("trained")

        monkeypatch.setattr(lstm, "train", no_training)
        cfg = TrainConfig(epochs=1, hidden=2)
        with pytest.raises(ValueError,
                           match=r"member \('u1', TrainConfig\(epochs=1, hidden=2,.* twice"):
            lstm.forecast_schemas(series, [("u1", cfg), ("u2", cfg), ("u1", cfg)],
                                  TRAIN_START, TRAIN_END)

    def test_train_schema_model_needs_a_member(self, series):
        with pytest.raises(ValueError, match="at least one member"):
            train_schema_model(series, [], TRAIN_START, TRAIN_END)

    @pytest.mark.parametrize("lookback", [1, 3])
    def test_mixed_members_are_each_their_one_member_fit(self, series, lookback):
        members = [("u3", TrainConfig(epochs=3, hidden=4, activation="tanh", seed=5)),
                   ("u1", TrainConfig(epochs=3, hidden=4, activation="elu", seed=1)),
                   ("u2", TrainConfig(epochs=3, hidden=4, activation="tanh", seed=2))]
        models = train_schema_model(series, members, TRAIN_START, TRAIN_END, lookback)
        assert len(models) == len(members)
        for member, model in zip(members, models):
            (alone,) = train_schema_model(series, [member], TRAIN_START, TRAIN_END, lookback)
            assert model.config == member[1]
            assert model.params.flat.tobytes() == alone.params.flat.tobytes(), member
            assert model.epoch_losses == alone.epoch_losses, member

    @staticmethod
    def spy_on_train(monkeypatch):
        """Record, for each `lstm.train` call, its members' (channels, config)."""
        calls = []
        real_train = lstm.train

        def spy(dataset, cfg, *others):
            pairs = [(dataset, cfg), *others]
            calls.append([(d.inputs.shape[2], c) for d, c in pairs])
            return real_train(dataset, cfg, *others)

        monkeypatch.setattr(lstm, "train", spy)
        return calls

    def test_u1_and_u2_of_one_config_train_one_model(self, series, monkeypatch):
        calls = self.spy_on_train(monkeypatch)
        cfg = TrainConfig(epochs=2, hidden=4, seed=3)
        u1, u2 = train_schema_model(series, [("u1", cfg), ("u2", cfg)], TRAIN_START, TRAIN_END)
        assert calls == [[(1, cfg)]]
        assert u1 is u2

    def test_forecast_schemas_trains_one_lockstep_ensemble(self, series, monkeypatch):
        # the study's wall time rests on one `train` call for every member
        calls = self.spy_on_train(monkeypatch)
        cfgs = [TrainConfig(epochs=2, hidden=4, activation=a, seed=s)
                for a, s in (("elu", 1), ("tanh", 2), ("elu", 3))]
        lstm.forecast_schemas(series, [(s, c) for s in SCHEMAS for c in cfgs], TRAIN_START,
                              TRAIN_END)
        # u1 shares u2's model: the univariate members in the configs' order, then u3's
        assert calls == [[(1, c) for c in cfgs] + [(2, c) for c in cfgs]]

    def test_perfect_oracle_stub_scores_zero(self, series, test_actuals, monkeypatch):
        spec = fit_normalizer(slice_window(series, TRAIN_START, TRAIN_END))
        oracle = iter(spec.normalize(test_actuals[:, None]))
        # run_schema forecasts on a stack of one, so forward returns y (1, D)
        monkeypatch.setattr(lstm, "forward", lambda params, x, ws: next(oracle)[None])
        cfg = TrainConfig(epochs=1, hidden=4)
        model = LstmModel(zero_params(4, 1), cfg, [])

        run = run_schema(series, "u2", cfg, TRAIN_START, TRAIN_END, model=model)
        np.testing.assert_allclose(run.forecasts, test_actuals, rtol=1e-12)

    def test_non_finite_forecast_names_the_schema(self, series):
        cfg = TrainConfig(epochs=1, hidden=4)
        params = zero_params(4, 1)
        params.dense_b[:] = np.nan
        model = LstmModel(params, cfg, [])
        with pytest.raises(NonFiniteForecastError, match="schema u2"):
            run_schema(series, "u2", cfg, TRAIN_START, TRAIN_END, model=model)

    def test_identity_stub_is_a_fixed_point(self, series, monkeypatch):
        stub_forward(monkeypatch, lambda window: window[-1])
        last = series.cases[series.dates.index(TRAIN_END)]
        for schema in ("u2", "u3"):
            run = forecast(series, schema, stub_model(schema), lookback=2)
            np.testing.assert_array_equal(run.forecasts, np.full(15, run.forecasts[0]))
            np.testing.assert_allclose(run.forecasts[0], last, rtol=1e-12)

    def test_horizon_one_equals_single_forward(self, series):
        rng = np.random.default_rng(21)
        for schema in SCHEMAS:
            model = glorot_model(schema, rng)
            run = forecast(series, schema, model, horizon=1, lookback=3)
            train_ts = slice_window(series, TRAIN_START, TRAIN_END)
            spec = fit_normalizer(train_ts, schema == "u3")
            window = spec.normalize(train_ts.channels(schema == "u3"))[-3:]
            y = fresh_forward(model.params, window[None])
            assert run.forecasts.tobytes() == spec.denormalize(y)[:, 0].tobytes(), schema

    @pytest.mark.parametrize("lookback", [1, 3])
    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_each_day_is_a_fresh_workspace_forward(self, series, monkeypatch, schema, lookback):
        # run_schema reuses one workspace on every day; no day may see state
        # another day left in it
        real, days = lstm.forward, []

        def recording(params, x, ws):
            y = real(params, x, ws)
            days.append((x.copy(), y.copy(), ws))
            return y

        monkeypatch.setattr(lstm, "forward", recording)
        model = glorot_model(schema, np.random.default_rng(31))
        forecast(series, schema, model, lookback=lookback)
        assert len(days) == 15 and len({id(ws) for _, _, ws in days}) == 1
        for k, (x, y, _) in enumerate(days):
            assert y.tobytes() == fresh_forward(model.params, x).tobytes(), k

    def test_bivariate_stub_gives_arithmetic_progressions(self, series, monkeypatch):
        delta = np.array([0.01, 0.001])
        windows = stub_forward(monkeypatch, lambda window: window[-1] + delta)
        run = forecast(series, "u3", stub_model("u3"))
        spec = fit_normalizer(slice_window(series, TRAIN_START, TRAIN_END), bivariate=True)
        last = spec.normalize(series.channels(True)[series.dates.index(TRAIN_END)])
        steps = np.arange(15)[:, None]
        # both channels of each forecast are fed back as the next window
        np.testing.assert_allclose(np.vstack(windows), last + delta * steps, rtol=1e-12)
        expected = spec.denormalize(last + delta * (steps + 1))[:, 0]
        np.testing.assert_allclose(run.forecasts, expected, rtol=1e-12)

    def test_short_horizon_is_a_prefix_of_a_longer_one(self, series):
        rng = np.random.default_rng(13)
        for schema in SCHEMAS:
            model = glorot_model(schema, rng)
            full = forecast(series, schema, model, horizon=6, lookback=2).forecasts
            part = forecast(series, schema, model, horizon=4, lookback=2).forecasts
            assert part.tobytes() == full[:4].tobytes(), schema

    def test_u1_feeds_back_the_observed_days(self, series, monkeypatch):
        # the stub forecasts 0 every day, so only u1's windows hold observed days
        windows = stub_forward(monkeypatch, lambda window: np.zeros(1))
        forecast(series, "u1", stub_model("u1"), lookback=3)
        spec = fit_normalizer(slice_window(series, TRAIN_START, TRAIN_END))
        observed = spec.normalize(series.channels(False))
        first = series.dates.index(TEST_START)
        assert len(windows) == 15
        for k, window in enumerate(windows):
            assert window.tobytes() == observed[first + k - 3 : first + k].tobytes(), k
        windows.clear()
        forecast(series, "u2", stub_model("u2"), lookback=3)
        assert not windows[3].any()

    def test_window_shorter_than_lookback_is_a_window_error(self, series):
        for schema in SCHEMAS:
            model = stub_model(schema)
            forecast(series, schema, model, lookback=7, days=7)
            for days in (4, 6):
                with pytest.raises(DataError, match="^not enough history before the first test day$"):
                    forecast(series, schema, model, lookback=7, days=days)

    @pytest.mark.parametrize("learning_rate, lookback", [(1e10, 7), (1e300, 1)])
    def test_a_real_divergence_raises_only_training_diverged_error(self, series,
                                                                   learning_rate, lookback):
        # no stub: the fit itself overflows at epoch 1, and numpy warns of none of it
        cfg = TrainConfig(epochs=3, learning_rate=learning_rate)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(lstm.TrainingDivergedError) as info:
                lstm.forecast_schemas(series, [("u3", cfg)], TRAIN_START, TRAIN_END,
                                      lookback=lookback)
        assert caught == []
        assert info.value.epoch == 1
        assert str(info.value) == "non-finite training loss at epoch 1 (activation elu, seed 42)"

    def test_horizon_zero_is_a_horizon_error(self, series):
        for schema in SCHEMAS:
            with pytest.raises(DataError, match="^horizon must be at least 1 day, got 0$"):
                forecast(series, schema, stub_model(schema), horizon=0)
