"""Predictor zoo: recurrent cells, a feedforward baseline, and the output head.

All cells operate on row-batches: step input x is (B, I), states are
(B, H). Gate weights act on the concatenated [h_prev, x] row, matching
the classic formulation. Variants are written so that specific parameter
settings collapse them exactly onto the plain LSTM, which the test suite
uses as a correctness oracle. Every primitive also takes (R, B, ·) blocks
against parameters stacked as (R, ...), for `train.train_replicas`, and
is a numpy forward plus `<name>_back`, on the `saved`-list convention
that `fusion`'s docstring defines.

`unroll` runs a whole sequence, after the cuDNN sequence kernels
(Appleyard et al., arXiv:1604.01946), and `unroll_back` runs BPTT.
`CELLS` maps every recurrent kind to its parameter layout rows, its gate
blocks and a pair of pure-numpy step functions (`Cell` gives the
contract):

- `forward(x_t, state, weights, acts) -> (state, cache)`, activating into
  `acts`;
- `backward(cache, d_state, w_t, slopes) -> (d_x, d_state_prev,
  d_blocks)`, with one `(rows, d)` pair per gate block: its matrix's
  gradient is `mT(rows) @ d` and its bias's, if it has one, `row_sum(d)`.

Each gate block is stored as the one matrix a step multiplies, as cuDNN
keeps it: the LSTM block is `w` (H + I, 4H), rows [h; x] and columns
[i, f, o, c], with bias `b` (1, 4H); its layout row draws the gates in
the order i, f, c, o into those slots (`numerics.Uniform`). BiLSTM is the
LSTM entry run in both directions. Each unroll scales the sigmoid columns
of every gate block by 0.5 once (`_direction`), which is exact. Each step
does one matmul of [h, x] against the halved block and activates it in
place with one np.tanh (`_squash`): the sigmoid columns are scaled by 0.5
after it and shifted by 0.5, which is bitwise `numerics.logistic`.

With a `saved` list each direction gives every activation its steps keep
(the gate blocks' activations and, in the LSTM family, tanh(c)) one
(T, ..., B, width) block, its steps in the order BPTT walks them, and
each step activates into its own slot. Before its time loop `unroll_back`
takes each block's derivative, (a - low)(1 - a) or 1 - a² (`_slope`),
once, and each step backward reads its slot. A step writes each gate
block's d, the gradient of its pre-activations, over that block's slope,
so after the loop the slope block holds the block's d for every step, in
walk order: the block's matrix takes its gradient with one matmul
against its rows joined in walk order, and its bias with one row sum. The
input projection X @ W_x is not hoisted out of the loop: at these shapes
that made training slower, and its (B, T, 4H) buffers more than double a
forward unroll's peak memory at any batch, a scoring block of up to
`train.SCORE_CHUNK` rows included; for the same reason an unroll without
a `saved` list keeps no per-step caches and allocates no (T, ...) block:
each step makes its own temporaries. SwinLSTM's windowed attention
(`window_pool`) reads only the step input, so it runs once over every
step's row before the time loop. The Mogrifier, ST-LSTM and SwinLSTM
steps reuse the LSTM gate block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, ShapeError, check_integer
from .numerics import Row, Tensor

VALID_KINDS = ("feedforward", "lstm", "bilstm", "gru", "mogrifier", "stlstm", "swinlstm")

RECURRENT_KINDS = tuple(k for k in VALID_KINDS if k != "feedforward")

@dataclass
class ModelSpec:
    kind: str = "lstm"
    hidden: int = 32
    mogrifier_rounds: int = 4
    swin_window: int = 2

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; "
                              f"valid kinds: {', '.join(VALID_KINDS)}")
        for name, low in (("hidden", 1), ("mogrifier_rounds", 0), ("swin_window", 1)):
            check_integer(name, getattr(self, name), low)

    @property
    def output_width(self) -> int:
        return 2 * self.hidden if self.kind == "bilstm" else self.hidden


# --- numpy step pairs ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _gate_rows(width: int, n_sig: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column rows of a gate block whose first n_sig columns are sigmoid
    and the rest tanh: the scale (0.5 | 1.0) of `_direction` and `_squash`,
    the shift (0.5 | 0.0) of `_squash`, and the lower bound (0 | -1) of
    `_slope`."""
    sig = np.arange(width) < n_sig
    rows = (np.where(sig, 0.5, 1.0), np.where(sig, 0.5, 0.0), np.where(sig, 0.0, -1.0))
    for row in rows:
        row.flags.writeable = False
    return rows


def _squash(act, n_sig):
    """In place, the logistic on the first n_sig columns and tanh on the
    rest, through one np.tanh, of pre-activations whose sigmoid columns are
    already halved (`_direction`): bitwise `numerics.logistic` and `np.tanh`
    of the unhalved ones, since scaling by 0.5 and 1.0 is exact."""
    scale, shift, _ = _gate_rows(act.shape[-1], n_sig)
    np.tanh(act, out=act)
    act *= scale
    act += shift
    return act


def _slope(act, n_sig):
    """Derivative of a block's activations by their pre-activations, as a
    new array: (act - low) * (1 - act) per column, so act * (1 - act) on
    its first n_sig columns, sigmoid, and (1 + g)(1 - g) on the tanh ones,
    or 1 - g * g on a block of tanh columns only."""
    if not n_sig:
        slope = act * act
        return np.subtract(1.0, slope, out=slope)
    slope = act - _gate_rows(act.shape[-1], n_sig)[2]
    slope *= 1.0 - act
    return slope


def _gates(cat, w, b, mem, n_sig, out):
    """Gate activations of cat @ w + b, into `out` (None: a new array), and
    the new memory f * mem + i * g; w and b come halved (`_direction`).

    Columns are [i, f, (o,) g]: sigmoid on the first n_sig, tanh on the
    candidate g.
    """
    hid = mem.shape[-1]
    act = np.matmul(cat, w, out=out)
    act += b
    _squash(act, n_sig)
    return act, act[..., hid:2 * hid] * mem + act[..., :hid] * act[..., n_sig:]


def _gates_back(act, mem, g_mem, g_o, n_sig, slope):
    """Gradient of the gate pre-activations from those of the memory and of
    the output gate (None for a block without one), written over the
    block's `_slope`."""
    hid = mem.shape[-1]
    products = [g_mem * act[..., n_sig:], g_mem * mem, g_mem * act[..., :hid]]
    if g_o is not None:
        products.insert(2, g_o)
    return np.multiply(np.concatenate(products, axis=-1), slope, out=slope)


def _lstm_forward(x, state, weights, acts):
    """Standard gated update: input/forget/output gates plus tanh candidate."""
    h, c_prev = state
    w, b = weights[:2]
    hid = h.shape[-1]
    cat = np.concatenate([h, x], axis=-1)
    act, c = _gates(cat, w, b, c_prev, 3 * hid, acts[0])
    t = np.tanh(c, out=acts[-1])
    return (act[..., 2 * hid:3 * hid] * t, c), (cat, act, c_prev, t)


def _lstm_backward(cache, d_state, w_t, slopes):
    cat, act, c_prev, t = cache
    d_h, d_c = d_state
    hid = c_prev.shape[-1]
    g_mem = d_h * act[..., 2 * hid:3 * hid] * slopes[-1] + d_c
    d = _gates_back(act, c_prev, g_mem, d_h * t, 3 * hid, slopes[0])
    d_cat = d @ w_t[0]
    return (d_cat[..., hid:], (d_cat[..., :hid], g_mem * act[..., hid:2 * hid]),
            ((cat, d),))


def _gru_forward(x, state, weights, acts):
    """[z, r] = sigmoid([h, x] @ w_zr + b_zr),
    h_tilde = tanh([r * h, x] @ w_h + b_h), h' = (1 - z) * h + z * h_tilde."""
    (h,) = state
    w_zr, b_zr, w_h, b_h = weights
    hid = h.shape[-1]
    cat = np.concatenate([h, x], axis=-1)
    zr = np.matmul(cat, w_zr, out=acts[0])
    zr += b_zr
    _squash(zr, 2 * hid)
    z, r = zr[..., :hid], zr[..., hid:]
    cat_r = np.concatenate([r * h, x], axis=-1)
    h_tilde = np.matmul(cat_r, w_h, out=acts[1])
    h_tilde += b_h
    np.tanh(h_tilde, out=h_tilde)
    return ((1.0 - z) * h + z * h_tilde,), (cat, zr, cat_r, h_tilde)


def _gru_backward(cache, d_state, w_t, slopes):
    cat, zr, cat_r, h_tilde = cache
    w_zr, _, w_h, _ = w_t
    (g,) = d_state
    hid = h_tilde.shape[-1]
    h, z, r = cat[..., :hid], zr[..., :hid], zr[..., hid:]
    d_h = np.multiply(g * z, slopes[1], out=slopes[1])
    d_cat_r = d_h @ w_h
    d_rh = d_cat_r[..., :hid]
    d_zr = np.multiply(np.concatenate([g * (h_tilde - h), d_rh * h], axis=-1), slopes[0],
                       out=slopes[0])
    d_cat = d_zr @ w_zr
    return (d_cat_r[..., hid:] + d_cat[..., hid:],
            (g * (1.0 - z) + d_rh * r + d_cat[..., :hid],),
            ((cat, d_zr), (cat_r, d_h)))


def _mogrifier_forward(x, state, weights, acts):
    """Alternating Mogrifier rounds on (x, h), then an LSTM step.

    weights[2:] holds one matrix per round (q, r, q, ...): odd rounds rescale
    x by 2*sigmoid(h @ q), even rounds rescale h by 2*sigmoid(x @ r). With
    no rounds this is the plain LSTM. Round k activates into acts[k + 1].
    """
    h, c = state
    saved = []
    for k, m in enumerate(weights[2:]):
        s = _squash(np.matmul(x if k % 2 else h, m, out=acts[k + 1]), m.shape[-1])
        saved.append((s, x, h))
        if k % 2:
            h = 2.0 * s * h
        else:
            x = 2.0 * s * x
    state, cache = _lstm_forward(x, (h, c), weights, (acts[0], acts[-1]))
    return state, (cache, saved)


def _mogrifier_backward(cache, d_state, w_t, slopes):
    cache, saved = cache
    mats = w_t[2:]
    g_x, (g_h, d_c), d_lstm = _lstm_backward(cache, d_state, w_t, (slopes[0], slopes[-1]))
    d_mats = [None] * len(mats)
    for k in range(len(mats) - 1, -1, -1):
        s, x, h = saved[k]
        if k % 2:
            d_z = np.multiply(g_h * 2.0 * h, slopes[k + 1], out=slopes[k + 1])
            d_mats[k] = (x, d_z)
            g_h = g_h * 2.0 * s
            g_x = g_x + d_z @ mats[k]
        else:
            d_z = np.multiply(g_x * 2.0 * x, slopes[k + 1], out=slopes[k + 1])
            d_mats[k] = (h, d_z)
            g_x = g_x * 2.0 * s
            g_h = g_h + d_z @ mats[k]
    return g_x, (g_h, d_c), (*d_lstm, *d_mats)


def _stlstm_forward(x, state, weights, acts):
    """Dual-memory update: a second cell state M with its own gates.

    The M path is driven by [x, M_prev] through a gate block without an
    output gate; the hidden output mixes both memories through w_mix before
    the output gate's tanh.
    """
    h, c_prev, m_prev = state
    w, b, w_m, b_m, w_mix = weights
    hid = h.shape[-1]
    cat = np.concatenate([h, x], axis=-1)
    act, c = _gates(cat, w, b, c_prev, 3 * hid, acts[0])
    cat_m = np.concatenate([x, m_prev], axis=-1)
    act_m, m = _gates(cat_m, w_m, b_m, m_prev, 2 * hid, acts[1])
    mems = np.concatenate([c, m], axis=-1)
    t = np.matmul(mems, w_mix, out=acts[2])
    np.tanh(t, out=t)
    return ((act[..., 2 * hid:3 * hid] * t, c, m),
            (cat, act, c_prev, cat_m, act_m, m_prev, mems, t))


def _stlstm_backward(cache, d_state, w_t, slopes):
    cat, act, c_prev, cat_m, act_m, m_prev, mems, t = cache
    w, _, w_m, _, w_mix = w_t
    d_h, d_c, d_m = d_state
    hid = c_prev.shape[-1]
    split = cat_m.shape[-1] - hid
    d_pre = np.multiply(d_h * act[..., 2 * hid:3 * hid], slopes[2], out=slopes[2])
    d_mems = d_pre @ w_mix + np.concatenate([d_c, d_m], axis=-1)
    g_c, g_m = d_mems[..., :hid], d_mems[..., hid:]
    d = _gates_back(act, c_prev, g_c, d_h * t, 3 * hid, slopes[0])
    d_gm = _gates_back(act_m, m_prev, g_m, None, 2 * hid, slopes[1])
    d_cat, d_cat_m = d @ w, d_gm @ w_m
    return (d_cat[..., hid:] + d_cat_m[..., :split],
            (d_cat[..., :hid], g_c * act[..., hid:2 * hid],
             g_m * act_m[..., hid:2 * hid] + d_cat_m[..., split:]),
            ((cat, d), (cat_m, d_gm), (mems, d_pre)))


# --- SwinLSTM's input pooling, hoisted out of the time loop -------------------------


def window_pool(x: np.ndarray, params: Mapping[str, Tensor], window: int,
                saved: list | None = None) -> np.ndarray:
    """SwinLSTM's windowed self-attention and pooling.

    Each row along the last axis of x (any leading axes) is zero-padded to a
    multiple of `window`. Inside each window, every scalar entry u_i attends
    over the window's entries with scores (u_i * wq) * (u_j * wk) and values
    u_j * wv (max-shifted softmax); each window's output is
    u + attention * wp, and the windows are averaged elementwise into a row
    of width `window`. The scales are the (..., 1, 4) row `params["pool"]`,
    [wq, wk, wv, wp], whose replica axes, if any, lead x's axes. Each sum
    over a window's entries is a matmul, and the backward sums the four
    scales' gradients in one reduction.
    """
    pool = params["pool"].data
    lead, feat, reps = x.shape[:-1], x.shape[-1], pool.shape[:-2]
    pad = (-feat) % window
    xd = np.concatenate([x, np.zeros((*lead, pad))], axis=-1) if pad else x
    n_windows = xd.shape[-1] // window
    u = xd.reshape(*lead, n_windows, window)
    scalar = (*reps, *(1,) * (u.ndim - len(reps)))
    aq, ak, av, ap = (pool[..., k].reshape(scalar) for k in range(4))
    q, k, v = u * aq, u * ak, u * av
    alpha = nm.softmax_probs(q[..., :, None] * k[..., None, :])
    att = (alpha @ v[..., :, None])[..., 0]
    out = u + att * ap
    if saved is not None:
        saved.append((params, feat, u, (aq, ak, av, ap), q, k, v, alpha, att))
    return out.sum(axis=-2) * (1.0 / n_windows)


def window_pool_back(g: np.ndarray, saved: list) -> np.ndarray:
    params, feat, u, (aq, ak, av, ap), q, k, v, alpha, att = saved.pop()
    pool = params["pool"]
    lead, reps = u.shape[:-2], pool.shape[:-2]
    d_out = np.broadcast_to((g * (1.0 / u.shape[-2]))[..., None, :], u.shape)
    d_att = d_out * ap
    d_alpha = d_att[..., :, None] * v[..., None, :]
    d_v = (d_att[..., None, :] @ alpha)[..., 0, :]
    d_s = nm.softmax_back(d_alpha, alpha)
    d_q = (d_s @ k[..., :, None])[..., 0]
    d_k = (q[..., None, :] @ d_s)[..., 0, :]
    grads = np.stack((d_q * u, d_k * u, d_v * u, d_out * att), axis=len(reps))
    pool.grad += grads.reshape(*reps, 4, -1).sum(axis=-1).reshape(pool.shape)
    d_u = d_out + d_q * aq + d_k * ak + d_v * av
    return d_u.reshape(*lead, -1)[..., :feat]


# --- parameter layouts ------------------------------------------------------------


def _gate_block(suffix: str, order: tuple[int, ...], rows: int, hidden: int) -> Iterator[Row]:
    """One gate block: the weight `w{suffix}` (rows, hidden * len(order)),
    whose gates are drawn in turn into the column slots `order` gives them,
    and its zero bias `b{suffix}`."""
    yield f"w{suffix}", (rows, hidden * len(order)), nm.Uniform(rows, order)
    yield f"b{suffix}", (1, hidden * len(order)), 0.0


def _lstm_layout(spec: ModelSpec, input_width: int) -> Iterator[Row]:
    # drawn i, f, c, o; stored i, f, o, c
    return _gate_block("", (0, 1, 3, 2), spec.hidden + input_width, spec.hidden)


def _gru_layout(spec: ModelSpec, input_width: int) -> Iterator[Row]:
    rows = spec.hidden + input_width
    yield from _gate_block("_zr", (0, 1), rows, spec.hidden)
    yield from _gate_block("_h", (0,), rows, spec.hidden)


def _mogrifier_layout(spec: ModelSpec, input_width: int) -> Iterator[Row]:
    hidden = spec.hidden
    yield from _lstm_layout(spec, input_width)
    if spec.mogrifier_rounds >= 1:
        yield "q", (hidden, input_width), nm.Uniform(hidden)
    if spec.mogrifier_rounds >= 2:
        yield "r", (input_width, hidden), nm.Uniform(input_width)


def _stlstm_layout(spec: ModelSpec, input_width: int) -> Iterator[Row]:
    hidden = spec.hidden
    yield from _lstm_layout(spec, input_width)
    yield from _gate_block("_m", (0, 1, 2), input_width + hidden, hidden)
    yield "w_mix", (2 * hidden, hidden), nm.Uniform(2 * hidden)


def _swinlstm_layout(spec: ModelSpec, input_width: int) -> Iterator[Row]:
    yield "pool", (1, 4), nm.Uniform(1)
    yield from _lstm_layout(spec, spec.swin_window)


# --- the cell table ---------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """How one recurrent kind lays out its parameters and steps through time.

    `layout(spec, input_width)` yields the (name, shape, start) rows of one
    direction, names without the `cell.` prefix, in draw order.
    `weights(spec)` names each gate block once, in order, as (matrix,
    bias or None, tanh columns): its activation is the logistic on its
    first columns and tanh on that many last ones. Each Mogrifier round is
    a block `q` or `r` without a bias. A step keeps one activation per
    block, of the matrix's width, then, with `tanh_memory`, tanh(c) of
    width H.

    `forward` maps (x_t, state, weights, acts) to (state, cache): weights
    the flat tuple of those names' arrays without the Nones, each block's
    sigmoid columns halved (`_direction`); the state a tuple of `arity`
    arrays with the hidden row first; acts one array per activation to
    write it into, or Nones for new ones. `backward` maps (cache, d_state,
    w_t, slopes) to (d_x, d_state_prev, d_blocks): w_t the stored arrays,
    each transposed (`numerics.mT`), slopes one array per activation
    holding its `_slope` at that step, and d_blocks one (rows, d) pair per
    block, in order, where d, written over that block's slope, is the
    gradient of its pre-activations.
    `pool`, when set, is the `window_pool` pair, run over the whole
    step-input block once before the time loop. Each name in `directions`
    is a parameter sub-prefix run in turn, the second one over the reversed
    sequence.
    """

    layout: Callable[[ModelSpec, int], Iterable[Row]]
    weights: Callable[[ModelSpec], tuple[tuple[str, str | None, int], ...]]
    forward: Callable[[np.ndarray, tuple, tuple, tuple], tuple]
    backward: Callable[[object, tuple, tuple, tuple], tuple]
    arity: int
    tanh_memory: bool = False
    directions: tuple[str, ...] = ("",)
    pool: tuple[Callable, Callable] | None = None


def _lstm_blocks(spec: ModelSpec) -> tuple[tuple[str, str | None, int], ...]:
    return (("w", "b", spec.hidden),)


CELLS = {
    "lstm": Cell(_lstm_layout, _lstm_blocks, _lstm_forward, _lstm_backward, 2, True),
    "bilstm": Cell(_lstm_layout, _lstm_blocks, _lstm_forward, _lstm_backward, 2, True,
                   directions=("fwd", "bwd")),
    "gru": Cell(_gru_layout, lambda spec: (("w_zr", "b_zr", 0), ("w_h", "b_h", spec.hidden)),
                _gru_forward, _gru_backward, 1),
    "mogrifier": Cell(_mogrifier_layout, lambda spec: (*_lstm_blocks(spec), *(
        ("r" if k % 2 else "q", None, 0) for k in range(spec.mogrifier_rounds))),
        _mogrifier_forward, _mogrifier_backward, 2, True),
    "stlstm": Cell(_stlstm_layout, lambda spec: (
        *_lstm_blocks(spec), ("w_m", "b_m", spec.hidden), ("w_mix", None, spec.hidden)),
        _stlstm_forward, _stlstm_backward, 3),
    "swinlstm": Cell(_swinlstm_layout, _lstm_blocks, _lstm_forward, _lstm_backward, 2, True,
                     pool=(window_pool, window_pool_back)),
}


def _direction(cell: Cell, blocks: tuple, sub: Mapping[str, Tensor],
               hid: int) -> tuple[tuple, tuple, list[tuple[int, int]]]:
    """One direction's block arrays, flat in `Cell.weights` order without
    the Nones, for its steps: transposed, for `backward`, and with each
    block's sigmoid columns scaled by 0.5, `_squash`'s first multiply, for
    `forward`; and the (width, sigmoid columns) of each activation a step
    keeps."""
    w_t, halved, acts = [], [], []
    for matrix, bias, tanh in blocks:
        width = sub[matrix].shape[-1]
        n_sig = width - tanh
        acts.append((width, n_sig))
        scale = _gate_rows(width, n_sig)[0] if tanh else 0.5
        for name in (matrix, bias):
            if name is not None:
                data = sub[name].data
                w_t.append(nm.mT(data))
                halved.append(data * scale if n_sig else data)
    if cell.tanh_memory:
        acts.append((hid, 0))
    return tuple(w_t), tuple(halved), acts


def feedforward_net(prices: np.ndarray, priors: np.ndarray, context: np.ndarray,
                    params: Mapping[str, Tensor], saved: list | None = None) -> np.ndarray:
    """Probability of an upward move from the price window, the priors and
    the text context, side by side: two hidden ReLU layers down to one
    logit, then the logistic. Only the context takes a gradient.
    """
    x = np.concatenate([prices, priors, context], axis=-1)
    layers = [(params[f"w{k}"], params[f"b{k}"]) for k in (1, 2, 3)]
    if x.shape[-1] != layers[0][0].shape[-2]:
        raise ShapeError(f"input width {x.shape} does not match first layer "
                         f"{layers[0][0].shape}")
    acts = [x]  # each layer's input, then the logit
    for k, (w, b) in enumerate(layers):
        z = acts[-1] @ w.data + b.data
        acts.append(np.maximum(0.0, z) if k < 2 else z)
    p = nm.logistic(acts[-1])
    if saved is not None:
        saved.append((acts, layers, p, context.shape[-1]))
    return p


def feedforward_net_back(g: np.ndarray, saved: list) -> np.ndarray:
    acts, layers, p, context_width = saved.pop()
    g = g * p * (1.0 - p)
    for k in (2, 1, 0):
        if k < 2:
            g = g * (acts[k + 1] > 0)
        g = nm.affine_back(acts[k], *layers[k], g)
    return g[..., g.shape[-1] - context_width:]


def output_head(z: np.ndarray, params: Mapping[str, Tensor],
                saved: list | None = None) -> np.ndarray:
    """Probability of an upward move, p = sigmoid(z @ w_out + b_out)."""
    w, b = params["w_out"], params["b_out"]
    if z.shape[-1] != w.shape[-2]:
        raise ShapeError(f"head input {z.shape} does not fit weights {w.shape}")
    p = nm.logistic(z @ w.data + b.data)
    if saved is not None:
        saved.append((z, params, p))
    return p


def output_head_back(g: np.ndarray, saved: list) -> np.ndarray:
    z, params, p = saved.pop()
    return nm.affine_back(z, params["w_out"], params["b_out"], g * p * (1.0 - p))


def unroll(spec: ModelSpec, params: Mapping[str, Tensor], xs: np.ndarray,
           saved: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run a recurrent model over the (..., B, T, I) step inputs.

    Returns the step rows (..., B, T, H * directions), for attention
    pooling, and the final row. For bilstm a step row pairs the forward
    state with the co-located backward state, and the final row
    concatenates both directions' final states. Only with a `saved` list
    does a direction keep its per-step caches and give each activation one
    (T, ..., B, width) block, steps in the order BPTT walks them, whose
    slot each step activates into; without it each step makes its own
    temporaries.
    """
    if spec.kind not in CELLS:
        raise ConfigError(f"cannot unroll non-recurrent kind {spec.kind!r}")
    if xs.ndim < 3 or xs.shape[-2] == 0:
        raise ContractError(f"step inputs must be a non-empty (B, T, I) block, got {xs.shape}")
    cell = CELLS[spec.kind]
    if cell.pool is not None:
        xs = cell.pool[0](xs, params, spec.swin_window, saved)
    blocks = cell.weights(spec)
    subs = [params if not d else {k[len(d) + 1:]: v for k, v in params.items()
                                  if k.startswith(d + ".")} for d in cell.directions]
    hid, lead, (steps, width) = spec.hidden, xs.shape[:-2], xs.shape[-2:]
    dirs = [_direction(cell, blocks, sub, hid) for sub in subs]
    if dirs[0][1][0].shape[-2] != hid + width:
        raise ShapeError(f"gate weights {dirs[0][1][0].shape} do not fit "
                         f"[h, x] rows of width {hid} + {width}")
    zero = np.zeros((*lead, hid))
    out = np.empty((*lead, steps, hid * len(subs)))
    runs = []
    for k, (w_t, halved, acts) in enumerate(dirs):
        order = range(steps - 1, -1, -1) if k else range(steps)
        if saved is None:
            values, slots = None, [(None,) * len(acts)] * steps
        else:
            values = [np.empty((steps, *lead, w)) for w, _ in acts]
            slots = list(zip(*values))
            if not k:  # BPTT walks the first direction from its last step back
                slots.reverse()
        state, run = (zero,) * cell.arity, []
        for t in order:
            state, cache = cell.forward(xs[..., t, :], state, halved, slots[t])
            out[..., t, k * hid:(k + 1) * hid] = state[0]
            if saved is not None:
                run.append((t, cache))
            del cache  # unkept, its memory is free for the next step
        runs.append((w_t, acts, values, run))
    final = out[..., -1, :] if len(subs) == 1 else np.concatenate(
        [out[..., -1, :hid], out[..., 0, hid:]], axis=-1)
    if saved is not None:
        saved.append((cell, blocks, subs, runs, xs.shape, zero))
    return out, final


def unroll_back(g_steps: np.ndarray | None, g_final: np.ndarray | None,
                saved: list) -> np.ndarray:
    """BPTT: the step inputs' gradient, from those of the step rows and of
    the final row (either may be None). Each activation block's `_slope` is
    taken once, and each gate block's d ends up in its slope block (see the
    module docstring)."""
    cell, blocks, subs, runs, shape, zero = saved.pop()
    hid = zero.shape[-1]
    d_xs = np.zeros(shape)
    for k, (sub, (w_t, acts, values, run)) in enumerate(zip(subs, runs)):
        slopes = [_slope(a, n_sig) for a, (_, n_sig) in zip(values, acts)]
        by_step = list(zip(*slopes))
        cols, last = slice(k * hid, (k + 1) * hid), run[-1][0]
        d_state, walk = (zero,) * cell.arity, []
        for j, (t, cache) in enumerate(reversed(run)):
            d_h = d_state[0] if g_steps is None else d_state[0] + g_steps[..., t, cols]
            if g_final is not None and t == last:
                d_h = d_h + g_final[..., cols]
            d_x, d_state, pairs = cell.backward(cache, (d_h, *d_state[1:]), w_t, by_step[j])
            walk.append(pairs)
            d_xs[..., t, :] += d_x
        for (matrix, bias, _), d, *pairs in zip(blocks, slopes, *walk):
            rows = np.concatenate([r for r, _ in pairs], axis=-2)
            # the steps' d joined in walk order: a reshape of (T, B, w), a copy
            # of (T, R, B, w)
            d = d.reshape(-1, d.shape[-1]) if d.ndim == 3 else np.concatenate(d, axis=-2)
            sub[matrix].grad += nm.mT(rows) @ d
            if bias is not None:
                sub[bias].grad += nm.row_sum(d)
    return d_xs if cell.pool is None else cell.pool[1](d_xs, saved)


def model_layout(spec: ModelSpec, input_width: int) -> Iterator[Row]:
    """The `cell.*` rows of one predictor, in draw order.

    Variant-specific extras come after the shared gate block, so a
    mogrifier with zero rounds consumes exactly the same random stream as a
    plain LSTM.
    """
    hidden = spec.hidden
    if spec.kind == "feedforward":
        h1 = max(2 * hidden, 4)
        for k, (rows, cols) in enumerate(((input_width, h1), (h1, hidden), (hidden, 1)), 1):
            yield f"cell.w{k}", (rows, cols), nm.Uniform(rows)
            yield f"cell.b{k}", (1, cols), 0.0
        return
    cell = CELLS[spec.kind]
    for direction in cell.directions:
        prefix = f"cell.{direction}." if direction else "cell."
        for name, shape, start in cell.layout(spec, input_width):
            yield prefix + name, shape, start


def head_layout(width: int) -> Iterator[Row]:
    yield "head.w_out", (width, 1), nm.Uniform(width)
    yield "head.b_out", (1, 1), 0.0
