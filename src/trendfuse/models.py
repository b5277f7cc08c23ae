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
`CELLS` maps every recurrent kind to its parameter layout rows, the
names of its gate blocks and a pair of pure-numpy step functions:

- `forward(x_t, state, weights) -> (state, cache)`;
- `backward(cache, d_state) -> (d_x, d_state_prev, d_blocks)`, with one
  `(rows, d)` pair per gate block: its matrix's gradient is
  `mT(rows) @ d` and its bias's, if it has one, `row_sum(d)`.

Each gate block is stored as the one matrix a step multiplies, as cuDNN
keeps it: the LSTM block is `w` (H + I, 4H), rows [h; x] and columns
[i, f, o, c], with bias `b` (1, 4H); its layout row draws the gates in
the order i, f, c, o into those slots (`numerics.Uniform`). BiLSTM is the
LSTM entry run in both directions. Each step does one matmul of [h, x]
against the block and activates it in place with one np.tanh (`_squash`):
the sigmoid columns are scaled by 0.5 before and after and shifted by
0.5, which is bitwise `numerics.logistic`. `unroll_back` keeps every
step's (rows, d) pairs as it walks back and, after the time loop, joins
each block's rows and d along the row axis, in walk order, so that its
matrix takes its gradient with one matmul and its bias with one row sum
over all steps. The input projection X @ W_x is not hoisted out of the
loop: at these shapes that made training slower, and its (B, T, 4H)
buffers more than double a forward unroll's peak memory at any batch, a
scoring block of up to `train.SCORE_CHUNK` rows included; for the same
reason an unroll without a `saved` list keeps no per-step caches.
SwinLSTM's windowed attention (`window_pool`) reads only the step input,
so it runs once over every step's row before the time loop. The
Mogrifier, ST-LSTM and SwinLSTM steps reuse the LSTM gate block.
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
    and the rest tanh: the scale (0.5 | 1.0) and shift (0.5 | 0.0) of
    `_squash`, and the lower bound (0 | -1) of `_gates_back`'s derivative."""
    sig = np.arange(width) < n_sig
    rows = (np.where(sig, 0.5, 1.0), np.where(sig, 0.5, 0.0), np.where(sig, 0.0, -1.0))
    for row in rows:
        row.flags.writeable = False
    return rows


def _squash(act, n_sig):
    """In place, the logistic on the first n_sig columns of act and tanh on
    the rest, through one np.tanh: bitwise `numerics.logistic` and `np.tanh`,
    since scaling by 0.5 and 1.0 is exact."""
    scale, shift, _ = _gate_rows(act.shape[-1], n_sig)
    act *= scale
    np.tanh(act, out=act)
    act *= scale
    act += shift
    return act


def _gates(cat, w, b, mem, n_sig):
    """Gate activations of cat @ w + b and the new memory f * mem + i * g.

    Columns are [i, f, (o,) g]: sigmoid on the first n_sig, tanh on the
    candidate g.
    """
    hid = mem.shape[-1]
    act = cat @ w
    act += b
    _squash(act, n_sig)
    return act, act[..., hid:2 * hid] * mem + act[..., :hid] * act[..., n_sig:]


def _gates_back(act, mem, g_mem, g_o, n_sig):
    """Gradient of the gate pre-activations from those of the memory and of
    the output gate (None for a block without one). Each column's derivative
    is (act - low) * (1 - act): act * (1 - act) on a sigmoid, (1 + g)(1 - g)
    on the tanh candidate."""
    hid = mem.shape[-1]
    products = [g_mem * act[..., n_sig:], g_mem * mem, g_mem * act[..., :hid]]
    if g_o is not None:
        products.insert(2, g_o)
    d = np.concatenate(products, axis=-1)
    d *= (act - _gate_rows(act.shape[-1], n_sig)[2]) * (1.0 - act)
    return d


def _lstm_forward(x, state, weights):
    """Standard gated update: input/forget/output gates plus tanh candidate."""
    h, c_prev = state
    w, b = weights[:2]
    hid = h.shape[-1]
    cat = np.concatenate([h, x], axis=-1)
    act, c = _gates(cat, w, b, c_prev, 3 * hid)
    t = np.tanh(c)
    return (act[..., 2 * hid:3 * hid] * t, c), (cat, act, c_prev, t, w)


def _lstm_backward(cache, d_state):
    cat, act, c_prev, t, w = cache
    d_h, d_c = d_state
    hid = c_prev.shape[-1]
    g_mem = d_h * act[..., 2 * hid:3 * hid] * (1.0 - t * t) + d_c
    d = _gates_back(act, c_prev, g_mem, d_h * t, 3 * hid)
    d_cat = d @ nm.mT(w)
    return (d_cat[..., hid:], (d_cat[..., :hid], g_mem * act[..., hid:2 * hid]),
            ((cat, d),))


def _gru_forward(x, state, weights):
    """[z, r] = sigmoid([h, x] @ w_zr + b_zr),
    h_tilde = tanh([r * h, x] @ w_h + b_h), h' = (1 - z) * h + z * h_tilde."""
    (h,) = state
    w_zr, b_zr, w_h, b_h = weights
    hid = h.shape[-1]
    cat = np.concatenate([h, x], axis=-1)
    zr = cat @ w_zr
    zr += b_zr
    _squash(zr, 2 * hid)
    z, r = zr[..., :hid], zr[..., hid:]
    cat_r = np.concatenate([r * h, x], axis=-1)
    h_tilde = cat_r @ w_h
    h_tilde += b_h
    np.tanh(h_tilde, out=h_tilde)
    return ((1.0 - z) * h + z * h_tilde,), (cat, zr, cat_r, h_tilde, w_zr, w_h)


def _gru_backward(cache, d_state):
    cat, zr, cat_r, h_tilde, w_zr, w_h = cache
    (g,) = d_state
    hid = h_tilde.shape[-1]
    h, z, r = cat[..., :hid], zr[..., :hid], zr[..., hid:]
    d_h = g * z * (1.0 - h_tilde * h_tilde)
    d_cat_r = d_h @ nm.mT(w_h)
    d_rh = d_cat_r[..., :hid]
    d_zr = np.concatenate([g * (h_tilde - h), d_rh * h], axis=-1)
    d_zr *= zr * (1.0 - zr)
    d_cat = d_zr @ nm.mT(w_zr)
    return (d_cat_r[..., hid:] + d_cat[..., hid:],
            (g * (1.0 - z) + d_rh * r + d_cat[..., :hid],),
            ((cat, d_zr), (cat_r, d_h)))


def _mogrifier_forward(x, state, weights):
    """Alternating Mogrifier rounds on (x, h), then an LSTM step.

    weights[2:] holds one matrix per round (q, r, q, ...): odd rounds rescale
    x by 2*sigmoid(h @ q), even rounds rescale h by 2*sigmoid(x @ r). With
    no rounds this is the plain LSTM.
    """
    h, c = state
    saved = []
    for k, m in enumerate(weights[2:]):
        s = _squash(x @ m if k % 2 else h @ m, m.shape[-1])
        saved.append((s, x, h))
        if k % 2:
            h = 2.0 * s * h
        else:
            x = 2.0 * s * x
    state, cache = _lstm_forward(x, (h, c), weights)
    return state, (cache, saved, weights[2:])


def _mogrifier_backward(cache, d_state):
    cache, saved, mats = cache
    g_x, (g_h, d_c), d_lstm = _lstm_backward(cache, d_state)
    d_mats = [None] * len(mats)
    for k in range(len(mats) - 1, -1, -1):
        s, x, h = saved[k]
        if k % 2:
            d_z = g_h * 2.0 * h * s * (1.0 - s)
            d_mats[k] = (x, d_z)
            g_h = g_h * 2.0 * s
            g_x = g_x + d_z @ nm.mT(mats[k])
        else:
            d_z = g_x * 2.0 * x * s * (1.0 - s)
            d_mats[k] = (h, d_z)
            g_x = g_x * 2.0 * s
            g_h = g_h + d_z @ nm.mT(mats[k])
    return g_x, (g_h, d_c), (*d_lstm, *d_mats)


def _stlstm_forward(x, state, weights):
    """Dual-memory update: a second cell state M with its own gates.

    The M path is driven by [x, M_prev] through a gate block without an
    output gate; the hidden output mixes both memories through w_mix before
    the output gate's tanh.
    """
    h, c_prev, m_prev = state
    w, b, w_m, b_m, w_mix = weights
    hid = h.shape[-1]
    cat = np.concatenate([h, x], axis=-1)
    act, c = _gates(cat, w, b, c_prev, 3 * hid)
    cat_m = np.concatenate([x, m_prev], axis=-1)
    act_m, m = _gates(cat_m, w_m, b_m, m_prev, 2 * hid)
    mems = np.concatenate([c, m], axis=-1)
    t = mems @ w_mix
    np.tanh(t, out=t)
    return ((act[..., 2 * hid:3 * hid] * t, c, m),
            (cat, act, c_prev, cat_m, act_m, m_prev, mems, t, weights))


def _stlstm_backward(cache, d_state):
    cat, act, c_prev, cat_m, act_m, m_prev, mems, t, (w, _, w_m, _, w_mix) = cache
    d_h, d_c, d_m = d_state
    hid = c_prev.shape[-1]
    split = cat_m.shape[-1] - hid
    d_pre = d_h * act[..., 2 * hid:3 * hid] * (1.0 - t * t)
    d_mems = d_pre @ nm.mT(w_mix) + np.concatenate([d_c, d_m], axis=-1)
    g_c, g_m = d_mems[..., :hid], d_mems[..., hid:]
    d = _gates_back(act, c_prev, g_c, d_h * t, 3 * hid)
    d_gm = _gates_back(act_m, m_prev, g_m, None, 2 * hid)
    d_cat, d_cat_m = d @ nm.mT(w), d_gm @ nm.mT(w_m)
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
    [wq, wk, wv, wp], whose replica axes, if any, lead x's axes.
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
    att = (alpha * v[..., None, :]).sum(axis=-1)
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
    d_v = (alpha * d_att[..., :, None]).sum(axis=-2)
    d_s = nm.softmax_back(d_alpha, alpha)
    d_q = (d_s * k[..., None, :]).sum(axis=-1)
    d_k = (d_s * q[..., :, None]).sum(axis=-2)
    grads = (d_q * u, d_k * u, d_v * u, d_out * att)
    pool.grad += np.stack([grad.reshape(*reps, -1).sum(axis=-1) for grad in grads],
                          axis=-1).reshape(pool.shape)
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
    bias or None); each Mogrifier round is a block `q` or `r` without a
    bias. `forward` maps (x_t, state, weights) to (state, cache), weights
    the flat tuple of those names' arrays without the Nones, and the state
    a tuple of `arity` arrays with the hidden row first; `backward` maps
    (cache, d_state) to (d_x, d_state_prev, d_blocks), d_blocks one
    (rows, d) pair per block of `weights`, in order.
    `pool`, when set, is the `window_pool` pair, run over the whole
    step-input block once before the time loop. Each name in `directions`
    is a parameter sub-prefix run in turn, the second one over the reversed
    sequence.
    """

    layout: Callable[[ModelSpec, int], Iterable[Row]]
    weights: Callable[[ModelSpec], tuple[str, ...]]
    forward: Callable[[np.ndarray, tuple, tuple], tuple]
    backward: Callable[[object, tuple], tuple]
    arity: int
    directions: tuple[str, ...] = ("",)
    pool: tuple[Callable, Callable] | None = None


CELLS = {
    "lstm": Cell(_lstm_layout, lambda spec: (("w", "b"),), _lstm_forward, _lstm_backward, 2),
    "bilstm": Cell(_lstm_layout, lambda spec: (("w", "b"),), _lstm_forward, _lstm_backward, 2,
                   directions=("fwd", "bwd")),
    "gru": Cell(_gru_layout, lambda spec: (("w_zr", "b_zr"), ("w_h", "b_h")),
                _gru_forward, _gru_backward, 1),
    "mogrifier": Cell(_mogrifier_layout, lambda spec: (("w", "b"), *(
        ("r" if k % 2 else "q", None) for k in range(spec.mogrifier_rounds))),
        _mogrifier_forward, _mogrifier_backward, 2),
    "stlstm": Cell(_stlstm_layout, lambda spec: (("w", "b"), ("w_m", "b_m"), ("w_mix", None)),
                   _stlstm_forward, _stlstm_backward, 3),
    "swinlstm": Cell(_swinlstm_layout, lambda spec: (("w", "b"),), _lstm_forward,
                     _lstm_backward, 2, pool=(window_pool, window_pool_back)),
}


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
    concatenates both directions' final states. Per-step caches are kept
    only in `saved`.
    """
    if spec.kind not in CELLS:
        raise ConfigError(f"cannot unroll non-recurrent kind {spec.kind!r}")
    if xs.ndim < 3 or xs.shape[-2] == 0:
        raise ContractError(f"step inputs must be a non-empty (B, T, I) block, got {xs.shape}")
    cell = CELLS[spec.kind]
    if cell.pool is not None:
        xs = cell.pool[0](xs, params, spec.swin_window, saved)
    blocks = cell.weights(spec)
    names = [n for block in blocks for n in block if n is not None]
    subs = [params if not d else {k[len(d) + 1:]: v for k, v in params.items()
                                  if k.startswith(d + ".")} for d in cell.directions]
    weights = [tuple(sub[n].data for n in names) for sub in subs]
    hid, lead, (steps, width) = spec.hidden, xs.shape[:-2], xs.shape[-2:]
    if weights[0][0].shape[-2] != hid + width:
        raise ShapeError(f"gate weights {weights[0][0].shape} do not fit "
                         f"[h, x] rows of width {hid} + {width}")
    zero = np.zeros((*lead, hid))
    out = np.empty((*lead, steps, hid * len(subs)))
    runs = []
    for k, w in enumerate(weights):
        state, run = (zero,) * cell.arity, []
        for t in (range(steps - 1, -1, -1) if k else range(steps)):
            state, cache = cell.forward(xs[..., t, :], state, w)
            out[..., t, k * hid:(k + 1) * hid] = state[0]
            if saved is not None:
                run.append((t, cache))
            del cache  # unkept, its memory is free for the next step
        runs.append(run)
    final = out[..., -1, :] if len(subs) == 1 else np.concatenate(
        [out[..., -1, :hid], out[..., 0, hid:]], axis=-1)
    if saved is not None:
        saved.append((cell, blocks, subs, runs, xs.shape, zero))
    return out, final


def unroll_back(g_steps: np.ndarray | None, g_final: np.ndarray | None,
                saved: list) -> np.ndarray:
    """BPTT: the step inputs' gradient, from those of the step rows and of
    the final row (either may be None)."""
    cell, blocks, subs, runs, shape, zero = saved.pop()
    hid = zero.shape[-1]
    d_xs = np.zeros(shape)
    for k, (sub, run) in enumerate(zip(subs, runs)):
        cols, last = slice(k * hid, (k + 1) * hid), run[-1][0]
        d_state, walk = (zero,) * cell.arity, []
        for t, cache in reversed(run):
            d_h = d_state[0] if g_steps is None else d_state[0] + g_steps[..., t, cols]
            if g_final is not None and t == last:
                d_h = d_h + g_final[..., cols]
            d_x, d_state, pairs = cell.backward(cache, (d_h, *d_state[1:]))
            walk.append(pairs)
            d_xs[..., t, :] += d_x
        for (matrix, bias), *steps in zip(blocks, *walk):
            rows, d = (np.concatenate(a, axis=-2) for a in zip(*steps))
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
