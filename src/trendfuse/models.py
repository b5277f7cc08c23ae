"""Predictor zoo: recurrent cells, a feedforward baseline, and the output head.

All cells operate on row-batches: step input x is (B, I), states are
(B, H). Gate weights act on the concatenated [h_prev, x] row, matching
the classic formulation. Variants are written so that specific parameter
settings collapse them exactly onto the plain LSTM, which the test suite
uses as a correctness oracle. Every primitive also takes (R, B, ·) blocks
against parameters stacked as (R, ...), for `train.train_replicas`.

`unroll` runs a whole sequence as one tape node (`numerics.fused`) with two
outputs, the step rows (B, T, H * directions) and the final row, after the
cuDNN sequence kernels (Appleyard et al., arXiv:1604.01946). `CELLS` maps
every recurrent kind to its parameter init, the weight blocks it steps with
and a pair of pure-numpy step functions:

- `forward(x_t, state, weights) -> (state, cache)`;
- `backward(cache, d_state) -> (d_x, d_state_prev, d_weights)`.

The node runs the forward over time, then BPTT in reverse, and sums each
weight gradient over the steps. BiLSTM is the LSTM entry run in both
directions inside the same node. Weights are stacked column-wise once per
unroll, and each step does one matmul of [h, x] against them. The input
projection X @ W_x is not hoisted out of the loop: that saves little in
training and, on a large scoring batch, holds (T, B, 4H) buffers that add
about a tenth to peak memory. SwinLSTM's windowed attention
(`window_pool`) reads only the step input, so it is one tape node over
every step's row before the unroll node. The Mogrifier, ST-LSTM and
SwinLSTM steps reuse the LSTM gate block. Every gate sigmoid is
`numerics.logistic`, the package's one logistic function.

`output_head` (matmul, bias and logistic) is one fused node as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, ShapeError, check_integer
from .numerics import ParameterStore, Tensor

VALID_KINDS = ("feedforward", "lstm", "bilstm", "gru", "mogrifier", "stlstm", "swinlstm")

RECURRENT_KINDS = tuple(k for k in VALID_KINDS if k != "feedforward")

# Parameter draw order of the LSTM gate block, and the stacked column order
# the fused core uses (sigmoid gates first, then the tanh candidate).
LSTM_GATES = ("w_i", "w_f", "w_c", "w_o")
LSTM_STACK = ("w_i", "w_f", "w_o", "w_c")


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


def _gate_blocks(gates: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The weight block of `gates` and its bias block."""
    return tuple(gates), tuple(g.replace("w", "b", 1) for g in gates)


LSTM_BLOCKS = _gate_blocks(LSTM_STACK)


def _stacked(params: Mapping[str, Tensor], blocks) -> tuple[np.ndarray, ...]:
    """Each block's parameters stacked column-wise."""
    return tuple(params[b[0]].data if len(b) == 1 else
                 np.concatenate([params[name].data for name in b], axis=-1) for b in blocks)


def _route(params: Mapping[str, Tensor], blocks, d_weights) -> None:
    """Split each block's gradient back into its parameters' columns."""
    for block, d in zip(blocks, d_weights):
        start = 0
        for name in block:
            width = params[name].shape[-1]
            nm.accumulate(params[name], d[..., start:start + width])
            start += width


# --- numpy step pairs ------------------------------------------------------------


def _gates(cat, w, b, mem, n_sig):
    """Gate activations of cat @ w + b and the new memory f * mem + i * g.

    Columns are [i, f, (o,) g]: sigmoid on the first n_sig, tanh on the
    candidate g.
    """
    hid = mem.shape[-1]
    act = cat @ w + b
    act[..., :n_sig] = nm.logistic(act[..., :n_sig])
    act[..., n_sig:] = np.tanh(act[..., n_sig:])
    return act, act[..., hid:2 * hid] * mem + act[..., :hid] * act[..., n_sig:]


def _gates_back(act, mem, g_mem, g_o, n_sig):
    """Gradient of the gate pre-activations from those of the memory and of
    the output gate (0.0 for a block without one)."""
    hid = mem.shape[-1]
    g = act[..., n_sig:]
    d = np.empty_like(act)
    d[..., :hid] = g_mem * g
    d[..., hid:2 * hid] = g_mem * mem
    d[..., 2 * hid:n_sig] = g_o
    d[..., n_sig:] = g_mem * act[..., :hid]
    sig = act[..., :n_sig]
    d[..., :n_sig] *= sig * (1.0 - sig)
    d[..., n_sig:] *= 1.0 - g * g
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
            (nm.mT(cat) @ d, nm.row_sum(d)))


def _gru_forward(x, state, weights):
    """[z, r] = sigmoid([h, x] @ w_zr + b_zr),
    h_tilde = tanh([r * h, x] @ w_h + b_h), h' = (1 - z) * h + z * h_tilde."""
    (h,) = state
    w_zr, b_zr, w_h, b_h = weights
    hid = h.shape[-1]
    cat = np.concatenate([h, x], axis=-1)
    zr = nm.logistic(cat @ w_zr + b_zr)
    z, r = zr[..., :hid], zr[..., hid:]
    cat_r = np.concatenate([r * h, x], axis=-1)
    h_tilde = np.tanh(cat_r @ w_h + b_h)
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
            (nm.mT(cat) @ d_zr, nm.row_sum(d_zr), nm.mT(cat_r) @ d_h, nm.row_sum(d_h)))


def _mogrifier_forward(x, state, weights):
    """Alternating Mogrifier rounds on (x, h), then an LSTM step.

    weights[2:] holds one matrix per round (q, r, q, ...): odd rounds rescale
    x by 2*sigmoid(h @ q), even rounds rescale h by 2*sigmoid(x @ r). With
    no rounds this is the plain LSTM.
    """
    h, c = state
    saved = []
    for k, m in enumerate(weights[2:]):
        s = nm.logistic(x @ m if k % 2 else h @ m)
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
            d_mats[k] = nm.mT(x) @ d_z
            g_h = g_h * 2.0 * s
            g_x = g_x + d_z @ nm.mT(mats[k])
        else:
            d_z = g_x * 2.0 * x * s * (1.0 - s)
            d_mats[k] = nm.mT(h) @ d_z
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
    t = np.tanh(mems @ w_mix)
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
    d_gm = _gates_back(act_m, m_prev, g_m, 0.0, 2 * hid)
    d_cat, d_cat_m = d @ nm.mT(w), d_gm @ nm.mT(w_m)
    return (d_cat[..., hid:] + d_cat_m[..., :split],
            (d_cat[..., :hid], g_c * act[..., hid:2 * hid],
             g_m * act_m[..., hid:2 * hid] + d_cat_m[..., split:]),
            (nm.mT(cat) @ d, nm.row_sum(d), nm.mT(cat_m) @ d_gm, nm.row_sum(d_gm),
             nm.mT(mems) @ d_pre))


# --- SwinLSTM's input pooling, hoisted out of the time loop -------------------------


def window_pool(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wp: Tensor,
                window: int) -> Tensor:
    """SwinLSTM's windowed self-attention and pooling as one tape node.

    Each row along the last axis of x (any leading axes) is zero-padded to a
    multiple of `window`. Inside each window, every scalar entry u_i attends
    over the window's entries with scores (u_i * wq) * (u_j * wk) and values
    u_j * wv (max-shifted softmax); each window's output is
    u + attention * wp, and the windows are averaged elementwise into a row
    of width `window`. The four (..., 1, 1) weights may carry replica axes,
    which lead x's axes.
    """
    lead, feat, reps = x.shape[:-1], x.shape[-1], wq.shape[:-2]
    pad = (-feat) % window
    xd = np.concatenate([x.data, np.zeros((*lead, pad))], axis=-1) if pad else x.data
    n_windows = xd.shape[-1] // window
    u = xd.reshape(*lead, n_windows, window)
    scalar = (*reps, *(1,) * (u.ndim - len(reps)))
    aq, ak, av, ap = (t.data.reshape(scalar) for t in (wq, wk, wv, wp))
    q, k, v = u * aq, u * ak, u * av
    scores = q[..., :, None] * k[..., None, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    att = (alpha * v[..., None, :]).sum(axis=-1)
    out = u + att * ap

    def back(g: np.ndarray) -> None:
        d_out = np.broadcast_to((g * (1.0 / n_windows))[..., None, :], u.shape)
        d_att = d_out * ap
        d_alpha = d_att[..., :, None] * v[..., None, :]
        d_v = (alpha * d_att[..., :, None]).sum(axis=-2)
        d_s = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True))
        d_q = (d_s * k[..., None, :]).sum(axis=-1)
        d_k = (d_s * q[..., :, None]).sum(axis=-2)
        if x.requires_grad:
            d_u = d_out + d_q * aq + d_k * ak + d_v * av
            nm.accumulate(x, d_u.reshape(*lead, -1)[..., :feat])
        for param, grad in ((wq, d_q * u), (wk, d_k * u), (wv, d_v * u), (wp, d_out * att)):
            nm.accumulate(param, grad.reshape(*reps, -1).sum(axis=-1).reshape(param.shape))

    pooled = out.sum(axis=-2) * (1.0 / n_windows)
    return nm.fused((x, wq, wk, wv, wp), (pooled,), back)[0]


def _swin_pool(xs: Tensor, params: Mapping[str, Tensor], spec: ModelSpec) -> Tensor:
    return window_pool(xs, *(params[n] for n in ("wq", "wk", "wv", "wp")), spec.swin_window)


# --- parameter init -------------------------------------------------------------


def _add_gates(store: ParameterStore, prefix: str, gates: Sequence[str], rows: int,
               hidden: int, rng: np.random.Generator) -> None:
    for gate in gates:
        store.add(f"{prefix}.{gate}", nm.uniform_init(rng, rows, (rows, hidden)))
        store.add(f"{prefix}.{gate.replace('w', 'b', 1)}", np.zeros((1, hidden)))


def _init_lstm(store, prefix, input_width, spec, rng) -> None:
    _add_gates(store, prefix, LSTM_GATES, spec.hidden + input_width, spec.hidden, rng)


def _init_gru(store, prefix, input_width, spec, rng) -> None:
    _add_gates(store, prefix, ("w_z", "w_r", "w_h"), spec.hidden + input_width,
               spec.hidden, rng)


def _init_mogrifier(store, prefix, input_width, spec, rng) -> None:
    hidden = spec.hidden
    _init_lstm(store, prefix, input_width, spec, rng)
    if spec.mogrifier_rounds >= 1:
        store.add(f"{prefix}.q", nm.uniform_init(rng, hidden, (hidden, input_width)))
    if spec.mogrifier_rounds >= 2:
        store.add(f"{prefix}.r", nm.uniform_init(rng, input_width, (input_width, hidden)))


def _init_stlstm(store, prefix, input_width, spec, rng) -> None:
    hidden = spec.hidden
    _init_lstm(store, prefix, input_width, spec, rng)
    _add_gates(store, prefix, ("w_mi", "w_mf", "w_mc"), input_width + hidden, hidden, rng)
    store.add(f"{prefix}.w_mix", nm.uniform_init(rng, 2 * hidden, (2 * hidden, hidden)))


def _init_swinlstm(store, prefix, input_width, spec, rng) -> None:
    for name in ("wq", "wk", "wv", "wp"):
        store.add(f"{prefix}.{name}", nm.uniform_init(rng, 1, (1, 1)))
    _init_lstm(store, prefix, spec.swin_window, spec, rng)


# --- the cell table ---------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """How one recurrent kind creates its parameters and steps through time.

    `blocks(spec)` names the weight matrices the step pair takes, each a
    group of parameters stacked column-wise once per unroll. `forward` maps
    (x_t, state, weights) to (state, cache), the state a tuple of `arity`
    arrays with the hidden row first; `backward` maps (cache, d_state) to
    (d_x, d_state_prev, d_weights), d_weights in block order. `pool`, when
    set, maps the whole step-input block once before the time loop. Each
    name in `directions` is a parameter sub-prefix run in turn, the second
    one over the reversed sequence.
    """

    init: Callable[[ParameterStore, str, int, ModelSpec, np.random.Generator], None]
    blocks: Callable[[ModelSpec], tuple[tuple[str, ...], ...]]
    forward: Callable[[np.ndarray, tuple, tuple], tuple]
    backward: Callable[[object, tuple], tuple]
    arity: int
    directions: tuple[str, ...] = ("",)
    pool: Callable[[Tensor, Mapping[str, Tensor], ModelSpec], Tensor] | None = None


CELLS = {
    "lstm": Cell(_init_lstm, lambda spec: LSTM_BLOCKS, _lstm_forward, _lstm_backward, 2),
    "bilstm": Cell(_init_lstm, lambda spec: LSTM_BLOCKS, _lstm_forward, _lstm_backward, 2,
                   directions=("fwd", "bwd")),
    "gru": Cell(_init_gru, lambda spec: _gate_blocks(("w_z", "w_r")) + _gate_blocks(("w_h",)),
                _gru_forward, _gru_backward, 1),
    "mogrifier": Cell(_init_mogrifier, lambda spec: LSTM_BLOCKS + tuple(
        ("r",) if k % 2 else ("q",) for k in range(spec.mogrifier_rounds)),
        _mogrifier_forward, _mogrifier_backward, 2),
    "stlstm": Cell(_init_stlstm, lambda spec: (
        LSTM_BLOCKS + _gate_blocks(("w_mi", "w_mf", "w_mc")) + (("w_mix",),)),
        _stlstm_forward, _stlstm_backward, 3),
    "swinlstm": Cell(_init_swinlstm, lambda spec: LSTM_BLOCKS, _lstm_forward, _lstm_backward,
                     2, pool=_swin_pool),
}


def feedforward_net(prices: np.ndarray, priors: np.ndarray, context: Tensor,
                    params: Mapping[str, Tensor]) -> Tensor:
    """Probability of an upward move from the price window, the priors and
    the text context, side by side: two hidden ReLU layers down to one
    logit, then the logistic, as one tape node. Only the context and the
    weights take gradients.
    """
    x = np.concatenate([prices, priors, context.data], axis=-1)
    layers = [(params[f"w{k}"], params[f"b{k}"]) for k in (1, 2, 3)]
    if x.shape[-1] != layers[0][0].shape[-2]:
        raise ShapeError(f"input width {x.shape} does not match first layer "
                         f"{layers[0][0].shape}")
    acts = [x]  # each layer's input, then the logit
    for k, (w, b) in enumerate(layers):
        z = acts[-1] @ w.data + b.data
        acts.append(np.maximum(0.0, z) if k < 2 else z)
    p = nm.logistic(acts[-1])

    def back(g: np.ndarray) -> None:
        g = g * p * (1.0 - p)
        for k in (2, 1, 0):
            w, b = layers[k]
            if k < 2:
                g = g * (acts[k + 1] > 0)
            nm.accumulate(w, nm.mT(acts[k]) @ g)
            nm.accumulate(b, nm.row_sum(g))
            g = g @ nm.mT(w.data)
        nm.accumulate(context, g[..., x.shape[-1] - context.shape[-1]:])

    return nm.fused((context, *(t for layer in layers for t in layer)), (p,), back)[0]


def output_head(z: Tensor, params: Mapping[str, Tensor]) -> tuple[Tensor, np.ndarray]:
    """Sigmoid probability of an upward move; ties at 0.5 label as 1.

    p = sigmoid(z @ w_out + b_out) is one tape node.
    """
    w, b = params["w_out"], params["b_out"]
    if z.shape[-1] != w.shape[-2]:
        raise ShapeError(f"head input {z.shape} does not fit weights {w.shape}")
    p = nm.logistic(z.data @ w.data + b.data)
    head = nm.fused((z, w, b), (p,), lambda g: nm.affine_back(z, w, b, g * p * (1.0 - p)))
    return head[0], (p[..., 0] >= 0.5).astype(int)


def unroll(spec: ModelSpec, params: Mapping[str, Tensor], xs: Tensor) -> tuple[Tensor, Tensor]:
    """Run a recurrent model over the (..., B, T, I) step inputs as one tape node.

    Returns the step rows (..., B, T, H * directions), for attention
    pooling, and the final row. For bilstm a step row pairs the forward
    state with the co-located backward state, and the final row
    concatenates both directions' final states. Per-step caches are kept only when the node
    is recorded for a backward pass.
    """
    if spec.kind not in CELLS:
        raise ConfigError(f"cannot unroll non-recurrent kind {spec.kind!r}")
    if xs.ndim < 3 or xs.shape[-2] == 0:
        raise ContractError(f"step inputs must be a non-empty (B, T, I) block, got {xs.shape}")
    cell = CELLS[spec.kind]
    if cell.pool is not None:
        xs = cell.pool(xs, params, spec)
    blocks = cell.blocks(spec)
    subs = [params if not d else {k[len(d) + 1:]: v for k, v in params.items()
                                  if k.startswith(d + ".")} for d in cell.directions]
    weights = [_stacked(sub, blocks) for sub in subs]
    hid, lead, (steps, width) = spec.hidden, xs.shape[:-2], xs.shape[-2:]
    if weights[0][0].shape[-2] != hid + width:
        raise ShapeError(f"gate weights {weights[0][0].shape} do not fit "
                         f"[h, x] rows of width {hid} + {width}")
    names = dict.fromkeys(name for block in blocks for name in block)
    parents = (xs, *(sub[name] for sub in subs for name in names))
    keep = nm.grad_needed(parents)
    zero = np.zeros((*lead, hid))
    out = np.empty((*lead, steps, hid * len(subs)))
    runs = []
    for k, w in enumerate(weights):
        state, run = (zero,) * cell.arity, []
        for t in (range(steps - 1, -1, -1) if k else range(steps)):
            state, cache = cell.forward(xs.data[..., t, :], state, w)
            out[..., t, k * hid:(k + 1) * hid] = state[0]
            if keep:
                run.append((t, cache))
            del cache  # unkept, its memory is free for the next step
        runs.append(run)
    final = out[..., -1, :] if len(subs) == 1 else np.concatenate(
        [out[..., -1, :hid], out[..., 0, hid:]], axis=-1)

    def back(g_steps, g_final) -> None:
        d_xs = np.zeros(xs.shape) if xs.requires_grad else None
        for k, (sub, run) in enumerate(zip(subs, runs)):
            cols, last = slice(k * hid, (k + 1) * hid), run[-1][0]
            d_state, totals = (zero,) * cell.arity, None
            for t, cache in reversed(run):
                d_h = d_state[0] if g_steps is None else d_state[0] + g_steps[..., t, cols]
                if g_final is not None and t == last:
                    d_h = d_h + g_final[..., cols]
                d_x, d_state, d_w = cell.backward(cache, (d_h, *d_state[1:]))
                if totals is None:  # later steps add into the first one's arrays
                    totals = list(d_w)
                else:
                    for total, d in zip(totals, d_w):
                        total += d
                if d_xs is not None:
                    d_xs[..., t, :] += d_x
            _route(sub, blocks, totals)
        if d_xs is not None:
            nm.accumulate(xs, d_xs)

    return nm.fused(parents, (out, final), back)


def add_model_params(store: ParameterStore, spec: ModelSpec, input_width: int,
                     rng: np.random.Generator) -> None:
    """Create the `cell.*` parameters for one predictor, in a fixed draw order.

    Variant-specific extras are drawn after the shared gate block so that
    a mogrifier with zero rounds consumes exactly the same random stream
    as a plain LSTM.
    """
    hidden = spec.hidden
    if spec.kind == "feedforward":
        h1 = max(2 * hidden, 4)
        store.add("cell.w1", nm.uniform_init(rng, input_width, (input_width, h1)))
        store.add("cell.b1", np.zeros((1, h1)))
        store.add("cell.w2", nm.uniform_init(rng, h1, (h1, hidden)))
        store.add("cell.b2", np.zeros((1, hidden)))
        store.add("cell.w3", nm.uniform_init(rng, hidden, (hidden, 1)))
        store.add("cell.b3", np.zeros((1, 1)))
        return
    cell = CELLS[spec.kind]
    for direction in cell.directions:
        cell.init(store, f"cell.{direction}" if direction else "cell", input_width, spec, rng)


def add_head_params(store: ParameterStore, width: int, rng: np.random.Generator) -> None:
    store.add("head.w_out", nm.uniform_init(rng, width, (width, 1)))
    store.add("head.b_out", np.zeros((1, 1)))
