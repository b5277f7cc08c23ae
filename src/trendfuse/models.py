"""Predictor zoo: recurrent cells, a feedforward baseline, and the output head.

All cells operate on row-batches: step input x is (B, I), states are
(B, H). Gate weights act on the concatenated [h_prev, x] row, matching
the classic formulation. Variants are written so that specific parameter
settings collapse them exactly onto the plain LSTM, which the test suite
uses as a correctness oracle.

Each cell step is a handful of fused tape primitives (`numerics.fused`).
Each computes its gates in numpy and records one node with a hand-written
backward (plus one node per output when it has two), following the cuDNN
RNN recipe (Appleyard et al., arXiv:1604.01946):

- `gate_block` is the LSTM core: one matmul of [h, x] against the gate
  weights stacked column-wise, then the gated memory update; it returns
  (o, c). The Mogrifier, ST-LSTM and SwinLSTM cells reuse it unchanged
  and add only their extras, which are fused too: `mogrify` (all
  Mogrifier rounds), the ST-LSTM M-memory path (`gate_block` without an
  output gate) and `window_pool` (SwinLSTM's windowed attention).
- `gru_step` is the whole GRU update.
- `gated_tanh` gives h = o * tanh(c).

`CELLS` maps every recurrent kind to its parameter init, its once-per-unroll
weight preparation (stacking the gate weights), its step function and the
number of state tensors it carries; `unroll` runs any kind from that table,
and BiLSTM is the LSTM entry run forward and then reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, ShapeError
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
        if self.hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {self.hidden}")
        if self.mogrifier_rounds < 0:
            raise ConfigError(f"mogrifier rounds must be >= 0, got {self.mogrifier_rounds}")
        if self.swin_window < 1:
            raise ConfigError(f"swin window must be >= 1, got {self.swin_window}")

    @property
    def output_width(self) -> int:
        return 2 * self.hidden if self.kind == "bilstm" else self.hidden


def zero_state(batch: int, hidden: int) -> Tensor:
    return Tensor(np.zeros((batch, hidden)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function through tanh, which cannot overflow."""
    return 0.5 * np.tanh(0.5 * z) + 0.5


def _check_widths(first: Tensor, second: Tensor, w: Tensor) -> None:
    if first.shape[0] != second.shape[0]:
        raise ShapeError(f"batch mismatch: {first.shape} vs {second.shape}")
    if first.shape[1] + second.shape[1] != w.shape[0]:
        raise ShapeError(f"gate weights {w.shape} do not fit "
                         f"concatenated width {first.shape[1] + second.shape[1]}")


def _stack(params: Mapping[str, Tensor], gates: Sequence[str]) -> tuple[Tensor, Tensor]:
    """Gate weights and biases stacked column-wise: two tape nodes."""
    return (nm.concat([params[g] for g in gates], axis=1),
            nm.concat([params[g.replace("w", "b", 1)] for g in gates], axis=1))


# --- fused primitives ---------------------------------------------------------


def gate_block(first: Tensor, second: Tensor, mem_prev: Tensor, w: Tensor, b: Tensor,
               out_gate: bool = True):
    """Gated memory update over the row [first, second] as one tape primitive.

    w and b stack the gate columns [i, f, o, g] ([i, f, g] without the output
    gate): z = [first, second] @ w + b, sigmoid on the gates, tanh on the
    candidate g, and mem = f * mem_prev + i * g. Returns (o, mem) with the
    output gate, else the mem tensor alone.
    """
    _check_widths(first, second, w)
    hidden = mem_prev.shape[1]
    n_sig = (3 if out_gate else 2) * hidden
    split = first.shape[1]
    cat = np.concatenate([first.data, second.data], axis=1)
    act = cat @ w.data + b.data
    act[:, :n_sig] = _sigmoid(act[:, :n_sig])
    act[:, n_sig:] = np.tanh(act[:, n_sig:])
    i, f, g = act[:, :hidden], act[:, hidden:2 * hidden], act[:, n_sig:]
    mem = f * mem_prev.data + i * g

    def back(g_o, g_mem) -> None:
        if g_mem is None:
            g_mem = np.zeros_like(mem)
        d = np.empty_like(act)
        d[:, :hidden] = g_mem * g
        d[:, hidden:2 * hidden] = g_mem * mem_prev.data
        d[:, n_sig:] = g_mem * i
        if out_gate:
            d[:, 2 * hidden:n_sig] = 0.0 if g_o is None else g_o
        sig = act[:, :n_sig]
        d[:, :n_sig] *= sig * (1.0 - sig)
        d[:, n_sig:] *= 1.0 - g * g
        nm.accumulate(mem_prev, g_mem * f)
        nm.accumulate(w, cat.T @ d)
        nm.accumulate(b, d.sum(axis=0, keepdims=True))
        if first.requires_grad or second.requires_grad:
            d_cat = d @ w.data.T
            nm.accumulate(first, d_cat[:, :split])
            nm.accumulate(second, d_cat[:, split:])

    parents = (first, second, mem_prev, w, b)
    if out_gate:
        return nm.fused(parents, (act[:, 2 * hidden:n_sig], mem), back)
    return nm.fused(parents, (mem,), lambda g_mem: back(None, g_mem))[0]


def gated_tanh(gate: Tensor, pre: Tensor) -> Tensor:
    """gate * tanh(pre) as one tape node."""
    t = np.tanh(pre.data)

    def back(g: np.ndarray) -> None:
        nm.accumulate(gate, g * t)
        nm.accumulate(pre, g * gate.data * (1.0 - t * t))

    return nm.fused((gate, pre), (gate.data * t,), back)[0]


def gru_step(x: Tensor, h_prev: Tensor, w_zr: Tensor, b_zr: Tensor,
             w_h: Tensor, b_h: Tensor) -> Tensor:
    """The whole GRU update as one tape node.

    [z, r] = sigmoid([h_prev, x] @ w_zr + b_zr),
    h_tilde = tanh([r * h_prev, x] @ w_h + b_h), h = (1 - z) * h_prev + z * h_tilde.
    """
    _check_widths(h_prev, x, w_zr)
    hidden = h_prev.shape[1]
    hd = h_prev.data
    cat = np.concatenate([hd, x.data], axis=1)
    zr = _sigmoid(cat @ w_zr.data + b_zr.data)
    z, r = zr[:, :hidden], zr[:, hidden:]
    cat_r = np.concatenate([r * hd, x.data], axis=1)
    h_tilde = np.tanh(cat_r @ w_h.data + b_h.data)

    def back(g: np.ndarray) -> None:
        d_h = g * z * (1.0 - h_tilde * h_tilde)
        d_cat_r = d_h @ w_h.data.T
        d_rh = d_cat_r[:, :hidden]
        d_zr = np.concatenate([g * (h_tilde - hd), d_rh * hd], axis=1)
        d_zr *= zr * (1.0 - zr)
        nm.accumulate(w_h, cat_r.T @ d_h)
        nm.accumulate(b_h, d_h.sum(axis=0, keepdims=True))
        nm.accumulate(w_zr, cat.T @ d_zr)
        nm.accumulate(b_zr, d_zr.sum(axis=0, keepdims=True))
        if h_prev.requires_grad or x.requires_grad:
            d_cat = d_zr @ w_zr.data.T
            nm.accumulate(h_prev, g * (1.0 - z) + d_rh * r + d_cat[:, :hidden])
            nm.accumulate(x, d_cat_r[:, hidden:] + d_cat[:, hidden:])

    return nm.fused((x, h_prev, w_zr, b_zr, w_h, b_h), ((1.0 - z) * hd + z * h_tilde,), back)[0]


def mogrify(x: Tensor, h: Tensor, q: Tensor, r: Tensor | None,
            rounds: int) -> tuple[Tensor, Tensor]:
    """All Mogrifier rounds as one tape primitive; returns the gated (x, h).

    Odd rounds rescale x by 2*sigmoid(h @ q); even rounds rescale h by
    2*sigmoid(x @ r). r is needed only from two rounds on.
    """
    xd, hd = x.data, h.data
    saved = []
    for k in range(1, rounds + 1):
        if k % 2:
            s = _sigmoid(hd @ q.data)
            saved.append((s, xd, hd))
            xd = 2.0 * s * xd
        else:
            s = _sigmoid(xd @ r.data)
            saved.append((s, xd, hd))
            hd = 2.0 * s * hd

    def back(g_x, g_h) -> None:
        g_x = np.zeros_like(xd) if g_x is None else g_x
        g_h = np.zeros_like(hd) if g_h is None else g_h
        g_q = g_r = 0.0
        for k in range(rounds, 0, -1):
            s, x_in, h_in = saved[k - 1]
            if k % 2:
                d_z = g_x * 2.0 * x_in * s * (1.0 - s)
                g_q = g_q + h_in.T @ d_z
                g_x = g_x * 2.0 * s
                g_h = g_h + d_z @ q.data.T
            else:
                d_z = g_h * 2.0 * h_in * s * (1.0 - s)
                g_r = g_r + x_in.T @ d_z
                g_h = g_h * 2.0 * s
                g_x = g_x + d_z @ r.data.T
        nm.accumulate(x, g_x)
        nm.accumulate(h, g_h)
        nm.accumulate(q, g_q)
        if rounds >= 2:
            nm.accumulate(r, g_r)

    weights = (q,) if rounds < 2 else (q, r)
    return nm.fused((x, h, *weights), (xd, hd), back)


def window_pool(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wp: Tensor,
                window: int) -> Tensor:
    """SwinLSTM's windowed self-attention and pooling as one tape node.

    The feature row is zero-padded to a multiple of `window`. Inside each
    window, every scalar entry u_i attends over the window's entries with
    scores (u_i * wq) * (u_j * wk) and values u_j * wv (max-shifted
    softmax); each window's output is u + attention * wp, and the windows
    are averaged elementwise into a (B, window) row.
    """
    batch, feat = x.shape
    pad = (-feat) % window
    xd = np.concatenate([x.data, np.zeros((batch, pad))], axis=1) if pad else x.data
    n_windows = xd.shape[1] // window
    u = xd.reshape(batch, n_windows, window)
    aq, ak, av, ap = (t.data.reshape(()) for t in (wq, wk, wv, wp))
    q, k, v = u * aq, u * ak, u * av
    scores = q[..., :, None] * k[..., None, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    att = (alpha * v[..., None, :]).sum(axis=-1)
    out = u + att * ap

    def back(g: np.ndarray) -> None:
        d_out = np.broadcast_to((g * (1.0 / n_windows))[:, None, :], u.shape)
        d_att = d_out * ap
        d_alpha = d_att[..., :, None] * v[..., None, :]
        d_v = (alpha * d_att[..., :, None]).sum(axis=-2)
        d_s = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True))
        d_q = (d_s * k[..., None, :]).sum(axis=-1)
        d_k = (d_s * q[..., :, None]).sum(axis=-2)
        if x.requires_grad:
            d_u = d_out + d_q * aq + d_k * ak + d_v * av
            nm.accumulate(x, d_u.reshape(batch, -1)[:, :feat])
        for param, grad in ((wq, d_q * u), (wk, d_k * u), (wv, d_v * u), (wp, d_out * att)):
            nm.accumulate(param, np.array([[grad.sum()]]))

    return nm.fused((x, wq, wk, wv, wp), (out.sum(axis=1) * (1.0 / n_windows),), back)[0]


# --- cell steps: step(x, state, weights) -> state, with weights prepared once ---


def _lstm_weights(params: Mapping[str, Tensor]):
    return _stack(params, LSTM_STACK)


def _lstm_step(x: Tensor, state, weights):
    h, c = state
    o, c = gate_block(h, x, c, *weights)
    return gated_tanh(o, c), c


def _gru_weights(params: Mapping[str, Tensor]):
    return (*_stack(params, ("w_z", "w_r")), params["w_h"], params["b_h"])


def _gru_step(x: Tensor, state, weights):
    return (gru_step(x, state[0], *weights),)


def _mogrifier_weights(params: Mapping[str, Tensor], rounds: int):
    if rounds < 0:
        raise ContractError(f"rounds must be >= 0, got {rounds}")
    q = params["q"] if rounds >= 1 else None
    r = params["r"] if rounds >= 2 else None
    return _lstm_weights(params), q, r, rounds


def _mogrifier_step(x: Tensor, state, weights):
    lstm, q, r, rounds = weights
    h, c = state
    if rounds:
        x, h = mogrify(x, h, q, r, rounds)
    return _lstm_step(x, (h, c), lstm)


def _stlstm_weights(params: Mapping[str, Tensor]):
    return _lstm_weights(params), _stack(params, ("w_mi", "w_mf", "w_mc")), params["w_mix"]


def _stlstm_step(x: Tensor, state, weights):
    lstm, m_block, w_mix = weights
    h, c, m = state
    o, c = gate_block(h, x, c, *lstm)
    m = gate_block(x, m, m, *m_block, out_gate=False)
    h = gated_tanh(o, nm.matmul(nm.concat([c, m], axis=1), w_mix))
    return h, c, m


def _swinlstm_weights(params: Mapping[str, Tensor], window: int):
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    attention = tuple(params[name] for name in ("wq", "wk", "wv", "wp"))
    return attention, window, _lstm_weights(params)


def _swinlstm_step(x: Tensor, state, weights):
    attention, window, lstm = weights
    return _lstm_step(window_pool(x, *attention, window), state, lstm)


# --- public single-step cells ---------------------------------------------------


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              params: Mapping[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Standard gated update: input/forget/output gates plus tanh candidate."""
    return _lstm_step(x, (h_prev, c_prev), _lstm_weights(params))


def gru_cell(x: Tensor, h_prev: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """Update/reset gated state: h = (1-z)*h_prev + z*h_tilde."""
    return _gru_step(x, (h_prev,), _gru_weights(params))[0]


def mogrifier_lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
                        params: Mapping[str, Tensor],
                        rounds: int) -> tuple[Tensor, Tensor]:
    """Mutually gate x and h for `rounds` alternating steps, then LSTM.

    Odd rounds rescale x by 2*sigmoid(h @ q); even rounds rescale h by
    2*sigmoid(x @ r). rounds=0 runs the plain LSTM on the untouched pair.
    """
    return _mogrifier_step(x, (h_prev, c_prev), _mogrifier_weights(params, rounds))


def stlstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, m_prev: Tensor,
                params: Mapping[str, Tensor]) -> tuple[Tensor, Tensor, Tensor]:
    """Dual-memory update: a second cell state M with its own gates.

    The M path is driven by [x, M_prev]; the hidden output mixes both
    memories through w_mix before the output gate's tanh.
    """
    return _stlstm_step(x, (h_prev, c_prev, m_prev), _stlstm_weights(params))


def swinlstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
                  params: Mapping[str, Tensor],
                  window: int) -> tuple[Tensor, Tensor]:
    """Windowed self-attention over the step features, then an LSTM step.

    The feature row is zero-padded to a multiple of `window`, attention is
    applied independently inside each window with a residual connection,
    window outputs are averaged elementwise, and the pooled (B, window)
    row feeds the gated update.
    """
    return _swinlstm_step(x, (h_prev, c_prev), _swinlstm_weights(params, window))


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

    `prepare` runs once per unroll (stacking gate weights); `step` maps
    (x, state, prepared weights) to the next state tuple of `arity`
    tensors, the hidden row first. Each name in `directions` is a parameter
    sub-prefix run in turn, the second one over the reversed sequence.
    """

    init: Callable[[ParameterStore, str, int, ModelSpec, np.random.Generator], None]
    prepare: Callable[[Mapping[str, Tensor], ModelSpec], tuple]
    step: Callable[[Tensor, tuple, tuple], tuple]
    arity: int
    directions: tuple[str, ...] = ("",)


CELLS = {
    "lstm": Cell(_init_lstm, lambda p, spec: _lstm_weights(p), _lstm_step, 2),
    "bilstm": Cell(_init_lstm, lambda p, spec: _lstm_weights(p), _lstm_step, 2,
                   directions=("fwd", "bwd")),
    "gru": Cell(_init_gru, lambda p, spec: _gru_weights(p), _gru_step, 1),
    "mogrifier": Cell(_init_mogrifier,
                      lambda p, spec: _mogrifier_weights(p, spec.mogrifier_rounds),
                      _mogrifier_step, 2),
    "stlstm": Cell(_init_stlstm, lambda p, spec: _stlstm_weights(p), _stlstm_step, 3),
    "swinlstm": Cell(_init_swinlstm, lambda p, spec: _swinlstm_weights(p, spec.swin_window),
                     _swinlstm_step, 2),
}


def feedforward_net(x: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """Two hidden ReLU layers down to a single logit column."""
    if x.shape[1] != params["w1"].shape[0]:
        raise ShapeError(f"input width {x.shape} does not match first layer "
                         f"{params['w1'].shape}")
    h1 = nm.relu(nm.add(nm.matmul(x, params["w1"]), params["b1"]))
    h2 = nm.relu(nm.add(nm.matmul(h1, params["w2"]), params["b2"]))
    return nm.add(nm.matmul(h2, params["w3"]), params["b3"])


def output_head(z: Tensor, params: Mapping[str, Tensor]) -> tuple[Tensor, np.ndarray]:
    """Sigmoid probability of an upward move; ties at 0.5 label as 1."""
    logit = nm.add(nm.matmul(z, params["w_out"]), params["b_out"])
    p = nm.sigmoid(logit)
    labels = (p.data.reshape(-1) >= 0.5).astype(int)
    return p, labels


def unroll(spec: ModelSpec, params: Mapping[str, Tensor],
           xs: Sequence[Tensor]) -> tuple[list[Tensor], Tensor]:
    """Run a recurrent model over step inputs.

    Returns the per-step feature rows (for attention pooling) and the
    model's final output row. For bilstm the per-step features pair the
    forward state with the co-located backward state, and the final output
    concatenates both directions' final states.
    """
    if spec.kind not in CELLS:
        raise ConfigError(f"cannot unroll non-recurrent kind {spec.kind!r}")
    if not xs:
        raise ContractError("empty step-input sequence")
    cell = CELLS[spec.kind]
    zero = zero_state(xs[0].shape[0], spec.hidden)
    runs = []
    for direction in cell.directions:
        sub = params if not direction else {
            k[len(direction) + 1:]: v for k, v in params.items()
            if k.startswith(direction + ".")}
        weights = cell.prepare(sub, spec)
        state = (zero,) * cell.arity
        hs = []
        for x in (reversed(xs) if runs else xs):
            state = cell.step(x, state, weights)
            hs.append(state[0])
        runs.append(hs[::-1] if runs else hs)
    if len(runs) == 1:
        return runs[0], runs[0][-1]
    fwd, bwd = runs
    steps = [nm.concat([f, b], axis=1) for f, b in zip(fwd, bwd)]
    return steps, nm.concat([fwd[-1], bwd[0]], axis=1)


def add_model_params(store: ParameterStore, spec: ModelSpec, input_width: int,
                     rng: np.random.Generator, prefix: str = "cell") -> None:
    """Create the parameters for one predictor, in a fixed draw order.

    Variant-specific extras are drawn after the shared gate block so that
    a mogrifier with zero rounds consumes exactly the same random stream
    as a plain LSTM.
    """
    hidden = spec.hidden
    if spec.kind == "feedforward":
        h1 = max(2 * hidden, 4)
        h2 = hidden
        store.add(f"{prefix}.w1", nm.uniform_init(rng, input_width, (input_width, h1)))
        store.add(f"{prefix}.b1", np.zeros((1, h1)))
        store.add(f"{prefix}.w2", nm.uniform_init(rng, h1, (h1, h2)))
        store.add(f"{prefix}.b2", np.zeros((1, h2)))
        store.add(f"{prefix}.w3", nm.uniform_init(rng, h2, (h2, 1)))
        store.add(f"{prefix}.b3", np.zeros((1, 1)))
        return
    cell = CELLS[spec.kind]
    for direction in cell.directions:
        cell.init(store, f"{prefix}.{direction}" if direction else prefix,
                  input_width, spec, rng)


def add_head_params(store: ParameterStore, width: int,
                    rng: np.random.Generator, prefix: str = "head") -> None:
    store.add(f"{prefix}.w_out", nm.uniform_init(rng, width, (width, 1)))
    store.add(f"{prefix}.b_out", np.zeros((1, 1)))
