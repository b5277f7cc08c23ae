"""Independent reference implementations used to cross-check the library.

Everything here except `cell_step`, `bilstm_forward` and the encoder
compositions is deliberately written without the package's tensor or graph
machinery (plain loops and numpy scalars), so a passing comparison means
two unrelated code paths agree. `cell_step` runs one step of a recurrent
kind through the library's `models.CELLS` table, and `bilstm_forward`
composes LSTM steps by hand, as a reference for the table-driven
`models.unroll`. `self_attention`, `multi_head_attention`, `layer_norm`,
`feed_forward` and `mlm_loss` build the encoder's sublayers from single
tape ops, as references for the fused primitives in `encoder`: their
gradients come from the tape's per-op backwards, not from a hand-written one.
"""

import math

import numpy as np

from trendfuse import encoder as enc, models, numerics as nm
from trendfuse.errors import ConfigError, ContractError, ShapeError


def fd_gradients(f, arrays, h=1e-5):
    """Central finite differences of a scalar function of named arrays."""
    grads = {}
    for name in arrays:
        g = np.zeros_like(arrays[name])
        flat = g.reshape(-1)
        for i in range(flat.size):
            plus = {k: v.copy() for k, v in arrays.items()}
            plus[name].reshape(-1)[i] += h
            minus = {k: v.copy() for k, v in arrays.items()}
            minus[name].reshape(-1)[i] -= h
            flat[i] = (f(plus) - f(minus)) / (2 * h)
        grads[name] = g
    return grads


def max_rel_err(a, b, floor=1e-6):
    """Worst-case relative error with a small floor for near-zero entries."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def naive_matmul(a, b):
    """Triple-loop matrix product."""
    a, b = np.asarray(a), np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_rows(x):
    """Row softmax via explicit exp/normalize, no shift trick."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = [math.exp(v) for v in x[i]]
        s = sum(e)
        out[i] = [v / s for v in e]
    return out


def attention_rows(q, k, v):
    """Scaled dot-product attention evaluated entry by entry."""
    q, k, v = (np.asarray(t, dtype=float) for t in (q, k, v))
    d = q.shape[1]
    scores = np.zeros((q.shape[0], k.shape[0]))
    for i in range(q.shape[0]):
        for j in range(k.shape[0]):
            scores[i, j] = sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d)
    weights = softmax_rows(scores)
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        for c in range(v.shape[1]):
            out[i, c] = sum(weights[i, j] * v[j, c] for j in range(v.shape[0]))
    return out


def conv1d_valid(x, kernel, bias=0.0):
    """Hand-rolled valid cross-correlation of a 1-D sequence."""
    x, kernel = np.asarray(x, dtype=float), np.asarray(kernel, dtype=float)
    out_len = len(x) - len(kernel) + 1
    return np.array([sum(kernel[j] * x[i + j] for j in range(len(kernel))) + bias
                     for i in range(out_len)])


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def lstm_step(x, h, c, p):
    """Plain-numpy evaluation of the gated update, scalar convention.

    x, h, c are 1-D vectors; p maps gate names to (weights, bias) acting on
    the concatenated [h, x] row.
    """
    cat = np.concatenate([h, x])
    i = sigmoid(cat @ p["w_i"] + p["b_i"].reshape(-1))
    f = sigmoid(cat @ p["w_f"] + p["b_f"].reshape(-1))
    o = sigmoid(cat @ p["w_o"] + p["b_o"].reshape(-1))
    c_tilde = np.tanh(cat @ p["w_c"] + p["b_c"].reshape(-1))
    c_new = f * c + i * c_tilde
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def gru_step(x, h, p):
    cat = np.concatenate([h, x])
    z = sigmoid(cat @ p["w_z"] + p["b_z"].reshape(-1))
    r = sigmoid(cat @ p["w_r"] + p["b_r"].reshape(-1))
    cat_r = np.concatenate([r * h, x])
    h_tilde = np.tanh(cat_r @ p["w_h"] + p["b_h"].reshape(-1))
    return (1 - z) * h + z * h_tilde


def cell_step(kind, x, state, params, **knobs):
    """One step of a recurrent kind through `models.CELLS`: prepare, then step.

    `knobs` are `ModelSpec` fields such as `mogrifier_rounds` or
    `swin_window`; the new state tuple comes back, hidden row first.
    """
    cell = models.CELLS[kind]
    weights = cell.prepare(params, models.ModelSpec(kind=kind, **knobs))
    return cell.step(x, tuple(state), weights)


def bilstm_forward(xs, params_fwd, params_bwd):
    """Concatenation of the forward and backward final hidden states."""
    if not xs:
        raise ContractError("bilstm needs at least one step input")
    zero = nm.Tensor(np.zeros((xs[0].shape[0], params_fwd["w_i"].shape[1])))
    h = c = hb = cb = zero
    for x in xs:
        h, c = cell_step("lstm", x, (h, c), params_fwd)
    for x in reversed(xs):
        hb, cb = cell_step("lstm", x, (hb, cb), params_bwd)
    return nm.concat([h, hb], axis=1)


def self_attention(q, k, v):
    """Scaled dot-product attention with row-wise softmax weights."""
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query/key widths differ: {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key/value row counts differ: {k.shape} vs {v.shape}")
    scale = 1.0 / math.sqrt(q.shape[1])
    scores = nm.mul(nm.matmul(q, nm.transpose(k)), scale)
    return nm.matmul(nm.softmax(scores, axis=-1), v)


def multi_head_attention(x, params, heads):
    """Project into per-head subspaces, attend head by head, concatenate, and mix."""
    d_model = x.shape[1]
    if d_model % heads:
        raise ConfigError(f"d_model={d_model} not divisible by heads={heads}")
    d_k = d_model // heads
    q = nm.matmul(x, params["wq"])
    k = nm.matmul(x, params["wk"])
    v = nm.matmul(x, params["wv"])
    outs = []
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        outs.append(self_attention(q[:, cols], k[:, cols], v[:, cols]))
    return nm.matmul(nm.concat(outs, axis=1), params["wo"])


def layer_norm(x, gain, bias, sublayer=None):
    """Row-wise standardization of x (+ sublayer), variance floored at eps."""
    if sublayer is not None:
        x = nm.add(x, sublayer)
    mu = nm.mean_(x, axis=1, keepdims=True)
    centered = nm.sub(x, mu)
    var = nm.mean_(nm.mul(centered, centered), axis=1, keepdims=True)
    normed = nm.mul(centered, nm.pow_scalar(nm.clip_min(var, enc.LAYER_NORM_EPS), -0.5))
    return nm.add(nm.mul(normed, gain), bias)


def feed_forward(x, params):
    hidden = nm.relu(nm.add(nm.matmul(x, params["w1"]), params["b1"]))
    return nm.add(nm.matmul(hidden, params["w2"]), params["b2"])


def mlm_loss(predicted, targets):
    """Negative log likelihood of `targets`, probabilities clamped at the floor."""
    onehot = np.zeros(predicted.shape)
    onehot[np.arange(predicted.shape[0]), targets] = 1.0
    picked = nm.sum_(nm.mul(predicted, onehot), axis=1)
    return nm.neg(nm.sum_(nm.log(nm.clip_min(picked, enc.PROB_FLOOR))))


def confusion_counts(labels, targets):
    """Brute-force confusion counting, one comparison at a time."""
    tp = fp = tn = fn = 0
    for lb, tg in zip(labels, targets):
        if lb == 1 and tg == 1:
            tp += 1
        elif lb == 1 and tg == 0:
            fp += 1
        elif lb == 0 and tg == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn
