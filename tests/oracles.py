"""Independent reference implementations used to cross-check the library.

Everything here except `cell_step` and `bilstm_forward` is deliberately
written without the package's tensor or graph machinery (plain loops and
numpy scalars), so a passing comparison means two unrelated code paths
agree. `cell_step` runs one step of a recurrent kind through the library's
`models.CELLS` table, and `bilstm_forward` composes LSTM steps by hand, as a
reference for the table-driven `models.unroll`.
"""

import math

import numpy as np

from trendfuse import models, numerics as nm
from trendfuse.errors import ContractError


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
