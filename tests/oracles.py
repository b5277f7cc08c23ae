"""Independent reference implementations used to cross-check the library.

Everything here except the tape ops and the compositions built on them is
deliberately written without the package's tensor or graph machinery
(plain loops and numpy scalars), so a passing comparison means two
unrelated code paths agree.

`add`, `sub`, `mul`, `neg`, `matmul`, `sigmoid`, `softmax`, `log`,
`pow_scalar`, `clip_min`, `relu`, `transpose`, `mean_`,
`concat`, `take`, `gather_rows` and `conv1d_rows` are single tape ops that
only the tests use; they live here rather than in `numerics`. `sigmoid` and
`softmax` wrap the program's `numerics.logistic` and
`numerics.softmax_probs`/`softmax_back`. The `composed_*` encoder sublayers,
`self_attention` and `mlm_loss` build the encoder's pieces from those ops,
and `embed`, `conv_text`, `feedforward_net`, `attention_over_features`,
`fuse`, `output_head` and `bce_loss` do the same for the text path,
feedforward baseline and predictor tail in `fusion`, `models` and `train`:
their gradients come from the per-op backwards, not from a hand-written
one. `bce_both_terms` is the loss in plain numpy with both of its terms on
every row, which `train.bce_loss` must equal bit for bit.

`taped` is the generic adapter that puts one of the program's numpy
forward/backward pairs (`fusion.embed`/`embed_back`, `models.unroll`/
`unroll_back`, ...) on the tape as one node, built on `node`, which also
gives a node several outputs; the tests differentiate the program's own
backwards through it. `forward_batch` composes the predictor from those
nodes, one per primitive, and `train_replicas` trains through it: the
reference for the one-node training step of `train.train_replicas`.

`encoder_layer` puts the encoder's numpy sublayers on the tape as one node
each: `attention`, `taped(enc._feed_forward)` and `layer_norm`. `attention`
and `layer_norm` are small adapters for `_attend`/`_attend_back` and
`_add_norm`/`_add_norm_back`, which take their parameters as tensors
rather than a mapping. So the finite-difference suite checks the backwards
that pretraining runs. `attention_per_matrix` is the attention arithmetic
with one product per projection matrix, which the products of the (3, d, d)
`wqkv` must equal bitwise. `encode_text` and `mlm_predictions` compose them into the
encoder on the tape (`standardize_features` pads or cuts its pooled row to
a feature row), and `mlm_tape_loss` adds
`encoder.mlm_loss`: the reference for the tape-free `encoder.mlm_step`.
`pretrain_mlm` is the per-sentence tape loop through it
(`numerics.backward`, then the store Adam `adam_step`). `cell_step` wraps
one numpy step pair of the library's `models.CELLS` table as a tape node
whose backward adds each gate block's gradient from the step's one
(rows, d) pair for it, the step-by-step reference for the time-joined
blocks of `models.unroll_back`; `bilstm_forward` composes such steps by
hand, as a reference for the whole-sequence `models.unroll`.
`stack_gates` puts per-gate arrays (`w_i`, `w_f`, ...) into the stored
gate blocks of `models`, with the column order written out in
`GATE_BLOCKS`, so the scalar references `lstm_step` and `gru_step` and the
tests' fixtures stay per gate.

`segment` tests each character against the CJK ranges one by one, as a
reference for the compiled pattern in `encoder.segment`.
`similar_word_mask` draws span sizes with `rng.choice`, as a reference for
the encoder's cdf search. `train_replicas` is the predictor loop with
fresh gradient arrays per step (`zero_grad`, then the store Adam
`adam_step`), as a reference for the flat-vector training loop with its
one forward node; it trains on per-sample rows, which `batch_arrays`
stacks with `np.stack`. `window_rows` builds those rows one sample at a
time, as a reference for the one index gather of `ingest.windows`, and
`sample_rows` splits a `Samples` block into them. `synthetic_dates` adds
one `timedelta` per day and `markov_labels` walks the chain one label at a
time, as references for the ordinal map and the cumulative sum of
`synthetic`. `zscore_normalize` is a normalizer the program does not
use, whose laws criterion 8 checks.
`gradients` (which raises `GraphError` for a leaf off the tape), `names`,
`store_of` (a store of given arrays), `Leaves` (a store of given tensors),
`write_market_csv` (the inverse of `ingest.parse_market_csv`) and
`periodic_pattern_samples` (a series every predictor can fit) are helpers
that only the tests use.
"""

import collections
import csv
import dataclasses
import math
import sys
from collections.abc import Mapping
from datetime import timedelta
from pathlib import Path

import numpy as np

from trendfuse import encoder as enc, fusion, ingest, models, numerics as nm, synthetic
from trendfuse import train as tr
from trendfuse.errors import ConfigError, ContractError, DegenerateInputError, ShapeError


class GraphError(RuntimeError):
    """A node is not part of the computation graph being differentiated."""


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


def tape_size(loss):
    """Distinct tensors reachable from `loss` through parent edges, leaves included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def assert_same_values_and_grads(fused, composed, arrays, seed, atol=None):
    """Outputs and every input's gradient agree between a fused primitive and
    its composition: to 1e-12 relative error or, given `atol`, to that
    absolute difference, for a primitive that sums in another order than
    its composition, where a cancelling sum has no relative bound.

    `fused` and `composed` map a dict of leaf tensors (one per entry of
    `arrays`) to one output tensor or a tuple of them; the gradients are of
    a sum of every output weighted by fixed random draws from `seed`.
    """
    def close(a, b):
        if atol is None:
            return max_rel_err(a, b) < 1e-12
        return float(np.max(np.abs(a - b), initial=0.0)) <= atol

    results = []
    for build in (fused, composed):
        leaves = {k: nm.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        outs = build(leaves)
        outs = outs if isinstance(outs, tuple) else (outs,)
        rng = np.random.default_rng(seed)
        terms = [nm.sum_(mul(out, rng.normal(size=out.shape))) for out in outs]
        total = terms[0]
        for term in terms[1:]:
            total = add(total, term)
        results.append(([out.data for out in outs], gradients(total, leaves)))
    (outs_f, grads_f), (outs_c, grads_c) = results
    for out_f, out_c in zip(outs_f, outs_c):
        assert out_f.shape == out_c.shape
        assert close(out_f, out_c)
    for key in arrays:
        assert np.all(np.isfinite(grads_f[key])), key
        assert close(grads_f[key], grads_c[key]), key


def assert_replicas_match_solo(build, arrays, seed):
    """A primitive run on (R, ...) stacked arrays gives, for each replica r,
    what it gives on that replica's slices alone: every output and every
    input's gradient, to 1e-12.

    `build` maps a dict of leaf tensors to one output tensor or a tuple of
    them; the gradients are of a sum of every output weighted by fixed
    random draws from `seed`, each replica's solo run taking its slice.
    """
    def run(arrs, mixes=None):
        leaves = {k: nm.Tensor(v, requires_grad=True) for k, v in arrs.items()}
        outs = build(leaves)
        outs = outs if isinstance(outs, tuple) else (outs,)
        if mixes is None:
            rng = np.random.default_rng(seed)
            mixes = [rng.normal(size=out.shape) for out in outs]
        total = nm.sum_(mul(outs[0], mixes[0]))
        for out, mix in zip(outs[1:], mixes[1:]):
            total = add(total, nm.sum_(mul(out, mix)))
        return [out.data for out in outs], gradients(total, leaves), mixes

    outs, grads, mixes = run(arrays)
    for r in range(len(next(iter(arrays.values())))):
        outs_r, grads_r, _ = run({k: v[r] for k, v in arrays.items()}, [m[r] for m in mixes])
        for out, out_r in zip(outs, outs_r):
            assert out[r].shape == out_r.shape
            assert max_rel_err(out[r], out_r) < 1e-12
        for key in arrays:
            assert max_rel_err(grads[key][r], grads_r[key]) < 1e-12, key


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


def segment(text):
    """Per-character reference for `encoder.segment`: a whitespace chunk that
    holds any code point of a CJK range splits into its characters."""
    def is_cjk(ch):
        cp = ord(ch)
        return any(lo <= cp <= hi for lo, hi in enc._CJK_RANGES)

    pieces = []
    for chunk in text.split():
        if any(is_cjk(ch) for ch in chunk):
            pieces.extend(chunk)
        else:
            pieces.append(chunk)
    return pieces


def conv1d_valid(x, kernel, bias=0.0):
    """Hand-rolled valid cross-correlation of a 1-D sequence."""
    x, kernel = np.asarray(x, dtype=float), np.asarray(kernel, dtype=float)
    out_len = len(x) - len(kernel) + 1
    return np.array([sum(kernel[j] * x[i + j] for j in range(len(kernel))) + bias
                     for i in range(out_len)])


def plain_sigmoid(x):
    """1 / (1 + exp(-x)) in plain numpy."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def lstm_step(x, h, c, p):
    """Plain-numpy evaluation of the gated update, scalar convention.

    x, h, c are 1-D vectors; p maps gate names to (weights, bias) acting on
    the concatenated [h, x] row.
    """
    cat = np.concatenate([h, x])
    i = plain_sigmoid(cat @ p["w_i"] + p["b_i"].reshape(-1))
    f = plain_sigmoid(cat @ p["w_f"] + p["b_f"].reshape(-1))
    o = plain_sigmoid(cat @ p["w_o"] + p["b_o"].reshape(-1))
    c_tilde = np.tanh(cat @ p["w_c"] + p["b_c"].reshape(-1))
    c_new = f * c + i * c_tilde
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def gru_step(x, h, p):
    cat = np.concatenate([h, x])
    z = plain_sigmoid(cat @ p["w_z"] + p["b_z"].reshape(-1))
    r = plain_sigmoid(cat @ p["w_r"] + p["b_r"].reshape(-1))
    cat_r = np.concatenate([r * h, x])
    h_tilde = np.tanh(cat_r @ p["w_h"] + p["b_h"].reshape(-1))
    return (1 - z) * h + z * h_tilde


# Each stored gate block of `models` and the per-gate arrays it holds, in
# column order, written out here rather than read from the program.
GATE_BLOCKS = {"w": ("w_i", "w_f", "w_o", "w_c"), "b": ("b_i", "b_f", "b_o", "b_c"),
               "w_zr": ("w_z", "w_r"), "b_zr": ("b_z", "b_r"),
               "w_m": ("w_mi", "w_mf", "w_mc"), "b_m": ("b_mi", "b_mf", "b_mc"),
               "pool": ("wq", "wk", "wv", "wp")}


def stack_gates(per_gate):
    """Per-gate arrays (`w_i`, `b_i`, ..., `wq`, ...) in the stored layout of
    `models`: each block of `GATE_BLOCKS` whose gates are present becomes
    one array, the gates side by side along the last axis. Other names,
    such as `w_h`, `q` or `w_mix`, pass through."""
    out = dict(per_gate)
    for name, gates in GATE_BLOCKS.items():
        if gates[0] in out:
            out[name] = np.concatenate([out.pop(g) for g in gates], axis=-1)
    return out


def cell_step(kind, x, state, params, **knobs):
    """One step of a recurrent kind through `models.CELLS`, as one tape node.

    The kind's numpy step pair runs on the data of x, of the state tensors
    and of the weights, and its backward adds gradients to all of them, so
    a step can start from any state. SwinLSTM pools x first, as
    `models.unroll` does. `knobs` are `ModelSpec` fields such as
    `mogrifier_rounds` or `swin_window`, and the width of the state rows is
    `hidden`; the new state tuple comes back, hidden row first. The step
    takes its weights from `models._direction` and activates into arrays
    of its own. The backward takes each activation's `models._slope` from
    them, one step at a time, as `models.unroll_back` does once for each
    block of a whole sequence, and adds each gate block's `(rows, d)` pair:
    `mT(rows) @ d` to the block's matrix and `row_sum(d)` to its bias, if it
    has one.
    """
    spec = models.ModelSpec(kind=kind, hidden=state[0].shape[-1], **knobs)
    cell = models.CELLS[kind]
    if cell.pool is not None:
        x = taped(models.window_pool)(x, params, spec.swin_window)
    blocks = cell.weights(spec)
    w_t, halved, acts = models._direction(cell, blocks, params, spec.hidden)
    values = tuple(np.empty((*x.shape[:-1], width)) for width, _ in acts)
    new_state, cache = cell.forward(x.data, tuple(s.data for s in state), halved, values)
    leaves = [params[n] for n in dict.fromkeys(n for block in blocks for n in block[:2]
                                               if n is not None)]

    def back(*grads):
        d_state = tuple(np.zeros_like(s) if g is None else g for g, s in zip(grads, new_state))
        slopes = tuple(models._slope(a, n_sig) for a, (_, n_sig) in zip(values, acts))
        d_x, d_prev, d_blocks = cell.backward(cache, d_state, w_t, slopes)
        nm.accumulate(x, d_x)
        for s, d in zip(state, d_prev):
            nm.accumulate(s, d)
        _zero_missing_grads(leaves)
        for (matrix, bias, _), (rows, d) in zip(blocks, d_blocks):
            params[matrix].grad += nm.mT(rows) @ d
            if bias is not None:
                params[bias].grad += nm.row_sum(d)

    return node((x, *state, *leaves), new_state, back)


def bilstm_forward(xs, params_fwd, params_bwd):
    """Concatenation of the forward and backward final hidden states."""
    if not xs:
        raise ContractError("bilstm needs at least one step input")
    zero = nm.Tensor(np.zeros((xs[0].shape[0], params_fwd["b"].shape[-1] // 4)))
    h = c = hb = cb = zero
    for x in xs:
        h, c = cell_step("lstm", x, (h, c), params_fwd)
    for x in reversed(xs):
        hb, cb = cell_step("lstm", x, (hb, cb), params_bwd)
    return concat([h, hb], axis=1)


def names(store):
    """Parameter names of a store, in its store order."""
    return [name for name, _ in store.items()]


class Leaves(dict):
    """Named tensors with a store's `view`: a store whose parameters are
    given tape leaves, for differentiating a program forward that reads one."""

    def view(self, prefix):
        dot = prefix + "."
        return {name[len(dot):]: t for name, t in self.items() if name.startswith(dot)}


def store_of(arrays):
    """A store holding a copy of each named array, in mapping order, with
    zeroed gradients."""
    return nm.ParameterStore((name, np.shape(a), np.asarray(a, dtype=np.float64))
                             for name, a in arrays.items())


def gradients(loss, params):
    """Gradients of a scalar loss for each named leaf parameter.

    Raises GraphError if a parameter does not participate in the graph
    under `loss`.
    """
    if loss.size != 1:
        raise ContractError(f"gradients needs a scalar loss, got shape {loss.shape}")
    reachable = {id(node) for node in nm._topo_order(loss)}
    for name, p in params.items():
        if id(p) not in reachable:
            raise GraphError(f"parameter {name!r} is not on the tape of this loss")
        p.grad = None
    nm.backward(loss)
    return {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for name, p in params.items()}


def node(parents, outputs, backward):
    """One tape node with several outputs, returned as a tuple of tensors.

    The outputs hang off one joint node: every consumer of every output
    runs before it, and it then calls `backward(*grads)` once, with each
    output's gradient (None for an output that got none). Only the parents
    that need gradients are recorded. A single output is `numerics.fused`.
    """
    if len(outputs) == 1:
        return (nm.fused(parents, outputs[0], backward),)
    # Output gradients travel through this list rather than through references
    # to the outputs, so the graph holds no reference cycle.
    grads = [None] * len(outputs)
    joint = nm.fused(parents, np.empty(0), lambda _: backward(*grads))

    def output(k, data):
        def mark(g):
            grads[k] = g
            joint.grad = joint.data  # any gradient schedules the joint node

        return nm.Tensor(data, parents=(joint,), backward=mark)

    return tuple(output(k, data) for k, data in enumerate(outputs))


def _zero_missing_grads(tensors):
    for t in tensors:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)


def taped(forward, backward=None):
    """A numpy forward/backward pair of the program as one tape node.

    `backward` defaults to `<name>_back` beside `forward` in its module. The
    returned function takes `forward`'s arguments with tensors in place of
    its array inputs. It runs `forward` on their data with a `saved` list and
    returns its output as a tensor, or a tuple of them through `node`. The
    node's parents are those tensors and every tensor of a mapping or store
    argument (the parameters). Its backward gives each parameter a zeroed
    gradient if it has none, calls `backward(*output_grads, saved)`, which
    adds into the parameters' gradients, and accumulates the input
    gradients it returns into the input tensors.
    """
    if backward is None:
        backward = getattr(sys.modules[forward.__module__], forward.__name__ + "_back")

    def run(*args):
        inputs = [a for a in args if isinstance(a, nm.Tensor)]
        params = [t for a in args if isinstance(a, (Mapping, nm.ParameterStore))
                  for _, t in a.items() if isinstance(t, nm.Tensor)]
        saved = []
        out = forward(*(a.data if isinstance(a, nm.Tensor) else a for a in args), saved=saved)

        def back(*grads):
            _zero_missing_grads(params)
            d_inputs = backward(*grads, saved)
            for x, d in zip(inputs, d_inputs if isinstance(d_inputs, tuple) else (d_inputs,)):
                nm.accumulate(x, d)

        outs = node((*inputs, *params), out if isinstance(out, tuple) else (out,), back)
        return outs if isinstance(out, tuple) else outs[0]

    return run


def _lift(x):
    return x if isinstance(x, nm.Tensor) else nm.Tensor(x)


# --- single tape ops: the references and the tests compose them -------------


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, da, db):
    a, b = _lift(a), _lift(b)
    out_data = fwd(a.data, b.data)

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(da(g, a.data, b.data), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(db(g, a.data, b.data), b.shape))

    return nm.Tensor(out_data, parents=(a, b), backward=back)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def mul(a, b):
    """Hadamard (elementwise) product with numpy broadcasting."""
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def back(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return nm.Tensor(out_data, parents=(a, b), backward=back)


def sigmoid(x):
    """`numerics.logistic` as a tape op."""
    x = _lift(x)
    y = nm.logistic(x.data)

    def back(g):
        x._accumulate(g * y * (1.0 - y))

    return nm.Tensor(y, parents=(x,), backward=back)


def softmax(x):
    """`numerics.softmax_probs` and `numerics.softmax_back` as a tape op
    over the last axis."""
    x = _lift(x)
    if x.size == 0:
        raise ShapeError("softmax of an empty tensor")
    y = nm.softmax_probs(x.data)

    def back(g):
        x._accumulate(nm.softmax_back(g, y))

    return nm.Tensor(y, parents=(x,), backward=back)


def mean_(x, axis=None, keepdims=False):
    x = _lift(x)
    count = x.size if axis is None else x.shape[axis]
    return mul(nm.sum_(x, axis=axis, keepdims=keepdims), 1.0 / count)


def concat(parts, axis=0):
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])

    return nm.Tensor(out_data, parents=tuple(parts), backward=back)


def take(x, key):
    """Basic (slice/integer) indexing with scatter-back gradient."""
    x = _lift(x)
    out_data = x.data[key]

    def back(g):
        full = np.zeros_like(x.data)
        full[key] = g
        x._accumulate(full)

    return nm.Tensor(out_data, parents=(x,), backward=back)


def gather_rows(table, ids):
    """Select rows of a table by integer ids (embedding lookup)."""
    table = _lift(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {table.shape}")

    def back(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table._accumulate(full)

    return nm.Tensor(table.data[ids], parents=(table,), backward=back)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def neg(x):
    x = _lift(x)

    def back(g):
        x._accumulate(-g)

    return nm.Tensor(-x.data, parents=(x,), backward=back)


def log(x):
    x = _lift(x)
    if np.any(x.data <= 0):
        raise ContractError("log requires strictly positive entries")

    def back(g):
        x._accumulate(g / x.data)

    return nm.Tensor(np.log(x.data), parents=(x,), backward=back)


def pow_scalar(x, p):
    x = _lift(x)
    y = x.data ** p

    def back(g):
        x._accumulate(g * p * x.data ** (p - 1.0))

    return nm.Tensor(y, parents=(x,), backward=back)


def clip_min(x, lo):
    """Clamp below at lo; gradient passes only where x > lo."""
    x = _lift(x)
    y = np.maximum(x.data, lo)

    def back(g):
        x._accumulate(g * (x.data > lo))

    return nm.Tensor(y, parents=(x,), backward=back)


def transpose(x):
    x = _lift(x)

    def back(g):
        x._accumulate(g.T)

    return nm.Tensor(x.data.T, parents=(x,), backward=back)


def relu(x):
    x = _lift(x)
    y = np.maximum(0.0, x.data)

    def back(g):
        x._accumulate(g * (x.data > 0))

    return nm.Tensor(y, parents=(x,), backward=back)


def conv1d_rows(x, kernel):
    """Valid 1-D cross-correlation of each row of x with a shared kernel.

    x is (B, L), kernel is (k,); output is (B, L - k + 1), stride 1,
    no padding: out[:, i] = sum_j kernel[j] * x[:, i + j].
    """
    x, kernel = _lift(x), _lift(kernel)
    if x.data.ndim != 2 or kernel.data.ndim != 1:
        raise ShapeError(f"conv1d_rows expects (B, L) and (k,), got {x.shape} and {kernel.shape}")
    k = kernel.shape[0]
    length = x.shape[1]
    if k > length:
        raise ShapeError(f"kernel length {k} exceeds input length {length}")
    out_len = length - k + 1
    out_data = np.zeros((x.shape[0], out_len))
    for j in range(k):
        out_data += kernel.data[j] * x.data[:, j:j + out_len]

    def back(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for j in range(k):
                gx[:, j:j + out_len] += kernel.data[j] * g
            x._accumulate(gx)
        if kernel.requires_grad:
            gk = np.array([(g * x.data[:, j:j + out_len]).sum() for j in range(k)])
            kernel._accumulate(gk)

    return nm.Tensor(out_data, parents=(x, kernel), backward=back)


# --- compositions of single tape ops, references for the fused primitives ---


def self_attention(q, k, v):
    """Scaled dot-product attention with row-wise softmax weights."""
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query/key widths differ: {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key/value row counts differ: {k.shape} vs {v.shape}")
    scale = 1.0 / math.sqrt(q.shape[1])
    scores = mul(matmul(q, transpose(k)), scale)
    return matmul(softmax(scores), v)


def composed_multi_head_attention(x, params, heads):
    """Project into per-head subspaces, attend head by head, concatenate, and mix."""
    d_model = x.shape[1]
    if d_model % heads:
        raise ConfigError(f"d_model={d_model} not divisible by heads={heads}")
    d_k = d_model // heads
    q, k, v = (matmul(x, take(params["wqkv"], i)) for i in range(3))
    outs = []
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        rows = (slice(None), cols)
        outs.append(self_attention(take(q, rows), take(k, rows), take(v, rows)))
    return matmul(concat(outs, axis=1), params["wo"])


def composed_layer_norm(x, gain, bias, sublayer=None):
    """Row-wise standardization of x (+ sublayer), variance floored at eps."""
    if sublayer is not None:
        x = add(x, sublayer)
    mu = mean_(x, axis=1, keepdims=True)
    centered = sub(x, mu)
    var = mean_(mul(centered, centered), axis=1, keepdims=True)
    normed = mul(centered, pow_scalar(clip_min(var, enc.LAYER_NORM_EPS), -0.5))
    return add(mul(normed, gain), bias)


def composed_feed_forward(x, params):
    hidden = relu(add(matmul(x, params["w1"]), params["b1"]))
    return add(matmul(hidden, params["w2"]), params["b2"])


def mlm_loss(predicted, targets):
    """Negative log likelihood of `targets`, probabilities clamped at the floor."""
    onehot = np.zeros(predicted.shape)
    onehot[np.arange(predicted.shape[0]), targets] = 1.0
    picked = nm.sum_(mul(predicted, onehot), axis=1)
    return neg(nm.sum_(log(clip_min(picked, enc.PROB_FLOOR))))


def embed(feature, params):
    return add(matmul(feature, params["w_e"]), params["b_e"])


def conv_text(embedded, params):
    return relu(add(conv1d_rows(embedded, params["w_c"]), params["b_c"]))


def feedforward_net(prices, priors, context, params):
    """sigmoid of the three-layer net on [prices, priors, context]."""
    x = concat([nm.Tensor(prices), nm.Tensor(priors), context], axis=1)
    h1 = relu(add(matmul(x, params["w1"]), params["b1"]))
    h2 = relu(add(matmul(h1, params["w2"]), params["b2"]))
    return sigmoid(add(matmul(h2, params["w3"]), params["b3"]))


def attention_over_features(query, candidates):
    """Dot-product scores per candidate of the (B, m, H) block, softmax, and
    the weighted sum."""
    feats = [take(candidates, (slice(None), j)) for j in range(candidates.shape[1])]
    if not feats:
        raise ContractError("need at least one candidate feature")
    scores = concat([nm.sum_(mul(query, f), axis=1, keepdims=True)
                        for f in feats], axis=1)
    alpha = softmax(scores)
    context = mul(take(alpha, (slice(None), slice(0, 1))), feats[0])
    for j in range(1, len(feats)):
        context = add(context, mul(take(alpha, (slice(None), slice(j, j + 1))), feats[j]))
    return alpha, context


def fuse(recurrent_out, text_context, params):
    """g * recurrent + (1 - g) * text with g = sigmoid(gamma_raw), text
    projected first when its width differs."""
    if text_context.shape[1] != recurrent_out.shape[1]:
        text_context = add(matmul(text_context, params["proj_w"]), params["proj_b"])
    gamma = sigmoid(params["gamma_raw"])
    blend = mul(gamma, recurrent_out)
    return add(blend, mul(sub(1.0, gamma), text_context))


def output_head(z, params):
    """sigmoid(z @ w_out + b_out)."""
    return sigmoid(add(matmul(z, params["w_out"]), params["b_out"]))


def bce_loss(p, targets):
    """Mean binary cross-entropy, both sides clamped below at 1e-7."""
    y = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    p_pos = clip_min(p, 1e-7)
    p_neg = clip_min(sub(1.0, p), 1e-7)
    per = add(mul(nm.Tensor(y), log(p_pos)),
                 mul(nm.Tensor(1.0 - y), log(p_neg)))
    return neg(mean_(per))


def bce_both_terms(p, targets, g):
    """Value and p-gradient, from the loss's gradient g, of the mean BCE of
    numpy arrays with both terms evaluated on every row: y log p +
    (1 - y) log(1 - p), each side clamped below at 1e-7 and its gradient
    masked there. The reference for `train.bce_loss`, which takes one
    selected probability per row."""
    y = np.asarray(targets, dtype=np.float64)[..., None]
    p_pos, p_neg = np.maximum(p, 1e-7), np.maximum(1.0 - p, 1e-7)
    per = y * np.log(p_pos) + (1.0 - y) * np.log(p_neg)
    scale = 1.0 / p.shape[-2]
    c = -np.asarray(g)[..., None, None] * scale
    grad = c * y / p_pos * (p > 1e-7) - c * (1.0 - y) / p_neg * ((1.0 - p) > 1e-7)
    return -(per.sum(axis=(-2, -1)) * scale), grad


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


# --- the encoder on the tape: its numpy sublayers as one node each ---------


def layer_norm(x, gain, bias, sublayer=None):
    """`encoder._add_norm` and `_add_norm_back` as one tape node: x (+ the
    sublayer output, the residual connection; zeros when there is none)
    standardized row by row with the variance floored at eps, so constant
    rows map to zeros; where the floor applies, no gradient flows through
    the variance."""
    if sublayer is None:
        sublayer = nm.Tensor(np.zeros(x.shape))
    saved = []
    out = enc._add_norm(x.data, sublayer.data, gain, bias, saved)

    def back(g):
        _zero_missing_grads((gain, bias))
        d_total = enc._add_norm_back(g, saved)
        nm.accumulate(x, d_total)
        nm.accumulate(sublayer, d_total)

    return nm.fused((x, gain, bias, sublayer), out, back)


def attention(x, params, heads):
    """`encoder._attend` and `_attend_back` as one tape node over the
    mapping's `wqkv` and `wo`."""
    wqkv, wo = params["wqkv"], params["wo"]
    saved = []
    out = enc._attend(x.data, wqkv, wo, heads, saved)

    def back(g):
        _zero_missing_grads((wqkv, wo))
        nm.accumulate(x, enc._attend_back(g, saved))

    return nm.fused((x, wqkv, wo), out, back)


def attention_per_matrix(x, params, heads, g):
    """The arithmetic of `encoder._attend` and `_attend_back` with one
    product per projection matrix in place of the (3, d, d) `wqkv`'s:
    (output, gradients of x, wq, wk, wv, wo) for one text and the output
    gradient g."""
    wq, wk, wv, wo = (params[w] for w in ("wq", "wk", "wv", "wo"))
    scale = 1.0 / math.sqrt(x.shape[-1] // heads)
    q, k, v = (enc._split_heads(x @ w, heads) for w in (wq, wk, wv))
    weights = nm.softmax_probs((q @ k.swapaxes(-1, -2)) * scale)
    merged = enc._merge_heads(weights @ v)
    d_ctx = enc._split_heads(g @ wo.T, heads)
    d_scores = nm.softmax_back(d_ctx @ v.transpose(0, 2, 1), weights) * scale
    grad_q = enc._merge_heads(d_scores @ k)
    grad_k = enc._merge_heads(d_scores.transpose(0, 2, 1) @ q)
    grad_v = enc._merge_heads(weights.transpose(0, 2, 1) @ d_ctx)
    d_x = grad_q @ wq.T + grad_k @ wk.T + grad_v @ wv.T
    return (merged @ wo, d_x, x.T @ grad_q, x.T @ grad_k, x.T @ grad_v, merged.T @ g)


def encoder_layer(x, params, heads):
    """Post-norm block: attention and feed-forward, each behind a residual."""
    attended = layer_norm(x, params["ln1_g"], params["ln1_b"], attention(x, params, heads))
    return layer_norm(attended, params["ln2_g"], params["ln2_b"],
                      taped(enc._feed_forward)(attended, params))


def encode_text(token_ids, config, params):
    """`encoder.encode_text` on one text's ids as a tape over the store's
    tensors: embedding lookup plus positions, the layers, then the pool."""
    length = len(token_ids)
    pe = enc.positional_encoding(config.max_len, config.d_model)
    x = add(gather_rows(params["emb"], token_ids), nm.Tensor(pe[:length]))
    for i in range(config.layers):
        x = encoder_layer(x, params.view(f"layer{i}"), config.heads)
    if config.pool == "mean":
        return x, mean_(x, axis=0, keepdims=True)
    return x, take(x, (slice(0, 1), slice(None)))


def standardize_features(pooled, length):
    """A pooled row flattened to one vector, then zero-padded or truncated to
    `length`: the feature row `encoder.encode_features` gives a text."""
    flat = np.asarray(pooled).reshape(-1)
    if flat.size >= length:
        return flat[:length].copy()
    return np.concatenate([flat, np.zeros(length - flat.size)])


def mlm_predictions(rows, positions, params):
    """`encoder.mlm_predictions` on the tape."""
    logits = add(matmul(gather_rows(rows, positions), params["mlm.w"]), params["mlm.b"])
    return softmax(logits)


# --- the encoder's masking and pretraining loop on the tape ---


def similar_word_mask(tokens, vocab, rng, mask_rate=0.15):
    """`encoder.similar_word_mask` drawing each span size with `rng.choice`."""
    maskable = len(tokens) - (1 if len(tokens) and tokens[0] == enc.START_ID else 0)
    if maskable < 1:
        raise ContractError("nothing to mask: sequence has no ordinary tokens")
    first = len(tokens) - maskable
    k = math.ceil(mask_rate * maskable)
    chosen = set()
    while len(chosen) < k:
        start = int(rng.integers(first, len(tokens)))
        span = int(rng.choice(np.array([1, 2, 3]), p=np.array([0.4, 0.3, 0.3])))
        for pos in range(start, min(start + span, len(tokens))):
            if len(chosen) >= k:
                break
            chosen.add(pos)
    positions = np.array(sorted(chosen), dtype=np.int64)
    targets = tokens[positions].copy()
    corrupted = tokens.copy()
    for pos in positions:
        if rng.random() < 0.1:
            continue
        cands = vocab.similar.get(int(tokens[pos]))
        if cands:
            corrupted[pos] = cands[int(rng.integers(0, len(cands)))]
        elif vocab.size > enc.NUM_SPECIALS:
            corrupted[pos] = int(rng.integers(enc.NUM_SPECIALS, vocab.size))
    return corrupted, positions, targets


def mlm_tape_loss(token_ids, positions, targets, config, params):
    """One sentence's masked-token loss on the tape: `encode_text` and
    `mlm_predictions` below, then the encoder's `mlm_loss` node."""
    rows, _ = encode_text(token_ids, config, params)
    return enc.mlm_loss(mlm_predictions(rows, positions, params), positions, targets)


def pretrain_mlm(corpus, config, epochs, seed, similar_words=None):
    """`encoder.pretrain_mlm` as one tape per sentence: tokenize every epoch,
    mask with `similar_word_mask` above, `nm.backward`, then the store Adam
    `adam_step` below."""
    corpus = [t for t in corpus if t.strip()]
    vocab = enc.Vocabulary.build(corpus, similar_words)
    rng = np.random.default_rng(seed)
    params = nm.ParameterStore(enc.encoder_layout(config, vocab.size), rng)
    state = nm.adam_state(params)
    trace = []
    for epoch in range(epochs):
        losses = []
        for index, text in enumerate(corpus):
            tokens = enc.tokenize(text, vocab, config.max_len)
            if len(tokens) < 2:
                continue
            corrupted, positions, targets = similar_word_mask(tokens, vocab, rng,
                                                              config.mask_rate)
            loss = mlm_tape_loss(corrupted, positions, targets, config, params)
            zero_grad(params)
            nm.backward(loss)
            adam_step(params, state)
            losses.append(loss.data.item())
        trace.append(float(np.mean(losses)))
    return params, vocab, trace


# --- training with per-step gradient arrays ---------------------------------


def zero_grad(store):
    """Drop every parameter's gradient, so the next backward allocates it."""
    for _, t in store.items():
        t.grad = None


def adam_step(store, state):
    """Store-based Adam: concatenate the parameters' gradients in store order,
    take the whole-vector step, and subtract each parameter's slice of it.
    Only the moments, step counter and step size of `state` are read.

    The reference for `numerics.adam_step`, which updates the flat vector the
    parameters are views of.
    """
    g = np.concatenate([t.grad.reshape(-1) for _, t in store.items()])
    state.t += 1
    b1, b2 = nm.BETA1, nm.BETA2
    state.m *= b1
    state.m += (1.0 - b1) * g
    state.v *= b2
    state.v += (1.0 - b2) * g * g
    m_hat = state.m / (1.0 - b1 ** state.t)
    v_hat = state.v / (1.0 - b2 ** state.t)
    step = state.lr * m_hat / (np.sqrt(v_hat) + nm.EPSILON)
    start = 0
    for _, p in store.items():
        p.data -= step[start:start + p.size].reshape(p.shape)
        start += p.size


def zscore_normalize(values):
    """Center and scale by the population standard deviation. The program
    does not z-score; criterion 8 and `test_ingest` check the laws."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ContractError(f"need at least 2 values, got {arr.size}")
    # two-pass centering removes the rounding residue a large common
    # offset leaves behind, keeping the output mean at float noise level
    centered = arr - arr.mean()
    centered -= centered.mean()
    peak = np.abs(centered).max()
    if peak == 0:
        raise DegenerateInputError("zero variance; cannot z-score")
    if peak < np.finfo(np.float64).tiny:  # subnormal: too few bits left to centre
        raise DegenerateInputError(f"spread {peak!r} is below the smallest normal float; "
                                   "cannot z-score")
    # scaling to a peak of 1 first keeps the squares of a tiny spread out of
    # the subnormal range, where they would lose precision
    centered /= peak
    return centered / centered.std()


def write_market_csv(series, path):
    """Serialize a market series so that parse(write(parse(x))) is a fixed
    point of `ingest.parse_market_csv`."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ingest.MARKET_COLUMNS)
        for day, *values in zip(series.dates, series.chg, series.open, series.close,
                                series.volume):
            writer.writerow([day.isoformat(), *(repr(float(v)) for v in values)])


def periodic_pattern_samples(count, window, feature_len=8, period=(1, 1, 0, 0)):
    """Samples from a repeating movement pattern; the target is determined
    exactly by the preceding window, in both the prior bits and the price
    channel (prices mirror the labels), with zero text features. Every
    predictor should fit it."""
    total = count + window - 1
    labels = np.array([period[i % len(period)] for i in range(total)], dtype=np.float64)
    return ingest.windows(synthetic._dates(total), labels, labels,
                          np.zeros((total, feature_len)), window)


def synthetic_dates(count):
    """`synthetic._dates` one `timedelta` at a time from its first day."""
    return [synthetic._EPOCH + timedelta(days=i) for i in range(count)]


def markov_labels(count, persistence, rng):
    """`synthetic.markov_labels` as its recurrence, with the same two draws:
    each label repeats the last one when its `stay` draw is set and flips it
    otherwise."""
    labels = np.empty(count, dtype=np.int64)
    labels[0] = int(rng.integers(0, 2))
    stay = rng.random(count - 1) < persistence
    for i in range(1, count):
        labels[i] = labels[i - 1] if stay[i - 1] else 1 - labels[i - 1]
    return labels


Row = collections.namedtuple("Row", "date prior prices text target")


def window_rows(dates, labels, prices, texts, n):
    """`ingest.windows` one sample at a time: row i takes days i..i+n-2 as
    history (`labels` as the prior vector, and `prices`) and day i+n-1 as
    the target (its date, `texts` row and label)."""
    labels, prices, texts = (np.asarray(a, dtype=np.float64) for a in (labels, prices, texts))
    rows = []
    for i in range(len(labels) - n + 1):
        t = i + n - 1
        rows.append(Row(dates[t], labels[i:t].copy(), prices[i:t].copy(), texts[t].copy(),
                        labels[t]))
    return rows


def sample_rows(samples):
    """A `Samples` block as its per-sample rows."""
    return [Row(*fields) for fields in zip(samples.dates, samples.priors, samples.prices,
                                           samples.texts, samples.targets)]


def batch_arrays(rows, prior_effect):
    """`train.batch_arrays` over per-sample rows, stacked with `np.stack`."""
    priors = np.stack([r.prior for r in rows])
    if not prior_effect:
        priors = np.zeros_like(priors)
    prices = np.stack([r.prices for r in rows])
    texts = np.stack([r.text for r in rows])
    return priors, prices, texts, np.array([r.target for r in rows], dtype=np.float64)


def forward_batch(store, config, priors, prices, texts):
    """`train.forward_batch` on the tape, one node per primitive through
    `taped`; SwinLSTM's window pooling is a node of its own before an LSTM
    unroll. Returns the probability column as a tensor."""
    text, cell, spec = store.view("text"), store.view("cell"), config.model
    context = taped(fusion.conv_text)(taped(fusion.embed)(nm.Tensor(texts), text), text)
    if spec.kind == "feedforward":
        return taped(models.feedforward_net)(prices, priors, context, cell)
    pairs = nm.Tensor(np.stack([prices, priors], axis=-1))
    if spec.kind == "swinlstm":
        pairs = taped(models.window_pool)(pairs, cell, spec.swin_window)
        spec = dataclasses.replace(spec, kind="lstm")
    steps, final = taped(models.unroll)(spec, cell, pairs)
    _, pooled = taped(fusion.attention_over_features)(final, steps)
    return taped(models.output_head)(taped(fusion.fuse)(pooled, context, text),
                                     store.view("head"))


def train_replicas(rows_per_replica, configs):
    """`train.train_replicas` over per-sample rows (see `window_rows`),
    through the per-primitive tape of `forward_batch` above, with fresh
    gradient arrays every step: `zero_grad`, `nm.backward`, then the store
    Adam above over the stacked store."""
    base = configs[0]
    lead = (len(configs),) if len(configs) > 1 else ()

    def stack(parts):
        return np.stack(parts).reshape(*lead, *parts[0].shape)

    stores = [tr.init_pipeline_params(c) for c in configs]
    store = store_of({name: stack([s[name].data for s in stores]) for name in names(stores[0])})
    state = nm.adam_state(store, lr=base.lr)  # only its moments, step size and counter are read
    arrays = [stack(parts) for parts in zip(*(
        batch_arrays(rows, c.prior_effect) for rows, c in zip(rows_per_replica, configs)))]
    n = len(rows_per_replica[0])
    traces = np.empty((base.epochs, len(configs)))
    for epoch in range(base.epochs):
        totals = np.zeros(len(configs))
        for start in range(0, n, base.batch_size):
            rows = (slice(None),) * len(lead) + (slice(start, start + base.batch_size),)
            priors, prices, texts, targets = (a[rows] for a in arrays)
            means = tr.bce_loss(forward_batch(store, base, priors, prices, texts), targets)
            zero_grad(store)
            nm.backward(nm.sum_(means) if lead else means)
            adam_step(store, state)
            totals += means.data * targets.shape[-1]
        traces[epoch] = totals / n
    return [(store_of({name: store[name].data[r] if lead else store[name].data
                       for name in names(store)}), traces[:, r].tolist())
            for r in range(len(configs))]
