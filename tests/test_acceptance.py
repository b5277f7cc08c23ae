"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Settings (epoch budgets, tolerances, seeds) are pinned here; the
oracles module supplies the independent reference implementations.
"""

import dataclasses
import math
import time

import numpy as np

import oracles
from oracles import (bilstm_forward, cell_step, confusion_counts, fd_gradients, max_rel_err,
                     self_attention, stack_gates, taped)

from trendfuse import cli, encoder as enc, fusion, ingest, models
from trendfuse import numerics as nm
from trendfuse import synthetic, train as tr
from trendfuse.models import ModelSpec, VALID_KINDS
from trendfuse.numerics import ParameterStore, Tensor

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def _passed(number, name):
    print(f"[criterion {number}] {name}: PASS", flush=True)


# --- criterion 1: gradient suite -----------------------------------------


def _check_grad_case(build, arrays, label):
    """Analytic tape gradients vs central finite differences for one case."""
    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    analytic = oracles.gradients(build(params), params)

    def value(raw):
        return build({k: Tensor(v) for k, v in raw.items()}).data.item()

    numeric = fd_gradients(value, arrays, h=FD_STEP)
    for key in arrays:
        err = max_rel_err(analytic[key], numeric[key])
        assert err < GRAD_TOL, f"{label}/{key}: rel err {err:.3e}"
    return 1


def _primitive_grad_cases(rng):
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    mix = Tensor(rng.normal(size=(3, 8)))
    mix43 = Tensor(rng.normal(size=(4, 3)))
    return [
        ("add", lambda p: nm.sum_(oracles.add(p["x"], p["y"])), {"x": x, "y": y}),
        ("sub", lambda p: nm.sum_(oracles.sub(p["x"], p["y"])), {"x": x, "y": y}),
        ("mul", lambda p: nm.sum_(oracles.mul(p["x"], p["y"])), {"x": x, "y": y}),
        ("neg", lambda p: nm.sum_(oracles.neg(p["x"])), {"x": x}),
        ("matmul", lambda p: nm.sum_(oracles.matmul(p["a"], p["b"])),
         {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}),
        ("sigmoid", lambda p: nm.sum_(oracles.sigmoid(p["x"])), {"x": x}),
        ("relu", lambda p: nm.sum_(oracles.relu(p["x"])),
         {"x": x + np.sign(x) * 0.05}),
        ("log", lambda p: nm.sum_(oracles.log(p["x"])), {"x": np.abs(x) + 0.5}),
        ("pow", lambda p: nm.sum_(oracles.pow_scalar(p["x"], -0.5)),
         {"x": np.abs(x) + 0.5}),
        ("clip_min", lambda p: nm.sum_(oracles.clip_min(p["x"], 0.3)),
         {"x": np.abs(x) + 0.5}),
        ("softmax", lambda p: nm.sum_(oracles.mul(oracles.softmax(p["x"]), p["y"])),
         {"x": x, "y": y}),
        ("sum_axis", lambda p: nm.sum_(oracles.mul(nm.sum_(p["x"], axis=0, keepdims=True), 2.0)),
         {"x": x}),
        ("mean_axis",
         lambda p: nm.sum_(oracles.mul(oracles.mean_(p["x"], axis=1, keepdims=True), 3.0)),
         {"x": x}),
        ("concat", lambda p: nm.sum_(oracles.mul(oracles.concat([p["x"], p["y"]], axis=1), mix)),
         {"x": x, "y": y}),
        ("take", lambda p: nm.sum_(oracles.take(p["x"], (slice(1, None), slice(0, 2)))), {"x": x}),
        ("transpose", lambda p: nm.sum_(oracles.mul(oracles.transpose(p["x"]), mix43)),
         {"x": x}),
        ("gather_rows", lambda p: nm.sum_(oracles.gather_rows(p["x"], [0, 2, 2, 1])),
         {"x": x}),
        ("conv1d", lambda p: nm.sum_(oracles.conv1d_rows(p["x"], p["k"])),
         {"x": x, "k": rng.normal(size=2)}),
        ("broadcast_bias", lambda p: nm.sum_(oracles.add(p["x"], p["b"])),
         {"x": x, "b": rng.normal(size=(1, 4))}),
    ]


def _fusion_grad_cases(rng):
    f = rng.normal(size=(2, 5))
    embed_arrays = {"f": f, "w_e": rng.normal(size=(5, 6)), "b_e": rng.normal(size=(1, 6))}
    conv_arrays = {"e": rng.normal(size=(2, 6)), "w_c": rng.normal(size=3),
                   "b_c": rng.normal(size=(1, 1))}
    att_arrays = {"q": rng.normal(size=(2, 4)), "feats": rng.normal(size=(2, 3, 4))}
    fuse_arrays = {"o": rng.normal(size=(2, 4)), "c": rng.normal(size=(2, 6)),
                   "proj_w": rng.normal(size=(6, 4)), "proj_b": rng.normal(size=(1, 4)),
                   "gamma_raw": rng.normal(size=(1, 1))}

    def build_embed(p):
        return nm.sum_(taped(fusion.embed)(p["f"], {"w_e": p["w_e"], "b_e": p["b_e"]}))

    def build_conv(p):
        return nm.sum_(taped(fusion.conv_text)(p["e"], {"w_c": p["w_c"], "b_c": p["b_c"]}))

    def build_att(p):
        alpha, ctx = taped(fusion.attention_over_features)(p["q"], p["feats"])
        return nm.sum_(oracles.add(nm.sum_(alpha), nm.sum_(ctx)))

    def build_fuse(p):
        out = taped(fusion.fuse)(p["o"], p["c"], {"proj_w": p["proj_w"], "proj_b": p["proj_b"],
                                           "gamma_raw": p["gamma_raw"]})
        return nm.sum_(out)

    return [("fusion.embed", build_embed, embed_arrays),
            ("fusion.conv_text", build_conv, conv_arrays),
            ("fusion.attention", build_att, att_arrays),
            ("fusion.fuse", build_fuse, fuse_arrays)]


def _encoder_grad_cases(rng):
    """The fused encoder sublayers, plus the reference attention in `oracles`."""
    d = 4
    x = rng.normal(size=(3, d))
    mha_arrays = {"x": x, "wqkv": rng.normal(size=(3, d, d)), "wo": rng.normal(size=(d, d))}
    ln_arrays = {"x": rng.normal(size=(3, d)) * 2.0,
                 "g": rng.normal(size=(1, d)), "b": rng.normal(size=(1, d))}
    att_arrays = {"q": rng.normal(size=(3, 2)), "k": rng.normal(size=(3, 2)),
                  "v": rng.normal(size=(3, 2))}
    res_ln_arrays = {"x": rng.normal(size=(3, d)) * 2.0, "sub": rng.normal(size=(3, d)),
                     "g": rng.normal(size=(1, d)), "b": rng.normal(size=(1, d))}
    # rows of x + sub whose variance sits on the eps floor: one constant, one
    # with a spread of ~1e-4, where a variance gradient would show
    res_ln_arrays["x"][1], res_ln_arrays["sub"][1] = 0.75, -2.0
    res_ln_arrays["x"][2] = 0.5 + 1e-4 * rng.normal(size=d)
    res_ln_arrays["sub"][2] = 0.25
    ffn_arrays = {"x": rng.normal(size=(3, d)),
                  "w1": rng.normal(size=(d, 6)), "b1": rng.normal(size=(1, 6)),
                  "w2": rng.normal(size=(6, d)), "b2": rng.normal(size=(1, d))}
    mlm_arrays = {"logits": rng.normal(size=(3, 5))}
    targets = rng.integers(0, 5, size=3)
    mlm_arrays["logits"][0, targets[0]] = -1000.0  # its probability underflows to 0

    def build_attention(p):
        return nm.sum_(self_attention(p["q"], p["k"], p["v"]))

    def build_mha(p, heads):
        return nm.sum_(oracles.attention(p["x"], p, heads))

    def build_ln(p):
        return nm.sum_(oracles.layer_norm(p["x"], p["g"], p["b"]))

    def build_res_ln(p):
        return nm.sum_(oracles.layer_norm(p["x"], p["g"], p["b"], p["sub"]))

    def build_ffn(p):
        return nm.sum_(taped(enc._feed_forward)(p["x"], p))

    def build_mlm(p):
        return enc.mlm_loss(oracles.softmax(p["logits"]), np.arange(3), targets)

    return [("oracles.self_attention", build_attention, att_arrays),
            *[(f"encoder.mha.{heads}heads", lambda p, n=heads: build_mha(p, n), mha_arrays)
              for heads in (1, 2, 4)],
            ("encoder.layer_norm", build_ln, ln_arrays),
            ("encoder.layer_norm.residual_eps_floor", build_res_ln, res_ln_arrays),
            ("encoder.feed_forward", build_ffn, ffn_arrays),
            ("encoder.mlm_loss.zero_probability", build_mlm, mlm_arrays)]


def _check_zero_probability_gradient():
    """A target whose predicted probability is 0 gets a finite, zero gradient."""
    probs = Tensor([[0.0, 0.25, 0.75], [0.5, 0.5, 0.0]], requires_grad=True)
    loss = enc.mlm_loss(probs, np.arange(2), np.array([0, 1]))
    grad = oracles.gradients(loss, {"p": probs})["p"]
    assert np.all(np.isfinite(grad)) and grad[0, 0] == 0.0 and grad[1, 1] == -2.0
    return 1


def _full_encoder_setup(seed):
    config = enc.EncoderConfig(d_model=8, heads=2, layers=2, d_ff=16, max_len=10)
    corpus = ["alpha beta gamma delta", "beta delta alpha epsilon"]
    vocab = enc.Vocabulary.build(corpus)
    rng = np.random.default_rng(seed)
    params = nm.ParameterStore(enc.encoder_layout(config, vocab.size), rng)
    tokens = enc.tokenize("alpha beta gamma delta epsilon", vocab, config.max_len)
    corrupted, positions, targets = enc.similar_word_mask(tokens, vocab,
                                                 np.random.default_rng(seed + 1), 0.3)
    arrays = {name: params[name].data.copy() for name in oracles.names(params)}
    return config, arrays, corrupted, positions, targets


def _check_mlm_step_case(seed):
    """The tape-free pretraining step's gradients vs central finite differences."""
    config, arrays, corrupted, positions, targets = _full_encoder_setup(seed)
    store = oracles.store_of(arrays)
    enc.mlm_step(corrupted, positions, targets, config, store)
    analytic = {name: t.grad for name, t in store.items()}

    def value(raw):
        return enc.mlm_step(corrupted, positions, targets, config, oracles.store_of(raw))

    numeric = fd_gradients(value, arrays, h=FD_STEP)
    for key in arrays:
        err = max_rel_err(analytic[key], numeric[key])
        assert err < GRAD_TOL, f"encoder.mlm_step/{key}: rel err {err:.3e}"
    return 1


def _full_encoder_grad_case(seed):
    config, arrays, corrupted, positions, targets = _full_encoder_setup(seed)

    def build(p):
        store = oracles.Leaves({name: p[name] for name in arrays})
        rows, _ = oracles.encode_text(corrupted, config, store)
        return enc.mlm_loss(oracles.mlm_predictions(rows, positions, store),
                            positions, targets)

    return ("encoder.full_mlm", build, arrays)


def _cell_grad_cases(rng, steps):
    hid, inp = 4, 2
    rows = hid + inp
    xs = [rng.normal(size=(2, inp)) for _ in range(steps)]

    def gates(extra=()):
        """Per-gate LSTM arrays plus `extra`; `stack_gates` stores them."""
        arrays = {}
        for g in ("w_i", "w_f", "w_c", "w_o"):
            arrays[g] = rng.normal(size=(rows, hid))
            arrays[g.replace("w", "b")] = rng.normal(size=(1, hid))
        for name, shape in extra:
            arrays[name] = rng.normal(size=shape)
        return arrays

    cases = []

    def unroll_case(kind, arrays, runner):
        def build(p):
            return nm.sum_(runner(p))
        cases.append((f"cell.{kind}.{steps}steps", build,
                      {**stack_gates(arrays), **{f"x{i}": xs[i] for i in range(steps)}}))

    def run_lstm(p):
        h = c = Tensor(np.zeros((2, hid)))
        for i in range(steps):
            h, c = cell_step("lstm", p[f"x{i}"], (h, c), p)
        return h

    unroll_case("lstm", gates(), run_lstm)

    gru_arrays = {}
    for g in ("w_z", "w_r", "w_h"):
        gru_arrays[g] = rng.normal(size=(rows, hid))
        gru_arrays[g.replace("w", "b")] = rng.normal(size=(1, hid))

    def run_gru(p):
        h = Tensor(np.zeros((2, hid)))
        for i in range(steps):
            h = cell_step("gru", p[f"x{i}"], (h,), p)[0]
        return h

    unroll_case("gru", gru_arrays, run_gru)

    mog_arrays = gates(extra=(("q", (hid, inp)), ("r", (inp, hid))))

    def run_mog(p):
        h = c = Tensor(np.zeros((2, hid)))
        for i in range(steps):
            h, c = cell_step("mogrifier", p[f"x{i}"], (h, c), p, mogrifier_rounds=3)
        return h

    unroll_case("mogrifier", mog_arrays, run_mog)

    st_arrays = gates()
    for g in ("w_mi", "w_mf", "w_mc"):
        st_arrays[g] = rng.normal(size=(inp + hid, hid))
        st_arrays[g.replace("w", "b")] = rng.normal(size=(1, hid))
    st_arrays["w_mix"] = rng.normal(size=(2 * hid, hid))

    def run_st(p):
        h = c = m = Tensor(np.zeros((2, hid)))
        for i in range(steps):
            h, c, m = cell_step("stlstm", p[f"x{i}"], (h, c, m), p)
        return h

    unroll_case("stlstm", st_arrays, run_st)

    window = 2
    swin_arrays = {name: rng.normal(size=(1, 1)) for name in ("wq", "wk", "wv", "wp")}
    for g in ("w_i", "w_f", "w_c", "w_o"):
        swin_arrays[g] = rng.normal(size=(hid + window, hid))
        swin_arrays[g.replace("w", "b")] = rng.normal(size=(1, hid))
    swin_xs = {f"x{i}": rng.normal(size=(2, 4)) for i in range(steps)}

    def run_swin(p):
        h = c = Tensor(np.zeros((2, hid)))
        for i in range(steps):
            h, c = cell_step("swinlstm", p[f"x{i}"], (h, c), p, swin_window=window)
        return h

    def build_swin(p):
        return nm.sum_(run_swin(p))

    cases.append((f"cell.swinlstm.{steps}steps", build_swin,
                  {**stack_gates(swin_arrays), **swin_xs}))

    bi_arrays = {f"{d}.{k}": v for d in ("fwd", "bwd") for k, v in stack_gates(gates()).items()}

    def run_bi(p):
        fwd = {k[4:]: v for k, v in p.items() if k.startswith("fwd.")}
        bwd = {k[4:]: v for k, v in p.items() if k.startswith("bwd.")}
        return bilstm_forward([p[f"x{i}"] for i in range(steps)], fwd, bwd)

    unroll_case("bilstm", bi_arrays, run_bi)
    return cases


def _fused_grad_cases(rng):
    """SwinLSTM's window pooling and the whole-sequence unroll node of every kind.

    Each loss mixes every output it uses with fixed random weights so no
    gradient path cancels. Cases marked const/frozen keep some inputs as
    plain constants, so the node's backward must skip them; the only_final
    and only_steps cases leave one of the unroll node's two outputs without
    a gradient.
    """
    hid, inp, batch = 3, 2, 2

    def const(*shape):
        return Tensor(rng.normal(size=shape))

    def mixed(*shapes):
        weights = [const(*shape) for shape in shapes]

        def loss(values):
            total = nm.sum_(oracles.mul(values[0], weights[0]))
            for value, w in zip(values[1:], weights[1:]):
                total = oracles.add(total, nm.sum_(oracles.mul(value, w)))
            return total
        return loss

    def arrays(**shapes):
        return {name: rng.normal(size=shape) for name, shape in shapes.items()}

    cases = []
    swin = stack_gates(arrays(x=(batch, 5), wq=(1, 1), wk=(1, 1), wv=(1, 1), wp=(1, 1)))
    mix_w = mixed((batch, 2))
    pool = taped(models.window_pool)
    cases.append(("fused.window_pool.padded", lambda p: mix_w((pool(p["x"], p, 2),)), swin))
    x_feat = const(batch, 6)
    cases.append(("fused.window_pool.const_x", lambda p: mix_w((pool(x_feat, p, 2),)),
        {"pool": swin["pool"]}))
    mix_3 = mixed((batch, 3))
    cases.append(("fused.window_pool.one_window", lambda p: mix_3((pool(p["x"], p, 3),)),
        {**swin, "x": rng.normal(size=(batch, 3))}))
    mix_steps_w = mixed((batch, 3, 2))
    cases.append(("fused.window_pool.step_block", lambda p: mix_steps_w((pool(p["x"], p, 2),)),
        {**swin, "x": rng.normal(size=(batch, 3, 5))}))

    for kind in models.RECURRENT_KINDS:
        spec = ModelSpec(kind=kind, hidden=hid, mogrifier_rounds=3, swin_window=2)
        store = ParameterStore(models.model_layout(spec, inp), rng)
        weights = {k: t.data.copy() for k, t in store.view("cell").items()}
        frozen = {k: Tensor(v) for k, v in weights.items()}
        width = spec.output_width
        for steps in (1, 3):
            xs = const(batch, steps, inp)
            mix_both = mixed((batch, steps, width), (batch, width))
            mix_steps, mix_final = mixed((batch, steps, width)), mixed((batch, width))

            def build(p, spec=spec, xs=xs, mix=mix_both):
                return mix(taped(models.unroll)(spec, p, xs))

            def only_final(p, spec=spec, xs=xs, mix=mix_final):
                return mix(taped(models.unroll)(spec, p, xs)[1:])

            def only_steps(p, spec=spec, xs=xs, mix=mix_steps):
                return mix(taped(models.unroll)(spec, p, xs)[:1])

            def frozen_weights(p, spec=spec, mix=mix_both, frozen=frozen):
                return mix(taped(models.unroll)(spec, frozen, p["xs"]))

            label = f"fused.unroll.{kind}.T{steps}"
            cases += [(f"{label}.const_inputs", build, weights),
                      (f"{label}.only_final", only_final, weights),
                      (f"{label}.only_steps", only_steps, weights),
                      (f"{label}.frozen_weights", frozen_weights,
                       {"xs": rng.normal(size=(batch, steps, inp))})]
    return cases


def _tail_grad_cases(rng):
    """The fused predictor tail: attention pooling, the fusion gate, the head
    and the loss, including one-candidate, constant-input and clamped cases."""
    batch, width = 3, 4

    def arrays(**shapes):
        return {name: rng.normal(size=shape) for name, shape in shapes.items()}

    mix_alpha1, mix_ctx = Tensor(rng.normal(size=(batch, 1))), Tensor(rng.normal(size=(batch, width)))
    mix_out = Tensor(rng.normal(size=(batch, width)))
    mix_p = Tensor(rng.normal(size=(batch, 1)))

    def weighted(t, mix):
        return nm.sum_(oracles.mul(t, mix))

    def build_att_one(p):
        alpha, ctx = taped(fusion.attention_over_features)(p["q"], p["feats"])
        return oracles.add(weighted(alpha, mix_alpha1), weighted(ctx, mix_ctx))

    def build_att_context(p):
        # the pipeline's use: alpha unused
        _, ctx = taped(fusion.attention_over_features)(p["q"], p["feats"])
        return weighted(ctx, mix_ctx)

    text_const = Tensor(rng.normal(size=(batch, width)))

    def build_fuse(p):
        return weighted(taped(fusion.fuse)(p["o"], p["c"], {"gamma_raw": p["gamma_raw"]}),
                        mix_out)

    def build_fuse_const_text(p):
        return weighted(taped(fusion.fuse)(p["o"], text_const, {"gamma_raw": p["gamma_raw"]}),
                        mix_out)

    def build_head(p):
        return weighted(taped(models.output_head)(p["z"], p), mix_p)

    targets = np.array([1, 0, 1])

    def build_bce(p):
        return tr.bce_loss(oracles.sigmoid(p["logits"]), targets)

    clamped = rng.normal(size=(batch, 1))
    clamped[0, 0], clamped[1, 0] = -40.0, 40.0  # p is exactly 0 and 1: both clamped

    att_one = arrays(q=(batch, width), feats=(batch, 1, width))
    return [("fusion.attention.one_candidate", build_att_one, att_one),
            ("fusion.attention.context_only", build_att_context,
             arrays(q=(batch, width), feats=(batch, 3, width))),
            ("fusion.fuse.no_projection", build_fuse,
             arrays(o=(batch, width), c=(batch, width), gamma_raw=(1, 1))),
            ("fusion.fuse.const_text", build_fuse_const_text,
             arrays(o=(batch, width), gamma_raw=(1, 1))),
            ("models.output_head", build_head,
             arrays(z=(batch, width), w_out=(width, 1), b_out=(1, 1))),
            ("train.bce_loss", build_bce, arrays(logits=(batch, 1))),
            ("train.bce_loss.clamped", build_bce, {"logits": clamped})]


def _text_path_grad_cases(rng):
    """The fused text path and feedforward baseline, with constant inputs."""
    batch = 3

    def arrays(**shapes):
        return {name: rng.normal(size=shape) for name, shape in shapes.items()}

    mix_e, mix_c, mix_ff = (Tensor(rng.normal(size=shape))
                            for shape in ((batch, 6), (batch, 4), (batch, 1)))
    f_const, e_const = Tensor(rng.normal(size=(batch, 5))), Tensor(rng.normal(size=(batch, 6)))

    def weighted(t, mix):
        return nm.sum_(oracles.mul(t, mix))

    ff = arrays(x=(batch, 5), w1=(5, 6), b1=(1, 6), w2=(6, 4), b2=(1, 4), w3=(4, 1), b3=(1, 1))
    build_ff, ff_arrays = _feedforward_case(ff, lambda prob: weighted(prob, mix_ff))
    weights = {k: v for k, v in ff_arrays.items() if k != "context"}
    context_const = Tensor(ff_arrays["context"])
    prices, priors = ff["x"][:, :1], ff["x"][:, 1:2]
    return [("fusion.embed.const_feature",
             lambda p: weighted(taped(fusion.embed)(f_const, p), mix_e),
             arrays(w_e=(5, 6), b_e=(1, 6))),
            ("fusion.conv_text.const_input",
             lambda p: weighted(taped(fusion.conv_text)(e_const, p), mix_c),
             arrays(w_c=(3,), b_c=(1, 1))),
            ("models.feedforward_net", build_ff, ff_arrays),
            ("models.feedforward_net.const_input",
             lambda p: weighted(taped(models.feedforward_net)(prices, priors, context_const, p),
                                mix_ff), weights)]


def _feedforward_case(arrays, loss):
    """`loss` of the feedforward baseline on `arrays`' x split into a price
    column, a prior column (both constants) and the context, which takes a
    gradient; returns the builder and the arrays it differentiates."""
    x = arrays["x"]

    def build(p):
        return loss(taped(models.feedforward_net)(x[..., :1], x[..., 1:2], p["context"], p))

    return build, {"context": x[..., 2:], **{k: v for k, v in arrays.items() if k != "x"}}


def _replica_grad_cases(rng):
    """Every rank-agnostic primitive on R = 2 replicas: (R, B, ...) blocks
    against parameters stacked as (R, ...)."""
    reps, batch, hid, inp = 2, 3, 3, 2

    def arrays(**shapes):
        return {name: rng.normal(size=(reps, *shape)) for name, shape in shapes.items()}

    def mixed(*shapes):
        weights = [Tensor(rng.normal(size=(reps, *shape))) for shape in shapes]

        def loss(*values):
            total = nm.sum_(oracles.mul(values[0], weights[0]))
            for value, w in zip(values[1:], weights[1:]):
                total = oracles.add(total, nm.sum_(oracles.mul(value, w)))
            return total
        return loss

    mix_e, mix_c, mix_1, mix_h = (mixed(shape) for shape in
                                  ((batch, 6), (batch, 4), (batch, 1), (batch, hid)))
    mix_att, mix_pool = mixed((batch, 3), (batch, hid)), mixed((batch, 4, 2))
    targets = rng.integers(0, 2, size=(reps, batch))
    cases = [
        ("replicas.fusion.embed", lambda p: mix_e(taped(fusion.embed)(p["f"], p)),
         arrays(f=(batch, 5), w_e=(5, 6), b_e=(1, 6))),
        ("replicas.fusion.conv_text", lambda p: mix_c(taped(fusion.conv_text)(p["e"], p)),
         arrays(e=(batch, 6), w_c=(3,), b_c=(1, 1))),
        ("replicas.models.feedforward_net",
         *_feedforward_case(arrays(x=(batch, 5), w1=(5, 6), b1=(1, 6), w2=(6, 4), b2=(1, 4),
                                   w3=(4, 1), b3=(1, 1)), mix_1)),
        ("replicas.fusion.attention",
         lambda p: mix_att(*taped(fusion.attention_over_features)(p["q"], p["feats"])),
         arrays(q=(batch, hid), feats=(batch, 3, hid))),
        ("replicas.fusion.fuse", lambda p: mix_h(taped(fusion.fuse)(p["o"], p["c"], p)),
         arrays(o=(batch, hid), c=(batch, 5), proj_w=(5, hid), proj_b=(1, hid),
                gamma_raw=(1, 1))),
        ("replicas.models.output_head", lambda p: mix_1(taped(models.output_head)(p["z"], p)),
         arrays(z=(batch, hid), w_out=(hid, 1), b_out=(1, 1))),
        ("replicas.train.bce_loss",
         lambda p: nm.sum_(tr.bce_loss(oracles.sigmoid(p["logits"]), targets)),
         arrays(logits=(batch, 1))),
        ("replicas.fused.window_pool", lambda p: mix_pool(taped(models.window_pool)(p["x"], p, 2)),
         stack_gates(arrays(x=(batch, 4, 5), wq=(1, 1), wk=(1, 1), wv=(1, 1), wp=(1, 1)))),
    ]
    for kind in models.RECURRENT_KINDS:
        spec = ModelSpec(kind=kind, hidden=hid, mogrifier_rounds=3, swin_window=2)
        stores = [ParameterStore(models.model_layout(spec, inp), rng) for _ in range(reps)]
        weights = {k: np.stack([s["cell." + k].data for s in stores])
                   for k in stores[0].view("cell")}
        mix = mixed((batch, 3, spec.output_width), (batch, spec.output_width))

        def build(p, spec=spec, mix=mix):
            return mix(*taped(models.unroll)(spec, p, p["xs"]))

        cases.append((f"replicas.fused.unroll.{kind}", build,
                      {**weights, "xs": rng.normal(size=(reps, batch, 3, inp))}))
    return cases


def _pipeline_grad_case(kind, seed):
    samples = synthetic.markov_samples(5, 5, seed=seed, feature_len=6)
    cfg = tr.TrainConfig(epochs=1, batch_size=5, seed=seed, window=5, feature_len=6,
                         embed_width=6, kernel_len=2,
                         model=ModelSpec(kind=kind, hidden=4, mogrifier_rounds=3,
                                         swin_window=2))
    store = tr.init_pipeline_params(cfg)
    priors, prices, texts, targets = tr.batch_arrays(samples, True)
    arrays = {name: store[name].data.copy() for name in oracles.names(store)}
    # the training step's one forward node, as `train.train_replicas` records it
    step = taped(tr.forward_batch, lambda g, saved: tr._backward_batch(cfg, saved, g))

    def build(p):
        prob = step(oracles.Leaves({name: p[name] for name in arrays}), cfg, priors, prices,
                    texts)
        return tr.bce_loss(prob, targets)

    return (f"pipeline.{kind}", build, arrays)


def test_criterion_1_gradient_suite():
    start = time.time()
    configs = 0
    for seed in range(4):
        rng = np.random.default_rng(1000 + seed)
        for label, build, arrays in _primitive_grad_cases(rng):
            configs += _check_grad_case(build, arrays, f"{label}#s{seed}")
    for seed in range(2):
        rng = np.random.default_rng(2000 + seed)
        for label, build, arrays in _fusion_grad_cases(rng):
            configs += _check_grad_case(build, arrays, f"{label}#s{seed}")
        for label, build, arrays in _encoder_grad_cases(rng):
            configs += _check_grad_case(build, arrays, f"{label}#s{seed}")
        for steps in (1, 3):
            for label, build, arrays in _cell_grad_cases(
                    np.random.default_rng(3000 + 10 * seed + steps), steps):
                configs += _check_grad_case(build, arrays, f"{label}#s{seed}")
        for label, build, arrays in _fused_grad_cases(np.random.default_rng(3500 + seed)):
            configs += _check_grad_case(build, arrays, f"{label}#s{seed}")
        for label, build, arrays in _tail_grad_cases(np.random.default_rng(3700 + seed)):
            configs += _check_grad_case(build, arrays, f"{label}#s{seed}")
        for label, build, arrays in _text_path_grad_cases(np.random.default_rng(3800 + seed)):
            configs += _check_grad_case(build, arrays, f"{label}#s{seed}")
        for label, build, arrays in _replica_grad_cases(np.random.default_rng(3900 + seed)):
            configs += _check_grad_case(build, arrays, f"{label}#s{seed}")
    configs += _check_zero_probability_gradient()
    label, build, arrays = _full_encoder_grad_case(4000)
    configs += _check_grad_case(build, arrays, label)
    configs += _check_mlm_step_case(4000)
    for kind in VALID_KINDS:
        label, build, arrays = _pipeline_grad_case(kind, 5000)
        configs += _check_grad_case(build, arrays, label)
    elapsed = time.time() - start
    assert configs >= 100, f"only {configs} configurations checked"
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"
    _passed(1, f"gradient suite ({configs} configs, {elapsed:.0f}s, tol {GRAD_TOL})")


# --- criterion 2: reduction identities ------------------------------------


def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(7)
    hid, inp = 4, 2
    rows = hid + inp

    def gates(rows_):
        out = {}
        for g in ("w_i", "w_f", "w_c", "w_o"):
            out[g] = rng.normal(size=(rows_, hid))
            out[g.replace("w", "b")] = rng.normal(size=(1, hid))
        return out

    def tensors(per_gate):
        return {k: Tensor(v) for k, v in stack_gates(per_gate).items()}

    params = tensors(gates(rows))
    x = Tensor(rng.normal(size=(2, inp)))
    h0 = Tensor(rng.normal(size=(2, hid)))
    c0 = Tensor(rng.normal(size=(2, hid)))
    h_ref, c_ref = cell_step("lstm", x, (h0, c0), params)

    hm, cm = cell_step("mogrifier", x, (h0, c0), params, mogrifier_rounds=0)
    assert np.array_equal(hm.data, h_ref.data) and np.array_equal(cm.data, c_ref.data)

    qr = dict(params)
    qr["q"] = Tensor(np.zeros((hid, inp)))
    qr["r"] = Tensor(np.zeros((inp, hid)))
    hq, cq = cell_step("mogrifier", x, (h0, c0), qr, mogrifier_rounds=4)
    assert np.max(np.abs(hq.data - h_ref.data)) < 1e-12
    assert np.max(np.abs(cq.data - c_ref.data)) < 1e-12

    m_path = {}
    for g in ("w_mi", "w_mf", "w_mc"):
        m_path[g] = np.zeros((inp + hid, hid))
        m_path[g.replace("w", "b")] = np.zeros((1, hid))
    m_path["w_mix"] = np.vstack([np.eye(hid), np.zeros((hid, hid))])
    st = {**params, **tensors(m_path)}
    hs, cs, _ = cell_step("stlstm", x, (h0, c0, Tensor(np.zeros((2, hid)))), st)
    assert np.max(np.abs(hs.data - h_ref.data)) < 1e-12
    assert np.max(np.abs(cs.data - c_ref.data)) < 1e-12

    window = 2
    swin = {name: rng.normal(size=(1, 1)) for name in ("wq", "wk", "wv")}
    swin["wp"] = np.zeros((1, 1))
    swin = tensors({**swin, **gates(hid + window)})
    feats = Tensor(rng.normal(size=(2, 6)))
    hw, cw = cell_step("swinlstm", feats, (h0, c0), swin, swin_window=window)
    pooled = Tensor(feats.data.reshape(2, 3, 2).mean(axis=1))
    hp, cp = cell_step("lstm", pooled, (h0, c0), swin)
    assert np.max(np.abs(hw.data - hp.data)) < 1e-12
    assert np.max(np.abs(cw.data - cp.data)) < 1e-12
    _passed(2, "reduction identities (mogrifier/stlstm/swinlstm vs LSTM)")


# --- criterion 3: normalization laws ---------------------------------------


def test_criterion_3_normalization_laws():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1000, 9)) * 4.0
    sums = oracles.softmax(Tensor(x)).data.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9

    for i in range(0, 1000, 100):
        q = rng.normal(size=(100, 5))
        feats = np.stack([rng.normal(size=(100, 5)) for _ in range(4)], axis=1)
        alpha, _ = fusion.attention_over_features(q, feats)
        assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) < 1e-9

    pe = enc.positional_encoding(64, 12)
    assert np.array_equal(pe[0, 0::2], np.zeros(6))
    assert np.array_equal(pe[0, 1::2], np.ones(6))
    assert np.all((pe >= -1.0) & (pe <= 1.0))

    rows = rng.normal(size=(1000, 8)) * 3.0 + 1.0
    out = oracles.layer_norm(Tensor(rows), Tensor(np.ones((1, 8))),
                         Tensor(np.zeros((1, 8)))).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-9
    assert np.max(np.abs(out.std(axis=1) - 1.0)) < 1e-9
    _passed(3, "normalization laws (softmax, attention weights, PE, layer norm)")


# --- criterion 4: metric oracle ---------------------------------------------


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(13)
    for case in range(1000):
        n = int(rng.integers(1, 40))
        if case % 5 == 0:
            labels = np.zeros(n, dtype=int)   # forces tp + fp == 0
        elif case % 5 == 1:
            labels = np.ones(n, dtype=int)
        else:
            labels = rng.integers(0, 2, size=n)
        if case % 7 == 0:
            targets = np.zeros(n, dtype=int)  # forces tp + fn == 0
        else:
            targets = rng.integers(0, 2, size=n)
        report = tr.confusion_report(labels, targets)
        tp, fp, tn, fn = confusion_counts(labels, targets)
        assert (report.tp, report.fp, report.tn, report.fn) == (tp, fp, tn, fn)
        assert report.accuracy == (tp + tn) / n
        assert report.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert report.recall == (tp / (tp + fn) if tp + fn else 0.0)
        if report.precision + report.recall:
            harmonic = (2 * report.precision * report.recall
                        / (report.precision + report.recall))
            assert abs(report.f1 - harmonic) < 1e-12
        else:
            assert report.f1 == 0.0

    f1, recall = 0.7428, 0.8125
    precision = f1 * recall / (2 * recall - f1)
    assert abs(precision - 0.6842) < 1e-3
    assert abs(2 * precision * recall / (precision + recall) - f1) < 1e-12
    _passed(4, f"metric oracle (1000 sets; derived precision {precision:.4f})")


# --- criterion 5: learnability ----------------------------------------------


def test_criterion_5_learnability():
    start = time.time()
    samples = oracles.periodic_pattern_samples(64, 6, feature_len=8)
    results = {}
    for kind in VALID_KINDS:
        cfg = tr.TrainConfig(epochs=400, batch_size=32, lr=1e-3, seed=3, window=6,
                             feature_len=8, embed_width=8, kernel_len=3,
                             model=ModelSpec(kind=kind, hidden=16))
        store, _ = tr.train_model(samples, cfg)
        report = tr.evaluate(store, cfg, samples)
        results[kind] = report.accuracy
        assert report.accuracy >= 0.95, f"{kind}: train accuracy {report.accuracy:.3f}"
    elapsed = time.time() - start
    assert elapsed < 300, f"learnability suite took {elapsed:.0f}s"
    summary = ", ".join(f"{k}={v:.2f}" for k, v in results.items())
    _passed(5, f"learnability 400ep/lr1e-3/batch32 ({summary}; {elapsed:.0f}s)")


# --- criterion 6: ablation direction ----------------------------------------


def test_criterion_6_ablation_direction():
    # both arms of all 10 seeds train in lockstep, as 20 replicas per kind;
    # each replica equals its solo run (tests/test_train.py::TestTrainReplicas)
    for kind in ("feedforward", "lstm"):
        splits, arms = [], []
        for seed in range(10):
            samples = synthetic.markov_samples(160, 6, seed=100 + seed,
                                               persistence=0.85, feature_len=8)
            cfg = tr.TrainConfig(epochs=300, batch_size=32, lr=1e-3, seed=seed,
                                 window=6, feature_len=8, embed_width=8, kernel_len=3,
                                 model=ModelSpec(kind=kind, hidden=8))
            for prior_effect in (True, False):
                splits.append(ingest.split_train_test(samples, 0.8))
                arms.append(dataclasses.replace(cfg, prior_effect=prior_effect))
        trained = tr.train_replicas([train_s for train_s, _ in splits], arms)
        f1 = [tr.evaluate(store, cfg, test_s).f1
              for (store, _), cfg, (_, test_s) in zip(trained, arms, splits)]
        wins = sum(f1[2 * seed] - f1[2 * seed + 1] > 0 for seed in range(10))
        assert wins >= 8, f"{kind}: prior effect improved F1 on only {wins}/10 seeds"
        print(f"  criterion 6 {kind}: {wins}/10 seeds improved", flush=True)
    _passed(6, "ablation direction (with-prior F1 > without on >= 8/10 seeds)")


# --- criterion 7: pipeline determinism ---------------------------------------


def test_criterion_7_pipeline_determinism(tmp_path):
    market = tmp_path / "market.csv"
    synthetic.write_markov_market_csv(market, 70, seed=21, persistence=0.85)
    base = ["--market", str(market), "--epochs", "6", "--seed", "4",
            "--window", "5", "--feature-len", "6", "--hidden", "6",
            "--model", "lstm"]
    train_artifacts = ("checkpoint.json", "loss.csv", "metrics.json",
                       "predictions.csv", "run.json")
    for command, artifacts in (("train", train_artifacts),
                               ("ablate", ("ablation.csv",
                                           "ablation_feedforward_with.json",
                                           "ablation_lstm_with.json",
                                           "ablation_lstm_without.json"))):
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert cli.main([command, *base, "--out", str(out_a)]) == 0
        assert cli.main([command, *base, "--out", str(out_b)]) == 0
        for name in artifacts:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _passed(7, "pipeline determinism (train and ablate byte-identical reruns)")


# --- criterion 8: preprocessing laws ------------------------------------------


def test_criterion_8_preprocessing_laws():
    rng = np.random.default_rng(17)
    for t in range(2, 201):
        samples = list(range(t))
        train, test = ingest.split_train_test(samples, 0.8)
        assert len(train) == math.floor(0.8 * t)
        assert len(test) == t - len(train)

    for t in (2, 3, 7, 37, 120, 200):
        chgs = [(-1.0) ** i * (1.0 + (i % 5)) for i in range(t)]
        ones = np.ones(t)
        series = ingest.MarketSeries(tuple(synthetic._dates(t)), np.array(chgs),
                                     ones, ones, ones)
        for n in (2, 3, 6):
            if t >= n:
                assert len(ingest.make_windows(series, n, feature_len=2)) == t - n + 1

    for _ in range(100):
        size = int(rng.integers(2, 50))
        values = rng.normal(size=size) * rng.uniform(0.1, 100)
        if values.max() > values.min():
            out = ingest.minmax_normalize(values)
            assert out.min() == 0.0 and out.max() == 1.0
        if values.std() > 0:
            z = oracles.zscore_normalize(values)
            assert abs(z.mean()) < 1e-12
            assert abs(z.std() - 1.0) < 1e-12
    _passed(8, "preprocessing laws (split sizes, window counts, normalizers)")


# --- criterion 9: masked-recovery pretraining sanity ---------------------------


def test_criterion_9_mlm_sanity():
    corpus = synthetic.toy_corpus(20, seed=7)
    assert len(corpus) == 20
    config = enc.EncoderConfig(d_model=16, heads=2, layers=2, d_ff=32, max_len=12)
    _, vocab, trace = enc.pretrain_mlm(corpus, config, epochs=50, seed=3)
    assert len(trace) == 50
    assert trace[-1] < trace[0], f"loss {trace[0]:.4f} -> {trace[-1]:.4f} did not decrease"

    n, v = 4, 9
    uniform = Tensor(np.full((n, v), 1.0 / v))
    loss = enc.mlm_loss(uniform, np.arange(n), np.zeros(n, dtype=int))
    assert abs(loss.data.item() - n * math.log(v)) < 1e-9
    print(f"  criterion 9 loss trace: {trace[0]:.4f} -> {trace[-1]:.4f}", flush=True)
    _passed(9, "masked-recovery sanity (strict decrease; uniform loss = N ln V)")
