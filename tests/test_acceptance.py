"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Settings (epoch budgets, tolerances, seeds) are pinned here; the
oracles module supplies the independent reference implementations.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from oracles import (bilstm_forward, cell_step, confusion_counts, fd_gradients, max_rel_err,
                     self_attention)

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
    analytic = nm.gradients(build(params), params)

    def value(raw):
        return build({k: Tensor(v) for k, v in raw.items()}).item()

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
        ("add", lambda p: nm.sum_(nm.add(p["x"], p["y"])), {"x": x, "y": y}),
        ("sub", lambda p: nm.sum_(nm.sub(p["x"], p["y"])), {"x": x, "y": y}),
        ("mul", lambda p: nm.sum_(nm.mul(p["x"], p["y"])), {"x": x, "y": y}),
        ("neg", lambda p: nm.sum_(nm.neg(p["x"])), {"x": x}),
        ("matmul", lambda p: nm.sum_(nm.matmul(p["a"], p["b"])),
         {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}),
        ("sigmoid", lambda p: nm.sum_(nm.sigmoid(p["x"])), {"x": x}),
        ("relu", lambda p: nm.sum_(nm.relu(p["x"])),
         {"x": x + np.sign(x) * 0.05}),
        ("log", lambda p: nm.sum_(nm.log(p["x"])), {"x": np.abs(x) + 0.5}),
        ("pow", lambda p: nm.sum_(nm.pow_scalar(p["x"], -0.5)),
         {"x": np.abs(x) + 0.5}),
        ("clip_min", lambda p: nm.sum_(nm.clip_min(p["x"], 0.3)),
         {"x": np.abs(x) + 0.5}),
        ("softmax", lambda p: nm.sum_(nm.mul(nm.softmax(p["x"], axis=-1), p["y"])),
         {"x": x, "y": y}),
        ("sum_axis", lambda p: nm.sum_(nm.mul(nm.sum_(p["x"], axis=0, keepdims=True), 2.0)),
         {"x": x}),
        ("mean_axis", lambda p: nm.sum_(nm.mul(nm.mean_(p["x"], axis=1, keepdims=True), 3.0)),
         {"x": x}),
        ("concat", lambda p: nm.sum_(nm.mul(nm.concat([p["x"], p["y"]], axis=1), mix)),
         {"x": x, "y": y}),
        ("take", lambda p: nm.sum_(p["x"][1:, 0:2]), {"x": x}),
        ("transpose", lambda p: nm.sum_(nm.mul(nm.transpose(p["x"]), mix43)),
         {"x": x}),
        ("gather_rows", lambda p: nm.sum_(nm.gather_rows(p["x"], [0, 2, 2, 1])),
         {"x": x}),
        ("conv1d", lambda p: nm.sum_(nm.conv1d_rows(p["x"], p["k"])),
         {"x": x, "k": rng.normal(size=2)}),
        ("broadcast_bias", lambda p: nm.sum_(nm.add(p["x"], p["b"])),
         {"x": x, "b": rng.normal(size=(1, 4))}),
    ]


def _fusion_grad_cases(rng):
    f = rng.normal(size=(2, 5))
    embed_arrays = {"f": f, "w_e": rng.normal(size=(5, 6)), "b_e": rng.normal(size=(1, 6))}
    conv_arrays = {"e": rng.normal(size=(2, 6)), "w_c": rng.normal(size=3),
                   "b_c": rng.normal(size=(1, 1))}
    att_arrays = {"q": rng.normal(size=(2, 4)),
                  "f1": rng.normal(size=(2, 4)), "f2": rng.normal(size=(2, 4)),
                  "f3": rng.normal(size=(2, 4))}
    fuse_arrays = {"o": rng.normal(size=(2, 4)), "c": rng.normal(size=(2, 6)),
                   "proj_w": rng.normal(size=(6, 4)), "proj_b": rng.normal(size=(1, 4)),
                   "gamma_raw": rng.normal(size=(1, 1))}

    def build_embed(p):
        return nm.sum_(fusion.embed(p["f"], {"w_e": p["w_e"], "b_e": p["b_e"]}))

    def build_conv(p):
        return nm.sum_(fusion.conv_text(p["e"], {"w_c": p["w_c"], "b_c": p["b_c"]}))

    def build_att(p):
        alpha, ctx = fusion.attention_over_features(p["q"], [p["f1"], p["f2"], p["f3"]])
        return nm.sum_(nm.add(nm.sum_(alpha), nm.sum_(ctx)))

    def build_fuse(p):
        out = fusion.fuse(p["o"], p["c"], {"proj_w": p["proj_w"], "proj_b": p["proj_b"],
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
    mha_arrays = {"x": x, **{w: rng.normal(size=(d, d))
                             for w in ("wq", "wk", "wv", "wo")}}
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
        params = {w: p[w] for w in ("wq", "wk", "wv", "wo")}
        return nm.sum_(enc.multi_head_attention(p["x"], params, heads=heads))

    def build_ln(p):
        return nm.sum_(enc.layer_norm(p["x"], p["g"], p["b"]))

    def build_res_ln(p):
        return nm.sum_(enc.layer_norm(p["x"], p["g"], p["b"], p["sub"]))

    def build_ffn(p):
        return nm.sum_(enc.feed_forward(p["x"], p))

    def build_mlm(p):
        return enc.mlm_loss(nm.softmax(p["logits"], axis=-1), np.arange(3), targets)

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
    grad = nm.gradients(loss, {"p": probs})["p"]
    assert np.all(np.isfinite(grad)) and grad[0, 0] == 0.0 and grad[1, 1] == -2.0
    return 1


def _full_encoder_grad_case(seed):
    config = enc.EncoderConfig(d_model=8, heads=2, layers=2, d_ff=16, max_len=10)
    corpus = ["alpha beta gamma delta", "beta delta alpha epsilon"]
    vocab = enc.Vocabulary.build(corpus)
    rng = np.random.default_rng(seed)
    params = enc.init_encoder_params(config, vocab.size, rng)
    tokens = enc.tokenize("alpha beta gamma delta epsilon", vocab, config.max_len)
    corrupted, positions, targets = enc.similar_word_mask(tokens, vocab,
                                                 np.random.default_rng(seed + 1), 0.3)
    arrays = {name: params[name].data.copy() for name in params.names()}

    def build(p):
        store = ParameterStore()
        for name in arrays:
            store._params[name] = p[name]
        rows, _ = enc.encode_text(corrupted, config, store)
        return enc.mlm_loss(enc.mlm_predictions(rows, positions, store),
                            positions, targets)

    return ("encoder.full_mlm", build, arrays)


def _cell_grad_cases(rng, steps):
    hid, inp = 4, 2
    rows = hid + inp
    xs = [rng.normal(size=(2, inp)) for _ in range(steps)]

    def gates(prefix="", extra=()):
        arrays = {}
        for g in ("w_i", "w_f", "w_c", "w_o"):
            arrays[prefix + g] = rng.normal(size=(rows, hid))
            arrays[prefix + g.replace("w", "b")] = rng.normal(size=(1, hid))
        for name, shape in extra:
            arrays[prefix + name] = rng.normal(size=shape)
        return arrays

    cases = []

    def unroll_case(kind, arrays, runner):
        def build(p):
            return nm.sum_(runner(p))
        cases.append((f"cell.{kind}.{steps}steps", build,
                      {**arrays, **{f"x{i}": xs[i] for i in range(steps)}}))

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
                  {**swin_arrays, **swin_xs}))

    bi_arrays = {**gates("fwd."), **gates("bwd.")}

    def run_bi(p):
        fwd = {k[4:]: v for k, v in p.items() if k.startswith("fwd.")}
        bwd = {k[4:]: v for k, v in p.items() if k.startswith("bwd.")}
        return bilstm_forward([p[f"x{i}"] for i in range(steps)], fwd, bwd)

    unroll_case("bilstm", bi_arrays, run_bi)
    return cases


def _fused_grad_cases(rng):
    """The fused cell primitives, directly and through unroll.

    Each loss mixes every output with fixed random weights so no gradient
    path cancels. Cases marked const/frozen keep some inputs as plain
    constants, so the primitive's backward must skip them.
    """
    hid, inp, batch = 3, 2, 2
    rows = hid + inp

    def const(*shape):
        return Tensor(rng.normal(size=shape))

    def mixed(*shapes):
        weights = [const(*shape) for shape in shapes]

        def loss(values):
            total = nm.sum_(nm.mul(values[0], weights[0]))
            for value, w in zip(values[1:], weights[1:]):
                total = nm.add(total, nm.sum_(nm.mul(value, w)))
            return total
        return loss

    def arrays(**shapes):
        return {name: rng.normal(size=shape) for name, shape in shapes.items()}

    cases = []
    block = arrays(h=(batch, hid), x=(batch, inp), c=(batch, hid),
                   w=(rows, 4 * hid), b=(1, 4 * hid))
    mix_oc = mixed((batch, hid), (batch, hid))
    cases.append(("fused.gate_block", lambda p: mix_oc(models.gate_block(
        p["h"], p["x"], p["c"], p["w"], p["b"])), block))
    mix_c = mixed((batch, hid))
    cases.append(("fused.gate_block.c_only", lambda p: mix_c(models.gate_block(
        p["h"], p["x"], p["c"], p["w"], p["b"])[1:]), block))
    zero = Tensor(np.zeros((batch, hid)))
    cases.append(("fused.gate_block.const_zero_state", lambda p: mix_oc(models.gate_block(
        zero, p["x"], zero, p["w"], p["b"])),
        {k: block[k] for k in ("x", "w", "b")}))
    x_const, w_frozen, b_frozen = const(batch, inp), const(rows, 4 * hid), const(1, 4 * hid)
    cases.append(("fused.gate_block.const_x_frozen_w", lambda p: mix_oc(models.gate_block(
        p["h"], x_const, p["c"], w_frozen, b_frozen)),
        {k: block[k] for k in ("h", "c")}))
    m_block = arrays(x=(batch, inp), m=(batch, hid), w=(rows, 3 * hid), b=(1, 3 * hid))
    cases.append(("fused.gate_block.m_path", lambda p: mix_c((models.gate_block(
        p["x"], p["m"], p["m"], p["w"], p["b"], out_gate=False),)), m_block))
    cases.append(("fused.gated_tanh", lambda p: mix_c((models.gated_tanh(p["o"], p["c"]),)),
                  arrays(o=(batch, hid), c=(batch, hid))))

    gru = arrays(x=(batch, inp), h=(batch, hid), w_zr=(rows, 2 * hid), b_zr=(1, 2 * hid),
                 w_h=(rows, hid), b_h=(1, hid))
    cases.append(("fused.gru_step", lambda p: mix_c((models.gru_step(
        p["x"], p["h"], p["w_zr"], p["b_zr"], p["w_h"], p["b_h"]),)), gru))
    frozen = {k: Tensor(gru[k]) for k in ("w_zr", "b_zr", "w_h", "b_h")}
    cases.append(("fused.gru_step.frozen_weights", lambda p: mix_c((models.gru_step(
        p["x"], p["h"], **frozen),)), {k: gru[k] for k in ("x", "h")}))
    cases.append(("fused.gru_step.const_zero_state", lambda p: mix_c((models.gru_step(
        x_const, zero, p["w_zr"], p["b_zr"], p["w_h"], p["b_h"]),)),
        {k: gru[k] for k in ("w_zr", "b_zr", "w_h", "b_h")}))

    mog = arrays(x=(batch, inp), h=(batch, hid), q=(hid, inp), r=(inp, hid))
    mix_xh = mixed((batch, inp), (batch, hid))
    for rounds in (1, 2, 3, 4):
        keys = ("x", "h", "q") if rounds == 1 else ("x", "h", "q", "r")
        cases.append((f"fused.mogrify.{rounds}rounds", lambda p, n=rounds: mix_xh(
            models.mogrify(p["x"], p["h"], p["q"], p.get("r"), n)),
            {k: mog[k] for k in keys}))
    cases.append(("fused.mogrify.const_x", lambda p: mix_xh(
        models.mogrify(x_const, p["h"], p["q"], p["r"], 3)),
        {k: mog[k] for k in ("h", "q", "r")}))

    swin = arrays(x=(batch, 5), wq=(1, 1), wk=(1, 1), wv=(1, 1), wp=(1, 1))
    mix_w = mixed((batch, 2))
    cases.append(("fused.window_pool.padded", lambda p: mix_w((models.window_pool(
        p["x"], p["wq"], p["wk"], p["wv"], p["wp"], 2),)), swin))
    x_feat = const(batch, 6)
    cases.append(("fused.window_pool.const_x", lambda p: mix_w((models.window_pool(
        x_feat, p["wq"], p["wk"], p["wv"], p["wp"], 2),)),
        {k: swin[k] for k in ("wq", "wk", "wv", "wp")}))
    mix_3 = mixed((batch, 3))
    cases.append(("fused.window_pool.one_window", lambda p: mix_3((models.window_pool(
        p["x"], p["wq"], p["wk"], p["wv"], p["wp"], 3),)),
        {**swin, "x": rng.normal(size=(batch, 3))}))

    xs = [const(batch, inp) for _ in range(3)]
    for kind in models.RECURRENT_KINDS:
        spec = ModelSpec(kind=kind, hidden=hid, mogrifier_rounds=3, swin_window=2)
        store = ParameterStore()
        models.add_model_params(store, spec, inp, rng)
        mix_steps = mixed(*[(batch, spec.output_width)] * 4)

        def build(p, spec=spec, mix_steps=mix_steps):
            steps, final = models.unroll(spec, p, xs)
            return mix_steps([*steps, final])

        cases.append((f"fused.unroll.{kind}.const_inputs", build,
                      {k: t.data.copy() for k, t in store.view("cell").items()}))
    return cases


def _pipeline_grad_case(kind, seed):
    samples = synthetic.markov_samples(5, 5, seed=seed, feature_len=6)
    cfg = tr.TrainConfig(epochs=1, batch_size=5, seed=seed, window=5, feature_len=6,
                         embed_width=6, kernel_len=2,
                         model=ModelSpec(kind=kind, hidden=4, mogrifier_rounds=3,
                                         swin_window=2))
    store = tr.init_pipeline_params(cfg)
    priors, prices, texts, targets = tr.batch_arrays(samples, True)
    arrays = {name: store[name].data.copy() for name in store.names()}

    def build(p):
        sub = ParameterStore()
        for name in arrays:
            sub._params[name] = p[name]
        prob = tr.forward_batch(sub, cfg, priors, prices, texts)
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
    configs += _check_zero_probability_gradient()
    label, build, arrays = _full_encoder_grad_case(4000)
    configs += _check_grad_case(build, arrays, label)
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

    def gate_tensors(rows_):
        out = {}
        for g in ("w_i", "w_f", "w_c", "w_o"):
            out[g] = Tensor(rng.normal(size=(rows_, hid)))
            out[g.replace("w", "b")] = Tensor(rng.normal(size=(1, hid)))
        return out

    params = gate_tensors(rows)
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

    st = dict(params)
    for g in ("w_mi", "w_mf", "w_mc"):
        st[g] = Tensor(np.zeros((inp + hid, hid)))
        st[g.replace("w", "b")] = Tensor(np.zeros((1, hid)))
    st["w_mix"] = Tensor(np.vstack([np.eye(hid), np.zeros((hid, hid))]))
    hs, cs, _ = cell_step("stlstm", x, (h0, c0, Tensor(np.zeros((2, hid)))), st)
    assert np.max(np.abs(hs.data - h_ref.data)) < 1e-12
    assert np.max(np.abs(cs.data - c_ref.data)) < 1e-12

    window = 2
    swin = {name: Tensor(rng.normal(size=(1, 1))) for name in ("wq", "wk", "wv")}
    swin["wp"] = Tensor(np.zeros((1, 1)))
    swin.update(gate_tensors(hid + window))
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
    sums = nm.softmax(Tensor(x), axis=-1).data.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9

    for i in range(0, 1000, 100):
        q = Tensor(rng.normal(size=(100, 5)))
        feats = [Tensor(rng.normal(size=(100, 5))) for _ in range(4)]
        alpha, _ = fusion.attention_over_features(q, feats)
        assert np.max(np.abs(alpha.data.sum(axis=1) - 1.0)) < 1e-9

    pe = enc.positional_encoding(64, 12)
    assert np.array_equal(pe[0, 0::2], np.zeros(6))
    assert np.array_equal(pe[0, 1::2], np.ones(6))
    assert np.all((pe >= -1.0) & (pe <= 1.0))

    rows = rng.normal(size=(1000, 8)) * 3.0 + 1.0
    out = enc.layer_norm(Tensor(rows), Tensor(np.ones((1, 8))),
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
    samples = synthetic.periodic_pattern_samples(64, 6, feature_len=8)
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
    for kind in ("feedforward", "lstm"):
        wins = 0
        for seed in range(10):
            samples = synthetic.markov_samples(160, 6, seed=100 + seed,
                                               persistence=0.85, feature_len=8)
            train_s, test_s = ingest.split_train_test(samples, 0.8)
            cfg = tr.TrainConfig(epochs=300, batch_size=32, lr=1e-3, seed=seed,
                                 window=6, feature_len=8, embed_width=8, kernel_len=3,
                                 model=ModelSpec(kind=kind, hidden=8))
            _, _, deltas = tr.ablate_prior_effect(train_s, test_s, cfg)
            wins += deltas["f1_delta"] > 0
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
        records = synthetic._dates(t)
        series = ingest.MarketSeries(tuple(
            ingest.MarketRecord(d, chg, 1.0, 1.0, 1.0)
            for d, chg in zip(records, chgs)))
        labeled = ingest.to_binary_labels(series)
        for n in (2, 3, 6):
            if t >= n:
                assert len(ingest.make_windows(labeled, n, feature_len=2)) == t - n + 1

    for _ in range(100):
        size = int(rng.integers(2, 50))
        values = rng.normal(size=size) * rng.uniform(0.1, 100)
        if values.max() > values.min():
            out = ingest.minmax_normalize(values)
            assert out.min() == 0.0 and out.max() == 1.0
        if values.std() > 0:
            z = ingest.zscore_normalize(values)
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
    assert abs(loss.item() - n * math.log(v)) < 1e-9
    print(f"  criterion 9 loss trace: {trace[0]:.4f} -> {trace[-1]:.4f}", flush=True)
    _passed(9, "masked-recovery sanity (strict decrease; uniform loss = N ln V)")
