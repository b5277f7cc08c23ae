"""Recurrent cells, their reduction identities, and the output head."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from oracles import (attention_rows, bilstm_forward, cell_step, gru_step, lstm_step,
                     max_rel_err, plain_sigmoid, taped)

from trendfuse import models
from trendfuse import numerics as nm
from trendfuse import train as tr
from trendfuse.errors import ConfigError, ContractError, ShapeError
from trendfuse.models import ModelSpec
from trendfuse.numerics import ParameterStore, Tensor

HID = 3
INP = 2


def _t(a):
    return Tensor(np.asarray(a, dtype=float))


LSTM_GATES = ("w_i", "w_f", "w_c", "w_o")
GRU_GATES = ("w_z", "w_r", "w_h")


def _zero_gates(input_width=INP, hidden=HID, gates=LSTM_GATES):
    """Per-gate zero weights and biases, for the scalar references."""
    rows = hidden + input_width
    p = {}
    for g in gates:
        p[g] = np.zeros((rows, hidden))
        p[g.replace("w", "b")] = np.zeros((1, hidden))
    return p


def _random_gates(rng, input_width=INP, hidden=HID, gates=LSTM_GATES):
    rows = hidden + input_width
    p = {}
    for g in gates:
        p[g] = rng.normal(size=(rows, hidden))
        p[g.replace("w", "b")] = rng.normal(size=(1, hidden))
    return p


def _cell(per_gate):
    """Per-gate arrays as the cell's stored parameter tensors."""
    return {k: _t(v) for k, v in oracles.stack_gates(per_gate).items()}


class TestLstmCell:
    def test_all_zero(self):
        params = _cell(_zero_gates())
        h, c = cell_step("lstm", _t(np.zeros((1, INP))),
                         (_t(np.zeros((1, HID))), _t(np.zeros((1, HID)))), params)
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))
        np.testing.assert_array_equal(c.data, np.zeros((1, HID)))

    def test_zero_weights_closed_form(self):
        params = _cell(_zero_gates())
        c_prev = np.array([[0.8, -0.4, 1.2]])
        h, c = cell_step("lstm", _t(np.zeros((1, INP))),
                         (_t(np.zeros((1, HID))), _t(c_prev)), params)
        np.testing.assert_allclose(c.data, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_random_step_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        p = _random_gates(rng)
        x, h0, c0 = rng.normal(size=INP), rng.normal(size=HID), rng.normal(size=HID)
        h, c = cell_step("lstm", _t(x.reshape(1, -1)),
                         (_t(h0.reshape(1, -1)), _t(c0.reshape(1, -1))), _cell(p))
        h_ref, c_ref = lstm_step(x, h0, c0, p)
        assert max_rel_err(h.data[0], h_ref) < 1e-12
        assert max_rel_err(c.data[0], c_ref) < 1e-12

    def test_fused_step_at_batch_32_matches_scalar_oracle(self):
        rng = np.random.default_rng(19)
        p = _random_gates(rng)
        x, h0, c0 = (rng.normal(size=(32, n)) for n in (INP, HID, HID))
        h, c = cell_step("lstm", _t(x), (_t(h0), _t(c0)), _cell(p))
        for row in range(32):
            h_ref, c_ref = lstm_step(x[row], h0[row], c0[row], p)
            assert max_rel_err(h.data[row], h_ref) < 1e-12
            assert max_rel_err(c.data[row], c_ref) < 1e-12

    def test_outputs_bounded(self):
        rng = np.random.default_rng(1)
        params = _cell(_random_gates(rng))
        h = _t(rng.normal(size=(4, HID)))
        c = _t(rng.normal(size=(4, HID)))
        for _ in range(5):
            h, c = cell_step("lstm", _t(rng.normal(size=(4, INP)) * 5), (h, c), params)
        assert np.all(np.isfinite(h.data)) and np.all(np.isfinite(c.data))
        assert np.all(np.abs(h.data) < 1.0)

    def test_width_mismatch_rejected(self):
        params = _cell(_zero_gates())
        with pytest.raises(ShapeError):
            models.unroll(ModelSpec(kind="lstm", hidden=HID), params,
                          np.zeros((1, 2, INP + 1)))


class TestGruCell:
    def test_zero_case(self):
        params = _cell(_zero_gates(gates=GRU_GATES))
        h = cell_step("gru", _t(np.zeros((1, INP))), (_t(np.zeros((1, HID))),), params)[0]
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))

    def test_copy_through_endpoint(self):
        p = _zero_gates(gates=GRU_GATES)
        p["b_z"] = np.full((1, HID), -30.0)  # z ~ 0 keeps previous state
        h_prev = np.array([[0.7, -0.2, 0.1]])
        h = cell_step("gru", _t(np.ones((1, INP))), (_t(h_prev),), _cell(p))[0]
        assert np.max(np.abs(h.data - h_prev)) < 1e-6

    def test_random_step_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        p = _random_gates(rng, gates=GRU_GATES)
        x, h0 = rng.normal(size=INP), rng.normal(size=HID)
        h = cell_step("gru", _t(x.reshape(1, -1)), (_t(h0.reshape(1, -1)),), _cell(p))[0]
        h_ref = gru_step(x, h0, p)
        assert max_rel_err(h.data[0], h_ref) < 1e-12


    def test_fused_step_at_batch_32_matches_scalar_oracle(self):
        rng = np.random.default_rng(20)
        p = _random_gates(rng, gates=GRU_GATES)
        x, h0 = rng.normal(size=(32, INP)), rng.normal(size=(32, HID))
        h = cell_step("gru", _t(x), (_t(h0),), _cell(p))[0]
        for row in range(32):
            assert max_rel_err(h.data[row], gru_step(x[row], h0[row], p)) < 1e-12


class TestBilstm:
    def test_forward_half_equals_plain_lstm(self):
        rng = np.random.default_rng(3)
        p_fwd = _cell(_random_gates(rng))
        p_bwd = _cell(_random_gates(rng))
        xs = [_t(rng.normal(size=(1, INP))) for _ in range(4)]
        out = bilstm_forward(xs, p_fwd, p_bwd)
        h, c = _t(np.zeros((1, HID))), _t(np.zeros((1, HID)))
        for x in xs:
            h, c = cell_step("lstm", x, (h, c), p_fwd)
        np.testing.assert_array_equal(out.data[:, :HID], h.data)

    def test_palindrome_with_shared_params(self):
        rng = np.random.default_rng(4)
        params = _cell(_random_gates(rng))
        a, b = rng.normal(size=(1, INP)), rng.normal(size=(1, INP))
        xs = [_t(a), _t(b), _t(a)]
        out = bilstm_forward(xs, params, params)
        np.testing.assert_allclose(out.data[:, :HID], out.data[:, HID:], atol=1e-12)

    def test_two_steps_match_manual_composition(self):
        rng = np.random.default_rng(5)
        p_fwd = _cell(_random_gates(rng))
        p_bwd = _cell(_random_gates(rng))
        x1, x2 = rng.normal(size=(1, INP)), rng.normal(size=(1, INP))
        out = bilstm_forward([_t(x1), _t(x2)], p_fwd, p_bwd)
        z = _t(np.zeros((1, HID)))
        hf, cf = cell_step("lstm", _t(x1), (z, z), p_fwd)
        hf, _ = cell_step("lstm", _t(x2), (hf, cf), p_fwd)
        hb, cb = cell_step("lstm", _t(x2), (z, z), p_bwd)
        hb, _ = cell_step("lstm", _t(x1), (hb, cb), p_bwd)
        np.testing.assert_allclose(out.data, np.concatenate([hf.data, hb.data], axis=1),
                                   atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractError):
            bilstm_forward([], _cell(_zero_gates()), _cell(_zero_gates()))


class TestMogrifier:
    def test_zero_rounds_is_bitwise_lstm(self):
        rng = np.random.default_rng(6)
        params = _cell(_random_gates(rng))
        x = _t(rng.normal(size=(2, INP)))
        h0 = _t(rng.normal(size=(2, HID)))
        c0 = _t(rng.normal(size=(2, HID)))
        hm, cm = cell_step("mogrifier", x, (h0, c0), params, mogrifier_rounds=0)
        hl, cl = cell_step("lstm", x, (h0, c0), params)
        assert np.array_equal(hm.data, hl.data)
        assert np.array_equal(cm.data, cl.data)

    def test_zero_q_r_is_identity_modulation(self):
        rng = np.random.default_rng(7)
        params = _cell(_random_gates(rng))
        params["q"] = _t(np.zeros((HID, INP)))
        params["r"] = _t(np.zeros((INP, HID)))
        x = _t(rng.normal(size=(1, INP)))
        h0 = _t(rng.normal(size=(1, HID)))
        c0 = _t(rng.normal(size=(1, HID)))
        hm, cm = cell_step("mogrifier", x, (h0, c0), params, mogrifier_rounds=4)
        hl, cl = cell_step("lstm", x, (h0, c0), params)
        assert np.max(np.abs(hm.data - hl.data)) < 1e-12
        assert np.max(np.abs(cm.data - cl.data)) < 1e-12

    def test_two_rounds_match_manual_unrolling(self):
        rng = np.random.default_rng(8)
        p = _random_gates(rng)
        q = rng.normal(size=(HID, INP))
        r = rng.normal(size=(INP, HID))
        params = _cell({**p, "q": q, "r": r})
        x = rng.normal(size=(1, INP))
        h0 = rng.normal(size=(1, HID))
        c0 = rng.normal(size=(1, HID))
        hm, cm = cell_step("mogrifier", _t(x), (_t(h0), _t(c0)), params, mogrifier_rounds=2)
        x_mod = 2 * plain_sigmoid(h0 @ q) * x          # round 1 rescales x
        h_mod = 2 * plain_sigmoid(x_mod @ r) * h0      # round 2 rescales h
        h_ref, c_ref = lstm_step(x_mod[0], h_mod[0], c0[0], p)
        assert max_rel_err(hm.data[0], h_ref) < 1e-12
        assert max_rel_err(cm.data[0], c_ref) < 1e-12


def _stlstm_gates(rng=None):
    p = _random_gates(rng) if rng is not None else _zero_gates()
    rows_m = INP + HID
    maker = (lambda shape: rng.normal(size=shape)) if rng is not None else np.zeros
    for g in ("w_mi", "w_mf", "w_mc"):
        p[g] = maker((rows_m, HID))
        p[g.replace("w", "b")] = np.zeros((1, HID))
    p["w_mix"] = maker((2 * HID, HID))
    return p


class TestStlstm:
    def test_zero_m_path_reduces_to_lstm(self):
        rng = np.random.default_rng(9)
        p = _stlstm_gates(rng)
        for g in ("w_mi", "w_mf", "w_mc", "b_mi", "b_mf", "b_mc"):
            p[g] = np.zeros(p[g].shape)
        p["w_mix"] = np.vstack([np.eye(HID), np.zeros((HID, HID))])
        params = _cell(p)
        x = _t(np.random.default_rng(10).normal(size=(1, INP)))
        h0 = _t(np.zeros((1, HID)))
        c0 = _t(np.random.default_rng(11).normal(size=(1, HID)))
        m0 = _t(np.zeros((1, HID)))
        hs, cs, ms = cell_step("stlstm", x, (h0, c0, m0), params)
        hl, cl = cell_step("lstm", x, (h0, c0), params)
        assert np.max(np.abs(hs.data - hl.data)) < 1e-12
        assert np.max(np.abs(cs.data - cl.data)) < 1e-12

    def test_zero_everything(self):
        params = _cell(_stlstm_gates())
        z = _t(np.zeros((1, HID)))
        h, c, m = cell_step("stlstm", _t(np.zeros((1, INP))), (z, z, z), params)
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))

    def test_random_step_matches_hand_evaluation(self):
        rng = np.random.default_rng(12)
        p = _stlstm_gates(rng)
        x = rng.normal(size=INP)
        h0, c0, m0 = (rng.normal(size=HID) for _ in range(3))
        hs, cs, ms = cell_step("stlstm", _t(x.reshape(1, -1)),
                               (_t(h0.reshape(1, -1)), _t(c0.reshape(1, -1)),
                                _t(m0.reshape(1, -1))), _cell(p))
        cat = np.concatenate([h0, x])
        i = plain_sigmoid(cat @ p["w_i"] + p["b_i"].reshape(-1))
        f = plain_sigmoid(cat @ p["w_f"] + p["b_f"].reshape(-1))
        o = plain_sigmoid(cat @ p["w_o"] + p["b_o"].reshape(-1))
        c_ref = f * c0 + i * np.tanh(cat @ p["w_c"] + p["b_c"].reshape(-1))
        cat_m = np.concatenate([x, m0])
        i_m = plain_sigmoid(cat_m @ p["w_mi"] + p["b_mi"].reshape(-1))
        f_m = plain_sigmoid(cat_m @ p["w_mf"] + p["b_mf"].reshape(-1))
        m_ref = f_m * m0 + i_m * np.tanh(cat_m @ p["w_mc"] + p["b_mc"].reshape(-1))
        h_ref = o * np.tanh(np.concatenate([c_ref, m_ref]) @ p["w_mix"])
        assert max_rel_err(cs.data[0], c_ref) < 1e-12
        assert max_rel_err(ms.data[0], m_ref) < 1e-12
        assert max_rel_err(hs.data[0], h_ref) < 1e-12


def _swin_gates(rng, window=2, hidden=HID):
    p = {name: rng.normal(size=(1, 1)) for name in ("wq", "wk", "wv", "wp")}
    rows = hidden + window
    for g in LSTM_GATES:
        p[g] = rng.normal(size=(rows, hidden))
        p[g.replace("w", "b")] = np.zeros((1, hidden))
    return p


class TestSwinlstm:
    def test_zero_projection_reduces_to_pooled_lstm(self):
        rng = np.random.default_rng(13)
        p = _swin_gates(rng, window=2)
        p["wp"] = np.zeros((1, 1))
        params = _cell(p)
        x = rng.normal(size=(1, 6))  # 3 windows of 2
        h0 = _t(rng.normal(size=(1, HID)))
        c0 = _t(rng.normal(size=(1, HID)))
        hs, cs = cell_step("swinlstm", _t(x), (h0, c0), params, swin_window=2)
        pooled = x.reshape(1, 3, 2).mean(axis=1)
        hl, cl = cell_step("lstm", _t(pooled), (h0, c0), params)
        assert np.max(np.abs(hs.data - hl.data)) < 1e-12
        assert np.max(np.abs(cs.data - cl.data)) < 1e-12

    def test_window_at_least_feature_length_is_full_attention(self):
        rng = np.random.default_rng(14)
        p = _swin_gates(rng, window=4)
        params = _cell(p)
        x = rng.normal(size=(1, 4))
        h0 = _t(rng.normal(size=(1, HID)))
        c0 = _t(rng.normal(size=(1, HID)))
        hs, cs = cell_step("swinlstm", _t(x), (h0, c0), params, swin_window=4)
        # manual: single window, d=1 token attention over all entries
        q = x * p["wq"].item()
        k = x * p["wk"].item()
        v = x * p["wv"].item()
        att = attention_rows(q.reshape(-1, 1), k.reshape(-1, 1), v.reshape(-1, 1))
        pooled = x + att.reshape(1, -1) * p["wp"].item()
        hl, cl = cell_step("lstm", _t(pooled), (h0, c0), params)
        assert max_rel_err(hs.data, hl.data) < 1e-12

    def test_two_window_case_matches_per_window_oracle(self):
        rng = np.random.default_rng(15)
        p = _swin_gates(rng, window=2)
        params = _cell(p)
        x = rng.normal(size=(1, 4))
        h0 = _t(rng.normal(size=(1, HID)))
        c0 = _t(rng.normal(size=(1, HID)))
        hs, _ = cell_step("swinlstm", _t(x), (h0, c0), params, swin_window=2)
        wq, wk, wv, wp = (p[n].item() for n in ("wq", "wk", "wv", "wp"))
        outs = []
        for g in range(2):
            u = x[:, 2 * g:2 * g + 2]
            att = attention_rows((u * wq).reshape(-1, 1), (u * wk).reshape(-1, 1),
                                 (u * wv).reshape(-1, 1))
            outs.append(u + att.reshape(1, -1) * wp)
        pooled = (outs[0] + outs[1]) / 2.0
        hl, _ = cell_step("lstm", _t(pooled), (h0, c0), params)
        assert max_rel_err(hs.data, hl.data) < 1e-12


class TestFeedforward:
    def _params(self, w1, b1, w2, b2, w3, b3):
        return {"w1": _t(w1), "b1": _t(b1), "w2": _t(w2), "b2": _t(b2),
                "w3": _t(w3), "b3": _t(b3)}

    @staticmethod
    def _net(x, params):
        """The baseline on x's columns: one price, one prior, the rest context."""
        return models.feedforward_net(x[:, :1], x[:, 1:2], x[:, 2:], params)

    def test_zero_network_outputs_final_bias(self):
        params = self._params(np.zeros((3, 4)), np.zeros((1, 4)), np.zeros((4, 2)),
                              np.zeros((1, 2)), np.zeros((2, 1)), np.array([[0.7]]))
        out = self._net(np.ones((5, 3)), params)
        np.testing.assert_array_equal(out, nm.logistic(np.full((5, 1), 0.7)))

    def test_constructed_pass_through(self):
        # route coordinate 0 through one positive path untouched
        w1 = np.zeros((3, 4)); w1[0, 0] = 1.0
        w2 = np.zeros((4, 2)); w2[0, 0] = 1.0
        w3 = np.zeros((2, 1)); w3[0, 0] = 1.0
        params = self._params(w1, np.zeros((1, 4)), w2, np.zeros((1, 2)),
                              w3, np.zeros((1, 1)))
        x = np.array([[2.5, -1.0, 9.9]])
        out = self._net(x, params)
        np.testing.assert_allclose(out, plain_sigmoid([[2.5]]), atol=1e-12)

    def test_random_matches_manual_chain(self):
        rng = np.random.default_rng(16)
        w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        w2, b2 = rng.normal(size=(4, 2)), rng.normal(size=(1, 2))
        w3, b3 = rng.normal(size=(2, 1)), rng.normal(size=(1, 1))
        x = rng.normal(size=(2, 3))
        out = self._net(x, self._params(w1, b1, w2, b2, w3, b3))
        h1 = np.maximum(x @ w1 + b1, 0.0)
        h2 = np.maximum(h1 @ w2 + b2, 0.0)
        assert max_rel_err(out, plain_sigmoid(h2 @ w3 + b3)) < 1e-12

    def test_width_mismatch_rejected(self):
        params = self._params(np.zeros((3, 4)), np.zeros((1, 4)), np.zeros((4, 2)),
                              np.zeros((1, 2)), np.zeros((2, 1)), np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            self._net(np.ones((1, 5)), params)

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        arrays = {"x": rng.normal(size=(6, 5)), "w1": rng.normal(size=(5, 4)),
                  "b1": rng.normal(size=(1, 4)), "w2": rng.normal(size=(4, 3)),
                  "b2": rng.normal(size=(1, 3)), "w3": rng.normal(size=(3, 1)),
                  "b3": rng.normal(size=(1, 1))}
        arrays["b1"][0, 0] = -50.0  # a unit whose ReLU is closed on every row
        x = arrays["x"]
        arrays["x"] = x[:, 2:]  # the context; the price and prior columns are constants
        oracles.assert_same_values_and_grads(
            lambda p: taped(models.feedforward_net)(x[:, :1], x[:, 1:2], p["x"], p),
            lambda p: oracles.feedforward_net(x[:, :1], x[:, 1:2], p["x"], p), arrays, seed=1)
        context = _t(arrays.pop("x"))
        oracles.assert_same_values_and_grads(
            lambda p: taped(models.feedforward_net)(x[:, :1], x[:, 1:2], context, p),
            lambda p: oracles.feedforward_net(x[:, :1], x[:, 1:2], context, p), arrays, seed=2)


class TestOutputHead:
    def _params(self, w, b):
        return {"w_out": _t(w), "b_out": _t(np.array([[float(b)]]))}

    def test_positive_saturation(self):
        p = models.output_head(np.zeros((1, 2)), self._params(np.zeros((2, 1)), 10.0))
        assert p[0, 0] > 0.9999

    def test_negative_saturation(self):
        p = models.output_head(np.zeros((1, 2)), self._params(np.zeros((2, 1)), -10.0))
        assert p[0, 0] < 0.0001

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            models.output_head(np.ones((2, 3)), self._params(np.zeros((4, 1)), 0.0))

    def test_matches_oracle(self):
        rng = np.random.default_rng(40)
        arrays = {"z": rng.normal(size=(6, 4)), "w_out": rng.normal(size=(4, 1)),
                  "b_out": rng.normal(size=(1, 1))}
        oracles.assert_same_values_and_grads(lambda p: taped(models.output_head)(p["z"], p),
                                             lambda p: oracles.output_head(p["z"], p),
                                             arrays, seed=1)

    def test_matches_oracle_with_frozen_weights_or_constant_input(self):
        rng = np.random.default_rng(41)
        z = rng.normal(size=(6, 4))
        frozen = {"w_out": _t(rng.normal(size=(4, 1))), "b_out": _t(rng.normal(size=(1, 1)))}
        oracles.assert_same_values_and_grads(lambda p: taped(models.output_head)(p["z"], frozen),
                                             lambda p: oracles.output_head(p["z"], frozen),
                                             {"z": z}, seed=2)
        const = _t(z)
        oracles.assert_same_values_and_grads(
            lambda p: taped(models.output_head)(const, p), lambda p: oracles.output_head(const, p),
            {k: t.data for k, t in frozen.items()}, seed=3)


class TestGateBlock:
    """The gate block's activation: one np.tanh over every column."""

    @pytest.mark.parametrize("lead", [(5,), (2, 5)], ids=["solo", "replicas"])
    @pytest.mark.parametrize("n_sig", [0, 6, 9, 12])
    def test_one_tanh_is_bitwise_logistic_and_tanh(self, lead, n_sig):
        rng = np.random.default_rng(24)
        pre = rng.normal(scale=4.0, size=(*lead, 12))
        pre[..., 0, :4] = [800.0, -800.0, 1e-300, 0.0]  # saturated, tiny and zero columns
        act = models._squash(pre.copy(), n_sig)
        expected = np.concatenate([nm.logistic(pre[..., :n_sig]), np.tanh(pre[..., n_sig:])],
                                  axis=-1)
        np.testing.assert_array_equal(act, expected)

    @pytest.mark.parametrize("lead", [(5,), (2, 5)], ids=["solo", "replicas"])
    def test_gates_are_bitwise_the_per_column_functions(self, lead):
        """`_gates` of an LSTM block equals logistic on [i, f, o], tanh on the
        candidate and f * mem + i * g, bit for bit."""
        rng = np.random.default_rng(25)
        reps = lead[:-1]
        cat, mem = rng.normal(size=(*lead, HID + INP)), rng.normal(size=(*lead, HID))
        w, b = rng.normal(size=(*reps, HID + INP, 4 * HID)), rng.normal(size=(*reps, 1, 4 * HID))
        act, new_mem = models._gates(cat, w, b, mem, 3 * HID)
        pre = cat @ w + b
        sig, g = nm.logistic(pre[..., :3 * HID]), np.tanh(pre[..., 3 * HID:])
        np.testing.assert_array_equal(act, np.concatenate([sig, g], axis=-1))
        np.testing.assert_array_equal(new_mem, sig[..., HID:2 * HID] * mem + sig[..., :HID] * g)


# tracemalloc peaks, in MB, of a forward-only unroll of 2048 rows with the
# zoo benchmark's shapes (hidden 8, 5 steps of 2 inputs), measured with the
# input projection done step by step and rounded up to 10 kB. Holding a
# (B, T, G) block, such as an input projection hoisted out of the time
# loop, more than doubles them (lstm 6.10, bilstm 9.37).
FORWARD_PEAK_MB = {"lstm": 2.53, "bilstm": 3.19, "gru": 2.04, "mogrifier": 3.19,
                   "stlstm": 3.29, "swinlstm": 2.69}


@pytest.mark.parametrize("kind", models.RECURRENT_KINDS)
def test_forward_only_unroll_holds_no_time_block(kind):
    cfg = tr.TrainConfig(seed=0, window=6, feature_len=8, embed_width=8,
                         model=ModelSpec(kind=kind, hidden=8))
    params = tr.init_pipeline_params(cfg).view("cell")
    xs = np.random.default_rng(0).normal(size=(2048, 5, 2))
    models.unroll(cfg.model, params, xs)  # fills the cached gate rows
    tracemalloc.start()
    try:
        models.unroll(cfg.model, params, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= FORWARD_PEAK_MB[kind]


class TestModelSpec:
    def test_invalid_kind_lists_valid_kinds(self):
        with pytest.raises(ConfigError, match="lstm.*swinlstm"):
            ModelSpec(kind="transformer")

    @pytest.mark.parametrize("field,value", [("hidden", 0), ("mogrifier_rounds", -1),
                                             ("swin_window", 0)])
    def test_knob_validation(self, field, value):
        with pytest.raises(ConfigError):
            ModelSpec(**{field: value})

    def test_bilstm_output_width_doubles(self):
        assert ModelSpec(kind="bilstm", hidden=5).output_width == 10
        assert ModelSpec(kind="gru", hidden=5).output_width == 5


class TestUnroll:
    def test_unroll_matches_manual_lstm(self):
        rng = np.random.default_rng(17)
        spec = ModelSpec(kind="lstm", hidden=HID)
        store = ParameterStore(models.model_layout(spec, INP), rng)
        xs = rng.normal(size=(1, 3, INP))
        steps, final = models.unroll(spec, store.view("cell"), xs)
        assert steps.shape == (1, 3, HID)
        h, c = _t(np.zeros((1, HID))), _t(np.zeros((1, HID)))
        for i in range(3):
            h, c = cell_step("lstm", _t(xs[:, i]), (h, c), store.view("cell"))
            np.testing.assert_array_equal(steps[:, i], h.data)
        np.testing.assert_array_equal(final, h.data)

    def test_bilstm_final_pairs_both_directions(self):
        rng = np.random.default_rng(18)
        spec = ModelSpec(kind="bilstm", hidden=HID)
        store = ParameterStore(models.model_layout(spec, INP), rng)
        xs = rng.normal(size=(1, 3, INP))
        steps, final = models.unroll(spec, store.view("cell"), xs)
        expected = bilstm_forward([_t(xs[:, i]) for i in range(3)], store.view("cell.fwd"),
                                  store.view("cell.bwd"))
        np.testing.assert_array_equal(final, expected.data)
        assert steps.shape == (1, 3, 2 * HID)
        np.testing.assert_array_equal(steps[:, -1, :HID], final[:, :HID])
        np.testing.assert_array_equal(steps[:, 0, HID:], final[:, HID:])

    @pytest.mark.parametrize("kind", models.RECURRENT_KINDS)
    def test_steps_match_a_loop_of_single_steps(self, kind):
        rng = np.random.default_rng(21)
        spec = ModelSpec(kind=kind, hidden=HID, mogrifier_rounds=3, swin_window=2)
        store = ParameterStore(models.model_layout(spec, INP), rng)
        xs = rng.normal(size=(4, 5, INP))
        steps, final = models.unroll(spec, store.view("cell"), xs)
        cell = models.CELLS[kind]
        runs = []
        for direction in cell.directions:
            params = store.view(f"cell.{direction}" if direction else "cell")
            state = (_t(np.zeros((4, HID))),) * cell.arity
            order = range(4, -1, -1) if runs else range(5)
            rows = {}
            for t in order:
                state = cell_step(kind, _t(xs[:, t]), state, params, mogrifier_rounds=3,
                                  swin_window=2)
                rows[t] = state[0].data
            runs.append(np.stack([rows[t] for t in range(5)], axis=1))
        assert max_rel_err(steps, np.concatenate(runs, axis=2)) < 1e-12
        assert max_rel_err(final, np.concatenate(
            [runs[0][:, -1], *(r[:, 0] for r in runs[1:])], axis=1)) < 1e-12

    @pytest.mark.parametrize("replicas", [None, 2])
    @pytest.mark.parametrize("kind", models.RECURRENT_KINDS)
    def test_batched_weight_gradients_match_a_loop_of_cell_steps(self, kind, replicas):
        """`unroll_back` sums each weight's gradient once over a (..., T * B, ·)
        block; a loop of `cell_step` tape nodes adds it step by step. Both
        give the same parameter and step-input gradients, solo and for
        replica-stacked parameters."""
        rng = np.random.default_rng(23)
        spec = ModelSpec(kind=kind, hidden=HID, mogrifier_rounds=3, swin_window=3)
        lead, steps = ((replicas,) if replicas else ()) + (4,), 5
        seeds = range(replicas or 1)
        draws = [ParameterStore(models.model_layout(spec, INP), np.random.default_rng(seed))
                 for seed in seeds]

        def stacked():
            return oracles.store_of({name: np.stack([d[name].data for d in draws])
                                     if replicas else t.data for name, t in draws[0].items()})

        xs = rng.normal(size=(*lead, steps, INP))
        g_steps = rng.normal(size=(*lead, steps, spec.output_width))
        g_final = rng.normal(size=(*lead, spec.output_width))

        fused = stacked()
        saved = []
        models.unroll(spec, fused.view("cell"), xs, saved)
        d_xs = models.unroll_back(g_steps, g_final, saved)

        looped, cell = stacked(), models.CELLS[kind]
        x_leaves, terms = [], []
        for k, direction in enumerate(cell.directions):
            params = looped.view(f"cell.{direction}" if direction else "cell")
            cols = slice(k * HID, (k + 1) * HID)
            state = (_t(np.zeros((*lead, HID))),) * cell.arity
            for t in range(steps - 1, -1, -1) if k else range(steps):
                x = Tensor(xs[..., t, :], requires_grad=True)
                x_leaves.append((t, x))
                state = cell_step(kind, x, state, params, mogrifier_rounds=3, swin_window=3)
                terms.append(oracles.mul(state[0], _t(g_steps[..., t, cols])))
            terms.append(oracles.mul(state[0], _t(g_final[..., cols])))
        loss = terms[0]
        for term in terms[1:]:
            loss = oracles.add(loss, term)
        nm.backward(nm.sum_(loss))

        expected = np.zeros_like(xs)
        for t, x in x_leaves:
            expected[..., t, :] += x.grad
        assert max_rel_err(d_xs, expected) < 1e-12
        for name, t in fused.items():
            assert max_rel_err(t.grad, looped[name].grad) < 1e-12, name

    def test_no_tape_without_gradients(self, monkeypatch):
        """Without a saved list no step cache outlives its step; with one,
        every cache is kept for the backward."""
        rng = np.random.default_rng(22)

        class Cache:  # a step's cache, watched through a weak reference
            pass

        for kind in ("stlstm", "swinlstm"):
            spec = ModelSpec(kind=kind, hidden=HID)
            store = ParameterStore(models.model_layout(spec, INP), rng)
            cell, refs = models.CELLS[kind], []

            def forward(x, state, weights, cell=cell, refs=refs):
                state, _ = cell.forward(x, state, weights)
                cache = Cache()
                refs.append(weakref.ref(cache))
                return state, cache

            monkeypatch.setitem(models.CELLS, kind, dataclasses.replace(cell, forward=forward))
            xs = rng.normal(size=(2, 3, INP))
            models.unroll(spec, store.view("cell"), xs)
            assert len(refs) == 3 and all(ref() is None for ref in refs)
            saved = []
            models.unroll(spec, store.view("cell"), xs, saved)
            assert len(refs) == 6 and all(ref() is not None for ref in refs[3:])

    def test_empty_sequence_rejected(self):
        spec = ModelSpec(kind="lstm", hidden=HID)
        with pytest.raises(ContractError):
            models.unroll(spec, _cell(_zero_gates()), np.zeros((1, 0, INP)))

    def test_feedforward_cannot_unroll(self):
        with pytest.raises(ConfigError):
            models.unroll(ModelSpec(kind="feedforward"), {}, np.zeros((1, 1, 2)))


def _per_gate_draws(spec, input_width, rng):
    """The recurrent cell's parameters drawn one (rows, H) matrix per gate,
    in the draw order of per-gate storage: SwinLSTM's four pool scalars,
    then the LSTM gates i, f, c, o (GRU: z, r, h), then the Mogrifier's q
    and r or ST-LSTM's mi, mf, mc and w_mix; BiLSTM draws its forward
    direction first. Returns {direction prefix: per-gate arrays}."""
    hid = spec.hidden

    def gates(p, names, rows):
        for g in names:
            p[g] = nm.uniform_init(rng, rows, (rows, hid))
            p[g.replace("w", "b", 1)] = np.zeros((1, hid))

    out = {}
    for prefix in ("cell.fwd", "cell.bwd") if spec.kind == "bilstm" else ("cell",):
        p = out[prefix] = {}
        width = input_width
        if spec.kind == "swinlstm":
            for name in ("wq", "wk", "wv", "wp"):
                p[name] = nm.uniform_init(rng, 1, (1, 1))
            width = spec.swin_window
        gates(p, GRU_GATES if spec.kind == "gru" else LSTM_GATES, hid + width)
        if spec.kind == "mogrifier":
            if spec.mogrifier_rounds >= 1:
                p["q"] = nm.uniform_init(rng, hid, (hid, input_width))
            if spec.mogrifier_rounds >= 2:
                p["r"] = nm.uniform_init(rng, input_width, (input_width, hid))
        if spec.kind == "stlstm":
            gates(p, ("w_mi", "w_mf", "w_mc"), input_width + hid)
            p["w_mix"] = nm.uniform_init(rng, 2 * hid, (2 * hid, hid))
    return out


@pytest.mark.parametrize("kind", models.RECURRENT_KINDS)
def test_stored_gate_blocks_hold_the_per_gate_draws(kind):
    """Each gate block of `init_pipeline_params` holds exactly the per-gate
    matrices drawn from the same seed in per-gate order, so storing the
    blocks changed no initial value. The expected side draws every
    parameter with `uniform_init` in the documented order: the text path,
    the gate's projection, the cell, then the head."""
    cfg = tr.TrainConfig(seed=5, window=5, feature_len=6, embed_width=6, kernel_len=3,
                         model=ModelSpec(kind=kind, hidden=4, mogrifier_rounds=3, swin_window=3))
    rng = np.random.default_rng(cfg.seed)
    conv_len, width = cfg.embed_width - cfg.kernel_len + 1, cfg.model.output_width
    expected = {"text.w_e": nm.uniform_init(rng, 6, (6, 6)), "text.b_e": np.zeros((1, 6)),
                "text.w_c": nm.uniform_init(rng, 3, (3,)), "text.b_c": np.zeros((1, 1))}
    if conv_len != width:
        expected["text.proj_w"] = nm.uniform_init(rng, conv_len, (conv_len, width))
        expected["text.proj_b"] = np.zeros((1, width))
    expected["text.gamma_raw"] = np.zeros((1, 1))
    for prefix, per_gate in _per_gate_draws(cfg.model, 2, rng).items():
        for name, arr in oracles.stack_gates(per_gate).items():
            expected[f"{prefix}.{name}"] = arr
    expected["head.w_out"] = nm.uniform_init(rng, width, (width, 1))
    expected["head.b_out"] = np.zeros((1, 1))
    store = tr.init_pipeline_params(cfg)
    assert sorted(oracles.names(store)) == sorted(expected)
    for name, t in store.items():
        assert np.array_equal(t.data, expected[name]), name
