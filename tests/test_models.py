"""Recurrent cells, their reduction identities, and the output head."""

import numpy as np
import pytest

import oracles
from oracles import (attention_rows, bilstm_forward, cell_step, gru_step, lstm_step,
                     max_rel_err, plain_sigmoid)

from trendfuse import models
from trendfuse import numerics as nm
from trendfuse.errors import ConfigError, ContractError, ShapeError
from trendfuse.models import ModelSpec
from trendfuse.numerics import ParameterStore, Tensor

HID = 3
INP = 2


def _t(a):
    return Tensor(np.asarray(a, dtype=float))


def _zero_gate_params(input_width=INP, hidden=HID, gates=("w_i", "w_f", "w_c", "w_o")):
    rows = hidden + input_width
    params = {}
    for g in gates:
        params[g] = _t(np.zeros((rows, hidden)))
        params[g.replace("w", "b")] = _t(np.zeros((1, hidden)))
    return params


def _random_gate_params(rng, input_width=INP, hidden=HID,
                        gates=("w_i", "w_f", "w_c", "w_o")):
    rows = hidden + input_width
    params = {}
    for g in gates:
        params[g] = _t(rng.normal(size=(rows, hidden)))
        params[g.replace("w", "b")] = _t(rng.normal(size=(1, hidden)))
    return params


class TestLstmCell:
    def test_all_zero(self):
        params = _zero_gate_params()
        h, c = cell_step("lstm", _t(np.zeros((1, INP))),
                         (_t(np.zeros((1, HID))), _t(np.zeros((1, HID)))), params)
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))
        np.testing.assert_array_equal(c.data, np.zeros((1, HID)))

    def test_zero_weights_closed_form(self):
        params = _zero_gate_params()
        c_prev = np.array([[0.8, -0.4, 1.2]])
        h, c = cell_step("lstm", _t(np.zeros((1, INP))),
                         (_t(np.zeros((1, HID))), _t(c_prev)), params)
        np.testing.assert_allclose(c.data, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_random_step_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        params = _random_gate_params(rng)
        x, h0, c0 = rng.normal(size=INP), rng.normal(size=HID), rng.normal(size=HID)
        h, c = cell_step("lstm", _t(x.reshape(1, -1)),
                         (_t(h0.reshape(1, -1)), _t(c0.reshape(1, -1))), params)
        np_params = {k: v.data for k, v in params.items()}
        h_ref, c_ref = lstm_step(x, h0, c0, np_params)
        assert max_rel_err(h.data[0], h_ref) < 1e-12
        assert max_rel_err(c.data[0], c_ref) < 1e-12

    def test_fused_step_at_batch_32_matches_scalar_oracle(self):
        rng = np.random.default_rng(19)
        params = _random_gate_params(rng)
        x, h0, c0 = (rng.normal(size=(32, n)) for n in (INP, HID, HID))
        h, c = cell_step("lstm", _t(x), (_t(h0), _t(c0)), params)
        np_params = {k: v.data for k, v in params.items()}
        for row in range(32):
            h_ref, c_ref = lstm_step(x[row], h0[row], c0[row], np_params)
            assert max_rel_err(h.data[row], h_ref) < 1e-12
            assert max_rel_err(c.data[row], c_ref) < 1e-12

    def test_outputs_bounded(self):
        rng = np.random.default_rng(1)
        params = _random_gate_params(rng)
        h = _t(rng.normal(size=(4, HID)))
        c = _t(rng.normal(size=(4, HID)))
        for _ in range(5):
            h, c = cell_step("lstm", _t(rng.normal(size=(4, INP)) * 5), (h, c), params)
        assert np.all(np.isfinite(h.data)) and np.all(np.isfinite(c.data))
        assert np.all(np.abs(h.data) < 1.0)

    def test_width_mismatch_rejected(self):
        params = _zero_gate_params()
        with pytest.raises(ShapeError):
            models.unroll(ModelSpec(kind="lstm", hidden=HID), params,
                          _t(np.zeros((1, 2, INP + 1))))


class TestGruCell:
    def test_zero_case(self):
        params = _zero_gate_params(gates=("w_z", "w_r", "w_h"))
        h = cell_step("gru", _t(np.zeros((1, INP))), (_t(np.zeros((1, HID))),), params)[0]
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))

    def test_copy_through_endpoint(self):
        params = _zero_gate_params(gates=("w_z", "w_r", "w_h"))
        params["b_z"] = _t(np.full((1, HID), -30.0))  # z ~ 0 keeps previous state
        h_prev = np.array([[0.7, -0.2, 0.1]])
        h = cell_step("gru", _t(np.ones((1, INP))), (_t(h_prev),), params)[0]
        assert np.max(np.abs(h.data - h_prev)) < 1e-6

    def test_random_step_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        params = _random_gate_params(rng, gates=("w_z", "w_r", "w_h"))
        x, h0 = rng.normal(size=INP), rng.normal(size=HID)
        h = cell_step("gru", _t(x.reshape(1, -1)), (_t(h0.reshape(1, -1)),), params)[0]
        h_ref = gru_step(x, h0, {k: v.data for k, v in params.items()})
        assert max_rel_err(h.data[0], h_ref) < 1e-12


    def test_fused_step_at_batch_32_matches_scalar_oracle(self):
        rng = np.random.default_rng(20)
        params = _random_gate_params(rng, gates=("w_z", "w_r", "w_h"))
        x, h0 = rng.normal(size=(32, INP)), rng.normal(size=(32, HID))
        h = cell_step("gru", _t(x), (_t(h0),), params)[0]
        np_params = {k: v.data for k, v in params.items()}
        for row in range(32):
            assert max_rel_err(h.data[row], gru_step(x[row], h0[row], np_params)) < 1e-12


class TestBilstm:
    def test_forward_half_equals_plain_lstm(self):
        rng = np.random.default_rng(3)
        p_fwd = _random_gate_params(rng)
        p_bwd = _random_gate_params(rng)
        xs = [_t(rng.normal(size=(1, INP))) for _ in range(4)]
        out = bilstm_forward(xs, p_fwd, p_bwd)
        h, c = _t(np.zeros((1, HID))), _t(np.zeros((1, HID)))
        for x in xs:
            h, c = cell_step("lstm", x, (h, c), p_fwd)
        np.testing.assert_array_equal(out.data[:, :HID], h.data)

    def test_palindrome_with_shared_params(self):
        rng = np.random.default_rng(4)
        params = _random_gate_params(rng)
        a, b = rng.normal(size=(1, INP)), rng.normal(size=(1, INP))
        xs = [_t(a), _t(b), _t(a)]
        out = bilstm_forward(xs, params, params)
        np.testing.assert_allclose(out.data[:, :HID], out.data[:, HID:], atol=1e-12)

    def test_two_steps_match_manual_composition(self):
        rng = np.random.default_rng(5)
        p_fwd = _random_gate_params(rng)
        p_bwd = _random_gate_params(rng)
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
            bilstm_forward([], _zero_gate_params(), _zero_gate_params())


class TestMogrifier:
    def test_zero_rounds_is_bitwise_lstm(self):
        rng = np.random.default_rng(6)
        params = _random_gate_params(rng)
        x = _t(rng.normal(size=(2, INP)))
        h0 = _t(rng.normal(size=(2, HID)))
        c0 = _t(rng.normal(size=(2, HID)))
        hm, cm = cell_step("mogrifier", x, (h0, c0), params, mogrifier_rounds=0)
        hl, cl = cell_step("lstm", x, (h0, c0), params)
        assert np.array_equal(hm.data, hl.data)
        assert np.array_equal(cm.data, cl.data)

    def test_zero_q_r_is_identity_modulation(self):
        rng = np.random.default_rng(7)
        params = _random_gate_params(rng)
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
        params = _random_gate_params(rng)
        q = rng.normal(size=(HID, INP))
        r = rng.normal(size=(INP, HID))
        params["q"], params["r"] = _t(q), _t(r)
        x = rng.normal(size=(1, INP))
        h0 = rng.normal(size=(1, HID))
        c0 = rng.normal(size=(1, HID))
        hm, cm = cell_step("mogrifier", _t(x), (_t(h0), _t(c0)), params, mogrifier_rounds=2)
        x_mod = 2 * plain_sigmoid(h0 @ q) * x          # round 1 rescales x
        h_mod = 2 * plain_sigmoid(x_mod @ r) * h0      # round 2 rescales h
        h_ref, c_ref = lstm_step(x_mod[0], h_mod[0], c0[0],
                                 {k: v.data for k, v in params.items()})
        assert max_rel_err(hm.data[0], h_ref) < 1e-12
        assert max_rel_err(cm.data[0], c_ref) < 1e-12


def _stlstm_params(rng=None):
    params = (_random_gate_params(rng) if rng is not None else _zero_gate_params())
    rows_m = INP + HID
    maker = (lambda shape: rng.normal(size=shape)) if rng is not None else np.zeros
    for g in ("w_mi", "w_mf", "w_mc"):
        params[g] = _t(maker((rows_m, HID)))
        params[g.replace("w", "b")] = _t(np.zeros((1, HID)))
    params["w_mix"] = _t(maker((2 * HID, HID)))
    return params


class TestStlstm:
    def test_zero_m_path_reduces_to_lstm(self):
        rng = np.random.default_rng(9)
        params = _stlstm_params(rng)
        for g in ("w_mi", "w_mf", "w_mc", "b_mi", "b_mf", "b_mc"):
            params[g] = _t(np.zeros(params[g].shape))
        params["w_mix"] = _t(np.vstack([np.eye(HID), np.zeros((HID, HID))]))
        x = _t(np.random.default_rng(10).normal(size=(1, INP)))
        h0 = _t(np.zeros((1, HID)))
        c0 = _t(np.random.default_rng(11).normal(size=(1, HID)))
        m0 = _t(np.zeros((1, HID)))
        hs, cs, ms = cell_step("stlstm", x, (h0, c0, m0), params)
        hl, cl = cell_step("lstm", x, (h0, c0), params)
        assert np.max(np.abs(hs.data - hl.data)) < 1e-12
        assert np.max(np.abs(cs.data - cl.data)) < 1e-12

    def test_zero_everything(self):
        params = _stlstm_params()
        z = _t(np.zeros((1, HID)))
        h, c, m = cell_step("stlstm", _t(np.zeros((1, INP))), (z, z, z), params)
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))

    def test_random_step_matches_hand_evaluation(self):
        rng = np.random.default_rng(12)
        params = _stlstm_params(rng)
        x = rng.normal(size=INP)
        h0, c0, m0 = (rng.normal(size=HID) for _ in range(3))
        hs, cs, ms = cell_step("stlstm", _t(x.reshape(1, -1)),
                               (_t(h0.reshape(1, -1)), _t(c0.reshape(1, -1)),
                                _t(m0.reshape(1, -1))), params)
        p = {k: v.data for k, v in params.items()}
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


def _swin_params(rng=None, window=2, hidden=HID):
    maker = (lambda shape: rng.normal(size=shape)) if rng is not None else np.zeros
    params = {name: _t(maker((1, 1))) for name in ("wq", "wk", "wv", "wp")}
    rows = hidden + window
    gate_maker = maker
    for g in ("w_i", "w_f", "w_c", "w_o"):
        params[g] = _t(gate_maker((rows, hidden)))
        params[g.replace("w", "b")] = _t(np.zeros((1, hidden)))
    return params


class TestSwinlstm:
    def test_zero_projection_reduces_to_pooled_lstm(self):
        rng = np.random.default_rng(13)
        params = _swin_params(rng, window=2)
        params["wp"] = _t(np.zeros((1, 1)))
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
        params = _swin_params(rng, window=4)
        x = rng.normal(size=(1, 4))
        h0 = _t(rng.normal(size=(1, HID)))
        c0 = _t(rng.normal(size=(1, HID)))
        hs, cs = cell_step("swinlstm", _t(x), (h0, c0), params, swin_window=4)
        # manual: single window, d=1 token attention over all entries
        q = x * params["wq"].data.item()
        k = x * params["wk"].data.item()
        v = x * params["wv"].data.item()
        att = attention_rows(q.reshape(-1, 1), k.reshape(-1, 1), v.reshape(-1, 1))
        pooled = x + att.reshape(1, -1) * params["wp"].data.item()
        hl, cl = cell_step("lstm", _t(pooled), (h0, c0), params)
        assert max_rel_err(hs.data, hl.data) < 1e-12

    def test_two_window_case_matches_per_window_oracle(self):
        rng = np.random.default_rng(15)
        params = _swin_params(rng, window=2)
        x = rng.normal(size=(1, 4))
        h0 = _t(rng.normal(size=(1, HID)))
        c0 = _t(rng.normal(size=(1, HID)))
        hs, _ = cell_step("swinlstm", _t(x), (h0, c0), params, swin_window=2)
        wq, wk, wv, wp = (params[n].data.item() for n in ("wq", "wk", "wv", "wp"))
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
        return models.feedforward_net(x[:, :1], x[:, 1:2], _t(x[:, 2:]), params)

    def test_zero_network_outputs_final_bias(self):
        params = self._params(np.zeros((3, 4)), np.zeros((1, 4)), np.zeros((4, 2)),
                              np.zeros((1, 2)), np.zeros((2, 1)), np.array([[0.7]]))
        out = self._net(np.ones((5, 3)), params)
        np.testing.assert_array_equal(out.data, nm.logistic(np.full((5, 1), 0.7)))

    def test_constructed_pass_through(self):
        # route coordinate 0 through one positive path untouched
        w1 = np.zeros((3, 4)); w1[0, 0] = 1.0
        w2 = np.zeros((4, 2)); w2[0, 0] = 1.0
        w3 = np.zeros((2, 1)); w3[0, 0] = 1.0
        params = self._params(w1, np.zeros((1, 4)), w2, np.zeros((1, 2)),
                              w3, np.zeros((1, 1)))
        x = np.array([[2.5, -1.0, 9.9]])
        out = self._net(x, params)
        np.testing.assert_allclose(out.data, plain_sigmoid([[2.5]]), atol=1e-12)

    def test_random_matches_manual_chain(self):
        rng = np.random.default_rng(16)
        w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        w2, b2 = rng.normal(size=(4, 2)), rng.normal(size=(1, 2))
        w3, b3 = rng.normal(size=(2, 1)), rng.normal(size=(1, 1))
        x = rng.normal(size=(2, 3))
        out = self._net(x, self._params(w1, b1, w2, b2, w3, b3))
        h1 = np.maximum(x @ w1 + b1, 0.0)
        h2 = np.maximum(h1 @ w2 + b2, 0.0)
        assert max_rel_err(out.data, plain_sigmoid(h2 @ w3 + b3)) < 1e-12

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
            lambda p: models.feedforward_net(x[:, :1], x[:, 1:2], p["x"], p),
            lambda p: oracles.feedforward_net(x[:, :1], x[:, 1:2], p["x"], p), arrays, seed=1)
        context = _t(arrays.pop("x"))
        oracles.assert_same_values_and_grads(
            lambda p: models.feedforward_net(x[:, :1], x[:, 1:2], context, p),
            lambda p: oracles.feedforward_net(x[:, :1], x[:, 1:2], context, p), arrays, seed=2)


class TestOutputHead:
    def _params(self, w, b):
        return {"w_out": _t(w), "b_out": _t(np.array([[float(b)]]))}

    def test_zero_head_ties_to_one(self):
        p, labels = models.output_head(_t(np.ones((1, 3))),
                                       self._params(np.zeros((3, 1)), 0.0))
        assert p.data[0, 0] == 0.5
        assert labels[0] == 1

    def test_positive_saturation(self):
        p, labels = models.output_head(_t(np.zeros((1, 2))),
                                       self._params(np.zeros((2, 1)), 10.0))
        assert p.data[0, 0] > 0.9999
        assert labels[0] == 1

    def test_negative_saturation(self):
        p, labels = models.output_head(_t(np.zeros((1, 2))),
                                       self._params(np.zeros((2, 1)), -10.0))
        assert p.data[0, 0] < 0.0001
        assert labels[0] == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            models.output_head(_t(np.ones((2, 3))), self._params(np.zeros((4, 1)), 0.0))

    def test_matches_oracle(self):
        rng = np.random.default_rng(40)
        arrays = {"z": rng.normal(size=(6, 4)), "w_out": rng.normal(size=(4, 1)),
                  "b_out": rng.normal(size=(1, 1))}
        oracles.assert_same_values_and_grads(lambda p: models.output_head(p["z"], p)[0],
                                             lambda p: oracles.output_head(p["z"], p)[0],
                                             arrays, seed=1)
        params = {k: _t(v) for k, v in arrays.items()}
        _, labels = models.output_head(params["z"], params)
        np.testing.assert_array_equal(labels, oracles.output_head(params["z"], params)[1])

    def test_matches_oracle_with_frozen_weights_or_constant_input(self):
        rng = np.random.default_rng(41)
        z = rng.normal(size=(6, 4))
        frozen = {"w_out": _t(rng.normal(size=(4, 1))), "b_out": _t(rng.normal(size=(1, 1)))}
        oracles.assert_same_values_and_grads(lambda p: models.output_head(p["z"], frozen)[0],
                                             lambda p: oracles.output_head(p["z"], frozen)[0],
                                             {"z": z}, seed=2)
        const = _t(z)
        oracles.assert_same_values_and_grads(
            lambda p: models.output_head(const, p)[0], lambda p: oracles.output_head(const, p)[0],
            {k: t.data for k, t in frozen.items()}, seed=3)


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
        store = ParameterStore()
        spec = ModelSpec(kind="lstm", hidden=HID)
        models.add_model_params(store, spec, INP, rng)
        xs = rng.normal(size=(1, 3, INP))
        steps, final = models.unroll(spec, store.view("cell"), _t(xs))
        assert steps.shape == (1, 3, HID)
        h, c = _t(np.zeros((1, HID))), _t(np.zeros((1, HID)))
        for i in range(3):
            h, c = cell_step("lstm", _t(xs[:, i]), (h, c), store.view("cell"))
            np.testing.assert_array_equal(steps.data[:, i], h.data)
        np.testing.assert_array_equal(final.data, h.data)

    def test_bilstm_final_pairs_both_directions(self):
        rng = np.random.default_rng(18)
        store = ParameterStore()
        spec = ModelSpec(kind="bilstm", hidden=HID)
        models.add_model_params(store, spec, INP, rng)
        xs = rng.normal(size=(1, 3, INP))
        steps, final = models.unroll(spec, store.view("cell"), _t(xs))
        expected = bilstm_forward([_t(xs[:, i]) for i in range(3)], store.view("cell.fwd"),
                                  store.view("cell.bwd"))
        np.testing.assert_array_equal(final.data, expected.data)
        assert steps.shape == (1, 3, 2 * HID)
        np.testing.assert_array_equal(steps.data[:, -1, :HID], final.data[:, :HID])
        np.testing.assert_array_equal(steps.data[:, 0, HID:], final.data[:, HID:])

    @pytest.mark.parametrize("kind", models.RECURRENT_KINDS)
    def test_steps_match_a_loop_of_single_steps(self, kind):
        rng = np.random.default_rng(21)
        spec = ModelSpec(kind=kind, hidden=HID, mogrifier_rounds=3, swin_window=2)
        store = ParameterStore()
        models.add_model_params(store, spec, INP, rng)
        xs = rng.normal(size=(4, 5, INP))
        steps, final = models.unroll(spec, store.view("cell"), _t(xs))
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
        assert max_rel_err(steps.data, np.concatenate(runs, axis=2)) < 1e-12
        assert max_rel_err(final.data, np.concatenate(
            [runs[0][:, -1], *(r[:, 0] for r in runs[1:])], axis=1)) < 1e-12

    def test_no_tape_without_gradients(self):
        rng = np.random.default_rng(22)
        spec = ModelSpec(kind="stlstm", hidden=HID)
        store = ParameterStore()
        models.add_model_params(store, spec, INP, rng)
        with nm.no_grad():
            steps, final = models.unroll(spec, store.view("cell"), _t(rng.normal(size=(2, 3, INP))))
        assert not steps.requires_grad and steps._backward is None
        assert not final.requires_grad and final._parents == ()

    def test_empty_sequence_rejected(self):
        spec = ModelSpec(kind="lstm", hidden=HID)
        with pytest.raises(ContractError):
            models.unroll(spec, _zero_gate_params(), _t(np.zeros((1, 0, INP))))

    def test_feedforward_cannot_unroll(self):
        with pytest.raises(ConfigError):
            models.unroll(ModelSpec(kind="feedforward"), {}, _t(np.zeros((1, 1, 2))))
