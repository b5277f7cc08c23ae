"""Recurrent cells, their reduction identities, and the output head."""

import numpy as np
import pytest

from oracles import attention_rows, bilstm_forward, gru_step, lstm_step, max_rel_err, sigmoid

from trendfuse import models
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
        h, c = models.lstm_cell(_t(np.zeros((1, INP))), _t(np.zeros((1, HID))),
                                _t(np.zeros((1, HID))), params)
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))
        np.testing.assert_array_equal(c.data, np.zeros((1, HID)))

    def test_zero_weights_closed_form(self):
        params = _zero_gate_params()
        c_prev = np.array([[0.8, -0.4, 1.2]])
        h, c = models.lstm_cell(_t(np.zeros((1, INP))), _t(np.zeros((1, HID))),
                                _t(c_prev), params)
        np.testing.assert_allclose(c.data, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_random_step_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        params = _random_gate_params(rng)
        x, h0, c0 = rng.normal(size=INP), rng.normal(size=HID), rng.normal(size=HID)
        h, c = models.lstm_cell(_t(x.reshape(1, -1)), _t(h0.reshape(1, -1)),
                                _t(c0.reshape(1, -1)), params)
        np_params = {k: v.data for k, v in params.items()}
        h_ref, c_ref = lstm_step(x, h0, c0, np_params)
        assert max_rel_err(h.data[0], h_ref) < 1e-12
        assert max_rel_err(c.data[0], c_ref) < 1e-12

    def test_fused_step_at_batch_32_matches_scalar_oracle(self):
        rng = np.random.default_rng(19)
        params = _random_gate_params(rng)
        x, h0, c0 = (rng.normal(size=(32, n)) for n in (INP, HID, HID))
        h, c = models.lstm_cell(_t(x), _t(h0), _t(c0), params)
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
            h, c = models.lstm_cell(_t(rng.normal(size=(4, INP)) * 5), h, c, params)
        assert np.all(np.isfinite(h.data)) and np.all(np.isfinite(c.data))
        assert np.all(np.abs(h.data) < 1.0)

    def test_width_mismatch_rejected(self):
        params = _zero_gate_params()
        with pytest.raises(ShapeError):
            models.lstm_cell(_t(np.zeros((1, INP + 1))), _t(np.zeros((1, HID))),
                             _t(np.zeros((1, HID))), params)


class TestGruCell:
    def test_zero_case(self):
        params = _zero_gate_params(gates=("w_z", "w_r", "w_h"))
        h = models.gru_cell(_t(np.zeros((1, INP))), _t(np.zeros((1, HID))), params)
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))

    def test_copy_through_endpoint(self):
        params = _zero_gate_params(gates=("w_z", "w_r", "w_h"))
        params["b_z"] = _t(np.full((1, HID), -30.0))  # z ~ 0 keeps previous state
        h_prev = np.array([[0.7, -0.2, 0.1]])
        h = models.gru_cell(_t(np.ones((1, INP))), _t(h_prev), params)
        assert np.max(np.abs(h.data - h_prev)) < 1e-6

    def test_random_step_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        params = _random_gate_params(rng, gates=("w_z", "w_r", "w_h"))
        x, h0 = rng.normal(size=INP), rng.normal(size=HID)
        h = models.gru_cell(_t(x.reshape(1, -1)), _t(h0.reshape(1, -1)), params)
        h_ref = gru_step(x, h0, {k: v.data for k, v in params.items()})
        assert max_rel_err(h.data[0], h_ref) < 1e-12


    def test_fused_step_at_batch_32_matches_scalar_oracle(self):
        rng = np.random.default_rng(20)
        params = _random_gate_params(rng, gates=("w_z", "w_r", "w_h"))
        x, h0 = rng.normal(size=(32, INP)), rng.normal(size=(32, HID))
        h = models.gru_cell(_t(x), _t(h0), params)
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
            h, c = models.lstm_cell(x, h, c, p_fwd)
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
        hf, cf = models.lstm_cell(_t(x1), z, z, p_fwd)
        hf, _ = models.lstm_cell(_t(x2), hf, cf, p_fwd)
        hb, cb = models.lstm_cell(_t(x2), z, z, p_bwd)
        hb, _ = models.lstm_cell(_t(x1), hb, cb, p_bwd)
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
        hm, cm = models.mogrifier_lstm_cell(x, h0, c0, params, rounds=0)
        hl, cl = models.lstm_cell(x, h0, c0, params)
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
        hm, cm = models.mogrifier_lstm_cell(x, h0, c0, params, rounds=4)
        hl, cl = models.lstm_cell(x, h0, c0, params)
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
        hm, cm = models.mogrifier_lstm_cell(_t(x), _t(h0), _t(c0), params, rounds=2)
        x_mod = 2 * sigmoid(h0 @ q) * x          # round 1 rescales x
        h_mod = 2 * sigmoid(x_mod @ r) * h0      # round 2 rescales h
        h_ref, c_ref = lstm_step(x_mod[0], h_mod[0], c0[0],
                                 {k: v.data for k, v in params.items()})
        assert max_rel_err(hm.data[0], h_ref) < 1e-12
        assert max_rel_err(cm.data[0], c_ref) < 1e-12

    def test_negative_rounds_rejected(self):
        with pytest.raises(ContractError):
            models.mogrifier_lstm_cell(_t(np.zeros((1, INP))), _t(np.zeros((1, HID))),
                                       _t(np.zeros((1, HID))), _zero_gate_params(),
                                       rounds=-1)


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
        hs, cs, ms = models.stlstm_cell(x, h0, c0, m0, params)
        hl, cl = models.lstm_cell(x, h0, c0, params)
        assert np.max(np.abs(hs.data - hl.data)) < 1e-12
        assert np.max(np.abs(cs.data - cl.data)) < 1e-12

    def test_zero_everything(self):
        params = _stlstm_params()
        z = _t(np.zeros((1, HID)))
        h, c, m = models.stlstm_cell(_t(np.zeros((1, INP))), z, z, z, params)
        np.testing.assert_array_equal(h.data, np.zeros((1, HID)))

    def test_random_step_matches_hand_evaluation(self):
        rng = np.random.default_rng(12)
        params = _stlstm_params(rng)
        x = rng.normal(size=INP)
        h0, c0, m0 = (rng.normal(size=HID) for _ in range(3))
        hs, cs, ms = models.stlstm_cell(_t(x.reshape(1, -1)), _t(h0.reshape(1, -1)),
                                        _t(c0.reshape(1, -1)), _t(m0.reshape(1, -1)),
                                        params)
        p = {k: v.data for k, v in params.items()}
        cat = np.concatenate([h0, x])
        i = sigmoid(cat @ p["w_i"] + p["b_i"].reshape(-1))
        f = sigmoid(cat @ p["w_f"] + p["b_f"].reshape(-1))
        o = sigmoid(cat @ p["w_o"] + p["b_o"].reshape(-1))
        c_ref = f * c0 + i * np.tanh(cat @ p["w_c"] + p["b_c"].reshape(-1))
        cat_m = np.concatenate([x, m0])
        i_m = sigmoid(cat_m @ p["w_mi"] + p["b_mi"].reshape(-1))
        f_m = sigmoid(cat_m @ p["w_mf"] + p["b_mf"].reshape(-1))
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
        hs, cs = models.swinlstm_cell(_t(x), h0, c0, params, window=2)
        pooled = x.reshape(1, 3, 2).mean(axis=1)
        hl, cl = models.lstm_cell(_t(pooled), h0, c0, params)
        assert np.max(np.abs(hs.data - hl.data)) < 1e-12
        assert np.max(np.abs(cs.data - cl.data)) < 1e-12

    def test_window_at_least_feature_length_is_full_attention(self):
        rng = np.random.default_rng(14)
        params = _swin_params(rng, window=4)
        x = rng.normal(size=(1, 4))
        h0 = _t(rng.normal(size=(1, HID)))
        c0 = _t(rng.normal(size=(1, HID)))
        hs, cs = models.swinlstm_cell(_t(x), h0, c0, params, window=4)
        # manual: single window, d=1 token attention over all entries
        q = x * params["wq"].data.item()
        k = x * params["wk"].data.item()
        v = x * params["wv"].data.item()
        att = attention_rows(q.reshape(-1, 1), k.reshape(-1, 1), v.reshape(-1, 1))
        pooled = x + att.reshape(1, -1) * params["wp"].data.item()
        hl, cl = models.lstm_cell(_t(pooled), h0, c0, params)
        assert max_rel_err(hs.data, hl.data) < 1e-12

    def test_two_window_case_matches_per_window_oracle(self):
        rng = np.random.default_rng(15)
        params = _swin_params(rng, window=2)
        x = rng.normal(size=(1, 4))
        h0 = _t(rng.normal(size=(1, HID)))
        c0 = _t(rng.normal(size=(1, HID)))
        hs, _ = models.swinlstm_cell(_t(x), h0, c0, params, window=2)
        wq, wk, wv, wp = (params[n].data.item() for n in ("wq", "wk", "wv", "wp"))
        outs = []
        for g in range(2):
            u = x[:, 2 * g:2 * g + 2]
            att = attention_rows((u * wq).reshape(-1, 1), (u * wk).reshape(-1, 1),
                                 (u * wv).reshape(-1, 1))
            outs.append(u + att.reshape(1, -1) * wp)
        pooled = (outs[0] + outs[1]) / 2.0
        hl, _ = models.lstm_cell(_t(pooled), h0, c0, params)
        assert max_rel_err(hs.data, hl.data) < 1e-12

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError):
            models.swinlstm_cell(_t(np.zeros((1, 4))), _t(np.zeros((1, HID))),
                                 _t(np.zeros((1, HID))), _swin_params(), window=0)


class TestFeedforward:
    def _params(self, w1, b1, w2, b2, w3, b3):
        return {"w1": _t(w1), "b1": _t(b1), "w2": _t(w2), "b2": _t(b2),
                "w3": _t(w3), "b3": _t(b3)}

    def test_zero_network_outputs_final_bias(self):
        params = self._params(np.zeros((3, 4)), np.zeros((1, 4)), np.zeros((4, 2)),
                              np.zeros((1, 2)), np.zeros((2, 1)), np.array([[0.7]]))
        out = models.feedforward_net(_t(np.ones((5, 3))), params)
        np.testing.assert_array_equal(out.data, np.full((5, 1), 0.7))

    def test_constructed_pass_through(self):
        # route coordinate 0 through one positive path untouched
        w1 = np.zeros((3, 4)); w1[0, 0] = 1.0
        w2 = np.zeros((4, 2)); w2[0, 0] = 1.0
        w3 = np.zeros((2, 1)); w3[0, 0] = 1.0
        params = self._params(w1, np.zeros((1, 4)), w2, np.zeros((1, 2)),
                              w3, np.zeros((1, 1)))
        x = np.array([[2.5, -1.0, 9.9]])
        out = models.feedforward_net(_t(x), params)
        np.testing.assert_allclose(out.data, [[2.5]], atol=1e-12)

    def test_random_matches_manual_chain(self):
        rng = np.random.default_rng(16)
        w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        w2, b2 = rng.normal(size=(4, 2)), rng.normal(size=(1, 2))
        w3, b3 = rng.normal(size=(2, 1)), rng.normal(size=(1, 1))
        x = rng.normal(size=(2, 3))
        out = models.feedforward_net(_t(x), self._params(w1, b1, w2, b2, w3, b3))
        h1 = np.maximum(x @ w1 + b1, 0.0)
        h2 = np.maximum(h1 @ w2 + b2, 0.0)
        assert max_rel_err(out.data, h2 @ w3 + b3) < 1e-12

    def test_width_mismatch_rejected(self):
        params = self._params(np.zeros((3, 4)), np.zeros((1, 4)), np.zeros((4, 2)),
                              np.zeros((1, 2)), np.zeros((2, 1)), np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            models.feedforward_net(_t(np.ones((1, 5))), params)


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
        xs = [_t(rng.normal(size=(1, INP))) for _ in range(3)]
        steps, final = models.unroll(spec, store.view("cell"), xs)
        h, c = _t(np.zeros((1, HID))), _t(np.zeros((1, HID)))
        for i, x in enumerate(xs):
            h, c = models.lstm_cell(x, h, c, store.view("cell"))
            np.testing.assert_array_equal(steps[i].data, h.data)
        np.testing.assert_array_equal(final.data, h.data)

    def test_bilstm_final_pairs_both_directions(self):
        rng = np.random.default_rng(18)
        store = ParameterStore()
        spec = ModelSpec(kind="bilstm", hidden=HID)
        models.add_model_params(store, spec, INP, rng)
        xs = [_t(rng.normal(size=(1, INP))) for _ in range(3)]
        steps, final = models.unroll(spec, store.view("cell"), xs)
        expected = bilstm_forward(xs, store.view("cell.fwd"),
                                         store.view("cell.bwd"))
        np.testing.assert_array_equal(final.data, expected.data)
        assert all(s.shape == (1, 2 * HID) for s in steps)

    def test_feedforward_cannot_unroll(self):
        with pytest.raises(ConfigError):
            models.unroll(ModelSpec(kind="feedforward"), {}, [_t(np.zeros((1, 2)))])
