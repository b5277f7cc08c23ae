"""Embedding, text convolution, attention weighting, and the fusion gate."""

import numpy as np
import pytest

import oracles
from oracles import conv1d_valid, max_rel_err, softmax_rows, taped

from trendfuse import fusion
from trendfuse import numerics as nm
from trendfuse.errors import ContractError, DivergenceError, ShapeError
from trendfuse.numerics import Tensor


def _stacked(feats):
    """A (B, m, H) candidate block of (B, H) rows."""
    return np.stack(feats, axis=1)


def _embed_params(w, b):
    return {"w_e": Tensor(np.asarray(w, dtype=float)),
            "b_e": Tensor(np.asarray(b, dtype=float))}


def _conv_params(kernel, bias):
    return {"w_c": Tensor(np.asarray(kernel, dtype=float)),
            "b_c": Tensor(np.array([[float(bias)]]))}


class TestEmbed:
    def test_identity_map(self):
        f = np.array([[1.0, -2.0, 3.0]])
        out = fusion.embed(f, _embed_params(np.eye(3), np.zeros((1, 3))))
        np.testing.assert_array_equal(out, f)

    def test_zero_input_gives_bias(self):
        b = np.array([[0.5, -0.5, 2.0]])
        out = fusion.embed(np.zeros((1, 3)), _embed_params(np.eye(3), b))
        np.testing.assert_array_equal(out, b)

    def test_random_affine_matches_manual(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(1, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=(1, 5))
        out = fusion.embed(f, _embed_params(w, b))
        expected = np.array([[sum(f[0, i] * w[i, j] for i in range(3)) + b[0, j]
                              for j in range(5)]])
        assert max_rel_err(out, expected) < 1e-12

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fusion.embed(np.ones((1, 4)), _embed_params(np.eye(3), np.zeros((1, 3))))


class TestConvText:
    def test_identity_kernel_is_relu(self):
        e = np.array([[-1.0, 2.0, -3.0, 4.0]])
        out = fusion.conv_text(e, _conv_params([1.0], 0.0))
        np.testing.assert_array_equal(out, np.maximum(e, 0.0))

    def test_hand_oracle_case(self):
        out = fusion.conv_text(np.array([[2.0, 4.0]]), _conv_params([0.5, 0.5], 0.0))
        np.testing.assert_array_equal(out, [[3.0]])
        np.testing.assert_array_equal(out[0], conv1d_valid([2.0, 4.0], [0.5, 0.5]))

    def test_negative_preactivation_clamps(self):
        out = fusion.conv_text(np.array([[1.0, 2.0, 3.0]]), _conv_params([0.0, 0.0], -1.0))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_output_length_law(self):
        rng = np.random.default_rng(1)
        for length in range(1, 8):
            for k in range(1, length + 1):
                e = rng.normal(size=(2, length))
                out = fusion.conv_text(e, _conv_params(rng.normal(size=k), 0.1))
                assert out.shape == (2, length - k + 1)
                assert fusion.conv_output_len(length, k) == length - k + 1

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ShapeError):
            fusion.conv_text(np.ones((1, 2)), _conv_params([1.0, 1.0, 1.0], 0.0))

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        e = rng.normal(size=6)
        k = rng.normal(size=3)
        b = 0.3
        out = fusion.conv_text(e.reshape(1, -1), _conv_params(k, b))
        expected = np.maximum(conv1d_valid(e, k, b), 0.0)
        assert max_rel_err(out[0], expected) < 1e-12


class TestFusedTextPathMatchesOracles:
    """The embedding and the convolution against their single-op
    compositions in `oracles`: values and every input's gradient."""

    def test_embed(self):
        rng = np.random.default_rng(80)
        arrays = {"f": rng.normal(size=(4, 5)), "w_e": rng.normal(size=(5, 6)),
                  "b_e": rng.normal(size=(1, 6))}
        oracles.assert_same_values_and_grads(lambda p: taped(fusion.embed)(p["f"], p),
                                             lambda p: oracles.embed(p["f"], p), arrays, seed=1)
        feature = Tensor(arrays.pop("f"))
        oracles.assert_same_values_and_grads(lambda p: taped(fusion.embed)(feature, p),
                                             lambda p: oracles.embed(feature, p), arrays, seed=2)

    @pytest.mark.parametrize("kernel_len", [1, 3, 6])
    def test_conv_text(self, kernel_len):
        rng = np.random.default_rng(81 + kernel_len)
        arrays = {"e": rng.normal(size=(4, 6)), "w_c": rng.normal(size=kernel_len),
                  "b_c": rng.normal(size=(1, 1))}
        arrays["e"][0] = -1.0 - np.abs(arrays["e"][0])  # rows where the ReLU is closed
        arrays["w_c"] = np.abs(arrays["w_c"])
        oracles.assert_same_values_and_grads(lambda p: taped(fusion.conv_text)(p["e"], p),
                                             lambda p: oracles.conv_text(p["e"], p),
                                             arrays, seed=3)
        embedded = Tensor(arrays.pop("e"))
        oracles.assert_same_values_and_grads(lambda p: taped(fusion.conv_text)(embedded, p),
                                             lambda p: oracles.conv_text(embedded, p),
                                             arrays, seed=4)


    @pytest.mark.parametrize("kernel_len", [1, 3, 6])
    def test_conv_text_with_replica_stacked_kernels(self, kernel_len):
        """(R, k) kernels over (R, B, E) rows: each replica gives its solo
        run, and each solo run matches the single-op composition."""
        rng = np.random.default_rng(91 + kernel_len)
        arrays = {"e": rng.normal(size=(2, 4, 6)), "w_c": rng.normal(size=(2, kernel_len)),
                  "b_c": rng.normal(size=(2, 1, 1))}
        oracles.assert_replicas_match_solo(lambda p: taped(fusion.conv_text)(p["e"], p),
                                           arrays, seed=5)
        for r in range(2):
            oracles.assert_same_values_and_grads(
                lambda p: taped(fusion.conv_text)(p["e"], p),
                lambda p: oracles.conv_text(p["e"], p), {k: v[r] for k, v in arrays.items()},
                seed=6 + r)


class TestAttentionOverFeatures:
    def test_single_candidate(self):
        q = np.array([[0.2, -0.4]])
        f = np.array([[3.0, 5.0]])
        alpha, context = fusion.attention_over_features(q, _stacked([f]))
        np.testing.assert_allclose(alpha, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(context, f, atol=1e-12)

    def test_zero_query_uniform_weights(self):
        rng = np.random.default_rng(3)
        feats = [rng.normal(size=(1, 4)) for _ in range(5)]
        alpha, _ = fusion.attention_over_features(np.zeros((1, 4)), _stacked(feats))
        np.testing.assert_allclose(alpha, np.full((1, 5), 0.2), atol=1e-12)

    def test_two_candidates_match_brute_force(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(1, 3))
        f1, f2 = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        alpha, context = fusion.attention_over_features(q, _stacked([f1, f2]))
        scores = np.array([[(q @ f1.T).item(), (q @ f2.T).item()]])
        weights = softmax_rows(scores)
        expected = weights[0, 0] * f1 + weights[0, 1] * f2
        assert max_rel_err(alpha, weights) < 1e-12
        assert max_rel_err(context, expected) < 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            q = rng.normal(size=(3, 4))
            feats = [rng.normal(size=(3, 4)) for _ in range(4)]
            alpha, _ = fusion.attention_over_features(q, _stacked(feats))
            np.testing.assert_allclose(alpha.sum(axis=1), np.ones(3), atol=1e-9)

    def test_context_in_convex_hull(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(1, 3))
        feats = [rng.normal(size=(1, 3)) for _ in range(4)]
        _, context = fusion.attention_over_features(q, _stacked(feats))
        stacked = np.vstack(feats)
        assert np.all(context >= stacked.min(axis=0) - 1e-12)
        assert np.all(context <= stacked.max(axis=0) + 1e-12)

    def test_errors(self):
        with pytest.raises(ContractError):
            fusion.attention_over_features(np.zeros((1, 2)), np.zeros((1, 0, 2)))
        with pytest.raises(ShapeError):
            fusion.attention_over_features(np.zeros((1, 2)), np.zeros((1, 1, 3)))


class TestFuse:
    def _params(self, gamma_raw):
        return {"gamma_raw": Tensor(np.array([[float(gamma_raw)]]))}

    def test_gate_open_limit(self):
        o = np.array([[2.0, -1.0]])
        c = np.array([[40.0, 10.0]])
        out = fusion.fuse(o, c, self._params(25.0))
        assert np.max(np.abs(out - o)) < 1e-6

    def test_gate_closed_limit(self):
        o = np.array([[2.0, -1.0]])
        c = np.array([[40.0, 10.0]])
        out = fusion.fuse(o, c, self._params(-25.0))
        assert np.max(np.abs(out - c)) < 1e-6

    def test_midpoint(self):
        out = fusion.fuse(np.array([[2.0]]), np.array([[4.0]]), self._params(0.0))
        np.testing.assert_allclose(out, [[3.0]], atol=1e-12)

    def test_componentwise_convexity(self):
        rng = np.random.default_rng(7)
        for gamma_raw in (-3.0, -0.5, 0.0, 1.2, 6.0):
            o = rng.normal(size=(2, 4))
            c = rng.normal(size=(2, 4))
            out = fusion.fuse(o, c, self._params(gamma_raw))
            lo, hi = np.minimum(o, c), np.maximum(o, c)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_projection_applied_when_widths_differ(self):
        params = self._params(25.0)
        params["proj_w"] = Tensor(np.ones((3, 2)))
        params["proj_b"] = Tensor(np.zeros((1, 2)))
        o = np.array([[1.0, 1.0]])
        c = np.array([[1.0, 2.0, 3.0]])
        out = fusion.fuse(o, c, params)
        assert np.max(np.abs(out - o)) < 1e-6  # gate fully open
        out_closed = fusion.fuse(o, c, {**params, "gamma_raw": Tensor([[-25.0]])})
        np.testing.assert_allclose(out_closed, [[6.0, 6.0]], atol=1e-5)

    def test_width_mismatch_without_projection_rejected(self):
        with pytest.raises(ShapeError):
            fusion.fuse(np.ones((1, 2)), np.ones((1, 3)),
                        self._params(0.0))

    def test_non_finite_rejected(self):
        with pytest.raises(DivergenceError):
            fusion.fuse(np.array([[np.nan]]), np.array([[1.0]]), self._params(0.0))

    def test_gradient_flows_through_gate(self):
        params = oracles.store_of({"gamma_raw": [[0.3]]})
        o = Tensor([[2.0, -1.0]])
        c = Tensor([[4.0, 3.0]])
        out = taped(fusion.fuse)(o, c, {"gamma_raw": params["gamma_raw"]})
        grads = oracles.gradients(nm.sum_(out), {"gamma_raw": params["gamma_raw"]})
        g = 1.0 / (1.0 + np.exp(-0.3))
        expected = g * (1 - g) * ((2.0 - 4.0) + (-1.0 - 3.0))
        np.testing.assert_allclose(grads["gamma_raw"], [[expected]], atol=1e-12)


class TestFusedTailMatchesOracles:
    """Attention pooling and the fusion gate against their single-op
    compositions in `oracles`: values and every input's gradient."""

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_attention(self, m):
        rng = np.random.default_rng(50 + m)
        arrays = {"q": rng.normal(size=(4, 3)), "feats": rng.normal(size=(4, m, 3))}
        for pick, seed in ((slice(None), 1), (slice(1, 2), 2), (slice(0, 1), 3)):
            # both outputs, the context alone (as the pipeline uses it), alpha alone
            oracles.assert_same_values_and_grads(
                lambda p: taped(fusion.attention_over_features)(p["q"], p["feats"])[pick],
                lambda p: oracles.attention_over_features(p["q"], p["feats"])[pick],
                arrays, seed=seed)

    def test_attention_with_the_query_among_the_candidates(self):
        # the query is read from the candidate block, so both gradients meet there
        rng = np.random.default_rng(54)
        arrays = {"feats": rng.normal(size=(4, 3, 3))}
        def query(p):
            return oracles.take(p["feats"], (slice(None), 2))

        oracles.assert_same_values_and_grads(
            lambda p: taped(fusion.attention_over_features)(query(p), p["feats"]),
            lambda p: oracles.attention_over_features(query(p), p["feats"]),
            arrays, seed=4)

    def test_attention_with_constant_query_or_candidates(self):
        rng = np.random.default_rng(55)
        q = Tensor(rng.normal(size=(4, 3)))
        feats = Tensor(rng.normal(size=(4, 3, 3)))
        oracles.assert_same_values_and_grads(
            lambda p: taped(fusion.attention_over_features)(q, p["feats"]),
            lambda p: oracles.attention_over_features(q, p["feats"]),
            {"feats": feats.data}, seed=5)
        oracles.assert_same_values_and_grads(
            lambda p: taped(fusion.attention_over_features)(p["q"], feats),
            lambda p: oracles.attention_over_features(p["q"], feats), {"q": q.data}, seed=6)

    @pytest.mark.parametrize("text_width", [4, 6], ids=["no_projection", "projection"])
    def test_fuse(self, text_width):
        rng = np.random.default_rng(56 + text_width)
        arrays = {"o": rng.normal(size=(5, 4)), "c": rng.normal(size=(5, text_width)),
                  "gamma_raw": rng.normal(size=(1, 1))}
        if text_width != 4:
            arrays.update(proj_w=rng.normal(size=(text_width, 4)),
                          proj_b=rng.normal(size=(1, 4)))
        oracles.assert_same_values_and_grads(lambda p: taped(fusion.fuse)(p["o"], p["c"], p),
                                             lambda p: oracles.fuse(p["o"], p["c"], p),
                                             arrays, seed=7)

    def test_fuse_with_frozen_gate_and_constant_text(self):
        rng = np.random.default_rng(63)
        text = Tensor(rng.normal(size=(5, 6)))
        frozen = {"gamma_raw": Tensor([[0.4]])}
        arrays = {"o": rng.normal(size=(5, 4)), "proj_w": rng.normal(size=(6, 4)),
                  "proj_b": rng.normal(size=(1, 4))}
        oracles.assert_same_values_and_grads(
            lambda p: taped(fusion.fuse)(p["o"], text, {**p, **frozen}),
            lambda p: oracles.fuse(p["o"], text, {**p, **frozen}), arrays, seed=8)
        oracles.assert_same_values_and_grads(
            lambda p: taped(fusion.fuse)(Tensor(arrays["o"]), p["c"], frozen),
            lambda p: oracles.fuse(Tensor(arrays["o"]), p["c"], frozen),
            {"c": rng.normal(size=(5, 4))}, seed=9)
