"""Transformer text encoder: tokenization, masking, attention, pretraining."""

import dataclasses
import hashlib
import math
import weakref
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import attention_rows, max_rel_err, self_attention, taped

from trendfuse import encoder as enc
from trendfuse import numerics as nm
from trendfuse.errors import ConfigError, ContractError, DataError, ParseError, ShapeError
from trendfuse.numerics import Tensor

TOY_CONFIG = enc.EncoderConfig(d_model=8, heads=2, layers=2, d_ff=16, max_len=12,
                               mask_rate=0.15)


def _vocab(corpus=("alpha beta gamma", "beta gamma delta"), similar=None):
    return enc.Vocabulary.build(corpus, similar)


class TestTokenize:
    def test_direct_lookup(self):
        vocab = _vocab(("a b",))
        ids = enc.tokenize("a b a", vocab, max_len=10)
        assert ids[0] == enc.START_ID
        a, b = vocab.id_for("a"), vocab.id_for("b")
        np.testing.assert_array_equal(ids, [enc.START_ID, a, b, a])

    def test_unknown_maps_to_unk(self):
        ids = enc.tokenize("alpha zz", _vocab(), max_len=10)
        assert enc.UNK_ID in ids

    def test_truncation_is_exact(self):
        ids = enc.tokenize("alpha " * 40, _vocab(), max_len=12)
        assert len(ids) == 12

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            enc.tokenize("   ", _vocab(), max_len=10)

    def test_cjk_falls_back_to_characters(self):
        vocab = enc.Vocabulary.build(["货币 policy"])
        pieces = enc.segment("货币 policy")
        assert pieces == ["货", "币", "policy"]
        assert vocab.id_for("货") != enc.UNK_ID


class TestSegmentMatchesOracle:
    """The compiled CJK pattern against the per-character reference."""

    @pytest.mark.parametrize("text", [
        "rates rise as the central bank tightens policy",
        "货币政策 policy 稳健",
        "abc货 def 政策rates x",
        "", "   ", "\t\n \u3000 ",
    ])
    def test_examples(self, text):
        assert enc.segment(text) == oracles.segment(text)

    @pytest.mark.parametrize("lo, hi", enc._CJK_RANGES)
    def test_range_endpoints_and_neighbours(self, lo, hi):
        for cp in (lo, hi):
            chunk = f"a{chr(cp)}b"
            assert enc.segment(chunk) == oracles.segment(chunk) == ["a", chr(cp), "b"]
        for cp in (lo - 1, hi + 1):
            if not any(a <= cp <= b for a, b in enc._CJK_RANGES):
                chunk = f"a{chr(cp)}b"
                assert enc.segment(chunk) == oracles.segment(chunk) == [chunk]

    @given(st.text(alphabet=st.sampled_from(
        [" ", "a", "Z", "\u3000", "\u33ff", "\u4dc0", "\ua000", "\ufb00", "货", "币"]
        + [chr(cp) for lo, hi in enc._CJK_RANGES for cp in (lo, hi)]), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_random_mixtures(self, text):
        assert enc.segment(text) == oracles.segment(text)


class TestMacMask:
    def test_count_contract(self):
        vocab = _vocab()
        tokens = np.array([enc.START_ID] + [4] * 10, dtype=np.int64)
        rng = np.random.default_rng(0)
        _, positions, targets = enc.similar_word_mask(tokens, vocab, rng, mask_rate=0.15)
        assert len(positions) == math.ceil(0.15 * 10) == 2
        assert len(targets) == 2

    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=40),
           st.floats(min_value=0.05, max_value=0.9))
    def test_count_law_over_lengths(self, n, rate):
        vocab = _vocab()
        tokens = np.array([enc.START_ID] + [4] * n, dtype=np.int64)
        rng = np.random.default_rng(1)
        _, positions, _ = enc.similar_word_mask(tokens, vocab, rng, mask_rate=rate)
        assert len(positions) == math.ceil(rate * n)

    def test_similar_word_replacement_stays_in_candidates(self):
        corpus = ("up down flat rise fall",)
        similar = {"up": ["rise"], "down": ["fall"]}
        vocab = enc.Vocabulary.build(corpus, similar)
        up = vocab.id_for("up")
        tokens = np.array([enc.START_ID] + [up] * 8, dtype=np.int64)
        rng = np.random.default_rng(3)
        corrupted, positions, targets = enc.similar_word_mask(tokens, vocab, rng, mask_rate=0.5)
        np.testing.assert_array_equal(targets, [up] * len(positions))
        for pos in positions:
            if corrupted[pos] != up:  # 10% may stay unchanged
                assert corrupted[pos] in vocab.similar[up]

    def test_seed_determinism(self):
        vocab = _vocab()
        tokens = enc.tokenize("alpha beta gamma delta alpha beta", vocab, 12)
        a = enc.similar_word_mask(tokens, vocab, np.random.default_rng(42))
        b = enc.similar_word_mask(tokens, vocab, np.random.default_rng(42))
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_single_maskable_token(self):
        vocab = _vocab()
        tokens = np.array([enc.START_ID, 4], dtype=np.int64)
        _, positions, _ = enc.similar_word_mask(tokens, vocab, np.random.default_rng(0), 0.15)
        assert len(positions) == 1

    @pytest.mark.parametrize("n, rate", [(1, 0.15), (3, 0.5), (10, 0.15), (23, 0.3),
                                         (40, 0.9)])
    def test_span_draws_match_rng_choice(self, n, rate):
        vocab = enc.Vocabulary.build(("up down flat rise fall",),
                                     {"up": ["rise", "fall"], "down": ["fall"]})
        for seed in range(250):
            body = np.random.default_rng(seed + 10_000).integers(enc.NUM_SPECIALS,
                                                                 vocab.size, n)
            tokens = np.concatenate([[enc.START_ID], body])
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = enc.similar_word_mask(tokens, vocab, rng, rate)
            want = oracles.similar_word_mask(tokens, vocab, reference, rate)
            for left, right in zip(got, want):
                np.testing.assert_array_equal(left, right)
            assert rng.bit_generator.state == reference.bit_generator.state


class TestMlmLoss:
    def test_perfect_prediction_zero(self):
        pred = Tensor([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        loss = enc.mlm_loss(pred, np.array([1, 2]), np.array([1, 0]))
        assert loss.data.item() == 0.0

    def test_uniform_over_four(self):
        pred = Tensor([[0.25] * 4])
        loss = enc.mlm_loss(pred, np.array([1]), np.array([2]))
        np.testing.assert_allclose(loss.data.item(), math.log(4), atol=1e-12)

    def test_n_targets_uniform_vocab(self):
        n, v = 5, 7
        pred = Tensor(np.full((n, v), 1.0 / v))
        loss = enc.mlm_loss(pred, np.arange(n), np.zeros(n, dtype=int))
        np.testing.assert_allclose(loss.data.item(), n * math.log(v), atol=1e-9)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            enc.mlm_loss(Tensor([[0.5, 0.5]]), np.array([1, 2]), np.array([0, 1]))

    def test_non_distribution_rejected(self):
        with pytest.raises(ContractError):
            enc.mlm_loss(Tensor([[0.9, 0.9]]), np.array([1]), np.array([0]))


class TestPositionalEncoding:
    def test_row_zero_alternates(self):
        pe = enc.positional_encoding(6, 8)
        np.testing.assert_array_equal(pe[0, 0::2], np.zeros(4))
        np.testing.assert_array_equal(pe[0, 1::2], np.ones(4))

    def test_pos_one_first_column(self):
        pe = enc.positional_encoding(4, 8)
        np.testing.assert_allclose(pe[1, 0], math.sin(1.0), atol=1e-12)

    def test_bounded(self):
        pe = enc.positional_encoding(50, 16)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            enc.positional_encoding(4, 7)

    def test_table_is_built_once_and_read_only(self):
        pe = enc.positional_encoding(6, 8)
        assert enc.positional_encoding(6, 8) is pe
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0


class TestSelfAttention:
    def test_single_row_returns_value(self):
        q = Tensor([[0.3, -0.2]])
        v = Tensor([[5.0, 7.0]])
        out = self_attention(q, Tensor([[1.0, 1.0]]), v)
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(5)
        k = Tensor(np.tile(rng.normal(size=(1, 3)), (4, 1)))
        v = Tensor(rng.normal(size=(4, 3)))
        q = Tensor(rng.normal(size=(2, 3)))
        out = self_attention(q, k, v)
        expected = np.tile(v.data.mean(axis=0), (2, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(2, 2)) for _ in range(3))
        out = self_attention(Tensor(q), Tensor(k), Tensor(v))
        assert max_rel_err(out.data, attention_rows(q, k, v)) < 1e-12

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            self_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))),
                           Tensor(np.ones((2, 2))))

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.normal(size=(3, 4))
            scores = oracles.softmax(Tensor(x)).data
            np.testing.assert_allclose(scores.sum(axis=1), np.ones(3), atol=1e-9)


class TestMultiHead:
    def _identity_params(self, d):
        eye = np.eye(d)
        return {"wqkv": Tensor(np.stack([eye] * 3)), "wo": Tensor(eye)}

    def test_single_head_identity_reduces_to_attention(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        out = oracles.attention(Tensor(x), self._identity_params(4), 1)
        expected = self_attention(Tensor(x), Tensor(x), Tensor(x))
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_output_shape(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(5, 8)))
        params = {"wqkv": Tensor(rng.normal(size=(3, 8, 8))),
                  "wo": Tensor(rng.normal(size=(8, 8)))}
        for heads in (1, 2, 4, 8):
            assert oracles.attention(x, params, heads).shape == (5, 8)

    def test_two_heads_match_per_head_oracle(self):
        rng = np.random.default_rng(10)
        d, h = 4, 2
        x = rng.normal(size=(3, d))
        params = {"wqkv": rng.normal(size=(3, d, d)), "wo": rng.normal(size=(d, d))}
        out = oracles.attention(Tensor(x), {k: Tensor(v) for k, v in params.items()}, h)
        q, k, v = (x @ w for w in params["wqkv"])
        dk = d // h
        heads = [attention_rows(q[:, i * dk:(i + 1) * dk], k[:, i * dk:(i + 1) * dk],
                                v[:, i * dk:(i + 1) * dk]) for i in range(h)]
        expected = np.concatenate(heads, axis=1) @ params["wo"]
        assert max_rel_err(out.data, expected) < 1e-12

    def test_indivisible_width_rejected(self):
        x = Tensor(np.ones((2, 6)))
        params = {"wqkv": Tensor(np.ones((3, 6, 6))), "wo": Tensor(np.ones((6, 6)))}
        with pytest.raises(ConfigError):
            oracles.attention(x, params, 4)


class TestQkvBlock:
    """Each layer stores its q, k and v projections as one (3, d, d)
    parameter, `wqkv`; its products are bitwise the per-matrix ones."""

    PROJECTIONS = ("wq", "wk", "wv")

    @pytest.mark.parametrize("length", [1, 5, TOY_CONFIG.max_len])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_block_products_are_the_per_matrix_products(self, heads, length):
        rng = np.random.default_rng(40 + 10 * heads + length)
        d = TOY_CONFIG.d_model
        matrices = {w: rng.normal(size=(d, d)) for w in (*self.PROJECTIONS, "wo")}
        store = oracles.store_of({"wqkv": np.stack([matrices[w] for w in self.PROJECTIONS]),
                                  "wo": matrices["wo"]})
        x, g = rng.normal(size=(length, d)), rng.normal(size=(length, d))
        saved = []
        out = enc._attend(x, store["wqkv"], store["wo"], heads, saved)
        d_x = enc._attend_back(g, saved)
        assert not saved
        expected = oracles.attention_per_matrix(x, matrices, heads, g)
        got = (out, d_x, *store["wqkv"].grad, store["wo"].grad)
        for name, a, b in zip(("out", "x", *self.PROJECTIONS, "wo"), got, expected):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_batched_forward_is_the_per_text_rows(self, heads):
        config = dataclasses.replace(TOY_CONFIG, heads=heads)
        rng = np.random.default_rng(50 + heads)
        params = nm.ParameterStore(enc.encoder_layout(config, 9), rng)
        ids = rng.integers(enc.NUM_SPECIALS, 9, size=(2, 3, 7))
        ids[..., 0] = enc.START_ID
        rows, pooled = enc.encode_text(ids, config, params)
        assert rows.shape == (2, 3, 7, config.d_model)
        for index in np.ndindex(2, 3):
            one_rows, one_pooled = enc.encode_text(ids[index], config, params)
            assert rows[index].tobytes() == one_rows.tobytes()
            assert pooled[index].tobytes() == one_pooled.tobytes()


class TestLayerNormAndFfn:
    def _plain(self, x):
        d = x.shape[1]
        return oracles.layer_norm(Tensor(x), Tensor(np.ones((1, d))),
                                  Tensor(np.zeros((1, d))))

    def test_constant_row_maps_to_zero(self):
        out = self._plain(np.full((2, 4), 3.7))
        np.testing.assert_allclose(out.data, np.zeros((2, 4)), atol=1e-12)

    def test_two_point_row(self):
        out = self._plain(np.array([[1.0, 3.0]]))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-9)

    def test_rows_standardized_before_affine(self):
        rng = np.random.default_rng(11)
        out = self._plain(rng.normal(size=(20, 8))).data
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(20), atol=1e-9)
        np.testing.assert_allclose(out.std(axis=1), np.ones(20), atol=1e-9)

    def test_ffn_zero_weights_passes_bias(self):
        params = {"w1": Tensor(np.zeros((4, 6))), "b1": Tensor(np.zeros((1, 6))),
                  "w2": Tensor(np.zeros((6, 4))), "b2": Tensor(np.full((1, 4), 2.5))}
        out = taped(enc._feed_forward)(Tensor(np.ones((3, 4))), params)
        np.testing.assert_array_equal(out.data, np.full((3, 4), 2.5))

    def test_encoder_layer_finite(self):
        rng = np.random.default_rng(12)
        params = nm.ParameterStore(enc.encoder_layout(TOY_CONFIG, 10), rng)
        x = Tensor(rng.normal(size=(5, 8)) * 3)
        out = oracles.encoder_layer(x, params.view("layer0"), TOY_CONFIG.heads)
        assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("length", [1, TOY_CONFIG.max_len])
class TestFusedSublayersMatchOracles:
    """Each fused sublayer against its single-op composition in `oracles`."""

    D = TOY_CONFIG.d_model

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_multi_head_attention(self, length, heads):
        rng = np.random.default_rng(20 + heads)
        arrays = {"x": rng.normal(size=(length, self.D)),
                  "wqkv": rng.normal(size=(3, self.D, self.D)),
                  "wo": rng.normal(size=(self.D, self.D))}
        oracles.assert_same_values_and_grads(
            lambda p: oracles.attention(p["x"], p, heads),
            lambda p: oracles.composed_multi_head_attention(p["x"], p, heads), arrays,
            seed=heads)

    def test_residual_layer_norm_with_floored_row(self, length):
        rng = np.random.default_rng(24)
        arrays = {"x": rng.normal(size=(length, self.D)) * 2.0,
                  "sub": rng.normal(size=(length, self.D)),
                  "g": rng.normal(size=(1, self.D)), "b": rng.normal(size=(1, self.D))}
        # rows whose variance sits on the eps floor: a constant one and, at
        # full length, one with a spread of ~1e-4
        arrays["x"][0], arrays["sub"][0] = 1.5, -0.25
        if length > 1:
            arrays["x"][-1] = 0.5 + 1e-4 * rng.normal(size=self.D)
        oracles.assert_same_values_and_grads(
            lambda p: oracles.layer_norm(p["x"], p["g"], p["b"], p["sub"]),
            lambda p: oracles.composed_layer_norm(p["x"], p["g"], p["b"], p["sub"]), arrays,
            seed=5)
        del arrays["sub"]
        oracles.assert_same_values_and_grads(
            lambda p: oracles.layer_norm(p["x"], p["g"], p["b"]),
            lambda p: oracles.composed_layer_norm(p["x"], p["g"], p["b"]), arrays, seed=6)

    def test_feed_forward(self, length):
        rng = np.random.default_rng(25)
        d, dff = self.D, TOY_CONFIG.d_ff
        arrays = {"x": rng.normal(size=(length, d)),
                  "w1": rng.normal(size=(d, dff)), "b1": rng.normal(size=(1, dff)),
                  "w2": rng.normal(size=(dff, d)), "b2": rng.normal(size=(1, d))}
        oracles.assert_same_values_and_grads(lambda p: taped(enc._feed_forward)(p["x"], p),
                                             lambda p: oracles.composed_feed_forward(p["x"], p),
                                             arrays, seed=7)

    def test_mlm_loss_with_zero_probability_target(self, length):
        rng = np.random.default_rng(26)
        logits = rng.normal(size=(length, 10))
        targets = rng.integers(0, 10, size=length)
        logits[0, targets[0]] = -1000.0  # underflows: probability exactly 0
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert p[0, targets[0]] == 0.0
        positions = np.arange(length)
        oracles.assert_same_values_and_grads(
            lambda q: enc.mlm_loss(q["p"], positions, targets),
            lambda q: oracles.mlm_loss(q["p"], targets), {"p": p}, seed=8)
        leaf = Tensor(p, requires_grad=True)
        grad = oracles.gradients(enc.mlm_loss(leaf, positions, targets), {"p": leaf})["p"]
        assert grad[0, targets[0]] == 0.0


class TestEncodeText:
    def _setup(self, seed=13):
        vocab = _vocab(("alpha beta gamma delta", "beta delta alpha"))
        rng = np.random.default_rng(seed)
        params = nm.ParameterStore(enc.encoder_layout(TOY_CONFIG, vocab.size), rng)
        return vocab, params

    def test_pooled_width(self):
        vocab, params = self._setup()
        tokens = enc.tokenize("alpha beta", vocab, TOY_CONFIG.max_len)
        _, pooled = enc.encode_text(tokens, TOY_CONFIG, params)
        assert pooled.shape == (1, TOY_CONFIG.d_model)

    def test_deterministic(self):
        vocab, params = self._setup()
        tokens = enc.tokenize("alpha beta gamma", vocab, TOY_CONFIG.max_len)
        _, a = enc.encode_text(tokens, TOY_CONFIG, params)
        _, b = enc.encode_text(tokens, TOY_CONFIG, params)
        np.testing.assert_array_equal(a, b)

    def test_token_order_changes_pooled_vector(self):
        vocab, params = self._setup()
        a = enc.tokenize("alpha beta gamma", vocab, TOY_CONFIG.max_len)
        b = enc.tokenize("beta alpha gamma", vocab, TOY_CONFIG.max_len)
        _, pa = enc.encode_text(a, TOY_CONFIG, params)
        _, pb = enc.encode_text(b, TOY_CONFIG, params)
        assert np.max(np.abs(pa - pb)) > 1e-9

    def test_contract_errors(self):
        vocab, params = self._setup()
        with pytest.raises(ContractError):
            enc.encode_text(np.array([4, 5]), TOY_CONFIG, params)
        too_long = np.array([enc.START_ID] + [4] * TOY_CONFIG.max_len)
        with pytest.raises(ContractError):
            enc.encode_text(too_long, TOY_CONFIG, params)
        block = np.array([[enc.START_ID, 4], [4, enc.START_ID]])
        with pytest.raises(ContractError):
            enc.encode_text(block, TOY_CONFIG, params)

    def test_pretraining_tape_has_one_node_per_sublayer(self):
        vocab, params = self._setup()
        tokens = enc.tokenize("alpha beta gamma delta alpha beta", vocab, TOY_CONFIG.max_len)
        corrupted, positions, targets = enc.similar_word_mask(
            tokens, vocab, np.random.default_rng(0), 0.3)
        rows, _ = oracles.encode_text(corrupted, TOY_CONFIG, params)
        loss = enc.mlm_loss(oracles.mlm_predictions(rows, positions, params), positions, targets)
        # parameter leaves + embedding lookup, position table and their add
        # + 4 sublayers per layer + head (row gather, matmul, bias, softmax) + loss
        assert oracles.tape_size(loss) == len(oracles.names(params)) + 3 + 4 * TOY_CONFIG.layers + 4 + 1

    def test_mean_pool_flag(self):
        vocab, params = self._setup()
        cfg = enc.EncoderConfig(d_model=8, heads=2, layers=2, d_ff=16, max_len=12,
                                pool="mean")
        tokens = enc.tokenize("alpha beta gamma", vocab, cfg.max_len)
        rows, pooled = enc.encode_text(tokens, cfg, params)
        np.testing.assert_allclose(pooled, rows.mean(axis=0, keepdims=True), atol=1e-12)


class TestMlmStep:
    """The tape-free step against the same sentence's tape (`oracles.mlm_tape_loss`):
    the loss and every parameter's gradient are bitwise equal."""

    VOCAB = 7  # three ordinary tokens, so ids repeat

    def _case(self, config, length, seed, masked=None):
        rng = np.random.default_rng(seed)
        params = nm.ParameterStore(enc.encoder_layout(config, self.VOCAB), rng)
        ids = np.concatenate([[enc.START_ID],
                              rng.integers(enc.NUM_SPECIALS, self.VOCAB, length - 1)])
        count = masked or int(rng.integers(1, length))
        positions = np.sort(rng.choice(np.arange(1, length), size=count, replace=False))
        targets = rng.integers(enc.NUM_SPECIALS, self.VOCAB, size=count)
        return params, ids, positions, targets

    def _assert_step_equals_tape(self, config, params, ids, positions, targets):
        loss = oracles.mlm_tape_loss(ids, positions, targets, config, params)
        # both sides add into the store's zeroed gradient, whose views the
        # parameters' gradients and each layer's Q/K/V block are
        params.grad.fill(0.0)
        nm.backward(loss)
        tape = {name: t.grad.copy() for name, t in params.items()}
        params.grad.fill(0.0)
        assert enc.mlm_step(ids, positions, targets, config, params) == loss.data.item()
        for name, t in params.items():
            assert t.grad.tobytes() == tape[name].tobytes(), name

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_every_length(self, heads, layers):
        config = dataclasses.replace(TOY_CONFIG, heads=heads, layers=layers)
        for length in range(2, config.max_len + 1):
            self._assert_step_equals_tape(
                config, *self._case(config, length, seed=100 * heads + 10 * layers + length))

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_one_masked_position_and_a_target_under_the_floor(self, heads, layers):
        config = dataclasses.replace(TOY_CONFIG, heads=heads, layers=layers)
        for masked in (1, 3):
            params, ids, positions, targets = self._case(config, config.max_len,
                                                         seed=heads + layers, masked=masked)
            params["mlm.b"].data[0, targets[0]] = -1000.0  # exp underflows to 0
            rows, _ = enc.encode_text(ids, config, params)
            probs = enc.mlm_predictions(rows, positions, params)
            assert probs[0, targets[0]] < enc.PROB_FLOOR
            self._assert_step_equals_tape(config, params, ids, positions, targets)

    def test_rows_that_do_not_sum_to_one_are_a_contract_error(self, monkeypatch):
        params, ids, positions, targets = self._case(TOY_CONFIG, 5, seed=3)
        monkeypatch.setattr(nm, "softmax_probs", lambda logits: np.full_like(logits, 0.5))
        with pytest.raises(ContractError, match="sum to 1"):
            enc.mlm_step(ids, positions, targets, TOY_CONFIG, params)


PINNED_CORPUS = ["alpha beta gamma delta", "beta gamma delta alpha epsilon",
                 "gamma delta alpha", "delta alpha beta gamma epsilon zeta",
                 "货币 政策 alpha beta"]


class TestPretrain:
    def test_zero_epochs_keeps_initialization(self):
        corpus = ["alpha beta gamma", "beta gamma delta", "gamma delta alpha"]
        params, vocab, trace = enc.pretrain_mlm(corpus, TOY_CONFIG, epochs=0, seed=5)
        fresh = nm.ParameterStore(enc.encoder_layout(TOY_CONFIG, vocab.size),
                                  np.random.default_rng(5))
        assert trace == []
        for name in oracles.names(params):
            np.testing.assert_array_equal(params[name].data, fresh[name].data)

    def test_seed_determinism(self):
        corpus = ["alpha beta gamma", "beta gamma delta"]
        _, _, t1 = enc.pretrain_mlm(corpus, TOY_CONFIG, epochs=3, seed=9)
        _, _, t2 = enc.pretrain_mlm(corpus, TOY_CONFIG, epochs=3, seed=9)
        assert t1 == t2

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            enc.pretrain_mlm([], TOY_CONFIG, epochs=1, seed=0)

    def test_two_epoch_loss_trace_is_pinned(self):
        _, _, trace = enc.pretrain_mlm(PINNED_CORPUS, TOY_CONFIG, epochs=2, seed=4)
        assert trace == [3.0020261598910616, 2.7321265895751754]

    def test_each_sentence_goes_through_encode_text_and_builds_no_tape(self, monkeypatch):
        calls = []
        encode_text = enc.encode_text

        def record(token_ids, config, params, saved=None):
            calls.append(len(token_ids))
            return encode_text(token_ids, config, params, saved)

        def refuse(*args):
            raise AssertionError("mlm_loss called")

        monkeypatch.setattr(enc, "encode_text", record)
        monkeypatch.setattr(enc, "mlm_loss", refuse)
        enc.pretrain_mlm(PINNED_CORPUS, TOY_CONFIG, epochs=2, seed=4)
        vocab = enc.Vocabulary.build(PINNED_CORPUS)
        lengths = [len(enc.tokenize(t, vocab, TOY_CONFIG.max_len)) for t in PINNED_CORPUS]
        assert calls == lengths * 2

    @pytest.mark.parametrize("similar", [None, {"alpha": ["beta", "zeta"], "gamma": ["delta"],
                                                "货币": ["政策"]}],
                             ids=["no_table", "similar_words"])
    def test_matches_the_tape_loop(self, similar):
        corpus = ["alpha beta gamma delta", "beta gamma delta alpha epsilon", "  ",
                  "gamma delta alpha", "delta alpha beta gamma epsilon zeta eta theta iota "
                  "kappa lambda mu nu", "货币 政策 alpha beta", "zeta"]
        config = dataclasses.replace(TOY_CONFIG, mask_rate=0.3)
        for seed in range(4):
            params, vocab, trace = enc.pretrain_mlm(corpus, config, 3, seed, similar)
            ref_params, ref_vocab, ref_trace = oracles.pretrain_mlm(corpus, config, 3, seed,
                                                                    similar)
            assert vocab == ref_vocab and trace == ref_trace
            for name, t in ref_params.items():
                assert params[name].data.tobytes() == t.data.tobytes(), (seed, name)

    def test_max_len_one_leaves_nothing_to_mask(self):
        config = dataclasses.replace(TOY_CONFIG, max_len=1)
        with pytest.raises(ConfigError, match="max_len"):
            enc.pretrain_mlm(["alpha beta", "beta gamma"], config, epochs=2, seed=1)
        _, _, trace = enc.pretrain_mlm(["alpha beta", "beta gamma"], config, epochs=0, seed=1)
        assert trace == []

    def test_zero_epochs_tokenizes_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tokenize called")

        monkeypatch.setattr(enc, "tokenize", refuse)
        _, _, trace = enc.pretrain_mlm(["alpha beta", "beta gamma"], TOY_CONFIG, 0, seed=1)
        assert trace == []


class TestEncodeFeatures:
    """The batched featurizer against the encoder on the tape, text by text, bitwise."""

    WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "货", "币")

    def _setup(self, config=TOY_CONFIG, seed=17):
        vocab = _vocab((" ".join(self.WORDS),))
        rng = np.random.default_rng(seed)
        params = nm.ParameterStore(enc.encoder_layout(config, vocab.size), rng)
        for _, t in params.items():  # move the gains and biases off 1 and 0
            t.data += 0.1 * rng.normal(size=t.shape)
        return vocab, params

    def _texts(self, seed, count, words):
        rng = np.random.default_rng(seed)
        return [" ".join(rng.choice(self.WORDS, size=words)) for _ in range(count)]

    def _assert_tape_equal(self, texts, config=TOY_CONFIG, length=TOY_CONFIG.d_model):
        vocab, params = self._setup(config)
        got = enc.encode_features(texts, vocab, config, params, length)
        want = []
        for text in texts:
            _, pooled = oracles.encode_text(enc.tokenize(text, vocab, config.max_len),
                                            config, params)
            want.append(enc.standardize_features(pooled.data, length))
        want = np.stack(want)
        assert got.shape == want.shape == (len(texts), length)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("pool", ["start", "mean"])
    @pytest.mark.parametrize("length", [3, TOY_CONFIG.d_model, 20])
    def test_several_lengths_keep_input_order(self, pool, length):
        config = dataclasses.replace(TOY_CONFIG, pool=pool)
        texts = [t for n in (3, 1, 6, 3, 10, 1) for t in self._texts(n, 2, n)]
        rows = self._assert_tape_equal(texts, config, length)
        vocab, params = self._setup(config)
        reversed_rows = enc.encode_features(texts[::-1], vocab, config, params, length)
        assert reversed_rows.tobytes() == rows[::-1].tobytes()

    @pytest.mark.parametrize("pool", ["start", "mean"])
    def test_group_larger_than_one_chunk(self, pool):
        config = dataclasses.replace(TOY_CONFIG, pool=pool)
        texts = self._texts(30, enc.FEATURIZE_CHUNK + 9, 5)
        rows = self._assert_tape_equal(texts, config)
        assert len({row.tobytes() for row in rows}) > 1

    def test_chunks_run_without_a_tape(self, monkeypatch):
        vocab, params = self._setup()
        pooled_blocks = []
        encode_text = enc.encode_text

        def record(*args):
            rows, pooled = encode_text(*args)
            pooled_blocks.append(pooled)
            return rows, pooled

        monkeypatch.setattr(enc, "encode_text", record)
        enc.encode_features(self._texts(33, enc.FEATURIZE_CHUNK + 8, 4), vocab, TOY_CONFIG,
                            params, 4)
        assert [p.shape for p in pooled_blocks] == [
            (enc.FEATURIZE_CHUNK, 1, TOY_CONFIG.d_model), (8, 1, TOY_CONFIG.d_model)]
        assert all(type(p) is np.ndarray for p in pooled_blocks)

    def test_attention_arrays_are_freed_before_the_feed_forward(self, monkeypatch):
        vocab, params = self._setup()
        attend, feed_forward = enc._attend, enc._feed_forward
        alive = []

        def recorded(fn):
            def spy(*args):
                out = fn(*args)
                # the array that owns the memory: a view kept alive (q, k
                # or v of the projection, say) keeps its owner alive
                alive[-1].append(weakref.ref(out if out.base is None else out.base))
                return out
            return spy

        def attend_spy(*args):
            alive.append([])
            return recorded(attend)(*args)

        def feed_forward_spy(*args):
            # the Q/K/V projection that q, k and v view, the attention
            # weights, the merged heads and the output
            assert len(alive[-1]) == 4
            assert all(ref() is None for ref in alive[-1])
            return feed_forward(*args)

        monkeypatch.setattr(enc, "_attend", attend_spy)
        monkeypatch.setattr(enc, "_split_heads", recorded(enc._split_heads))
        monkeypatch.setattr(enc, "_merge_heads", recorded(enc._merge_heads))
        monkeypatch.setattr(nm, "softmax_probs", recorded(nm.softmax_probs))
        monkeypatch.setattr(enc, "_feed_forward", feed_forward_spy)
        enc.encode_features(self._texts(34, 5, 6), vocab, TOY_CONFIG, params, 4)
        assert len(alive) == TOY_CONFIG.layers

    def test_texts_truncated_at_max_len(self):
        long = self._texts(31, 4, 3 * TOY_CONFIG.max_len)
        rows = self._assert_tape_equal(long + self._texts(32, 3, 4))
        vocab, params = self._setup()
        cut = [" ".join(t.split()[:TOY_CONFIG.max_len - 1]) for t in long]
        assert enc.encode_features(cut, vocab, TOY_CONFIG, params,
                                   TOY_CONFIG.d_model).tobytes() == rows[:4].tobytes()

    @pytest.mark.parametrize("text", ["gamma", "货币 alpha 币 beta"])
    def test_single_text_and_encode_feature(self, text):
        row = self._assert_tape_equal([text])[0]
        vocab, params = self._setup()
        assert enc.encode_feature(text, vocab, TOY_CONFIG, params,
                                  TOY_CONFIG.d_model).tobytes() == row.tobytes()

    @pytest.mark.parametrize("pool, digest", [
        ("start", "33900b7fa329e05a351b2c69e1e557f02e0d4652d4462d375d042c367a3fcfba"),
        ("mean", "f0f39c3e3a1dbce14fa577898e14c00f03bc48b7f1a8d7099e008c82164d290f"),
    ])
    def test_rows_of_the_pinned_encoder_are_pinned(self, pool, digest):
        params, vocab, _ = enc.pretrain_mlm(PINNED_CORPUS, TOY_CONFIG, epochs=2, seed=4)
        texts = (PINNED_CORPUS + ["zeta", "omega alpha unknown 货币 words",
                                  " ".join(["beta", "gamma"] * 10)] + PINNED_CORPUS[::-1])
        config = dataclasses.replace(TOY_CONFIG, pool=pool)
        rows = enc.encode_features(texts, vocab, config, params, TOY_CONFIG.d_model)
        assert rows.shape == (13, TOY_CONFIG.d_model)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_position_table_follows_the_texts_not_max_len(self, monkeypatch):
        config = dataclasses.replace(TOY_CONFIG, max_len=10 ** 6)
        vocab, params = self._setup(config)
        requested = []
        table = enc.positional_encoding

        def spy(length, d_model):
            requested.append(length)
            assert length <= 1024, f"a table of {length} rows"
            return table(length, d_model)

        monkeypatch.setattr(enc, "positional_encoding", spy)
        # 2, 3, 4, 8, 9, 10 and 41 tokens: each table is the next power of two
        texts = [t for n in (1, 2, 3, 7, 8, 9, 40) for t in self._texts(n, 2, n)]
        rows = enc.encode_features(texts, vocab, config, params, 8)
        monkeypatch.undo()
        assert sorted(set(requested)) == [2, 4, 8, 16, 64]
        want = enc.encode_features(texts, vocab, dataclasses.replace(config, max_len=64),
                                   params, 8)
        assert rows.tobytes() == want.tobytes()

    def test_empty_input_rejected(self):
        vocab, params = self._setup()
        with pytest.raises(ContractError):
            enc.encode_features([], vocab, TOY_CONFIG, params, 4)
        with pytest.raises(ContractError):
            enc.encode_features(["alpha", "  "], vocab, TOY_CONFIG, params, 4)


class TestStandardizeFeatures:
    def test_exact_fit(self):
        pooled = np.arange(8.0)
        np.testing.assert_array_equal(enc.standardize_features(pooled, 8), pooled)

    def test_padding(self):
        out = enc.standardize_features(np.arange(8.0), 12)
        np.testing.assert_array_equal(out[8:], np.zeros(4))
        assert len(out) == 12

    def test_truncation(self):
        out = enc.standardize_features(np.arange(8.0), 5)
        np.testing.assert_array_equal(out, np.arange(5.0))

    def test_bad_length_rejected(self):
        with pytest.raises(ConfigError):
            enc.standardize_features(np.arange(8.0), 0)


class TestPersistence:
    def test_encoder_checkpoint_round_trip(self, tmp_path):
        corpus = ["alpha beta gamma", "beta gamma delta"]
        params, vocab, _ = enc.pretrain_mlm(corpus, TOY_CONFIG, epochs=1, seed=2)
        path = tmp_path / "encoder.json"
        enc.save_encoder(path, TOY_CONFIG, vocab, params)
        cfg2, vocab2, params2 = enc.load_encoder(path)
        assert cfg2 == TOY_CONFIG
        assert vocab2.id_to_token == vocab.id_to_token
        for name in oracles.names(params):
            np.testing.assert_array_equal(params2[name].data, params[name].data)

    def test_special_tokens_are_never_similar_words(self, tmp_path):
        similar = {"alpha": ["<s>", "beta", "<mask>", "omega"], "gamma": ["<pad>"]}
        params, vocab, _ = enc.pretrain_mlm(["alpha beta gamma"], TOY_CONFIG, 0, 1, similar)
        assert vocab.similar == {vocab.id_for("alpha"): (vocab.id_for("beta"),)}
        enc.save_encoder(tmp_path / "encoder.json", TOY_CONFIG, vocab, params)
        assert enc.load_encoder(tmp_path / "encoder.json")[1].similar == vocab.similar

    def test_feature_csv_round_trip_and_validation(self, tmp_path):
        dates = (date(2023, 1, 4), date(2023, 1, 3))
        block = np.array([[1.5, 2.5, -3.5], [0.1, -0.2, 0.3]])
        path = tmp_path / "features.csv"
        enc.write_features(path, dates, block)
        loaded_dates, loaded = enc.read_features(path, expected_len=3)
        assert loaded_dates == dates[::-1]  # written in date order
        np.testing.assert_array_equal(loaded, block[::-1])
        with pytest.raises(DataError, match="3.*expected 5"):
            enc.read_features(path, expected_len=5)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_names_path_line_and_column(self, tmp_path, cell):
        path = tmp_path / "features.csv"
        path.write_text(f"date,f0,f1,f2\n2023-01-03,0.1,0.2,0.3\n2023-01-04,0.5,{cell},1.0\n")
        with pytest.raises(ParseError, match=r"features\.csv: line 3: non-finite f1="):
            enc.read_features(path, expected_len=3)

    def test_blank_lines_are_skipped_and_lines_counted_in_the_file(self, tmp_path):
        """A blank line (a trailing one too) is skipped, as in the market and
        summaries files, and errors name the line in the file."""
        path = tmp_path / "features.csv"
        path.write_text("date,f0,f1\n2023-01-03,0.1,0.2\n\n2023-01-04,0.5,0.6\n\n")
        dates, block = enc.read_features(path, expected_len=2)
        assert dates == (date(2023, 1, 3), date(2023, 1, 4))
        np.testing.assert_array_equal(block, [[0.1, 0.2], [0.5, 0.6]])
        path.write_text("date,f0,f1\n\n2023-01-03,0.1,0.2\n\n2023-01-04,0.5,nan\n")
        with pytest.raises(ParseError, match=r"features\.csv: line 5: non-finite f1="):
            enc.read_features(path, expected_len=2)
        path.write_text("date,f0,f1\n\n2023-01-03,0.1\n")
        with pytest.raises(DataError, match=r"features\.csv: line 3 has 2 fields"):
            enc.read_features(path, expected_len=2)

    def test_duplicate_dates_are_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("date,f0\n2023-01-04,0.1\n2023-01-03,0.2\n2023-01-04,0.3\n"
                        "2023-01-03,0.4\n2023-01-05,0.5\n")
        with pytest.raises(DataError, match=r"features\.csv: duplicate date\(s\): "
                                            r"2023-01-03, 2023-01-04$"):
            enc.read_features(path)

    def test_empty_feature_file_gives_no_rows(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("date,f0,f1\n")
        dates, block = enc.read_features(path, expected_len=2)
        assert dates == () and block.shape == (0, 2)

    @pytest.mark.parametrize("row", ["2023-01-04,0.5,abc,1.0", "notadate,0.5,0.1,1.0"])
    def test_unparseable_feature_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "features.csv"
        path.write_text("date,f0,f1,f2\n2023-01-03,0.1,0.2,0.3\n" + row + "\n")
        with pytest.raises(ParseError, match=r"features\.csv: line 3: "):
            enc.read_features(path, expected_len=3)
