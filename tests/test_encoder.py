"""Transformer text encoder: tokenization, masking, attention, pretraining."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import attention_rows, max_rel_err, self_attention

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


class TestMlmLoss:
    def test_perfect_prediction_zero(self):
        pred = Tensor([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        loss = enc.mlm_loss(pred, np.array([1, 2]), np.array([1, 0]))
        assert loss.item() == 0.0

    def test_uniform_over_four(self):
        pred = Tensor([[0.25] * 4])
        loss = enc.mlm_loss(pred, np.array([1]), np.array([2]))
        np.testing.assert_allclose(loss.item(), math.log(4), atol=1e-12)

    def test_n_targets_uniform_vocab(self):
        n, v = 5, 7
        pred = Tensor(np.full((n, v), 1.0 / v))
        loss = enc.mlm_loss(pred, np.arange(n), np.zeros(n, dtype=int))
        np.testing.assert_allclose(loss.item(), n * math.log(v), atol=1e-9)

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
            scores = nm.softmax(Tensor(x), axis=-1).data
            np.testing.assert_allclose(scores.sum(axis=1), np.ones(3), atol=1e-9)


class TestMultiHead:
    def _identity_params(self, d):
        eye = np.eye(d)
        return {name: Tensor(eye) for name in ("wq", "wk", "wv", "wo")}

    def test_single_head_identity_reduces_to_attention(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 4))
        out = enc.multi_head_attention(Tensor(x), self._identity_params(4), heads=1)
        expected = self_attention(Tensor(x), Tensor(x), Tensor(x))
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_output_shape(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(5, 8)))
        params = {name: Tensor(rng.normal(size=(8, 8)))
                  for name in ("wq", "wk", "wv", "wo")}
        for heads in (1, 2, 4, 8):
            assert enc.multi_head_attention(x, params, heads).shape == (5, 8)

    def test_two_heads_match_per_head_oracle(self):
        rng = np.random.default_rng(10)
        d, h = 4, 2
        x = rng.normal(size=(3, d))
        params = {name: rng.normal(size=(d, d)) for name in ("wq", "wk", "wv", "wo")}
        out = enc.multi_head_attention(Tensor(x), {k: Tensor(v) for k, v in params.items()},
                                       heads=h)
        q, k, v = x @ params["wq"], x @ params["wk"], x @ params["wv"]
        dk = d // h
        heads = [attention_rows(q[:, i * dk:(i + 1) * dk], k[:, i * dk:(i + 1) * dk],
                                v[:, i * dk:(i + 1) * dk]) for i in range(h)]
        expected = np.concatenate(heads, axis=1) @ params["wo"]
        assert max_rel_err(out.data, expected) < 1e-12

    def test_indivisible_width_rejected(self):
        x = Tensor(np.ones((2, 6)))
        params = {name: Tensor(np.ones((6, 6))) for name in ("wq", "wk", "wv", "wo")}
        with pytest.raises(ConfigError):
            enc.multi_head_attention(x, params, heads=4)


class TestLayerNormAndFfn:
    def _plain(self, x):
        d = x.shape[1]
        return enc.layer_norm(Tensor(x), Tensor(np.ones((1, d))),
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
        out = enc.feed_forward(Tensor(np.ones((3, 4))), params)
        np.testing.assert_array_equal(out.data, np.full((3, 4), 2.5))

    def test_encoder_layer_finite(self):
        rng = np.random.default_rng(12)
        params = enc.init_encoder_params(TOY_CONFIG, vocab_size=10, rng=rng)
        x = Tensor(rng.normal(size=(5, 8)) * 3)
        out = enc.encoder_layer(x, params.view("layer0"), TOY_CONFIG.heads)
        assert np.all(np.isfinite(out.data))


def _tape_size(loss):
    """Distinct tensors reachable from `loss` through parent edges, leaves included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _assert_same_values_and_grads(fused, composed, arrays, seed):
    """Outputs and every input's gradient (of a randomly weighted sum of the
    output) agree between the fused primitive and its composition."""
    results = []
    for build in (fused, composed):
        leaves = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        out = build(leaves)
        mix = np.random.default_rng(seed).normal(size=out.shape)
        results.append((out.data, nm.gradients(nm.sum_(nm.mul(out, mix)), leaves)))
    (out_f, grads_f), (out_c, grads_c) = results
    assert max_rel_err(out_f, out_c) < 1e-12
    for key in arrays:
        assert np.all(np.isfinite(grads_f[key])), key
        assert max_rel_err(grads_f[key], grads_c[key]) < 1e-12, key


@pytest.mark.parametrize("length", [1, TOY_CONFIG.max_len])
class TestFusedSublayersMatchOracles:
    """Each fused sublayer against its single-op composition in `oracles`."""

    D = TOY_CONFIG.d_model

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_multi_head_attention(self, length, heads):
        rng = np.random.default_rng(20 + heads)
        arrays = {"x": rng.normal(size=(length, self.D)),
                  **{w: rng.normal(size=(self.D, self.D)) for w in ("wq", "wk", "wv", "wo")}}
        _assert_same_values_and_grads(
            lambda p: enc.multi_head_attention(p["x"], p, heads),
            lambda p: oracles.multi_head_attention(p["x"], p, heads), arrays, seed=heads)

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
        _assert_same_values_and_grads(
            lambda p: enc.layer_norm(p["x"], p["g"], p["b"], p["sub"]),
            lambda p: oracles.layer_norm(p["x"], p["g"], p["b"], p["sub"]), arrays, seed=5)
        del arrays["sub"]
        _assert_same_values_and_grads(
            lambda p: enc.layer_norm(p["x"], p["g"], p["b"]),
            lambda p: oracles.layer_norm(p["x"], p["g"], p["b"]), arrays, seed=6)

    def test_feed_forward(self, length):
        rng = np.random.default_rng(25)
        d, dff = self.D, TOY_CONFIG.d_ff
        arrays = {"x": rng.normal(size=(length, d)),
                  "w1": rng.normal(size=(d, dff)), "b1": rng.normal(size=(1, dff)),
                  "w2": rng.normal(size=(dff, d)), "b2": rng.normal(size=(1, d))}
        _assert_same_values_and_grads(lambda p: enc.feed_forward(p["x"], p),
                                      lambda p: oracles.feed_forward(p["x"], p),
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
        _assert_same_values_and_grads(
            lambda q: enc.mlm_loss(q["p"], positions, targets),
            lambda q: oracles.mlm_loss(q["p"], targets), {"p": p}, seed=8)
        leaf = Tensor(p, requires_grad=True)
        grad = nm.gradients(enc.mlm_loss(leaf, positions, targets), {"p": leaf})["p"]
        assert grad[0, targets[0]] == 0.0


class TestEncodeText:
    def _setup(self, seed=13):
        vocab = _vocab(("alpha beta gamma delta", "beta delta alpha"))
        rng = np.random.default_rng(seed)
        params = enc.init_encoder_params(TOY_CONFIG, vocab.size, rng)
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
        np.testing.assert_array_equal(a.data, b.data)

    def test_token_order_changes_pooled_vector(self):
        vocab, params = self._setup()
        a = enc.tokenize("alpha beta gamma", vocab, TOY_CONFIG.max_len)
        b = enc.tokenize("beta alpha gamma", vocab, TOY_CONFIG.max_len)
        _, pa = enc.encode_text(a, TOY_CONFIG, params)
        _, pb = enc.encode_text(b, TOY_CONFIG, params)
        assert np.max(np.abs(pa.data - pb.data)) > 1e-9

    def test_contract_errors(self):
        vocab, params = self._setup()
        with pytest.raises(ContractError):
            enc.encode_text(np.array([4, 5]), TOY_CONFIG, params)
        too_long = np.array([enc.START_ID] + [4] * TOY_CONFIG.max_len)
        with pytest.raises(ContractError):
            enc.encode_text(too_long, TOY_CONFIG, params)

    def test_pretraining_tape_has_one_node_per_sublayer(self):
        vocab, params = self._setup()
        tokens = enc.tokenize("alpha beta gamma delta alpha beta", vocab, TOY_CONFIG.max_len)
        corrupted, positions, targets = enc.similar_word_mask(
            tokens, vocab, np.random.default_rng(0), 0.3)
        rows, _ = enc.encode_text(corrupted, TOY_CONFIG, params)
        loss = enc.mlm_loss(enc.mlm_predictions(rows, positions, params), positions, targets)
        # parameter leaves + embedding lookup, position table and their add
        # + 4 sublayers per layer + head (row gather, matmul, bias, softmax) + loss
        assert _tape_size(loss) == len(params.names()) + 3 + 4 * TOY_CONFIG.layers + 4 + 1

    def test_mean_pool_flag(self):
        vocab, params = self._setup()
        cfg = enc.EncoderConfig(d_model=8, heads=2, layers=2, d_ff=16, max_len=12,
                                pool="mean")
        tokens = enc.tokenize("alpha beta gamma", vocab, cfg.max_len)
        rows, pooled = enc.encode_text(tokens, cfg, params)
        np.testing.assert_allclose(pooled.data, rows.data.mean(axis=0, keepdims=True),
                                   atol=1e-12)


class TestPretrain:
    def test_zero_epochs_keeps_initialization(self):
        corpus = ["alpha beta gamma", "beta gamma delta", "gamma delta alpha"]
        params, vocab, trace = enc.pretrain_mlm(corpus, TOY_CONFIG, epochs=0, seed=5)
        fresh = enc.init_encoder_params(TOY_CONFIG, vocab.size, np.random.default_rng(5))
        assert trace == []
        for name in params.names():
            np.testing.assert_array_equal(params[name].data, fresh[name].data)

    def test_seed_determinism(self):
        corpus = ["alpha beta gamma", "beta gamma delta"]
        _, _, t1 = enc.pretrain_mlm(corpus, TOY_CONFIG, epochs=3, seed=9)
        _, _, t2 = enc.pretrain_mlm(corpus, TOY_CONFIG, epochs=3, seed=9)
        assert t1 == t2

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            enc.pretrain_mlm([], TOY_CONFIG, epochs=1, seed=0)


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
        for name in params.names():
            np.testing.assert_array_equal(params2[name].data, params[name].data)

    def test_feature_csv_round_trip_and_validation(self, tmp_path):
        feats = [enc.TextFeature(date(2023, 1, 3), np.array([0.1, -0.2, 0.3])),
                 enc.TextFeature(date(2023, 1, 4), np.array([1.5, 2.5, -3.5]))]
        path = tmp_path / "features.csv"
        enc.write_features(path, feats)
        loaded = enc.read_features(path, expected_len=3)
        np.testing.assert_array_equal(loaded[date(2023, 1, 3)], feats[0].values)
        with pytest.raises(DataError, match="3.*expected 5"):
            enc.read_features(path, expected_len=5)

    @pytest.mark.parametrize("row", ["2023-01-04,0.5,abc,1.0", "notadate,0.5,0.1,1.0"])
    def test_unparseable_feature_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "features.csv"
        path.write_text("date,f0,f1,f2\n2023-01-03,0.1,0.2,0.3\n" + row + "\n")
        with pytest.raises(ParseError, match=r"features\.csv: line 3: "):
            enc.read_features(path, expected_len=3)
