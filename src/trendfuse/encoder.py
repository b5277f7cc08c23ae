"""From-scratch transformer text encoder trained with masked-token recovery.

The masking strategy substitutes a chosen token with a semantically
similar word when a mapping is available (falling back to a random vocab
token), using variable-length spans, so the pretraining input never
contains an artificial mask symbol. The encoder output at the leading
start token is pooled as the whole-text representation and standardized
to a fixed feature length.

The encoder is numpy only. The arithmetic of each sublayer (multi-head
attention over all heads at once, the residual add plus layer norm, the
feed-forward block, the masked-token loss) is written once: the forwards
(`_attend`, `_add_norm`, `_feed_forward`, `_mlm_nll`) over arrays with any
leading axes, and their backwards over one text.

`encode_text` is the one encoder forward. Featurizing (`encode_features`)
runs it on (n, L) blocks of up to FEATURIZE_CHUNK texts of one token count
and keeps nothing for a backward pass. Pretraining's `mlm_step` runs it on
one sentence with a list that collects each layer's saved values, adds the
masked-token head and loss, then runs the backwards by hand and writes the
gradient into one flat vector, which Adam applies to the flat vector the
parameters are views of. Its sums come in the order of a tape of the same
sublayers, so the loss trace and the parameters are bitwise those of
`numerics.backward` through that tape, which `tests/oracles.py` builds.

`mlm_loss`, the masked-token loss as one tape node, is not called by the
program; `perfbench/tracing.py` wraps it by name.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import numerics as nm
from .errors import (ConfigError, ContractError, DataError, DivergenceError, ParseError,
                     SchemaError, check_integer, is_real)
from .numerics import ParameterStore, Tensor

PAD_ID = 0
START_ID = 1
UNK_ID = 2
NUM_SPECIALS = 4

_SPECIAL_TOKENS = ("<pad>", "<s>", "<unk>", "<mask>")

# CJK tokens carry no whitespace; fall back to per-character segmentation.
_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))
_CJK_CHAR = re.compile("[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES) + "]")


def segment(text: str) -> list[str]:
    """Whitespace segmentation; runs of CJK characters split per character."""
    pieces: list[str] = []
    for chunk in text.split():
        if _CJK_CHAR.search(chunk):
            pieces.extend(chunk)
        else:
            pieces.append(chunk)
    return pieces


@dataclass
class Vocabulary:
    """Token/id bijection with optional similar-word substitution table."""

    id_to_token: list[str]
    token_to_id: dict[str, int]
    similar: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @classmethod
    def build(cls, corpus: Iterable[str],
              similar_words: Mapping[str, Sequence[str]] | None = None) -> "Vocabulary":
        counts: dict[str, int] = {}
        for text in corpus:
            for token in segment(text):
                counts[token] = counts.get(token, 0) + 1
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        id_to_token = list(_SPECIAL_TOKENS) + ordered
        token_to_id = {t: i for i, t in enumerate(id_to_token)}
        vocab = cls(id_to_token=id_to_token, token_to_id=token_to_id)
        if similar_words:
            for token, cands in similar_words.items():
                tid = token_to_id.get(token)
                ids = tuple(token_to_id[c] for c in cands
                            if token_to_id.get(c, UNK_ID) >= NUM_SPECIALS)
                if tid is not None and tid >= NUM_SPECIALS and ids:
                    vocab.similar[tid] = ids
        return vocab


def load_similar_words(path) -> dict[str, list[str]]:
    """Read a JSON object mapping token -> list of substitute tokens.

    A file that is not valid JSON is a DataError naming `path`.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # invalid JSON or text encoding
        raise DataError(f"{path}: similar-words file is not valid JSON ({err})") from None
    if not isinstance(obj, dict) or not all(isinstance(v, list) for v in obj.values()):
        raise SchemaError(f"{path}: expected an object of token -> [tokens]")
    return {str(k): [str(t) for t in v] for k, v in obj.items()}


@dataclass
class EncoderConfig:
    d_model: int = 16
    heads: int = 2
    layers: int = 2
    d_ff: int = 32
    max_len: int = 32
    mask_rate: float = 0.15
    pool: str = "start"  # "start" or "mean"

    def __post_init__(self):
        for name in ("d_model", "heads", "layers", "d_ff", "max_len"):
            check_integer(name, getattr(self, name), 1)
        if self.d_model % self.heads:
            raise ConfigError(f"d_model={self.d_model} not divisible by heads={self.heads}")
        if self.d_model % 2:
            raise ConfigError(f"d_model must be even for positional encoding, got {self.d_model}")
        if not is_real(self.mask_rate) or not 0 < self.mask_rate < 1:
            raise ConfigError(f"mask_rate must be in (0, 1), got {self.mask_rate}")
        if self.pool not in ("start", "mean"):
            raise ConfigError(f"pool must be 'start' or 'mean', got {self.pool!r}")


@dataclass(frozen=True)
class TextFeature:
    date: Date
    values: np.ndarray


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Start token plus segment ids (unknowns mapped), truncated to max_len."""
    pieces = segment(text)
    if not pieces:
        raise ContractError("cannot tokenize empty text")
    ids = [START_ID] + [vocab.id_for(p) for p in pieces]
    return np.array(ids[:max_len], dtype=np.int64)


_SPAN_SIZES = np.array([1, 2, 3])
_SPAN_PROBS = np.array([0.4, 0.3, 0.3])
# The cdf `rng.choice(_SPAN_SIZES, p=_SPAN_PROBS)` searches: one uniform draw
# against it gives the same size from the same stream, without choice's checks.
_SPAN_CDF = _SPAN_PROBS.cumsum()
_SPAN_CDF /= _SPAN_CDF[-1]


def similar_word_mask(tokens: np.ndarray, vocab: Vocabulary,
                      rng: np.random.Generator, mask_rate: float = 0.15,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corrupt ceil(mask_rate * maskable) positions via variable-length spans.

    Each chosen token is left unchanged 10% of the time, else replaced by a
    similar word when the table has one, else by a random ordinary vocab
    token. Returns (corrupted ids, positions, original ids at positions).
    """
    maskable = len(tokens) - (1 if len(tokens) and tokens[0] == START_ID else 0)
    if maskable < 1:
        raise ContractError("nothing to mask: sequence has no ordinary tokens")
    first = len(tokens) - maskable
    k = math.ceil(mask_rate * maskable)
    chosen: set[int] = set()
    while len(chosen) < k:
        start = int(rng.integers(first, len(tokens)))
        span = int(_SPAN_SIZES[_SPAN_CDF.searchsorted(rng.random(), side="right")])
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
        elif vocab.size > NUM_SPECIALS:
            corrupted[pos] = int(rng.integers(NUM_SPECIALS, vocab.size))
    return corrupted, positions, targets


PROB_FLOOR = 1e-12


def _mlm_nll(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The loss arithmetic of `mlm_loss`: its value and what its backward needs."""
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ContractError("predicted rows must each sum to 1")
    rows = np.arange(len(probs))
    picked = probs[rows, targets]
    floored = np.maximum(picked, PROB_FLOOR)
    return -np.log(floored).sum(), (rows, picked, floored)


def _mlm_nll_back(g, probs: np.ndarray, targets: np.ndarray, saved: tuple) -> np.ndarray:
    rows, picked, floored = saved
    grad = np.zeros_like(probs)
    grad[rows, targets] = -g * (picked > PROB_FLOOR) / floored
    return grad


def mlm_loss(predicted: Tensor, positions: np.ndarray, targets: np.ndarray) -> Tensor:
    """Negative log likelihood of the original ids under the predictions.

    `predicted` is one probability row per masked position; probabilities
    are clamped below at PROB_FLOOR before the log, and no gradient flows
    to a probability at or below the floor. One tape node.
    """
    n = predicted.shape[0]
    if n != len(positions) or n != len(targets):
        raise ContractError(
            f"{n} prediction rows for {len(positions)} positions / {len(targets)} targets")
    loss, saved = _mlm_nll(predicted.data, targets)

    def back(g):
        nm.accumulate(predicted, _mlm_nll_back(g, predicted.data, targets, saved))

    return nm.fused((predicted,), (loss,), back)[0]


@functools.lru_cache(maxsize=8)
def positional_encoding(max_len: int, d_model: int) -> np.ndarray:
    """Interleaved sine/cosine position table, entries in [-1, 1].

    Built once per (max_len, d_model) and shared, so the array is read-only.
    """
    if d_model % 2:
        raise ConfigError(f"d_model must be even, got {d_model}")
    pos = np.arange(max_len)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.zeros((max_len, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., L, d_model) -> (..., heads, L, d_k)."""
    *lead, length, d_model = a.shape
    return a.reshape(*lead, length, heads, d_model // heads).swapaxes(-3, -2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., heads, L, d_k) -> (..., L, heads * d_k)."""
    *lead, heads, length, d_k = a.shape
    return a.swapaxes(-3, -2).reshape(*lead, length, heads * d_k)


# The arithmetic of each sublayer, over arrays. The forwards take any leading
# axes (one text's (L, d) rows or a batch's (n, L, d) block) and return the
# output and what the backward needs; the backwards take one text and return
# the input gradient first, then the weights' in argument order.

def _attend(x: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
            wo: np.ndarray, heads: int) -> tuple[np.ndarray, tuple]:
    d_model = x.shape[-1]
    if d_model % heads:
        raise ConfigError(f"d_model={d_model} not divisible by heads={heads}")
    scale = 1.0 / math.sqrt(d_model // heads)
    q, k, v = (_split_heads(x @ w, heads) for w in (wq, wk, wv))
    scores = (q @ k.swapaxes(-1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    merged = _merge_heads(weights @ v)
    return merged @ wo, (q, k, v, weights, merged, scale)


def _attend_back(g: np.ndarray, x: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                 wv: np.ndarray, wo: np.ndarray, saved: tuple, heads: int) -> tuple:
    q, k, v, weights, merged, scale = saved
    d_ctx = _split_heads(g @ wo.T, heads)
    d_weights = d_ctx @ v.transpose(0, 2, 1)
    d_scores = ((d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
                * weights * scale)
    grad_q = _merge_heads(d_scores @ k)
    grad_k = _merge_heads(d_scores.transpose(0, 2, 1) @ q)
    grad_v = _merge_heads(weights.transpose(0, 2, 1) @ d_ctx)
    return (grad_q @ wq.T + grad_k @ wk.T + grad_v @ wv.T,
            x.T @ grad_q, x.T @ grad_k, x.T @ grad_v, merged.T @ g)


LAYER_NORM_EPS = 1e-5


def _add_norm(x: np.ndarray, sublayer: np.ndarray | None, gain: np.ndarray,
              bias: np.ndarray) -> tuple[np.ndarray, tuple]:
    total = x if sublayer is None else x + sublayer
    width = total.shape[-1]
    centered = total - total.sum(axis=-1, keepdims=True) * (1.0 / width)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / width)
    inv_std = np.maximum(var, LAYER_NORM_EPS) ** -0.5
    normed = centered * inv_std
    return normed * gain + bias, (centered, var, inv_std, normed)


def _add_norm_back(g: np.ndarray, gain: np.ndarray, saved: tuple) -> tuple:
    """(gradient of x + sublayer, of gain, of bias)."""
    centered, var, inv_std, normed = saved
    width = centered.shape[-1]
    d_normed = g * gain
    d_var = ((d_normed * centered).sum(axis=1, keepdims=True)
             * (-0.5 * inv_std ** 3) * (var > LAYER_NORM_EPS))
    d_centered = d_normed * inv_std + d_var * (2.0 / width) * centered
    d_total = d_centered - d_centered.sum(axis=1, keepdims=True) * (1.0 / width)
    return d_total, (g * normed).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)


def _feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                  b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = np.maximum(0.0, x @ w1 + b1)
    return hidden @ w2 + b2, hidden


def _feed_forward_back(g: np.ndarray, x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                       hidden: np.ndarray) -> tuple:
    d_pre = (g @ w2.T) * (hidden > 0)
    return (d_pre @ w1.T, x.T @ d_pre, d_pre.sum(axis=0, keepdims=True),
            hidden.T @ g, g.sum(axis=0, keepdims=True))


_ATTEND_WEIGHTS = ("wq", "wk", "wv", "wo")
_FEED_FORWARD_WEIGHTS = ("w1", "b1", "w2", "b2")
_LAYER_WEIGHTS = (*_ATTEND_WEIGHTS, "ln1_g", "ln1_b", *_FEED_FORWARD_WEIGHTS, "ln2_g", "ln2_b")


def _encoder_layer(x: np.ndarray, w: Mapping[str, np.ndarray], heads: int,
                   saved: list | None) -> np.ndarray:
    """Post-norm block: attention and feed-forward, each behind a residual.

    Appends what the backwards need to `saved` when it is a list. Otherwise
    it keeps nothing: the attention's arrays, the largest, go before the
    feed-forward runs, so a forward-only pass peaks at one sublayer's.
    """
    attended, att_saved = _attend(x, *(w[n] for n in _ATTEND_WEIGHTS), heads)
    a, norm1 = _add_norm(x, attended, w["ln1_g"], w["ln1_b"])
    if saved is None:
        del attended, att_saved, norm1
    ff, hidden = _feed_forward(a, *(w[n] for n in _FEED_FORWARD_WEIGHTS))
    out, norm2 = _add_norm(a, ff, w["ln2_g"], w["ln2_b"])
    if saved is not None:
        saved.append((w, x, att_saved, a, norm1, hidden, norm2))
    return out


def init_encoder_params(config: EncoderConfig, vocab_size: int,
                        rng: np.random.Generator) -> ParameterStore:
    store = ParameterStore()
    d, dff = config.d_model, config.d_ff
    store.add("emb", nm.uniform_init(rng, d, (vocab_size, d)))
    for i in range(config.layers):
        p = f"layer{i}"
        for w in _ATTEND_WEIGHTS:
            store.add(f"{p}.{w}", nm.uniform_init(rng, d, (d, d)))
        store.add(f"{p}.ln1_g", np.ones((1, d)))
        store.add(f"{p}.ln1_b", np.zeros((1, d)))
        store.add(f"{p}.w1", nm.uniform_init(rng, d, (d, dff)))
        store.add(f"{p}.b1", np.zeros((1, dff)))
        store.add(f"{p}.w2", nm.uniform_init(rng, dff, (dff, d)))
        store.add(f"{p}.b2", np.zeros((1, d)))
        store.add(f"{p}.ln2_g", np.ones((1, d)))
        store.add(f"{p}.ln2_b", np.zeros((1, d)))
    store.add("mlm.w", nm.uniform_init(rng, d, (d, vocab_size)))
    store.add("mlm.b", np.zeros((1, vocab_size)))
    return store


def encode_text(token_ids: np.ndarray, config: EncoderConfig,
                weights: Mapping[str, np.ndarray],
                saved: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run the full encoder; returns (per-token rows, pooled sentence row).

    `token_ids` is one text's (L,) ids, giving (L, d) rows and a (1, d)
    pooled row, or an (..., L) block of same-length texts, giving
    (..., L, d) rows and (..., 1, d) pooled rows. `weights` maps each
    encoder parameter name to its array. When `saved` is a list, each layer
    appends what its backward needs, for `mlm_step`; the backwards take one
    text.
    """
    token_ids = np.asarray(token_ids)
    length = token_ids.shape[-1]
    if length == 0 or np.any(token_ids[..., 0] != START_ID):
        raise ContractError("token sequence must begin with the start id")
    if length > config.max_len:
        raise ContractError(
            f"sequence of {length} tokens exceeds max_len={config.max_len}")
    # Tables come in powers of two: pretraining's many lengths share a few
    # cache entries, and a checkpoint's max_len never sizes one. A table's
    # first rows are those of any longer table.
    pe = positional_encoding(1 << (length - 1).bit_length(), config.d_model)
    x = weights["emb"][token_ids] + pe[:length]
    for i in range(config.layers):
        layer = {name: weights[f"layer{i}.{name}"] for name in _LAYER_WEIGHTS}
        x = _encoder_layer(x, layer, config.heads, saved)
    if config.pool == "mean":
        pooled = x.sum(axis=-2, keepdims=True) * (1.0 / length)
    else:
        pooled = x[..., 0:1, :]
    return x, pooled


def mlm_predictions(rows: np.ndarray, positions: np.ndarray,
                    weights: Mapping[str, np.ndarray]) -> np.ndarray:
    """Vocabulary distributions at the masked positions, one row each."""
    return nm.softmax_probs(rows[positions] @ weights["mlm.w"] + weights["mlm.b"])


def mlm_step(token_ids: np.ndarray, positions: np.ndarray, targets: np.ndarray,
             config: EncoderConfig, weights: Mapping[str, np.ndarray],
             grads: Mapping[str, np.ndarray]) -> float:
    """The masked-token loss of one corrupted text, and its gradient.

    `weights` maps each encoder parameter name to its array. The forward is
    `encode_text`, keeping each layer's saved values, then `mlm_predictions`
    and the loss arithmetic of `mlm_loss`; the backward runs the sublayer
    backwards by hand and writes each parameter's gradient into its array
    of `grads`. The sums come in the tape's order, so the loss and every
    gradient are bitwise those of `numerics.backward` through a tape of the
    same sublayers. Returns the loss, which may be non-finite.
    """
    layers: list = []
    rows, _ = encode_text(token_ids, config, weights, layers)
    probs = mlm_predictions(rows, positions, weights)
    loss, saved = _mlm_nll(probs, targets)

    def put(prefix, names, values):
        for name, value in zip(names, values):
            grads[prefix + name][...] = value

    d_logits = nm.softmax_back(_mlm_nll_back(1.0, probs, targets, saved), probs)
    # one row is the bias gradient as it is: a sum would turn its -0.0 into 0.0
    d_bias = d_logits if len(d_logits) == 1 else nm.row_sum(d_logits)
    put("mlm.", ("w", "b"), (rows[positions].T @ d_logits, d_bias))
    d_x = np.zeros_like(rows)
    np.add.at(d_x, positions, d_logits @ weights["mlm.w"].T)
    for i in reversed(range(config.layers)):
        prefix = f"layer{i}."
        w, x_in, att_saved, a, norm1, hidden, norm2 = layers[i]
        d_total, *d_norm = _add_norm_back(d_x, w["ln2_g"], norm2)
        put(prefix, ("ln2_g", "ln2_b"), d_norm)
        d_a, *d_ff = _feed_forward_back(d_total, a, w["w1"], w["w2"], hidden)
        put(prefix, _FEED_FORWARD_WEIGHTS, d_ff)
        d_total, *d_norm = _add_norm_back(d_total + d_a, w["ln1_g"], norm1)
        put(prefix, ("ln1_g", "ln1_b"), d_norm)
        d_x, *d_att = _attend_back(d_total, x_in, *(w[n] for n in _ATTEND_WEIGHTS),
                                   att_saved, config.heads)
        put(prefix, _ATTEND_WEIGHTS, d_att)
        d_x = d_total + d_x
    d_emb = grads["emb"]
    d_emb[...] = 0.0
    np.add.at(d_emb, token_ids, d_x)
    return float(loss)


def pretrain_mlm(corpus: Sequence[str], config: EncoderConfig, epochs: int,
                 seed: int, similar_words: Mapping[str, Sequence[str]] | None = None,
                 lr: float = 1e-3) -> tuple[ParameterStore, Vocabulary, list[float]]:
    """Train the encoder to recover corrupted tokens over the corpus.

    Returns the trained parameters, the corpus vocabulary, and the mean
    per-epoch loss trace. epochs=0 returns the untouched initialization.
    A non-finite loss raises DivergenceError naming the epoch and sentence.

    Each sentence is one Adam step: `mlm_step` writes the gradient into the
    store's flat gradient (`ParameterStore.flatten`), and `numerics.adam_step`
    updates the flat parameter vector that the store's tensors are views of,
    in place. With epochs > 0, a max_len below 2 leaves no token to mask
    and is a ConfigError.
    """
    corpus = [t for t in corpus if t.strip()]
    if not corpus:
        raise ContractError("pretraining corpus is empty")
    vocab = Vocabulary.build(corpus, similar_words)
    rng = np.random.default_rng(seed)
    params = init_encoder_params(config, vocab.size, rng)
    state = nm.adam_state(params, lr=lr)
    trace: list[float] = []
    if not epochs:
        return params, vocab, trace
    tokenized = ((index, tokenize(text, vocab, config.max_len))
                 for index, text in enumerate(corpus))
    sentences = [(index, ids) for index, ids in tokenized if len(ids) >= 2]
    if not sentences:  # every non-blank text has the start token and a piece
        raise ConfigError(f"pretraining needs max_len >= 2 to mask a token, "
                          f"got max_len={config.max_len}")
    flat, grad = params.flatten()
    weights = {name: t.data for name, t in params.items()}
    grads = {name: t.grad for name, t in params.items()}
    for epoch in range(epochs):
        losses = []
        for index, tokens in sentences:
            corrupted, positions, targets = similar_word_mask(tokens, vocab, rng, config.mask_rate)
            value = mlm_step(corrupted, positions, targets, config, weights, grads)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite pretraining loss at epoch {epoch}, sentence {index}")
            nm.adam_step(state, flat, grad)
            losses.append(value)
        trace.append(float(np.mean(losses)))
    return params, vocab, trace


def standardize_features(pooled: np.ndarray, length: int) -> np.ndarray:
    """Flatten to one vector, then zero-pad or truncate to `length`."""
    if length < 1:
        raise ConfigError(f"feature length must be >= 1, got {length}")
    flat = np.asarray(pooled).reshape(-1)
    if flat.size == 0:
        raise ContractError("no representation rows to standardize")
    if flat.size >= length:
        return flat[:length].copy()
    return np.concatenate([flat, np.zeros(length - flat.size)])


# Same-length texts per forward: a bound on the (n, L, d) arrays.
FEATURIZE_CHUNK = 32


def encode_features(texts: Sequence[str], vocab: Vocabulary, config: EncoderConfig,
                    params: ParameterStore, length: int) -> np.ndarray:
    """One standardized feature row per text, in input order.

    Texts are grouped by token count and each group goes through
    `encode_text` as (n, L) blocks of at most FEATURIZE_CHUNK texts. Row i
    is bitwise the row that `encode_text` pools for texts[i] alone, through
    `standardize_features`.
    """
    if not texts:
        raise ContractError("no texts to encode")
    tokens = [tokenize(text, vocab, config.max_len) for text in texts]
    groups: dict[int, list[int]] = {}
    for index, ids in enumerate(tokens):
        groups.setdefault(len(ids), []).append(index)
    weights = {name: t.data for name, t in params.items()}
    rows: list = [None] * len(texts)
    for members in groups.values():
        for start in range(0, len(members), FEATURIZE_CHUNK):
            chunk = members[start:start + FEATURIZE_CHUNK]
            _, pooled = encode_text(np.stack([tokens[i] for i in chunk]), config, weights)
            for index, row in zip(chunk, pooled):
                rows[index] = standardize_features(row, length)
    return np.stack(rows)


def encode_feature(text: str, vocab: Vocabulary, config: EncoderConfig,
                   params: ParameterStore, length: int) -> np.ndarray:
    """The feature row of one text (`encode_features` of a one-text list)."""
    return encode_features([text], vocab, config, params, length)[0]


# --- encoder checkpoint (config + vocab + params in one JSON document) ---

def save_encoder(path, config: EncoderConfig, vocab: Vocabulary,
                 params: ParameterStore) -> None:
    doc = {
        "format_version": 1,
        "config": asdict(config),
        "vocab": {
            "tokens": vocab.id_to_token,
            "similar": {str(k): list(v) for k, v in sorted(vocab.similar.items())},
        },
        "params": params.state_dict(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_encoder(path) -> tuple[EncoderConfig, Vocabulary, ParameterStore]:
    """Read a checkpoint written by `save_encoder`.

    Anything malformed is a DataError naming `path`: the JSON, the config,
    the vocabulary, or parameters whose names and shapes differ from those
    the config and vocabulary give.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if (not isinstance(doc, dict) or type(doc.get("format_version")) is not int
                or doc["format_version"] != 1):  # True == 1.0 == 1
            raise DataError("not a version 1 encoder checkpoint")
        config = EncoderConfig(**doc["config"])
        tokens = doc["vocab"]["tokens"]
        if (tokens[:NUM_SPECIALS] != list(_SPECIAL_TOKENS)
                or not all(isinstance(t, str) for t in tokens)):
            raise DataError("vocabulary must be a list of tokens led by the special tokens")
        similar = {int(k): tuple(v) for k, v in doc["vocab"]["similar"].items()}
        for key, ids in similar.items():
            if not all(type(i) is int and NUM_SPECIALS <= i < len(tokens)
                       for i in (key, *ids)):
                raise DataError(f"similar-word entry {key} names something other than "
                                f"an ordinary token id in [{NUM_SPECIALS}, {len(tokens)})")
        params = ParameterStore.from_state_dict(doc["params"])
    except KeyError as err:
        raise DataError(f"{path}: encoder checkpoint lacks {err}") from None
    except (AttributeError, TypeError, ValueError) as err:
        raise DataError(f"{path}: malformed encoder checkpoint: {err}") from None
    vocab = Vocabulary(id_to_token=tokens,
                       token_to_id={t: i for i, t in enumerate(tokens)},
                       similar=similar)
    params.check_layout(init_encoder_params(config, vocab.size, np.random.default_rng(0)),
                        path)
    return config, vocab, params


# --- feature file format: CSV with header date,f0..f{L-1} ---

def write_features(path, features: Sequence[TextFeature]) -> None:
    if not features:
        raise ContractError("no features to write")
    length = len(features[0].values)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"f{i}" for i in range(length)])
        for feat in sorted(features, key=lambda f: f.date):
            writer.writerow([feat.date.isoformat()] + [repr(float(v)) for v in feat.values])


def read_features(path, expected_len: int | None = None) -> dict[Date, np.ndarray]:
    """Feature rows by date. A malformed, non-finite or repeated row is a
    DataError naming `path` (and the line, where there is one)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "date":
            raise SchemaError(f"{path}: expected header date,f0..fN")
        actual_len = len(header) - 1
        if expected_len is not None and actual_len != expected_len:
            raise DataError(f"{path}: feature length {actual_len}, expected {expected_len}")
        dates: list[Date] = []
        cells: list[float] = []  # every row's values, in one flat list
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: line {line_no} has {len(row)} fields, "
                                f"expected {len(header)}")
            try:
                dates.append(Date.fromisoformat(row[0]))
                cells.extend(map(float, row[1:]))
            except ValueError as err:
                raise ParseError(f"{path}: line {line_no}: {err}") from None
    values = np.array(cells, dtype=np.float64).reshape(len(dates), actual_len)
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(f"{path}: line {i + 2}: non-finite {header[j + 1]}="
                         f"{float(values[i, j])!r}")
    out = dict(zip(dates, values))
    if len(out) != len(dates):
        dupes = sorted(d for d, count in Counter(dates).items() if count > 1)
        raise DataError(f"{path}: duplicate date(s): " + ", ".join(d.isoformat() for d in dupes))
    return out
