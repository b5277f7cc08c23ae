"""From-scratch transformer text encoder trained with masked-token recovery.

The masking strategy substitutes a chosen token with a semantically
similar word when a mapping is available (falling back to a random vocab
token), using variable-length spans, so the pretraining input never
contains an artificial mask symbol. The encoder output at the leading
start token is pooled as the whole-text representation, truncated or
zero-padded to a fixed feature length.

The encoder is numpy only. Each sublayer (multi-head attention over all
heads at once, the residual add plus layer norm, the feed-forward block)
and the layer they make is a forward and its `<name>_back`, on the
`saved`-list convention that `fusion`'s docstring defines. The forwards
take arrays with any leading axes, the backwards one text. `mlm_loss`
shares the loss arithmetic (`_mlm_nll`/`_mlm_nll_back`).

Each layer stores its q, k and v projections as one (3, d, d) parameter,
`wqkv`, so `_attend` projects all three with one matmul, bitwise the
products of one matmul per matrix. The layer norm and its backward work
in place on their own temporaries, in the same order of operations.

`encode_text` is the one encoder forward. Featurizing (`encode_features`)
runs it on (n, L) blocks of up to FEATURIZE_CHUNK texts of one token count
and keeps nothing for a backward pass. Pretraining's `mlm_step` runs it on
one sentence with a `saved` list, adds the masked-token head and loss,
then runs the head's backward and `_encoder_layer_back` until the list is
empty. The gradients add into the parameters' `grad` arrays, views of the
store's flat gradient, which Adam applies to the store's flat parameter
vector. The sums come in the order of a tape of the same sublayers, so
the loss trace and the parameters are bitwise those of
`numerics.backward` through that tape, which `tests/oracles.py` builds.

A feature file is read into its dates and one (m, L) block, row j the
feature of date j (`read_features`), and written from them in date order
(`write_features`). Its reader checks only the `date,f0..` header and the
width; the rows follow the rules of every dated CSV, `ingest.read_dated_csv`.

`mlm_loss`, the masked-token loss as one tape node, is not called by the
program; `perfbench/tracing.py` wraps it by name.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from dataclasses import asdict, dataclass, field
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import ingest, numerics as nm
from .errors import (ConfigError, ContractError, DataError, DivergenceError, SchemaError,
                     check_integer, is_real, read_json)
from .numerics import ParameterStore, Tensor

Params = Mapping[str, Tensor]

START_ID = 1
UNK_ID = 2
NUM_SPECIALS = 4

_SPECIAL_TOKENS = ("<pad>", "<s>", "<unk>", "<mask>")

# CJK tokens carry no whitespace; fall back to per-character segmentation.
_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))
_CJK_CHAR = re.compile("[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES) + "]")


def segment(text: str) -> list[str]:
    """Whitespace segmentation; runs of CJK characters split per character."""
    if not _CJK_CHAR.search(text):
        return text.split()
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
    """Read a JSON object mapping token -> list of substitute tokens; a file
    that is not valid JSON is a DataError naming `path`."""
    obj = read_json(path, "similar-words file")
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
    if (np.abs(np.add.reduce(probs, axis=1) - 1.0) > 1e-9).any():
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

    return nm.fused((predicted,), loss, back)


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


def _attend(x: np.ndarray, qkv: Tensor, wo: Tensor, heads: int,
            saved: list | None = None) -> np.ndarray:
    """Multi-head self-attention. `qkv` is the layer's (3, d, d) `wqkv`,
    so one matmul projects q, k and v."""
    d_model = x.shape[-1]
    if d_model % heads:
        raise ConfigError(f"d_model={d_model} not divisible by heads={heads}")
    scale = 1.0 / math.sqrt(d_model // heads)
    projected = _split_heads(x[..., None, :, :] @ qkv.data, heads)  # (..., 3, heads, L, d_k)
    q, k, v = (projected[..., i, :, :, :] for i in range(3))
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    weights = nm.softmax_probs(scores)
    merged = _merge_heads(weights @ v)
    if saved is not None:
        saved.append((x, qkv, wo, heads, q, k, v, weights, merged, scale))
    return merged @ wo.data


def _attend_back(g: np.ndarray, saved: list) -> np.ndarray:
    """The q, k and v head gradients fill one (3, heads, L, d_k) buffer,
    merged once into the (3, L, d) gradient of the projections."""
    x, qkv, wo, heads, q, k, v, weights, merged, scale = saved.pop()
    d_ctx = _split_heads(g @ wo.data.T, heads)
    d_weights = d_ctx @ v.transpose(0, 2, 1)
    d_scores = nm.softmax_back(d_weights, weights)
    d_scores *= scale
    d_heads = np.empty((3, *q.shape))
    np.matmul(d_scores, k, out=d_heads[0])
    np.matmul(d_scores.transpose(0, 2, 1), q, out=d_heads[1])
    np.matmul(weights.transpose(0, 2, 1), d_ctx, out=d_heads[2])
    d_projected = _merge_heads(d_heads)
    qkv.grad += x.T @ d_projected
    wo.grad += merged.T @ g
    return np.add.reduce(d_projected @ nm.mT(qkv.data), axis=0)


LAYER_NORM_EPS = 1e-5


def _add_norm(x: np.ndarray, sublayer: np.ndarray, gain: Tensor, bias: Tensor,
              saved: list | None = None) -> np.ndarray:
    """Layer norm of the residual sum x + sublayer; the backward returns the
    sum's gradient, which is that of both terms. Both work in place on the
    arrays they make."""
    centered = x + sublayer
    width = centered.shape[-1]
    mean = np.add.reduce(centered, axis=-1, keepdims=True)
    mean *= 1.0 / width
    centered -= mean
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var *= 1.0 / width
    inv_std = np.maximum(var, LAYER_NORM_EPS)
    inv_std **= -0.5
    normed = centered * inv_std
    if saved is not None:
        saved.append((gain, bias, centered, var, inv_std, normed))
    out = normed * gain.data
    out += bias.data
    return out


def _add_norm_back(g: np.ndarray, saved: list) -> np.ndarray:
    gain, bias, centered, var, inv_std, normed = saved.pop()
    width = centered.shape[-1]
    d_centered = g * gain.data  # the gradient at `normed`, until it is scaled
    d_var = np.add.reduce(d_centered * centered, axis=1, keepdims=True)
    d_var *= -0.5 * inv_std ** 3
    d_var *= var > LAYER_NORM_EPS
    d_centered *= inv_std
    d_var *= 2.0 / width
    d_centered += d_var * centered
    gain.grad += np.add.reduce(g * normed, axis=0, keepdims=True)
    bias.grad += np.add.reduce(g, axis=0, keepdims=True)
    mean = np.add.reduce(d_centered, axis=1, keepdims=True)
    mean *= 1.0 / width
    d_centered -= mean
    return d_centered


def _feed_forward(x: np.ndarray, params: Params, saved: list | None = None) -> np.ndarray:
    hidden = np.maximum(0.0, x @ params["w1"].data + params["b1"].data)
    if saved is not None:
        saved.append((x, params, hidden))
    return hidden @ params["w2"].data + params["b2"].data


def _feed_forward_back(g: np.ndarray, saved: list) -> np.ndarray:
    x, params, hidden = saved.pop()
    d_hidden = nm.affine_back(hidden, params["w2"], params["b2"], g)
    return nm.affine_back(x, params["w1"], params["b1"], d_hidden * (hidden > 0))


def _encoder_layer(x: np.ndarray, params: Params, heads: int,
                   saved: list | None = None) -> np.ndarray:
    """Post-norm block: attention and feed-forward, each behind a residual.

    Without a `saved` list it keeps nothing: the attention's arrays, the
    largest, are gone before the feed-forward runs, so a forward-only pass
    peaks at one sublayer's.
    """
    a = _add_norm(x, _attend(x, params["wqkv"], params["wo"], heads, saved), params["ln1_g"],
                  params["ln1_b"], saved)
    return _add_norm(a, _feed_forward(a, params, saved), params["ln2_g"], params["ln2_b"],
                     saved)


def _encoder_layer_back(g: np.ndarray, saved: list) -> np.ndarray:
    """Each residual input's gradient adds the layer norm's term first."""
    d_a = _add_norm_back(g, saved)
    d_a += _feed_forward_back(d_a, saved)
    d_x = _add_norm_back(d_a, saved)
    d_x += _attend_back(d_x, saved)
    return d_x


def encoder_layout(config: EncoderConfig, vocab_size: int) -> Iterator[nm.Row]:
    """Each encoder parameter's name, shape and start, in store order: a
    uniform draw for a weight, 1.0 for a layer-norm gain and 0.0 for a
    bias. Nothing is allocated, so a checkpoint's layout is checked before
    any array of its config is. A layer's `wqkv` is drawn as its q, k and v
    matrices in turn."""
    d, dff = config.d_model, config.d_ff
    yield "emb", (vocab_size, d), nm.Uniform(d)
    for i in range(config.layers):
        p = f"layer{i}."
        yield p + "wqkv", (3, d, d), nm.Uniform(d)
        yield p + "wo", (d, d), nm.Uniform(d)
        yield p + "ln1_g", (1, d), 1.0
        yield p + "ln1_b", (1, d), 0.0
        yield p + "w1", (d, dff), nm.Uniform(d)
        yield p + "b1", (1, dff), 0.0
        yield p + "w2", (dff, d), nm.Uniform(dff)
        yield p + "b2", (1, d), 0.0
        yield p + "ln2_g", (1, d), 1.0
        yield p + "ln2_b", (1, d), 0.0
    yield "mlm.w", (d, vocab_size), nm.Uniform(d)
    yield "mlm.b", (1, vocab_size), 0.0


def encode_text(token_ids: np.ndarray, config: EncoderConfig, params: ParameterStore,
                saved: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run the full encoder; returns (per-token rows, pooled sentence row).

    `token_ids` is one text's (L,) ids, giving (L, d) rows and a (1, d)
    pooled row, or an (..., L) block of same-length texts, giving
    (..., L, d) rows and (..., 1, d) pooled rows. When `saved` is a list,
    each layer appends what `_encoder_layer_back` needs, for `mlm_step`;
    the backwards take one text.
    """
    token_ids = np.asarray(token_ids)
    length = token_ids.shape[-1]
    if length == 0 or (token_ids[..., 0] != START_ID).any():
        raise ContractError("token sequence must begin with the start id")
    if length > config.max_len:
        raise ContractError(
            f"sequence of {length} tokens exceeds max_len={config.max_len}")
    # Tables come in powers of two: pretraining's many lengths share a few
    # cache entries, and a checkpoint's max_len never sizes one. A table's
    # first rows are those of any longer table.
    pe = positional_encoding(1 << (length - 1).bit_length(), config.d_model)
    x = params["emb"].data[token_ids] + pe[:length]
    for i in range(config.layers):
        x = _encoder_layer(x, params.view(f"layer{i}"), config.heads, saved)
    if config.pool == "mean":
        pooled = x.sum(axis=-2, keepdims=True) * (1.0 / length)
    else:
        pooled = x[..., 0:1, :]
    return x, pooled


def mlm_predictions(rows: np.ndarray, positions: np.ndarray,
                    params: ParameterStore) -> np.ndarray:
    """Vocabulary distributions at the masked positions, one row each."""
    return nm.softmax_probs(rows[positions] @ params["mlm.w"].data + params["mlm.b"].data)


def mlm_step(token_ids: np.ndarray, positions: np.ndarray, targets: np.ndarray,
             config: EncoderConfig, params: ParameterStore) -> float:
    """The masked-token loss of one corrupted text; adds its gradient into
    the store's flat gradient, which the caller zeroes, through the views
    of it that the parameters' `grad` arrays are.

    The forward is `encode_text` with a `saved` list, then
    `mlm_predictions` and the loss arithmetic of `mlm_loss`; the backward
    is the head's, then `_encoder_layer_back` until the list is empty. The
    sums come in the tape's order, so the loss and every gradient are
    bitwise those of `numerics.backward` through a tape of the same
    sublayers. Returns the loss, which may be non-finite.
    """
    saved: list = []
    rows, _ = encode_text(token_ids, config, params, saved)
    probs = mlm_predictions(rows, positions, params)
    loss, nll = _mlm_nll(probs, targets)
    d_logits = nm.softmax_back(_mlm_nll_back(1.0, probs, targets, nll), probs)
    d_x = np.zeros_like(rows)
    np.add.at(d_x, positions,
              nm.affine_back(rows[positions], params["mlm.w"], params["mlm.b"], d_logits))
    while saved:
        d_x = _encoder_layer_back(d_x, saved)
    np.add.at(params["emb"].grad, token_ids, d_x)
    return float(loss)


def pretrain_mlm(corpus: Sequence[str], config: EncoderConfig, epochs: int, seed: int,
                 similar_words: Mapping[str, Sequence[str]] | None = None
                 ) -> tuple[ParameterStore, Vocabulary, list[float]]:
    """Train the encoder to recover corrupted tokens over the corpus.

    Returns the trained parameters, the corpus vocabulary, and the mean
    per-epoch loss trace. epochs=0 returns the untouched initialization.
    A non-finite loss raises DivergenceError naming the epoch and sentence.

    Each sentence is one Adam step at Adam's default step size: the store's
    flat gradient, which the Adam state (`numerics.adam_state`) points at,
    is zeroed, `mlm_step` adds the sentence's gradient into it, and
    `numerics.adam_step` updates the flat parameter vector that the store's
    tensors are views of, in place. With epochs > 0, a max_len below 2
    leaves no token to mask and is a ConfigError.
    """
    corpus = [t for t in corpus if t.strip()]
    if not corpus:
        raise ContractError("pretraining corpus is empty")
    vocab = Vocabulary.build(corpus, similar_words)
    rng = np.random.default_rng(seed)
    params = ParameterStore(encoder_layout(config, vocab.size), rng)
    trace: list[float] = []
    if not epochs:
        return params, vocab, trace
    tokenized = ((index, tokenize(text, vocab, config.max_len))
                 for index, text in enumerate(corpus))
    sentences = [(index, ids) for index, ids in tokenized if len(ids) >= 2]
    if not sentences:  # every non-blank text has the start token and a piece
        raise ConfigError(f"pretraining needs max_len >= 2 to mask a token, "
                          f"got max_len={config.max_len}")
    state = nm.adam_state(params)
    for epoch in range(epochs):
        losses = []
        for index, tokens in sentences:
            corrupted, positions, targets = similar_word_mask(tokens, vocab, rng, config.mask_rate)
            state.grad.fill(0.0)
            value = mlm_step(corrupted, positions, targets, config, params)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite pretraining loss at epoch {epoch}, sentence {index}")
            nm.adam_step(state)
            losses.append(value)
        trace.append(float(np.mean(losses)))
    return params, vocab, trace


# Same-length texts per forward: a bound on the (n, L, d) arrays.
FEATURIZE_CHUNK = 32


def encode_features(texts: Sequence[str], vocab: Vocabulary, config: EncoderConfig,
                    params: ParameterStore, length: int) -> np.ndarray:
    """One feature row per text, in input order: the pooled encoder output,
    truncated to `length` or zero-padded up to it.

    Texts are grouped by token count and each group goes through
    `encode_text` as (n, L) blocks of at most FEATURIZE_CHUNK texts, whose
    pooled rows are copied into one (len(texts), length) block. Row i is
    bitwise the row that `encode_text` pools for texts[i] alone.
    """
    if not texts:
        raise ContractError("no texts to encode")
    if length < 1:
        raise ConfigError(f"feature length must be >= 1, got {length}")
    tokens = [tokenize(text, vocab, config.max_len) for text in texts]
    groups: dict[int, list[int]] = {}
    for index, ids in enumerate(tokens):
        groups.setdefault(len(ids), []).append(index)
    features = np.zeros((len(texts), length))
    for members in groups.values():
        for start in range(0, len(members), FEATURIZE_CHUNK):
            chunk = members[start:start + FEATURIZE_CHUNK]
            _, pooled = encode_text(np.stack([tokens[i] for i in chunk]), config, params)
            features[chunk, :pooled.shape[2]] = pooled[:, 0, :length]
    return features


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
    the vocabulary (a repeated token among them), or parameters whose names
    and shapes differ from those the config and vocabulary give
    (`ParameterStore.from_state`, which compares them before anything of
    the config's size is allocated and returns a store in `encoder_layout`
    order).
    """
    doc = read_json(path, "encoder checkpoint")
    try:
        if (not isinstance(doc, dict) or type(doc.get("format_version")) is not int
                or doc["format_version"] != 1):  # True == 1.0 == 1
            raise DataError(f"{path}: not a version 1 encoder checkpoint")
        config = EncoderConfig(**doc["config"])
        tokens = doc["vocab"]["tokens"]
        if (tokens[:NUM_SPECIALS] != list(_SPECIAL_TOKENS)
                or not all(isinstance(t, str) for t in tokens)):
            raise DataError(f"{path}: vocabulary must be a list of tokens led by the "
                            "special tokens")
        token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(token_to_id) < len(tokens):
            repeat = next(t for i, t in enumerate(tokens) if token_to_id[t] != i)
            raise DataError(f"{path}: vocabulary repeats token {repeat!r}")
        similar = {int(k): tuple(v) for k, v in doc["vocab"]["similar"].items()}
        for key, ids in similar.items():
            if not all(type(i) is int and NUM_SPECIALS <= i < len(tokens)
                       for i in (key, *ids)):
                raise DataError(f"{path}: similar-word entry {key} names something other "
                                f"than an ordinary token id in [{NUM_SPECIALS}, {len(tokens)})")
        state = doc["params"]
    except KeyError as err:
        raise DataError(f"{path}: encoder checkpoint lacks {err}") from None
    except DataError:
        raise
    except (AttributeError, TypeError, ValueError) as err:
        raise DataError(f"{path}: malformed encoder checkpoint: {err}") from None
    params = ParameterStore.from_state(state, encoder_layout(config, len(tokens)), path)
    return config, Vocabulary(tokens, token_to_id, similar), params


# --- feature file format: CSV with header date,f0..f{L-1} ---

def write_features(path, dates: Sequence[Date], block: np.ndarray) -> None:
    """Write row j of the (m, L) `block` as `dates[j]`'s feature, in date order."""
    if not len(dates):
        raise ContractError("no features to write")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"f{i}" for i in range(block.shape[1])])
        rows = block.tolist()
        writer.writerows([dates[j].isoformat(), *rows[j]]
                         for j in sorted(range(len(dates)), key=dates.__getitem__))


def read_features(path, expected_len: int | None = None
                  ) -> tuple[tuple[Date, ...], np.ndarray]:
    """A feature file's dates in file order and its (m, L) block, whose row j
    is the feature of date j, read by `ingest.read_dated_csv`'s rules. A
    header that is not `date,f0..` is a SchemaError, and one of another
    width than `expected_len` a DataError naming `path`."""
    path = Path(path)

    def columns(header: list[str]) -> tuple[int, range]:
        if header[:1] != ["date"]:
            raise SchemaError(f"{path}: expected header date,f0..fN")
        if expected_len is not None and len(header) - 1 != expected_len:
            raise DataError(f"{path}: feature length {len(header) - 1}, "
                            f"expected {expected_len}")
        return 0, range(1, len(header))

    dates, block, _ = ingest.read_dated_csv(path, columns)
    return dates, block
