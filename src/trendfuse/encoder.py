"""From-scratch transformer text encoder trained with masked-token recovery.

The masking strategy substitutes a chosen token with a semantically
similar word when a mapping is available (falling back to a random vocab
token), using variable-length spans, so the pretraining input never
contains an artificial mask symbol. The encoder output at the leading
start token is pooled as the whole-text representation and standardized
to a fixed feature length.

Each sublayer is one tape primitive with a hand-written backward
(`numerics.fused`): multi-head attention over all heads at once, the
residual add plus layer norm, the feed-forward block and the masked-token
loss. A sentence's pretraining tape thus has a few dozen nodes, most of
them parameter leaves. The composed reference versions live in
`tests/oracles.py`.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import numerics as nm
from .errors import (ConfigError, ContractError, DataError, DivergenceError, ParseError,
                     SchemaError)
from .numerics import ParameterStore, Tensor

PAD_ID = 0
START_ID = 1
UNK_ID = 2
NUM_SPECIALS = 4

_SPECIAL_TOKENS = ("<pad>", "<s>", "<unk>", "<mask>")

# CJK tokens carry no whitespace; fall back to per-character segmentation.
_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def segment(text: str) -> list[str]:
    """Whitespace segmentation; runs of CJK characters split per character."""
    pieces: list[str] = []
    for chunk in text.split():
        if any(_is_cjk(ch) for ch in chunk):
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
                ids = tuple(token_to_id[c] for c in cands if c in token_to_id)
                if tid is not None and tid >= NUM_SPECIALS and ids:
                    vocab.similar[tid] = ids
        return vocab


def load_similar_words(path) -> dict[str, list[str]]:
    """Read a JSON object mapping token -> list of substitute tokens."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
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
        if min(self.d_model, self.heads, self.layers, self.d_ff, self.max_len) < 1:
            raise ConfigError("all encoder dimensions must be >= 1")
        if self.d_model % self.heads:
            raise ConfigError(f"d_model={self.d_model} not divisible by heads={self.heads}")
        if self.d_model % 2:
            raise ConfigError(f"d_model must be even for positional encoding, got {self.d_model}")
        if not 0 < self.mask_rate < 1:
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
        span = int(rng.choice(_SPAN_SIZES, p=_SPAN_PROBS))
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
    sums = predicted.data.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ContractError("predicted rows must each sum to 1")
    rows = np.arange(n)
    picked = predicted.data[rows, targets]
    floored = np.maximum(picked, PROB_FLOOR)

    def back(g):
        grad = np.zeros_like(predicted.data)
        grad[rows, targets] = -g * (picked > PROB_FLOOR) / floored
        nm.accumulate(predicted, grad)

    return nm.fused((predicted,), (-np.log(floored).sum(),), back)[0]


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


def multi_head_attention(x: Tensor, params: Mapping[str, Tensor], heads: int) -> Tensor:
    """Project into per-head subspaces, attend, concatenate, and mix.

    One tape node. q, k and v are split into (heads, L, d_k) blocks; every
    head then takes max-shifted softmax weights of its scaled dot-product
    scores and averages its values, all heads in each 3-D matmul.
    """
    length, d_model = x.shape
    if d_model % heads:
        raise ConfigError(f"d_model={d_model} not divisible by heads={heads}")
    d_k = d_model // heads
    scale = 1.0 / math.sqrt(d_k)
    wq, wk, wv, wo = (params[w] for w in ("wq", "wk", "wv", "wo"))

    def split(a):
        return a.reshape(length, heads, d_k).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(length, d_model)

    q, k, v = (split(x.data @ w.data) for w in (wq, wk, wv))
    scores = (q @ k.transpose(0, 2, 1)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    merged = merge(weights @ v)

    def back(g):
        nm.accumulate(wo, merged.T @ g)
        d_ctx = split(g @ wo.data.T)
        d_weights = d_ctx @ v.transpose(0, 2, 1)
        d_scores = ((d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
                    * weights * scale)
        grad_q = merge(d_scores @ k)
        grad_k = merge(d_scores.transpose(0, 2, 1) @ q)
        grad_v = merge(weights.transpose(0, 2, 1) @ d_ctx)
        for w, grad in ((wq, grad_q), (wk, grad_k), (wv, grad_v)):
            nm.accumulate(w, x.data.T @ grad)
        nm.accumulate(x, grad_q @ wq.data.T + grad_k @ wk.data.T + grad_v @ wv.data.T)

    return nm.fused((x, wq, wk, wv, wo), (merged @ wo.data,), back)[0]


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               sublayer: Tensor | None = None) -> Tensor:
    """Row-wise standardization (population variance) with learned affine.

    Normalizes x + sublayer when a sublayer output is given (the residual
    connection), else x; one tape node either way. The variance is floored
    at eps rather than shifted by it, so any row with real spread comes out
    with exactly unit population std, while constant rows map to zeros
    instead of dividing by zero. Where the floor applies, no gradient flows
    through the variance.
    """
    total = x.data if sublayer is None else x.data + sublayer.data
    width = total.shape[1]
    centered = total - total.sum(axis=1, keepdims=True) * (1.0 / width)
    var = (centered * centered).sum(axis=1, keepdims=True) * (1.0 / width)
    inv_std = np.maximum(var, LAYER_NORM_EPS) ** -0.5
    normed = centered * inv_std

    def back(g):
        nm.accumulate(gain, (g * normed).sum(axis=0, keepdims=True))
        nm.accumulate(bias, g.sum(axis=0, keepdims=True))
        d_normed = g * gain.data
        d_var = ((d_normed * centered).sum(axis=1, keepdims=True)
                 * (-0.5 * inv_std ** 3) * (var > LAYER_NORM_EPS))
        d_centered = d_normed * inv_std + d_var * (2.0 / width) * centered
        d_total = d_centered - d_centered.sum(axis=1, keepdims=True) * (1.0 / width)
        nm.accumulate(x, d_total)
        if sublayer is not None:
            nm.accumulate(sublayer, d_total)

    parents = (x, gain, bias) if sublayer is None else (x, gain, bias, sublayer)
    return nm.fused(parents, (normed * gain.data + bias.data,), back)[0]


def feed_forward(x: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """relu(x·w1 + b1)·w2 + b2 as one tape node."""
    w1, b1, w2, b2 = (params[w] for w in ("w1", "b1", "w2", "b2"))
    hidden = np.maximum(0.0, x.data @ w1.data + b1.data)

    def back(g):
        nm.accumulate(w2, hidden.T @ g)
        nm.accumulate(b2, g.sum(axis=0, keepdims=True))
        d_pre = (g @ w2.data.T) * (hidden > 0)
        nm.accumulate(w1, x.data.T @ d_pre)
        nm.accumulate(b1, d_pre.sum(axis=0, keepdims=True))
        nm.accumulate(x, d_pre @ w1.data.T)

    return nm.fused((x, w1, b1, w2, b2), (hidden @ w2.data + b2.data,), back)[0]


def encoder_layer(x: Tensor, params: Mapping[str, Tensor], heads: int) -> Tensor:
    """Post-norm block: attention and feed-forward, each behind a residual."""
    attended = layer_norm(x, params["ln1_g"], params["ln1_b"],
                          multi_head_attention(x, params, heads))
    return layer_norm(attended, params["ln2_g"], params["ln2_b"],
                      feed_forward(attended, params))


def init_encoder_params(config: EncoderConfig, vocab_size: int,
                        rng: np.random.Generator) -> ParameterStore:
    store = ParameterStore()
    d, dff = config.d_model, config.d_ff
    store.add("emb", nm.uniform_init(rng, d, (vocab_size, d)))
    for i in range(config.layers):
        p = f"layer{i}"
        for w in ("wq", "wk", "wv", "wo"):
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
                params: ParameterStore) -> tuple[Tensor, Tensor]:
    """Run the full encoder; returns (per-token rows, pooled sentence row)."""
    if len(token_ids) == 0 or token_ids[0] != START_ID:
        raise ContractError("token sequence must begin with the start id")
    if len(token_ids) > config.max_len:
        raise ContractError(
            f"sequence of {len(token_ids)} tokens exceeds max_len={config.max_len}")
    pe = positional_encoding(config.max_len, config.d_model)
    x = nm.add(nm.gather_rows(params["emb"], token_ids),
               Tensor(pe[: len(token_ids)]))
    for i in range(config.layers):
        x = encoder_layer(x, params.view(f"layer{i}"), config.heads)
    if config.pool == "mean":
        pooled = nm.mean_(x, axis=0, keepdims=True)
    else:
        pooled = x[0:1, :]
    return x, pooled


def mlm_predictions(rows: Tensor, positions: np.ndarray,
                    params: ParameterStore) -> Tensor:
    """Vocabulary distributions at the masked positions."""
    picked = nm.gather_rows(rows, positions)
    logits = nm.add(nm.matmul(picked, params["mlm.w"]), params["mlm.b"])
    return nm.softmax(logits, axis=-1)


def pretrain_mlm(corpus: Sequence[str], config: EncoderConfig, epochs: int,
                 seed: int, similar_words: Mapping[str, Sequence[str]] | None = None,
                 lr: float = 1e-3) -> tuple[ParameterStore, Vocabulary, list[float]]:
    """Train the encoder to recover corrupted tokens over the corpus.

    Returns the trained parameters, the corpus vocabulary, and the mean
    per-epoch loss trace. epochs=0 returns the untouched initialization.
    A non-finite loss raises DivergenceError naming the epoch and sentence.
    """
    corpus = [t for t in corpus if t.strip()]
    if not corpus:
        raise ContractError("pretraining corpus is empty")
    vocab = Vocabulary.build(corpus, similar_words)
    rng = np.random.default_rng(seed)
    params = init_encoder_params(config, vocab.size, rng)
    state = nm.adam_state(params, lr=lr)
    trace: list[float] = []
    for epoch in range(epochs):
        losses = []
        for index, text in enumerate(corpus):
            tokens = tokenize(text, vocab, config.max_len)
            if len(tokens) < 2:
                continue
            corrupted, positions, targets = similar_word_mask(tokens, vocab, rng, config.mask_rate)
            rows, _ = encode_text(corrupted, config, params)
            loss = mlm_loss(mlm_predictions(rows, positions, params), positions, targets)
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite pretraining loss at epoch {epoch}, sentence {index}")
            params.zero_grad()
            nm.backward(loss)
            nm.adam_step(params, params.grads(), state)
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


def encode_feature(text: str, vocab: Vocabulary, config: EncoderConfig,
                   params: ParameterStore, length: int) -> np.ndarray:
    tokens = tokenize(text, vocab, config.max_len)
    rows, pooled = encode_text(tokens, config, params)
    return standardize_features(pooled.data, length)


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
        if not isinstance(doc, dict) or doc.get("format_version") != 1:
            raise DataError("not a version 1 encoder checkpoint")
        config = EncoderConfig(**doc["config"])
        tokens = doc["vocab"]["tokens"]
        if (tokens[:NUM_SPECIALS] != list(_SPECIAL_TOKENS)
                or not all(isinstance(t, str) for t in tokens)):
            raise DataError("vocabulary must be a list of tokens led by the special tokens")
        similar = {int(k): tuple(int(i) for i in v)
                   for k, v in doc["vocab"]["similar"].items()}
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
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "date":
            raise SchemaError(f"{path}: expected header date,f0..fN")
        actual_len = len(header) - 1
        if expected_len is not None and actual_len != expected_len:
            raise DataError(f"{path}: feature length {actual_len}, expected {expected_len}")
        out: dict[Date, np.ndarray] = {}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: line {line_no} has {len(row)} fields, "
                                f"expected {len(header)}")
            try:
                out[Date.fromisoformat(row[0])] = np.array([float(v) for v in row[1:]])
            except ValueError as err:
                raise ParseError(f"{path}: line {line_no}: {err}") from None
    return out
