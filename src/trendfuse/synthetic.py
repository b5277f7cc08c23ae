"""Deterministic synthetic datasets for experiments and verification.

Markov-persistent label series, where the prior history is the only
informative input (used to measure the prior-effect ablation direction),
as an `ingest.Samples` block cut by `ingest.windows` or as a market CSV,
plus toy policy summaries and a toy sentence corpus for the text encoder.

The generators work in blocks: the dates are one map over a range of
ordinals, the Markov labels one cumulative sum of the switches, and the
summaries draw every word index in one call, as `toy_corpus` does for each
sentence. This gives the same values as drawing element by element.
`rng.choice` on a tuple, with replacement and no `p`, is
`rng.integers(0, len(tuple), size)`. A bounded integer draw below 2**32
takes its values from the bit generator's one 32-bit stream (Lemire's
rejection method), so how the draws are split into calls does not change
them. The market writer keeps its per-row draws: each row takes a 64-bit
`uniform` and then a 32-bit `integers`, and drawing either in a block
would change the order in which they read the stream.
"""

from __future__ import annotations

import json
from datetime import date as Date
from pathlib import Path

import numpy as np

from .errors import ContractError
from .ingest import Samples, windows

_EPOCH = Date(2023, 1, 3)

_WORDS = ("rates", "policy", "growth", "liquidity", "credit", "outlook",
          "easing", "supply", "demand", "reserve", "bond", "index")


def _dates(count: int) -> list[Date]:
    start = _EPOCH.toordinal()
    return list(map(Date.fromordinal, range(start, start + count)))


def markov_labels(count: int, persistence: float, rng: np.random.Generator) -> np.ndarray:
    """Two-state Markov chain: repeat the last label with prob `persistence`.

    Label i is the first label flipped once per switch up to i.
    """
    if count < 1:
        raise ContractError(f"need at least 1 label, got {count}")
    labels = np.empty(count, dtype=np.int64)
    labels[0] = int(rng.integers(0, 2))
    stay = rng.random(count - 1) < persistence
    labels[1:] = labels[0] ^ (np.cumsum(~stay) & 1)
    return labels


def markov_samples(count: int, window: int, seed: int, persistence: float = 0.85,
                   feature_len: int = 8) -> Samples:
    """Markov-persistent labels with pure-noise price and text channels.

    The prior vector is the only input correlated with the target, which
    isolates its contribution when it is zero-masked away.
    """
    rng = np.random.default_rng(seed)
    total = count + window - 1
    labels = markov_labels(total, persistence, rng)
    prices = rng.uniform(0.0, 1.0, size=total)
    texts = rng.normal(0.0, 0.1, size=(total, feature_len))
    return windows(_dates(total), labels, prices, texts, window)


def write_markov_market_csv(path, count: int, seed: int,
                            persistence: float = 0.85) -> None:
    """Market CSV whose change signs follow a persistent Markov chain.

    Change magnitudes span several orders of magnitude, so after min-max
    normalization the sign information is squashed into a narrow band and
    the binary prior history carries the usable signal.
    """
    rng = np.random.default_rng(seed)
    labels = markov_labels(count, persistence, rng)
    dates = _dates(count)
    price = 100.0
    rows = []
    for day, label in zip(dates, labels):
        sign = 1.0 if label else -1.0
        chg = sign * float(np.exp(rng.uniform(-3.0, 3.0)))
        open_ = price
        price = price * (1.0 + chg / 100.0)
        rows.append((day.isoformat(), repr(chg), repr(open_), repr(price),
                     repr(float(rng.integers(10_000, 99_999)))))
    lines = ["Date,Chg,Open,Close,Volume"]
    lines += [",".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_toy_summaries(path, count: int, seed: int) -> None:
    """JSON-lines summaries of three four-word sentences of deterministic word
    salad, one per day for `count` >= 1 days; a smaller count is a
    ContractError, before anything is written."""
    if count < 1:
        raise ContractError(f"need at least 1 summary, got {count}")
    rng = np.random.default_rng(seed)
    days = _dates(count)
    picks = rng.integers(0, len(_WORDS), size=(len(days), 3, 4)).tolist()
    lines = []
    for day, sentences in zip(days, picks):
        text = ". ".join(" ".join(map(_WORDS.__getitem__, s)) for s in sentences) + "."
        lines.append(json.dumps({"date": day.isoformat(), "text": text}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def toy_corpus(n_sentences: int = 20, seed: int = 7) -> list[str]:
    """Small pretraining corpus with repeated co-occurrence structure, of
    `n_sentences` >= 1 sentences; fewer is a ContractError."""
    if n_sentences < 1:
        raise ContractError(f"need at least 1 sentence, got {n_sentences}")
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(n_sentences):
        picks = rng.integers(0, len(_WORDS), size=int(rng.integers(4, 8)))
        corpus.append(" ".join(map(_WORDS.__getitem__, picks.tolist())))
    return corpus
