"""Deterministic synthetic datasets for experiments and verification.

Markov-persistent label series, where the prior history is the only
informative input (used to measure the prior-effect ablation direction),
as an `ingest.Samples` block cut by `ingest.windows` or as a market CSV,
plus toy policy summaries and a toy sentence corpus for the text encoder.
"""

from __future__ import annotations

import json
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np

from .ingest import Samples, windows

_EPOCH = Date(2023, 1, 3)

_WORDS = ("rates", "policy", "growth", "liquidity", "credit", "outlook",
          "easing", "supply", "demand", "reserve", "bond", "index")


def _dates(count: int) -> list[Date]:
    return [_EPOCH + timedelta(days=i) for i in range(count)]


def markov_labels(count: int, persistence: float, rng: np.random.Generator) -> np.ndarray:
    """Two-state Markov chain: repeat the last label with prob `persistence`."""
    labels = np.empty(count, dtype=np.int64)
    labels[0] = int(rng.integers(0, 2))
    stay = rng.random(count - 1) < persistence
    for i in range(1, count):
        labels[i] = labels[i - 1] if stay[i - 1] else 1 - labels[i - 1]
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
    """JSON-lines summaries of three four-word sentences of deterministic word salad."""
    rng = np.random.default_rng(seed)
    lines = []
    for day in _dates(count):
        text = ". ".join(" ".join(rng.choice(_WORDS, size=4)) for _ in range(3)) + "."
        lines.append(json.dumps({"date": day.isoformat(), "text": text}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def toy_corpus(n_sentences: int = 20, seed: int = 7) -> list[str]:
    """Small pretraining corpus with repeated co-occurrence structure."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(n_sentences):
        words = rng.choice(_WORDS, size=int(rng.integers(4, 8)))
        corpus.append(" ".join(words))
    return corpus
