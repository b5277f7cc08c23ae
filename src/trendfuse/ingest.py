"""Market CSV and summary-text ingestion, normalization, and windowing.

Turns raw inputs into one model-ready `Samples` block whose rows are the
samples: each row carries the previous days' binary movement history (the
prior vector), the matching normalized price window, and the text feature
for the target date. `windows` is the one rule that builds those rows, and
a chronological span of samples is a row slice of the block. Everything
here is pure over its inputs and chronology-preserving.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .errors import (ContractError, DataError, DegenerateInputError,
                     ParseError, ProviderError, SchemaError, open_text)

log = logging.getLogger(__name__)

MARKET_COLUMNS = ("Date", "Chg", "Open", "Close", "Volume")


@dataclass(frozen=True)
class MarketRecord:
    date: Date
    chg: float
    open: float
    close: float
    volume: float


@dataclass(frozen=True)
class MarketSeries:
    records: tuple[MarketRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class LabeledSeries:
    records: tuple[MarketRecord, ...]
    labels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SummaryRecord:
    date: Date
    text: str


@dataclass(frozen=True, eq=False)
class Samples:
    """Row-aligned read-only sample arrays, all float64: row i is one sample
    with target date `dates[i]`, movement history `priors[i]` (n-1), price
    window `prices[i]` (n-1), text feature `texts[i]` (L) and label
    `targets[i]`. Slicing rows gives a `Samples` of views."""

    dates: tuple[Date, ...]
    priors: np.ndarray
    prices: np.ndarray
    texts: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        for block in (self.priors, self.prices, self.texts, self.targets):
            block.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, rows: slice) -> Samples:
        if not isinstance(rows, slice):
            raise TypeError(f"Samples takes row slices, not {type(rows).__name__}")
        return Samples(self.dates[rows], self.priors[rows], self.prices[rows],
                       self.texts[rows], self.targets[rows])


def _parse_float(raw: str, column: str, line: int) -> float:
    cleaned = raw.strip().rstrip("%").strip()
    try:
        value = float(cleaned)
    except ValueError:
        raise ParseError(f"line {line}: cannot parse {column}={raw!r} as a number") from None
    if not math.isfinite(value):
        raise ParseError(f"line {line}: non-finite {column}={raw!r}")
    return value


def parse_market_csv(path) -> MarketSeries:
    """Load a market CSV (header Date,Chg,Open,Close,Volume; Chg may end in %)."""
    path = Path(path)
    with open_text(path) as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in MARKET_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {', '.join(missing)}")
        records = []
        for row in reader:
            line = reader.line_num
            if None in row.values():
                raise ParseError(f"line {line}: missing field(s) "
                                 + ", ".join(k for k, v in row.items() if v is None))
            if None in row:  # DictReader files fields past the header under None
                raise ParseError(f"line {line}: {len(header) + len(row[None])} fields "
                                 f"for a header of {len(header)}")
            raw_date = row["Date"].strip()
            try:
                day = Date.fromisoformat(raw_date)
            except ValueError:
                raise ParseError(f"line {line}: cannot parse Date={raw_date!r} "
                                 "(expected YYYY-MM-DD)") from None
            volume = _parse_float(row["Volume"], "Volume", line)
            if volume < 0:
                raise ParseError(f"line {line}: negative Volume={volume}")
            records.append(MarketRecord(
                date=day,
                chg=_parse_float(row["Chg"], "Chg", line),
                open=_parse_float(row["Open"], "Open", line),
                close=_parse_float(row["Close"], "Close", line),
                volume=volume,
            ))
    counts: dict[Date, int] = {}
    for r in records:
        counts[r.date] = counts.get(r.date, 0) + 1
    dupes = sorted(d for d, c in counts.items() if c > 1)
    if dupes:
        raise DataError("duplicate date(s): " + ", ".join(d.isoformat() for d in dupes))
    records.sort(key=lambda r: r.date)
    return MarketSeries(records=tuple(records))


def to_binary_labels(series: MarketSeries) -> LabeledSeries:
    """Label 1 for a positive change, 0 otherwise (flat days count as 0)."""
    labels = tuple(1 if r.chg > 0 else 0 for r in series.records)
    return LabeledSeries(records=series.records, labels=labels)


def minmax_normalize(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Map to [0, 1] linearly; min lands on 0 and max on 1."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ContractError(f"need at least 2 values, got {arr.size}")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        raise DegenerateInputError(f"constant sequence (all {lo}); range is zero")
    return (arr - lo) / (hi - lo)


def zscore_normalize(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Center and scale by the population standard deviation."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ContractError(f"need at least 2 values, got {arr.size}")
    # two-pass centering removes the rounding residue a large common
    # offset leaves behind, keeping the output mean at float noise level
    centered = arr - arr.mean()
    centered -= centered.mean()
    peak = np.abs(centered).max()
    if peak == 0:
        raise DegenerateInputError("zero variance; cannot z-score")
    if peak < np.finfo(np.float64).tiny:  # subnormal: too few bits left to centre
        raise DegenerateInputError(f"spread {peak!r} is below the smallest normal float; "
                                   "cannot z-score")
    # scaling to a peak of 1 first keeps the squares of a tiny spread out of
    # the subnormal range, where they would lose precision
    centered /= peak
    return centered / centered.std()


def windows(dates: Sequence[Date], labels, prices, texts, n: int) -> Samples:
    """Slide a length-n window over day-aligned arrays; one row per position.

    Row i uses days i..i+n-2 as history (`labels` as the prior vector plus
    `prices`) and day i+n-1 as the target: its date, label and `texts` row.
    """
    labels = np.asarray(labels, dtype=np.float64)
    target = np.arange(n - 1, len(labels))
    history = np.arange(target.size)[:, None] + np.arange(n - 1)    # (N, n-1) day indices
    return Samples(dates=tuple(dates[n - 1:]), priors=labels[history],
                   prices=np.asarray(prices, dtype=np.float64)[history],
                   texts=np.asarray(texts, dtype=np.float64)[target], targets=labels[target])


def make_windows(series: LabeledSeries, n: int,
                 features: Mapping[Date, np.ndarray] | None = None,
                 feature_len: int | None = None) -> Samples:
    """`windows` over the series: binary labels as the prior vector, the
    min-max-normalized price changes, and the text feature looked up by
    target date. Dates with no feature get a zero vector so the series stays
    contiguous.
    """
    if n < 2:
        raise ContractError(f"window length must be >= 2, got {n}")
    if len(series) < n:
        raise ContractError(f"series of length {len(series)} is shorter than window {n}")
    features = dict(features or {})
    lengths = {len(np.asarray(v).reshape(-1)) for v in features.values()}
    if len(lengths) > 1:
        raise DataError(f"feature vectors have mixed lengths: {sorted(lengths)}")
    if lengths:
        L = lengths.pop()
        if feature_len is not None and feature_len != L:
            raise DataError(f"feature length mismatch: expected {feature_len}, got {L}")
    elif feature_len is not None:
        L = feature_len
    else:
        raise ContractError("feature_len is required when no features are given")

    dates = [r.date for r in series.records]
    texts = np.array([np.reshape(features.get(day, np.zeros(L)), -1) for day in dates],
                     dtype=np.float64)
    missing = sum(day not in features for day in dates[n - 1:])
    if missing and features:
        log.warning("%d of %d windows had no text feature; zero vectors substituted",
                    missing, len(dates) - n + 1)
    return windows(dates, series.labels, minmax_normalize([r.chg for r in series.records]),
                   texts, n)


def split_train_test(samples: Sequence, ratio: float = 0.8) -> tuple[Sequence, Sequence]:
    """Chronological split: first floor(ratio*T) samples train, rest test,
    each a slice of `samples` (a `Samples` block gives two blocks)."""
    if not 0 < ratio < 1:
        raise ContractError(f"ratio must be in (0, 1), got {ratio}")
    if len(samples) < 2:
        raise ContractError(f"need at least 2 samples to split, got {len(samples)}")
    cut = math.floor(ratio * len(samples))
    if cut == 0 or cut == len(samples):
        raise ContractError(f"split of {len(samples)} at ratio {ratio} leaves one side empty")
    return samples[:cut], samples[cut:]


def load_summaries(path) -> list[SummaryRecord]:
    """Read a JSON-lines summaries file with `date` and `text` fields.

    Lines with an empty text are skipped (with a warning); lines sharing a
    date are merged into one record with the texts joined by a space.
    """
    path = Path(path)
    merged: dict[Date, list[str]] = {}
    skipped = 0
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(f"line {line_no}: invalid JSON ({err.msg})") from None
            if not isinstance(obj, dict) or "date" not in obj or "text" not in obj:
                raise ParseError(f"line {line_no}: expected an object with date and text")
            try:
                day = Date.fromisoformat(str(obj["date"]).strip())
            except ValueError:
                raise ParseError(f"line {line_no}: cannot parse date={obj['date']!r}") from None
            text = str(obj["text"]).strip()
            if not text:
                skipped += 1
                log.warning("line %d: empty text for %s, record skipped", line_no, day)
                continue
            merged.setdefault(day, []).append(text)
    if skipped:
        log.warning("skipped %d empty summary line(s) in %s", skipped, path)
    return [SummaryRecord(date=d, text=" ".join(texts))
            for d, texts in sorted(merged.items())]


class SummaryProvider(Protocol):
    def summarize(self, text: str) -> str: ...


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


class ExtractiveSummaryProvider:
    """Deterministic stub provider: keeps the first k sentences verbatim."""

    def __init__(self, k: int = 3):
        if k < 1:
            raise ContractError(f"sentence count must be >= 1, got {k}")
        self.k = k

    def summarize(self, text: str) -> str:
        sentences = _SENTENCE_SPLIT.split(text.strip())
        return " ".join(sentences[: self.k])


def summarize(text: str, provider: SummaryProvider | None = None) -> str:
    """Run a summary provider over text, wrapping failures as ProviderError."""
    if not text.strip():
        raise ContractError("cannot summarize empty text")
    provider = provider or ExtractiveSummaryProvider()
    try:
        return provider.summarize(text)
    except Exception as err:
        raise ProviderError(f"summary provider {type(provider).__name__} failed") from err
