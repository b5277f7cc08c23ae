"""Market CSV and summary-text ingestion, normalization, and windowing.

Turns raw inputs into model-ready samples: each sample carries the
previous days' binary movement history (the prior vector), the matching
normalized price window, and the text feature for the target date.
Everything here is pure over its inputs and chronology-preserving.
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
                     ParseError, ProviderError, SchemaError)

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

    def dates(self) -> list[Date]:
        return [r.date for r in self.records]


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


@dataclass
class FusedSample:
    """One training instance: movement history, price window, text feature, label."""

    date: Date
    prior: np.ndarray
    price_window: np.ndarray
    text_feature: np.ndarray
    target: int


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
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in MARKET_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {', '.join(missing)}")
        records = []
        for row in reader:
            line = reader.line_num
            raw_date = (row["Date"] or "").strip()
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


def write_market_csv(series: MarketSeries, path) -> None:
    """Serialize a series so that parse(write(parse(x))) is a fixed point."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MARKET_COLUMNS)
        for r in series.records:
            writer.writerow([r.date.isoformat(), repr(r.chg), repr(r.open),
                             repr(r.close), repr(r.volume)])


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
    sigma = centered.std()
    if sigma == 0:
        raise DegenerateInputError("zero variance; cannot z-score")
    return centered / sigma


def make_windows(series: LabeledSeries, n: int,
                 features: Mapping[Date, np.ndarray] | None = None,
                 feature_len: int | None = None) -> list[FusedSample]:
    """Slide a length-n window over the series; one sample per position.

    Sample i uses days i..i+n-2 as history (binary prior vector plus the
    min-max-normalized price changes) and day i+n-1 as the target. The
    text feature is looked up by target date; dates with no feature get a
    zero vector so the series stays contiguous.
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

    prices = minmax_normalize([r.chg for r in series.records])
    labels = np.array(series.labels, dtype=np.float64)
    samples = []
    warn_missing = bool(features)
    missing = 0
    for i in range(len(series) - n + 1):
        target_idx = i + n - 1
        target_date = series.records[target_idx].date
        feat = features.get(target_date)
        if feat is None:
            feat = np.zeros(L)
            missing += 1
        else:
            feat = np.asarray(feat, dtype=np.float64).reshape(-1)
        samples.append(FusedSample(
            date=target_date,
            prior=labels[i:target_idx].copy(),
            price_window=prices[i:target_idx].copy(),
            text_feature=feat,
            target=int(series.labels[target_idx]),
        ))
    if missing and warn_missing:
        log.warning("%d of %d windows had no text feature; zero vectors substituted",
                    missing, len(samples))
    return samples


def split_train_test(samples: Sequence, ratio: float = 0.8) -> tuple[list, list]:
    """Chronological split: first floor(ratio*T) samples train, rest test."""
    if not 0 < ratio < 1:
        raise ContractError(f"ratio must be in (0, 1), got {ratio}")
    if len(samples) < 2:
        raise ContractError(f"need at least 2 samples to split, got {len(samples)}")
    cut = math.floor(ratio * len(samples))
    if cut == 0 or cut == len(samples):
        raise ContractError(f"split of {len(samples)} at ratio {ratio} leaves one side empty")
    return list(samples[:cut]), list(samples[cut:])


def load_summaries(path) -> list[SummaryRecord]:
    """Read a JSON-lines summaries file with `date` and `text` fields.

    Lines with an empty text are skipped (with a warning); lines sharing a
    date are merged into one record with the texts joined by a space.
    """
    path = Path(path)
    merged: dict[Date, list[str]] = {}
    skipped = 0
    with path.open(encoding="utf-8") as fh:
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
