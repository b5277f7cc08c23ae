"""Dated-file reading, normalization, and windowing.

The rules the dated inputs share live here: `parse_date`, the one date
rule, and `read_dated_csv`, the one row loop of the market and feature
CSVs, on which `parse_market_csv` and `encoder.read_features` add only
their own rules. `load_summaries` reads its dates through `parse_date`.

Each dated input is read once into columns (a `MarketSeries` in date
order; a summaries file's dates and texts; a feature file's dates and
block), which `windows` turns into one model-ready `Samples` block. Each
row is a sample: the previous days' binary movement history (the prior
vector), the matching normalized price window, and the text feature for
the target date. `windows` is the one rule that builds those rows, and a
chronological span of samples is a row slice of the block. Everything
here is pure over its inputs and chronology-preserving.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import (ConfigError, ContractError, DataError, DegenerateInputError,
                     ParseError, ProviderError, SchemaError, open_text)

log = logging.getLogger(__name__)

MARKET_COLUMNS = ("Date", "Chg", "Open", "Close", "Volume")


@dataclass(frozen=True, eq=False)
class MarketSeries:
    """A market file's days in date order as read-only float64 columns: day i
    is `dates[i]` with `chg[i]`, `open[i]`, `close[i]` and `volume[i]`."""

    dates: tuple[Date, ...]
    chg: np.ndarray
    open: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        for column in (self.chg, self.open, self.close, self.volume):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)


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


# The one date form: `date.fromisoformat` also reads 20230103, 2023W013 and
# 2023-W01-3 on Python 3.11 and later, and 3.10 does not.
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(raw: str, column: str, path: Path, line: int) -> Date:
    """`raw` as an ISO date, YYYY-MM-DD in ASCII digits (spaces around it are
    allowed), on every Python; else a ParseError `<path>: line <line>:
    cannot parse <column>=<raw!r> ...`."""
    text = raw.strip()
    try:
        if _DATE.fullmatch(text):
            return Date.fromisoformat(text)
    except ValueError:
        pass
    raise ParseError(f"{path}: line {line}: cannot parse {column}={raw!r} "
                     "(expected YYYY-MM-DD)")


def read_dated_csv(path: Path, columns: Callable[[list[str]], tuple[int, Sequence[int]]],
                   percent: bool = False) -> tuple[tuple[Date, ...], np.ndarray, list[int]]:
    """The dates, the (m, k) float64 block of the number columns (both in
    file order) and each row's line. `columns(header)` checks the header and
    gives the date column's index and the number columns'. Blank lines are
    skipped; each other row has the header's field count, a `parse_date`
    date and finite numbers (with `percent`, a trailing % is dropped); a
    fault is a ParseError naming `path` and the line, a repeated date a
    DataError listing the dates."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        at_date, numbers = columns(header)
        # faster than a list per row; but one index gives a field, not a tuple
        take = (operator.itemgetter(*numbers) if len(numbers) > 1
                else lambda row: [row[j] for j in numbers])
        dates: list[Date] = []
        cells: list[str] = []  # every row's number fields, in one flat list
        lines: list[int] = []
        for row in filter(None, reader):
            line = reader.line_num
            if len(row) != len(header):
                raise ParseError(f"{path}: line {line}: " + (
                    f"missing field(s) {', '.join(header[len(row):])}" if len(row) < len(header)
                    else f"{len(row)} fields for a header of {len(header)}"))
            dates.append(parse_date(row[at_date], header[at_date], path, line))
            cells += take(row)
            lines.append(line)
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:  # parse cell by cell, to strip a % or to name the cell refused
        values = np.empty(len(cells))
        for i, raw in enumerate(cells):
            try:
                values[i] = float(raw.strip().rstrip("%") if percent else raw)
            except ValueError:
                raise ParseError(f"{path}: line {lines[i // len(numbers)]}: cannot parse "
                                 f"{header[numbers[i % len(numbers)]]}={raw!r} "
                                 "as a number") from None
    block = values.reshape(len(dates), len(numbers))
    finite = np.isfinite(block)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(f"{path}: line {lines[i]}: non-finite {header[numbers[j]]}="
                         f"{cells[i * len(numbers) + j]!r}")
    dupes = sorted(d for d, count in Counter(dates).items() if count > 1)
    if dupes:
        raise DataError(f"{path}: duplicate date(s): "
                        + ", ".join(d.isoformat() for d in dupes))
    return tuple(dates), block, lines


def parse_market_csv(path) -> MarketSeries:
    """Load a market CSV (header Date,Chg,Open,Close,Volume in any order,
    extra columns ignored; a number may end in %) into date-ordered columns,
    by the rules of `read_dated_csv`; a negative Volume is a ParseError."""
    path = Path(path)

    def columns(header: list[str]) -> tuple[int, list[int]]:
        index = {name: i for i, name in enumerate(header)}
        missing = [c for c in MARKET_COLUMNS if c not in index]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {', '.join(missing)}")
        return index["Date"], [index[c] for c in MARKET_COLUMNS[1:]]

    dates, block, lines = read_dated_csv(path, columns, percent=True)
    negative = np.flatnonzero(block[:, 3] < 0)
    if negative.size:
        i = negative[0]
        raise ParseError(f"{path}: line {lines[i]}: negative Volume={float(block[i, 3])}")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return MarketSeries(tuple(dates[i] for i in order), *block[order].T.copy())


def to_binary_labels(series: MarketSeries) -> np.ndarray:
    """The label column: 1.0 for a positive change, else 0.0 (flat days too)."""
    return (series.chg > 0).astype(np.float64)


def minmax_normalize(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Map to [0, 1] linearly; min lands on 0 and max on 1."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ContractError(f"need at least 2 values, got {arr.size}")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        raise DegenerateInputError(f"constant sequence (all {lo}); range is zero")
    return (arr - lo) / (hi - lo)


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


def zero_features(count: int, length: int) -> np.ndarray:
    """(count, length) zero text features; ConfigError if too large to allocate."""
    try:
        return np.zeros((count, length))
    except (ValueError, MemoryError) as err:
        raise ConfigError(f"cannot allocate {count} text features of length "
                          f"{length} ({err})") from None


def make_windows(series: MarketSeries, n: int,
                 features: tuple[Sequence[Date], np.ndarray] | None = None, *,
                 feature_len: int) -> Samples:
    """`windows` over the series: its binary labels as the prior vector, the
    min-max-normalized price changes, and the text feature of the target
    date. `features` is a (dates, (m, feature_len) block) pair in any date
    order, row j the feature of `dates[j]`; days with no row get a zero
    vector, so the series stays contiguous. A feature length too large to
    allocate is a ConfigError.

    A window's text row is its target day's feature. That is valid only if
    a summary dated d is published before day d's move; the program does
    not check this.
    """
    if n < 2:
        raise ContractError(f"window length must be >= 2, got {n}")
    if len(series) < n:
        raise ContractError(f"series of length {len(series)} is shorter than window {n}")
    feature_dates, block = ((), None) if features is None else features
    if block is not None and block.shape[1] != feature_len:
        raise ContractError(f"feature block of width {block.shape[1]}, "
                            f"expected feature_len {feature_len}")
    texts = zero_features(len(series), feature_len)
    if block is not None:
        row_of = {day: j for j, day in enumerate(feature_dates)}
        rows = np.array([row_of.get(day, -1) for day in series.dates], dtype=np.intp)
        found = rows >= 0
        texts[found] = block[rows[found]]
        missing = np.count_nonzero(~found[n - 1:])
        if missing and len(feature_dates):
            log.warning("%d of %d windows had no text feature; zero vectors substituted",
                        missing, len(series) - n + 1)
    return windows(series.dates, to_binary_labels(series), minmax_normalize(series.chg),
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


def load_summaries(path) -> tuple[tuple[Date, ...], list[str]]:
    """Read a JSON-lines summaries file with `date` and `text` string fields
    into its dates in order and the text of each.

    Lines with an empty text are skipped (with a warning); lines sharing a
    date are merged into one text, joined by a space.
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
            except (ValueError, RecursionError) as err:  # too long an integer, too deep
                raise ParseError(f"{path}: line {line_no}: invalid JSON "
                                 f"({getattr(err, 'msg', err)})") from None
            if not isinstance(obj, dict) or "date" not in obj or "text" not in obj:
                raise ParseError(f"{path}: line {line_no}: expected an object with date and text")
            for key in ("date", "text"):
                if not isinstance(obj[key], str):
                    raise ParseError(f"{path}: line {line_no}: {key} must be a JSON string, "
                                     f"got {json.dumps(obj[key])}")
            day = parse_date(obj["date"], "date", path, line_no)
            text = obj["text"].strip()
            if not text:
                skipped += 1
                log.warning("line %d: empty text for %s, record skipped", line_no, day)
                continue
            merged.setdefault(day, []).append(text)
    if skipped:
        log.warning("skipped %d empty summary line(s) in %s", skipped, path)
    dates = tuple(sorted(merged))
    return dates, [" ".join(merged[day]) for day in dates]


class SummaryProvider(Protocol):
    def summarize(self, text: str) -> str: ...


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


class ExtractiveSummaryProvider:
    """Deterministic stub provider: keeps the first three sentences verbatim."""

    def summarize(self, text: str) -> str:
        sentences = _SENTENCE_SPLIT.split(text.strip())
        return " ".join(sentences[:3])


def summarize(text: str, provider: SummaryProvider | None = None) -> str:
    """Run a summary provider over text, wrapping failures as ProviderError."""
    if not text.strip():
        raise ContractError("cannot summarize empty text")
    provider = provider or ExtractiveSummaryProvider()
    try:
        return provider.summarize(text)
    except Exception as err:
        raise ProviderError(f"summary provider {type(provider).__name__} failed") from err
