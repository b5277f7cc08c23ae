"""CSV ingestion, normalization, labeling, windowing, and summaries."""

import json
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from trendfuse import ingest, synthetic
from trendfuse.errors import (ContractError, DataError, DegenerateInputError,
                              ParseError, ProviderError, SchemaError)

GOOD_CSV = """Date,Chg,Open,Close,Volume
2023-01-05,-0.4,101.0,100.6,52000
2023-01-03,1.2%,100.0,101.2,50000
2023-01-04,0.0,101.2,101.2,48000
"""


def _write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestParseMarketCsv:
    def test_three_rows_sorted_ascending(self, tmp_path):
        series = ingest.parse_market_csv(_write(tmp_path, "m.csv", GOOD_CSV))
        assert len(series) == 3
        dates = [r.date for r in series.records]
        assert dates == sorted(dates)
        assert dates[0] == date(2023, 1, 3)

    def test_percent_sign_stripped(self, tmp_path):
        series = ingest.parse_market_csv(_write(tmp_path, "m.csv", GOOD_CSV))
        assert series.records[0].chg == 1.2

    def test_duplicate_dates_rejected_with_date(self, tmp_path):
        content = GOOD_CSV + "2023-01-04,0.5,101.2,101.7,47000\n"
        with pytest.raises(DataError, match="2023-01-04"):
            ingest.parse_market_csv(_write(tmp_path, "m.csv", content))

    def test_missing_column_is_schema_error(self, tmp_path):
        content = "Date,Chg,Open,Close\n2023-01-03,1.2,100,101\n"
        with pytest.raises(SchemaError, match="Volume"):
            ingest.parse_market_csv(_write(tmp_path, "m.csv", content))

    def test_bad_number_reports_line(self, tmp_path):
        content = "Date,Chg,Open,Close,Volume\n2023-01-03,oops,100,101,500\n"
        with pytest.raises(ParseError, match="line 2"):
            ingest.parse_market_csv(_write(tmp_path, "m.csv", content))

    def test_bad_date_reports_line(self, tmp_path):
        content = "Date,Chg,Open,Close,Volume\n03/01/2023,1.0,100,101,500\n"
        with pytest.raises(ParseError, match="line 2"):
            ingest.parse_market_csv(_write(tmp_path, "m.csv", content))

    def test_row_wider_than_header_reports_line(self, tmp_path):
        content = GOOD_CSV + "2023-01-09,0.5%,10,11,1,000\n"
        with pytest.raises(ParseError, match="line 5: 6 fields for a header of 5"):
            ingest.parse_market_csv(_write(tmp_path, "m.csv", content))

    def test_extra_columns_ignored(self, tmp_path):
        content = "Date,Chg,Open,Close,Volume,Note\n2023-01-03,1.0,100,101,500,hi\n" \
                  "2023-01-04,-1.0,101,100,400,lo\n"
        series = ingest.parse_market_csv(_write(tmp_path, "m.csv", content))
        assert len(series) == 2

    def test_round_trip_is_fixed_point(self, tmp_path):
        first = ingest.parse_market_csv(_write(tmp_path, "m.csv", GOOD_CSV))
        oracles.write_market_csv(first, tmp_path / "out.csv")
        second = ingest.parse_market_csv(tmp_path / "out.csv")
        assert second == first
        oracles.write_market_csv(second, tmp_path / "out2.csv")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "out2.csv").read_bytes()


class TestBinaryLabels:
    @pytest.mark.parametrize("chg,label", [(0.5, 1), (-0.3, 0), (0.0, 0)])
    def test_sign_rule(self, chg, label):
        record = ingest.MarketRecord(date(2023, 1, 3), chg, 1.0, 1.0, 1.0)
        labeled = ingest.to_binary_labels(ingest.MarketSeries((record,)))
        assert labeled.labels == (label,)


class TestMinMax:
    def test_linear_map_endpoints(self):
        np.testing.assert_allclose(ingest.minmax_normalize([2, 4, 6]), [0, 0.5, 1])

    def test_idempotent_on_unit_range(self):
        data = [0.0, 0.25, 0.9, 1.0]
        np.testing.assert_allclose(ingest.minmax_normalize(data), data, atol=1e-15)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            ingest.minmax_normalize([5.0, 5.0, 5.0])

    def test_too_short_rejected(self):
        with pytest.raises(ContractError):
            ingest.minmax_normalize([1.0])

    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30))
    def test_range_and_endpoints(self, values):
        arr = np.asarray(values)
        if arr.max() == arr.min():
            return
        out = ingest.minmax_normalize(arr)
        assert out.min() == 0.0 and out.max() == 1.0
        assert np.all((out >= 0) & (out <= 1))


class TestZScore:
    def test_three_point_case(self):
        # population sigma of [1,2,3] is sqrt(2/3)
        sigma = math.sqrt(2.0 / 3.0)
        expected = [(1 - 2) / sigma, 0.0, (3 - 2) / sigma]
        np.testing.assert_allclose(ingest.zscore_normalize([1, 2, 3]), expected, atol=1e-4)
        np.testing.assert_allclose(expected[2], 1.2247, atol=1e-4)

    def test_fixed_point(self):
        data = np.array([-1.0, 1.0])
        np.testing.assert_allclose(ingest.zscore_normalize(data), data, atol=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            ingest.zscore_normalize([7.0, 7.0])

    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=30))
    @example([0.0, 1.0440922186832093e-160])  # squares of the centred values underflow
    @example([0.0, 5e-324])  # a subnormal spread: its mean rounds to an endpoint
    def test_moments(self, values):
        arr = np.asarray(values)
        try:
            out = ingest.zscore_normalize(arr)
        except DegenerateInputError:
            return  # spread below float resolution
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-12


def _series(chgs):
    records = tuple(
        ingest.MarketRecord(date(2023, 1, 3) + timedelta(days=i), chg, 1.0, 1.0, 1.0)
        for i, chg in enumerate(chgs)
    )
    return ingest.to_binary_labels(ingest.MarketSeries(records))


class TestMakeWindows:
    def test_spec_pattern(self):
        labeled = _series([1.0, -1.0, 2.0, 3.0])  # labels 1,0,1,1
        samples = ingest.make_windows(labeled, 3, feature_len=4)
        assert len(samples) == 2
        np.testing.assert_array_equal(samples.priors, [[1, 0], [0, 1]])
        np.testing.assert_array_equal(samples.targets, [1, 1])
        assert samples.dates == tuple(r.date for r in labeled.records[2:])

    def test_exact_length_yields_one_sample(self):
        labeled = _series([1.0, -1.0, 2.0])
        samples = ingest.make_windows(labeled, 3, feature_len=2)
        assert len(samples) == 1

    def test_constant_up_series(self):
        labeled = _series([0.5, 1.5, 2.5, 3.5, 4.5])
        samples = ingest.make_windows(labeled, 4, feature_len=2)
        np.testing.assert_array_equal(samples.priors, np.ones((2, 3)))
        np.testing.assert_array_equal(samples.targets, [1, 1])

    def test_prior_equals_label_slice(self):
        chgs = [1.0, -2.0, 0.5, -0.1, 3.0, -4.0, 2.2]
        labeled = _series(chgs)
        samples = ingest.make_windows(labeled, 3, feature_len=2)
        assert len(samples) == len(chgs) - 3 + 1
        for i, prior in enumerate(samples.priors):
            np.testing.assert_array_equal(prior, labeled.labels[i:i + 2])

    def test_feature_lookup_and_zero_fill(self, caplog):
        labeled = _series([1.0, -1.0, 2.0, 3.0])
        target_date = labeled.records[2].date
        feats = {target_date: np.array([1.0, 2.0, 3.0])}
        with caplog.at_level("WARNING"):
            samples = ingest.make_windows(labeled, 3, feats)
        np.testing.assert_array_equal(samples.texts, [[1, 2, 3], [0, 0, 0]])
        assert "1 of 2" in caplog.text

    def test_window_too_small_or_series_too_short(self):
        labeled = _series([1.0, -1.0, 2.0])
        with pytest.raises(ContractError):
            ingest.make_windows(labeled, 1, feature_len=2)
        with pytest.raises(ContractError):
            ingest.make_windows(labeled, 4, feature_len=2)

    def test_mixed_feature_lengths_rejected(self):
        labeled = _series([1.0, -1.0, 2.0])
        feats = {labeled.records[0].date: np.zeros(2),
                 labeled.records[1].date: np.zeros(3)}
        with pytest.raises(DataError, match="mixed"):
            ingest.make_windows(labeled, 2, feats)


def _assert_rows(block, rows):
    """`block` holds exactly `rows`: the same dates, and arrays of the same
    dtype, shape and bits as the rows stacked one by one."""
    assert isinstance(block, ingest.Samples) and len(block) == len(rows)
    assert block.dates == tuple(r.date for r in rows)
    for got, want in zip((block.priors, block.prices, block.texts, block.targets),
                         oracles.batch_arrays(rows, True)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestWindows:
    """`ingest.windows` and the two functions built on it are the per-row
    window rule of `oracles.window_rows`, bitwise."""

    @settings(max_examples=60)
    @given(st.integers(2, 9), st.integers(0, 30), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    def test_windows_and_row_slices(self, n, extra, feature_len, seed):
        rng = np.random.default_rng(seed)
        days = n + extra
        dates = [date(2023, 1, 3) + timedelta(days=i) for i in range(days)]
        labels = rng.integers(0, 2, size=days)
        prices = rng.uniform(size=days)
        texts = rng.normal(size=(days, feature_len))
        block = ingest.windows(dates, labels, prices, texts, n)
        rows = oracles.window_rows(dates, labels, prices, texts, n)
        _assert_rows(block, rows)
        lo = int(rng.integers(0, len(rows)))
        hi = int(rng.integers(lo + 1, len(rows) + 1))
        step = int(rng.integers(1, 4))
        _assert_rows(block[lo:hi:step], rows[lo:hi:step])

    @settings(max_examples=40)
    @given(st.integers(2, 8), st.integers(0, 20), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_make_windows_with_zero_filled_texts(self, n, extra, feature_len, seed):
        rng = np.random.default_rng(seed)
        labeled = _series(rng.normal(size=n + extra).tolist())
        dates = [r.date for r in labeled.records]
        features = {day: rng.normal(size=feature_len) for day in dates if rng.random() < 0.6}
        texts = [features.get(day, np.zeros(feature_len)) for day in dates]
        prices = ingest.minmax_normalize([r.chg for r in labeled.records])
        _assert_rows(ingest.make_windows(labeled, n, features, feature_len=feature_len),
                     oracles.window_rows(dates, labeled.labels, prices, texts, n))

    @settings(max_examples=30)
    @given(st.integers(1, 40), st.integers(2, 8), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_markov_samples(self, count, window, feature_len, seed):
        rng = np.random.default_rng(seed)  # markov_samples' draws, in its order
        total = count + window - 1
        labels = synthetic.markov_labels(total, 0.85, rng)
        prices = rng.uniform(0.0, 1.0, size=total)
        texts = rng.normal(0.0, 0.1, size=(total, feature_len))
        _assert_rows(synthetic.markov_samples(count, window, seed, feature_len=feature_len),
                     oracles.window_rows(synthetic._dates(total), labels, prices, texts,
                                         window))

    def test_block_is_read_only_and_sliced_by_rows(self):
        block = ingest.make_windows(_series([1.0, -1.0, 2.0, 3.0]), 3, feature_len=2)
        for array in (block.priors, block.prices, block.texts, block.targets,
                      block[1:].priors):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        with pytest.raises(TypeError, match="row slices"):
            block[0]


class TestSplit:
    def test_paper_ratio(self):
        train, test = ingest.split_train_test(list(range(10)), 0.8)
        assert (train, test) == (list(range(8)), [8, 9])

    @pytest.mark.parametrize("t,expected", [(5, (4, 1)), (2, (1, 1))])
    def test_floor(self, t, expected):
        train, test = ingest.split_train_test(list(range(t)), 0.8)
        assert (len(train), len(test)) == expected

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            ingest.split_train_test([1], 0.8)
        with pytest.raises(ContractError):
            ingest.split_train_test(list(range(4)), 1.5)
        with pytest.raises(ContractError):
            ingest.split_train_test(list(range(4)), 0.1)  # floor(0.4) == 0

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=300))
    def test_partition_and_chronology(self, t):
        samples = ingest.make_windows(
            _series([(-1.0) ** i * (1 + i) for i in range(t + 1)]), 2, feature_len=1)
        assert len(samples) == t
        train, test = ingest.split_train_test(samples, 0.8)
        assert len(train) + len(test) == t
        assert len(train) == math.floor(0.8 * t)
        assert isinstance(train, ingest.Samples) and isinstance(test, ingest.Samples)
        assert train.dates[-1] < test.dates[0]


class TestLoadSummaries:
    def test_two_records(self, tmp_path):
        path = _write(tmp_path, "s.jsonl",
                      '{"date": "2023-01-03", "text": "Rates held."}\n'
                      '{"date": "2023-01-04", "text": "Liquidity rose."}\n')
        records = ingest.load_summaries(path)
        assert len(records) == 2
        assert records[0].date == date(2023, 1, 3)

    def test_duplicate_dates_joined(self, tmp_path):
        path = _write(tmp_path, "s.jsonl",
                      '{"date": "2023-01-03", "text": "One."}\n'
                      '{"date": "2023-01-03", "text": "Two."}\n')
        records = ingest.load_summaries(path)
        assert len(records) == 1
        assert records[0].text == "One. Two."

    def test_empty_text_skipped_with_warning(self, tmp_path, caplog):
        path = _write(tmp_path, "s.jsonl",
                      '{"date": "2023-01-03", "text": "Kept."}\n'
                      '{"date": "2023-01-04", "text": "   "}\n')
        with caplog.at_level("WARNING"):
            records = ingest.load_summaries(path)
        assert len(records) == 1
        assert "skipped" in caplog.text

    def test_malformed_line_reports_number(self, tmp_path):
        path = _write(tmp_path, "s.jsonl",
                      '{"date": "2023-01-03", "text": "ok"}\n'
                      'not json\n')
        with pytest.raises(ParseError, match="line 2"):
            ingest.load_summaries(path)

    def test_missing_field_rejected(self, tmp_path):
        path = _write(tmp_path, "s.jsonl", json.dumps({"date": "2023-01-03"}) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest.load_summaries(path)


class TestSummarize:
    def test_short_text_unchanged(self):
        assert ingest.summarize("One sentence only.") == "One sentence only."

    def test_first_three_sentences(self):
        text = "A one. B two. C three. D four. E five."
        assert ingest.summarize(text) == "A one. B two. C three."

    def test_deterministic(self):
        text = "A one. B two. C three. D four."
        assert ingest.summarize(text) == ingest.summarize(text)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ingest.summarize("   ")

    def test_provider_failure_wrapped(self):
        class Broken:
            def summarize(self, text):
                raise RuntimeError("backend down")

        with pytest.raises(ProviderError) as info:
            ingest.summarize("Some text.", Broken())
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_custom_k(self):
        provider = ingest.ExtractiveSummaryProvider(k=1)
        assert ingest.summarize("A one. B two.", provider) == "A one."
