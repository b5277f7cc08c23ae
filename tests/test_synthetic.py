"""The synthetic generators: block forms against their references, pinned
output streams, and the label-count contract."""

import hashlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles

from trendfuse import synthetic
from trendfuse.errors import ContractError

DEMO_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"

COUNTS = (*range(1, 51), 2181)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _samples_digest(samples) -> str:
    h = hashlib.sha256()
    h.update("\n".join(day.isoformat() for day in samples.dates).encode())
    for block in (samples.priors, samples.prices, samples.texts, samples.targets):
        h.update(f"{block.dtype.str}{block.shape}".encode())
        h.update(np.ascontiguousarray(block).tobytes())
    return h.hexdigest()


class TestBlockForms:
    def test_dates_match_one_timedelta_per_day(self):
        for count in (0, *COUNTS):
            assert synthetic._dates(count) == oracles.synthetic_dates(count)

    @pytest.mark.parametrize("persistence", [0.0, 0.5, 0.85, 1.0])
    def test_markov_labels_match_the_recurrence(self, persistence):
        for seed in range(4):
            for count in COUNTS:
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                labels = synthetic.markov_labels(count, persistence, rng)
                expected = oracles.markov_labels(count, persistence, ref_rng)
                assert labels.dtype == expected.dtype
                np.testing.assert_array_equal(labels, expected)
                # both forms take the same draws, so the stream goes on alike
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_bounded_draws_ignore_call_boundaries(self):
        # the block draws in `synthetic` rely on this: at a range of 2**31 + 1
        # about half the candidate draws are rejected, so a buffer or a
        # rejection that restarted at a call boundary would show here
        high = 2**31 + 1
        block = np.random.default_rng(3).integers(0, high, size=1000)
        for chunk in (4, 3):
            rng = np.random.default_rng(3)
            parts = [rng.integers(0, high, size=min(chunk, 1000 - start))
                     for start in range(0, 1000, chunk)]
            np.testing.assert_array_equal(np.concatenate(parts), block)
        rng = np.random.default_rng(3)
        np.testing.assert_array_equal([rng.integers(0, high) for _ in range(1000)], block)


class TestPinnedStreams:
    """sha256 of each generator's output, as the per-element draws gave it:
    the benchmark's sizes and seeds (730 days) and the demo's (120 and 220)."""

    @pytest.mark.parametrize("seed, days, digest", [
        (1, 730, "75e39594a4b418f24071687666f87cc23b82f9135ab4578d5f51e53f31738156"),
        (2, 730, "afd856d42bb2efedec07b25e1d7000e79c17da041c14e9f7b7c80970210f59de"),
        (8, 120, "3a2cecf80c5bb5f781b3144a855bb692b7f64a1a7fb6dbbe3846bc05b39a7753"),
        (8, 220, "a6b1f6eaef05934bf724457e955611660153b00c624f43903678c15493957cd8"),
    ])
    def test_toy_summaries(self, tmp_path, seed, days, digest):
        path = tmp_path / "summaries.jsonl"
        synthetic.write_toy_summaries(path, days, seed=seed)
        assert _sha256(path.read_bytes()) == digest

    @pytest.mark.parametrize("seed, days, digest", [
        (0, 730, "adcdc65600ec7204c8a00dbd6c33346f9267496ac69186f2cb26e51daa5aae8d"),
        (1, 730, "92685d2e77386e72797366a9cdc186d1b63f3a7841b87d631466cea56b9eddf8"),
        (7, 120, "4211404864411c48d0949c4bdadbc5525b5c32879cae076b7392a09af2f87b82"),
        (7, 220, "83d793ad067965aec0201a0f97602e24d27ead1b1f8ccee1c7c07aaada053f1d"),
    ])
    def test_market_csv(self, tmp_path, seed, days, digest):
        path = tmp_path / "market.csv"
        synthetic.write_markov_market_csv(path, days, seed=seed)
        assert _sha256(path.read_bytes()) == digest

    @pytest.mark.parametrize("seed, digest", [
        (0, "089a7db8a17f4f5925b804cee0602507e53ea73a9103bcc4a8946ecb4c2e73e1"),
        (1, "9dfbf36c8ce5ca48cfb104507e575c03b1c82cafacc4b8a0a136ef96b2f9ac28"),
    ])
    def test_toy_corpus(self, seed, digest):
        assert _sha256("\n".join(synthetic.toy_corpus(100, seed)).encode()) == digest

    @pytest.mark.parametrize("seed, digest", [
        (0, "ba9d42b1867f43c6b2bd3a2f4872acfc2729066ad4255b370bedf3c9c7ba535f"),
        (1, "7743f2069ee0c071c36a30f9ffdc1f293ce0c19f3048cad14d09245d8b769e0c"),
    ])
    def test_markov_samples(self, seed, digest):
        assert _samples_digest(synthetic.markov_samples(2176, 6, seed)) == digest


class TestLabelCount:
    @pytest.mark.parametrize("count", [0, -3])
    def test_markov_labels_names_the_count(self, count):
        with pytest.raises(ContractError, match=f"at least 1 label, got {count}$"):
            synthetic.markov_labels(count, 0.85, np.random.default_rng(0))

    @pytest.mark.parametrize("count", [0, -3])
    def test_market_csv_refuses_before_writing(self, tmp_path, count):
        path = tmp_path / "market.csv"
        with pytest.raises(ContractError, match=f"got {count}$"):
            synthetic.write_markov_market_csv(path, count, seed=0)
        assert not path.exists()

    @pytest.mark.parametrize("total", [0, -3])
    def test_markov_samples_refuses(self, total):
        # a window of 6 days takes count + 5 labels
        with pytest.raises(ContractError, match=f"at least 1 label, got {total}$"):
            synthetic.markov_samples(total - 5, 6, seed=0)

    @pytest.mark.parametrize("count", [0, -3])
    def test_toy_summaries_refuse_before_writing(self, tmp_path, count):
        path = tmp_path / "summaries.jsonl"
        with pytest.raises(ContractError, match=f"at least 1 summary, got {count}$"):
            synthetic.write_toy_summaries(path, count, seed=0)
        assert not path.exists()

    @pytest.mark.parametrize("count", [0, -3])
    def test_toy_corpus_refuses(self, count):
        with pytest.raises(ContractError, match=f"at least 1 sentence, got {count}$"):
            synthetic.toy_corpus(count)

    @pytest.mark.parametrize("days", ["0", "-3"])
    def test_demo_script_refuses_days_as_usage(self, tmp_path, monkeypatch, capsys, days):
        out = tmp_path / "demo"
        monkeypatch.setattr(sys, "argv", [str(DEMO_SCRIPT), "--days", days, "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(DEMO_SCRIPT), run_name="__main__")
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"--days must be at least 1, got {days}" in err
        assert "Traceback" not in err
        assert not out.exists()
