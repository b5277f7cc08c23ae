"""Command surface: artifacts, determinism, exit codes, and file contracts."""

import contextlib
import csv
import dataclasses
import io
import json
import re
import shutil
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from trendfuse import cli, encoder as enc, fusion, ingest, models, synthetic, train as tr
from trendfuse.encoder import read_features
from trendfuse.models import VALID_KINDS

pytestmark = pytest.mark.usefixtures("quiet_logs")


@pytest.fixture
def quiet_logs(caplog):
    caplog.set_level("ERROR")


@pytest.fixture
def market_csv(tmp_path):
    path = tmp_path / "market.csv"
    synthetic.write_markov_market_csv(path, 80, seed=5, persistence=0.85)
    return path


@pytest.fixture
def summaries(tmp_path):
    path = tmp_path / "summaries.jsonl"
    synthetic.write_toy_summaries(path, 5, seed=6)
    return path


@pytest.fixture(scope="module")
def encoder_json(tmp_path_factory):
    """An encoder checkpoint that `pretrain-encoder` trained for 2 epochs on
    a copy of the `summaries` file."""
    root = tmp_path_factory.mktemp("encoder")
    synthetic.write_toy_summaries(root / "summaries.jsonl", 5, seed=6)
    assert run("pretrain-encoder", "--summaries", root / "summaries.jsonl", "--out", root,
               "--pretrain-epochs", "2", "--seed", "1") == 0
    return root / "encoder.json"


def run(*argv):
    return cli.main([str(a) for a in argv])


def _one_error_line(capsys, error):
    """stderr is exactly one JSON line naming `error`; returns its message."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    doc = json.loads(lines[0])
    assert doc["error"] == error
    return doc["message"]


def _train_args(market, out, epochs=8, **extra):
    args = ["train", "--market", market, "--out", out, "--epochs", str(epochs),
            "--seed", "3", "--window", "5", "--feature-len", "6",
            "--hidden", "6", "--model", "lstm"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestFeaturize:
    def test_one_row_per_summary_date(self, tmp_path, summaries, encoder_json):
        out = tmp_path / "feat"
        code = run("featurize", "--summaries", summaries, "--out", out,
                   "--encoder", encoder_json, "--feature-len", "6")
        assert code == 0
        dates, block = read_features(out / "features.csv", expected_len=6)
        assert len(dates) == len(block) == 5
        assert [path.name for path in out.iterdir()] == ["features.csv"]  # it only encodes

    def test_rerun_is_byte_identical(self, tmp_path, summaries, encoder_json):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("featurize", "--summaries", summaries, "--out", out,
                       "--encoder", encoder_json, "--feature-len", "6") == 0
            outs.append((out / "features.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_encoder_without_pretrain_is_config_error(self, tmp_path, summaries,
                                                               capsys):
        code = run("featurize", "--summaries", summaries, "--out", tmp_path / "x")
        assert code == 1
        assert _one_error_line(capsys, "ConfigError") == "missing required input: --encoder"
        assert not (tmp_path / "x").exists()

    def test_existing_checkpoint_reused(self, tmp_path, summaries):
        """Features from the checkpoint that `pretrain-encoder` wrote are, byte
        for byte, those of the encoder that pretraining left in memory."""
        assert run("pretrain-encoder", "--summaries", summaries, "--out", tmp_path / "enc",
                   "--pretrain-epochs", "2", "--seed", "1") == 0
        assert run("featurize", "--summaries", summaries, "--out", tmp_path / "feat",
                   "--encoder", tmp_path / "enc" / "encoder.json", "--feature-len", "6") == 0
        dates, texts = ingest.load_summaries(summaries)
        params, vocab, _ = enc.pretrain_mlm(texts, enc.EncoderConfig(), 2, seed=1)
        block = enc.encode_features([ingest.summarize(text) for text in texts], vocab,
                                    enc.EncoderConfig(), params, 6)
        enc.write_features(tmp_path / "in_memory.csv", dates, block)
        assert (tmp_path / "feat" / "features.csv").read_bytes() \
            == (tmp_path / "in_memory.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_overflowing_encoder_is_divergence_naming_the_date(self, tmp_path, summaries,
                                                               encoder_json, capsys):
        """Finite embeddings of ±1e308 overflow to non-finite features: exit 3,
        one line naming the first summary date, and no features file."""
        doc = json.loads(encoder_json.read_text())
        emb = doc["params"]["params"]["emb"]
        emb["data"] = [1e308 if i % 2 else -1e308 for i in range(len(emb["data"]))]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        assert run("featurize", "--summaries", summaries, "--out", tmp_path / "feat",
                   "--encoder", huge, "--feature-len", "6") == 3
        first = ingest.load_summaries(summaries)[0][0]
        assert _one_error_line(capsys, "DivergenceError") == (
            f"non-finite text feature for {first.isoformat()} from encoder {huge}")
        assert not (tmp_path / "feat").exists()

    def test_no_encoder_is_config_error_before_the_summaries_are_read(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"date": "2023-01-03", "text": "ok"}\nnot json\n')
        assert run("featurize", "--summaries", bad, "--out", tmp_path / "feat") == 1
        assert "--encoder" in _one_error_line(capsys, "ConfigError")
        assert not (tmp_path / "feat").exists()

    @pytest.mark.parametrize("field, value", [("date", 20230103), ("text", None)])
    def test_non_string_summary_field_is_parse_error(self, tmp_path, summaries, encoder_json,
                                                     capsys, field, value):
        lines = summaries.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:2] + [json.dumps(record)] + lines[3:]) + "\n",
                       encoding="utf-8")
        assert run("featurize", "--summaries", bad, "--out", tmp_path / "feat",
                   "--encoder", encoder_json) == 2
        message = _one_error_line(capsys, "ParseError")
        assert message.startswith(f"{bad}: line 3: {field} must be a JSON string")

    def test_features_match_a_per_text_tape_loop(self, tmp_path):
        """Texts of many token counts, 40 of one count (more than a chunk), a
        text past max_len and a CJK one: the batched CSV equals, byte for
        byte, a CSV of the rows that the encoder on the tape pools one text at a time."""
        rng = np.random.default_rng(8)
        words = ["rates", "rise", "policy", "bank", "credit", "growth", "货币", "政策"]
        texts = ([" ".join(rng.choice(words, size=5)) for _ in range(40)]
                 + [" ".join(rng.choice(words, size=n)) + ". Tail words." for n in range(1, 14)]
                 + [" ".join(rng.choice(words, size=60)), "货币政策 稳健"])
        days = [date(2023, 1, 1) + timedelta(days=i) for i in range(len(texts))]
        summaries = tmp_path / "summaries.jsonl"
        summaries.write_text("".join(json.dumps({"date": d.isoformat(), "text": t}) + "\n"
                                     for d, t in zip(days, texts)), encoding="utf-8")
        params, vocab, _ = enc.pretrain_mlm(texts, enc.EncoderConfig(), 1, seed=2)
        enc.save_encoder(tmp_path / "encoder.json", enc.EncoderConfig(), vocab, params)
        assert run("featurize", "--summaries", summaries, "--out", tmp_path / "feat",
                   "--encoder", tmp_path / "encoder.json", "--feature-len", "20") == 0
        config, vocab, params = enc.load_encoder(tmp_path / "encoder.json")
        rows = []
        dates, texts = ingest.load_summaries(summaries)
        for text in texts:
            tokens = enc.tokenize(ingest.summarize(text), vocab, config.max_len)
            _, pooled = oracles.encode_text(tokens, config, params)
            rows.append(oracles.standardize_features(pooled.data, 20))
        enc.write_features(tmp_path / "loop.csv", dates, np.array(rows))
        assert (tmp_path / "feat" / "features.csv").read_bytes() \
            == (tmp_path / "loop.csv").read_bytes()


def _truncated(doc):
    text = json.dumps(doc)
    return text[:len(text) // 2]


def _without_emb(doc):
    del doc["params"]["params"]["emb"]
    return json.dumps(doc)


def _infinite_weight(doc):
    doc["params"]["params"]["layer0.wqkv"]["data"][3] = float("inf")
    return json.dumps(doc)  # written as the JSON extension `Infinity`


def _split_qkv(doc):
    """Each layer's `wqkv` written as its three matrices, the layout before
    the projections were stored as one parameter."""
    params = doc["params"]["params"]
    for name in [name for name in params if name.endswith(".wqkv")]:
        entry = params.pop(name)
        for w, part in zip(("wq", "wk", "wv"), np.reshape(entry["data"], entry["shape"])):
            params[name[:-len("wqkv")] + w] = {"shape": list(part.shape),
                                               "data": part.reshape(-1).tolist()}
    return json.dumps(doc)


def _unknown_config_key(doc):
    doc["config"]["depth"] = 3
    return json.dumps(doc)


def _replaced(path, value):
    """A corruption that sets the entry at `path` (keys from the document root)."""
    def corrupt(doc):
        entry = doc
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value(entry[path[-1]]) if callable(value) else value
        return json.dumps(doc)
    return corrupt


class TestFeaturizeBadEncoderCheckpoint:
    @pytest.mark.parametrize("corrupt, detail", [
        (_truncated, "not valid JSON"),
        (lambda doc: json.dumps({"format_version": 1}), "config"),
        (_unknown_config_key, "depth"),
        (_without_emb, "'emb'"),
        (_infinite_weight, "'layer0.wqkv' has a non-finite value"),
        (_split_qkv, "lacks parameter 'layer0.wqkv'"),
        (_replaced(["params", "params", "extra"], {"shape": [1], "data": [0.0]}),
         "'extra' is not part of the configured model"),
        # the reader's own errors follow the path with no "malformed" infix
        (_replaced(["format_version"], True), "enc.json: not a version 1"),
        (_replaced(["params", "format_version"], True), "format_version True"),
        (_replaced(["params", "params", "emb", "data"], lambda data: [str(v) for v in data]),
         "'emb' is malformed"),
        (_replaced(["params", "params", "mlm.b", "data"], lambda data: [False for _ in data]),
         "'mlm.b' is malformed"),
        (_replaced(["vocab", "similar"], {"2": [5]}), "similar-word entry 2"),
        (_replaced(["vocab", "similar"], {"5": [6, 7]}), "similar-word entry 5"),
        (_replaced(["vocab", "similar"], {"5": [5.9]}), "similar-word entry 5"),
        (_replaced(["vocab", "similar"], {"5": ["6"]}), "similar-word entry 5"),
        # a model of this width would need far more memory than exists
        (_replaced(["config", "d_model"], 2 ** 62), f"'emb' has shape (7, 16), the "
         f"configured model needs (7, {2 ** 62})"),
        (_replaced(["vocab", "tokens"], lambda tokens: tokens[:5] + tokens[4:5] + tokens[6:]),
         "enc.json: vocabulary repeats token 'beta'"),
    ], ids=["truncated_json", "no_config", "unknown_config_key", "no_emb", "infinite_weight",
            "split_qkv", "extra_parameter",
            "document_version_true", "params_version_true", "string_data", "boolean_data",
            "special_similar_key", "similar_id_past_the_vocabulary", "float_similar_id",
            "string_similar_id", "huge_d_model", "repeated_token"])
    def test_is_one_line_data_error(self, tmp_path, summaries, capsys, corrupt, detail):
        params, vocab, _ = enc.pretrain_mlm(["alpha beta", "beta gamma"], enc.EncoderConfig(),
                                            0, seed=1)
        good = tmp_path / "good.json"
        enc.save_encoder(good, enc.EncoderConfig(), vocab, params)
        bad = tmp_path / "enc.json"
        bad.write_text(corrupt(json.loads(good.read_text())))
        code = run("featurize", "--summaries", summaries, "--out", tmp_path / "feat",
                   "--encoder", bad, "--feature-len", "6")
        assert code == 2
        message = _one_error_line(capsys, "DataError")
        assert "enc.json" in message and detail in message
        assert not (tmp_path / "feat").exists()


class TestPretrainEncoder:
    def test_writes_checkpoint_and_loss_trace(self, tmp_path, summaries):
        out = tmp_path / "enc"
        assert run("pretrain-encoder", "--summaries", summaries, "--out", out,
                   "--pretrain-epochs", "3", "--seed", "2") == 0
        assert (out / "encoder.json").exists()
        with (out / "pretrain_loss.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "mean_loss"]
        assert len(rows) == 4
        feat = tmp_path / "feat"
        assert run("featurize", "--summaries", summaries, "--out", feat,
                   "--encoder", out / "encoder.json", "--feature-len", "6") == 0

    def test_non_finite_loss_is_divergence(self, tmp_path, summaries, capsys, monkeypatch):
        monkeypatch.setattr(enc, "mlm_step", lambda *args: float("nan"))
        assert run("pretrain-encoder", "--summaries", summaries, "--out", tmp_path / "enc",
                   "--pretrain-epochs", "2", "--seed", "2") == 3
        message = _one_error_line(capsys, "DivergenceError")
        assert "epoch 0" in message and "sentence 0" in message


    @pytest.mark.parametrize("command", [["pretrain-encoder"]])
    def test_max_len_one_is_config_error(self, tmp_path, summaries, capsys, command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"encoder": {"max_len": 1}}))
        out = tmp_path / "enc"
        assert run(*command, "--config", config, "--summaries", summaries, "--out", out,
                   "--pretrain-epochs", "2", "--seed", "2") == 1
        message = _one_error_line(capsys, "ConfigError")
        assert "max_len" in message
        assert not (out / "pretrain_loss.csv").exists()

    def test_invalid_similar_words_json_is_data_error(self, tmp_path, summaries, capsys):
        similar = tmp_path / "similar.json"
        similar.write_text('{"a": ["b"')
        assert run("pretrain-encoder", "--summaries", summaries, "--out", tmp_path / "enc",
                   "--pretrain-epochs", "1", "--seed", "2", "--similar-words", similar) == 2
        message = _one_error_line(capsys, "DataError")
        assert "similar.json" in message and "not valid JSON" in message


class TestTrain:
    def test_artifacts_exist_and_parse(self, tmp_path, market_csv):
        out = tmp_path / "run"
        assert run(*_train_args(market_csv, out, epochs=100)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"accuracy", "precision", "recall", "f1", "tp", "fp", "tn", "fn",
                "loss_trace", "predictions", "metrics_at"} <= set(metrics)
        with (out / "loss.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "mean_loss"]
        assert len(rows) == 101  # header + 100 epochs
        with (out / "predictions.csv").open() as fh:
            header = next(csv.reader(fh))
        assert header == ["date", "probability", "label", "target"]
        assert (out / "checkpoint.json").exists()

    def test_mogrifier_zero_rounds_matches_lstm(self, tmp_path, market_csv):
        out_l = tmp_path / "lstm"
        out_m = tmp_path / "mog"
        assert run(*_train_args(market_csv, out_l)) == 0
        assert run(*_train_args(market_csv, out_m, model="mogrifier",
                                mogrifier_rounds=0)) == 0
        assert (out_l / "metrics.json").read_bytes() == (out_m / "metrics.json").read_bytes()

    def test_invalid_model_kind_is_usage_error(self, tmp_path, market_csv, capsys):
        code = run("train", "--market", market_csv, "--out", tmp_path / "x",
                   "--model", "perceptron")
        assert code == 1
        err = capsys.readouterr().err
        assert "lstm" in err and "swinlstm" in err

    def test_wrong_feature_length_is_data_error(self, tmp_path, market_csv,
                                                summaries, encoder_json, capsys):
        feat_dir = tmp_path / "feat"
        assert run("featurize", "--summaries", summaries, "--out", feat_dir,
                   "--encoder", encoder_json, "--feature-len", "6") == 0
        code = run(*_train_args(market_csv, tmp_path / "run",
                                features=feat_dir / "features.csv",
                                feature_len=9))
        assert code == 2
        err = capsys.readouterr().err
        assert "6" in err and "9" in err

    def test_unparseable_feature_csv_is_data_error(self, tmp_path, market_csv, capsys):
        features = tmp_path / "features.csv"
        features.write_text("date,f0,f1,f2,f3,f4,f5\n2023-01-03,0,0,0,abc,0,0\n")
        code = run(*_train_args(market_csv, tmp_path / "run", features=features))
        assert code == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "line 2" in err

    @staticmethod
    def _features_for_market(market_csv, path, edit):
        """A feature file with one row per market date; `edit(rows)` alters the
        rows (after the header) before they are written."""
        dates = ingest.parse_market_csv(market_csv).dates
        rows = [[d.isoformat()] + [repr(0.1 * k) for k in range(6)] for d in dates]
        edit(rows)
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["date"] + [f"f{k}" for k in range(6)], *rows])
        return path

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_data_error(self, tmp_path, market_csv, capsys, value):
        def poison(rows):
            rows[30][3] = value

        features = self._features_for_market(market_csv, tmp_path / "features.csv", poison)
        code = run(*_train_args(market_csv, tmp_path / "run", features=features))
        assert code == 2
        message = _one_error_line(capsys, "ParseError")
        assert "features.csv" in message and "line 32" in message and "f2" in message

    def test_duplicate_feature_dates_are_data_error(self, tmp_path, market_csv, capsys):
        def repeat(rows):
            rows.insert(11, [rows[10][0]] + [repr(0.5)] * 6)

        features = self._features_for_market(market_csv, tmp_path / "features.csv", repeat)
        code = run(*_train_args(market_csv, tmp_path / "run", features=features))
        assert code == 2
        message = _one_error_line(capsys, "DataError")
        dates = ingest.parse_market_csv(market_csv).dates
        assert "features.csv" in message and "duplicate date" in message
        assert dates[10].isoformat() in message

    def test_non_finite_fuse_input_is_divergence(self, tmp_path, market_csv, capsys,
                                                  monkeypatch):
        conv_text = fusion.conv_text
        monkeypatch.setattr(fusion, "conv_text", lambda embedded, params, saved=None:
                            conv_text(embedded, params, saved) * np.nan)
        assert run(*_train_args(market_csv, tmp_path / "run", epochs=2)) == 3
        assert _one_error_line(capsys, "DivergenceError") == (
            "non-finite loss at epoch 0, batch 0, replica 0")
        assert not (tmp_path / "run").exists()

    def test_missing_market_path_is_config_error(self, tmp_path):
        assert run("train", "--market", tmp_path / "nope.csv",
                   "--out", tmp_path / "x") == 1

    def test_malformed_market_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("Date,Chg,Open,Close,Volume\n2023-01-03,oops,1,1,1\n")
        assert run("train", "--market", bad, "--out", tmp_path / "x") == 2

    def test_config_file_with_flag_override(self, tmp_path, market_csv):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "market_csv": str(market_csv),
            "train": {"epochs": 8, "seed": 3, "window": 5, "feature_len": 6,
                      "model": {"kind": "gru", "hidden": 6}},
        }))
        out = tmp_path / "run"
        assert run("train", "--config", config, "--out", out, "--epochs", "2") == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["model"] == "gru"
        assert meta["epochs"] == 2


class TestEvaluate:
    def test_checkpoint_reproduces_test_metrics(self, tmp_path, market_csv):
        out = tmp_path / "run"
        assert run(*_train_args(market_csv, out)) == 0
        out2 = tmp_path / "eval"
        assert run("evaluate", "--market", market_csv, "--out", out2,
                   "--checkpoint", out / "checkpoint.json", "--window", "5",
                   "--feature-len", "6", "--hidden", "6", "--model", "lstm",
                   "--seed", "3", "--epochs", "8") == 0
        trained = json.loads((out / "metrics.json").read_text())
        evaluated = json.loads((out2 / "metrics.json").read_text())
        for key in ("accuracy", "precision", "recall", "f1", "tp", "fp", "tn", "fn"):
            assert evaluated[key] == trained[key]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_overflowing_checkpoint_is_divergence(self, tmp_path, market_csv, capsys, kind):
        """Finite text-path weights of ±1e308 overflow to NaN probabilities:
        exit 3, one line naming the first held-out date, and no --out."""
        args = _evaluate_args(market_csv, tmp_path / "eval", tmp_path / "checkpoint.json")
        args[args.index("--model") + 1] = kind
        cfg = cli.build_config(cli.build_parser().parse_args([str(a) for a in args]))
        store = tr.init_pipeline_params(cfg.train)
        bias = store["text.b_e"].data
        bias[...] = 1e308 * (-1.0) ** np.arange(bias.shape[-1])
        store["text.w_c"].data[...] = 1e308
        store.save(tmp_path / "checkpoint.json")
        assert run(*args) == 3
        dates = ingest.parse_market_csv(market_csv).dates
        first = dates[4 + int(0.8 * (len(dates) - 4))]  # windows of 5, split at 0.8
        assert _one_error_line(capsys, "DivergenceError") == (
            f"non-finite probability for held-out date {first.isoformat()}")
        assert not (tmp_path / "eval").exists()

    def test_checkpoint_in_any_order_is_scored_in_layout_order(self, tmp_path, market_csv,
                                                               monkeypatch):
        """A checkpoint whose parameters are listed in reverse is read into a
        store in `pipeline_layout` order, and scores byte for byte as the
        file in layout order does."""
        out = tmp_path / "run"
        assert run(*_train_args(market_csv, out, epochs=2)) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["params"] = dict(reversed(doc["params"].items()))
        (tmp_path / "reversed.json").write_text(json.dumps(doc))
        in_layout_order = []
        evaluate = tr.evaluate

        def spy(store, config, samples):
            layout = [name for name, _, _ in tr.pipeline_layout(config)]
            in_layout_order.append(oracles.names(store) == layout)
            return evaluate(store, config, samples)

        monkeypatch.setattr(tr, "evaluate", spy)
        for name, checkpoint in (("in_order", out / "checkpoint.json"),
                                 ("reversed", tmp_path / "reversed.json")):
            assert run(*_evaluate_args(market_csv, tmp_path / name, checkpoint)) == 0
        assert in_layout_order == [True, True]
        assert (tmp_path / "in_order" / "metrics.json").read_bytes() \
            == (tmp_path / "reversed" / "metrics.json").read_bytes()

    @pytest.mark.parametrize("flags", [("--model", "gru"), ("--feature-len", "7"),
                                       ("--hidden", "4")], ids=["kind", "feature_len", "hidden"])
    def test_checkpoint_that_does_not_fit_the_config_is_data_error(
            self, tmp_path, market_csv, capsys, flags):
        out = tmp_path / "run"
        assert run(*_train_args(market_csv, out, epochs=2)) == 0
        capsys.readouterr()
        args = _train_args(market_csv, tmp_path / "eval", epochs=2)
        args[0] = "evaluate"
        code = run(*args, "--checkpoint", out / "checkpoint.json", *flags)
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DataError"
        assert "checkpoint.json" in lines[0]

    @pytest.mark.parametrize("text, detail", [
        ('{"format_version": 1, "params": ', "not valid JSON"),
        ('{"format_version": 1, "params": {"cell.w1": {"shape": [2]}}}', "'data'"),
        ('{"format_version": 1, "params": {"cell.w1": {"data": [1.0]}}}', "'shape'"),
        ('{"format_version": 1, "params": {"cell.w1": {"data": [1.0, 2.0, 3.0], '
         '"shape": [2, 2]}}}', "cannot reshape"),
        ('{"format_version": true, "params": {}}', "format_version True"),
        ('{"format_version": 1.0, "params": {}}', "format_version 1.0"),
        ('{"format_version": 1, "params": {"cell.w1": {"data": ["1", "2"], "shape": [2]}}}',
         "'cell.w1' is malformed"),
        ('{"format_version": 1, "params": {"cell.w1": {"data": [true], "shape": [1]}}}',
         "'cell.w1' is malformed"),
    ], ids=["invalid_json", "no_data", "no_shape", "data_does_not_fit_shape", "version_true",
            "version_float", "string_data", "boolean_data"])
    def test_malformed_checkpoint_is_data_error(self, tmp_path, market_csv, capsys,
                                                text, detail):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(text)
        args = _train_args(market_csv, tmp_path / "eval", epochs=2)
        args[0] = "evaluate"
        assert run(*args, "--checkpoint", checkpoint) == 2
        message = _one_error_line(capsys, "DataError")
        assert "checkpoint.json" in message and detail in message

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "-inf"])
    def test_non_finite_checkpoint_value_is_data_error(self, tmp_path, market_csv, capsys,
                                                       value):
        out = tmp_path / "run"
        assert run(*_train_args(market_csv, out, epochs=2)) == 0
        capsys.readouterr()
        doc = json.loads((out / "checkpoint.json").read_text())
        name = next(iter(doc["params"]))
        doc["params"][name]["data"][0] = value
        (out / "checkpoint.json").write_text(json.dumps(doc))
        args = _train_args(market_csv, tmp_path / "eval", epochs=2)
        args[0] = "evaluate"
        assert run(*args, "--checkpoint", out / "checkpoint.json") == 2
        message = _one_error_line(capsys, "DataError")
        assert "checkpoint.json" in message and f"{name!r} has a non-finite value" in message

    def test_per_gate_checkpoint_is_data_error(self, tmp_path, market_csv, capsys):
        """A checkpoint with one matrix per LSTM gate (`cell.w_i`, `cell.b_i`,
        ...) in place of the stored gate block is refused, naming the block."""
        out = tmp_path / "run"
        assert run(*_train_args(market_csv, out, epochs=2)) == 0
        capsys.readouterr()
        doc = json.loads((out / "checkpoint.json").read_text())
        params = {}
        for name, entry in doc["params"].items():
            if name not in ("cell.w", "cell.b"):
                params[name] = entry
                continue
            block = np.reshape(entry["data"], entry["shape"])
            for gate, part in zip(oracles.GATE_BLOCKS[name[len("cell."):]],
                                  np.split(block, 4, axis=1)):
                params[f"cell.{gate}"] = {"shape": list(part.shape),
                                          "data": part.reshape(-1).tolist()}
        doc["params"] = params
        (out / "checkpoint.json").write_text(json.dumps(doc))
        args = _train_args(market_csv, tmp_path / "eval", epochs=2)
        args[0] = "evaluate"
        assert run(*args, "--checkpoint", out / "checkpoint.json") == 2
        message = _one_error_line(capsys, "DataError")
        assert "checkpoint.json" in message and "'cell.w'" in message

    def test_unsupported_format_version_is_data_error(self, tmp_path, market_csv, capsys):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps({"format_version": 2, "params": {}}))
        args = _train_args(market_csv, tmp_path / "eval", epochs=2)
        args[0] = "evaluate"
        assert run(*args, "--checkpoint", checkpoint) == 2
        message = _one_error_line(capsys, "DataError")
        assert "checkpoint.json" in message and "format_version 2" in message

    def test_checkpoint_without_params_is_data_error(self, tmp_path, market_csv, capsys):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps({"format_version": 1}))
        args = _train_args(market_csv, tmp_path / "eval", epochs=2)
        args[0] = "evaluate"
        assert run(*args, "--checkpoint", checkpoint) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "params" in lines[0]


class TestAblate:
    def _run(self, market, out, epochs=8, seed=3):
        return run("ablate", "--market", market, "--out", out, "--epochs", str(epochs),
                   "--seed", str(seed), "--window", "5", "--feature-len", "6",
                   "--hidden", "6", "--model", "lstm")

    def test_delta_table_shape(self, tmp_path, market_csv):
        out = tmp_path / "ab"
        assert self._run(market_csv, out) == 0
        with (out / "ablation.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "f1_without", "f1_with", "f1_delta",
                           "recall_without", "recall_with", "recall_delta"]
        assert len(rows) == 3  # header + feedforward + lstm
        assert [r[0] for r in rows[1:]] == ["feedforward", "lstm"]
        for kind in ("feedforward", "lstm"):
            for arm in ("with", "without"):
                assert (out / f"ablation_{kind}_{arm}.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path, market_csv):
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert self._run(market_csv, out) == 0
            blobs.append((out / "ablation.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_divergence_in_the_second_model_makes_no_output_directory(
            self, tmp_path, market_csv, capsys, monkeypatch):
        """The feedforward arms train; the lstm's NaN loss is exit 3 before
        any file is written, so the feedforward reports are not left behind."""
        unroll = models.unroll

        def nan_unroll(*args, **kwargs):
            steps, final = unroll(*args, **kwargs)
            return np.full_like(steps, np.nan), np.full_like(final, np.nan)

        monkeypatch.setattr(models, "unroll", nan_unroll)
        out = tmp_path / "ab"
        assert self._run(market_csv, out, epochs=2) == 3
        assert "epoch" in _one_error_line(capsys, "DivergenceError")
        assert not out.exists()

    def test_positive_delta_on_majority_of_seeds(self, tmp_path):
        wins = 0
        for seed in range(3):
            market = tmp_path / f"m{seed}.csv"
            synthetic.write_markov_market_csv(market, 205, seed=50 + seed,
                                              persistence=0.85)
            out = tmp_path / f"run{seed}"
            assert run("ablate", "--market", market, "--out", out, "--epochs", "150",
                       "--seed", str(seed), "--window", "6", "--feature-len", "8",
                       "--hidden", "8", "--model", "feedforward") == 0
            with (out / "ablation.csv").open() as fh:
                rows = {r[0]: r for r in csv.reader(fh)}
            wins += float(rows["feedforward"][3]) > 0
        assert wins >= 2


class TestReport:
    def test_comparison_rows_and_schema(self, tmp_path, market_csv):
        runs = tmp_path / "runs"
        assert run(*_train_args(market_csv, runs / "one")) == 0
        assert run(*_train_args(market_csv, runs / "two", model="gru")) == 0
        out = tmp_path / "report"
        assert run("report", runs, "--out", out) == 0
        with (out / "comparison.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "epochs", "accuracy", "precision", "recall", "f1"]
        assert len(rows) == 3
        assert {rows[1][0], rows[2][0]} == {"lstm", "gru"}
        assert (out / "loss_one.csv").exists() and (out / "loss_two.csv").exists()

    def test_empty_directory_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("report", empty, "--out", tmp_path / "rep") == 2
        assert str(empty) in capsys.readouterr().err

    def test_missing_directory_is_data_error(self, tmp_path):
        assert run("report", tmp_path / "ghost", "--out", tmp_path / "rep") == 2

    @pytest.mark.parametrize("name,content,detail", [
        ("metrics.json", b"{not json", "not valid JSON"),
        ("metrics.json", json.dumps({"precision": 0.5, "recall": 0.5, "f1": 0.5}).encode(),
         "'accuracy'"),
        ("metrics.json", b'{"accuracy": ' + b"1" * 5000 + b"}", "not valid JSON"),
        ("run.json", b"[1, 2", "not valid JSON"),
        ("run.json", b"[1, 2]", "not a JSON object"),
        ("run.json", b"[" * 100_000, "not valid JSON"),
        ("loss.csv", b"epoch,mean_loss\n0,\xff\n", "not UTF-8"),
    ], ids=["metrics_invalid_json", "metrics_without_accuracy", "metrics_integer_too_long",
            "run_invalid_json", "run_not_an_object", "run_nested_too_deep", "loss_not_utf8"])
    def test_broken_run_file_is_data_error(self, tmp_path, capsys, name, content, detail):
        run_dir = tmp_path / "runs" / "one"
        run_dir.mkdir(parents=True)
        (run_dir / "metrics.json").write_text(json.dumps(
            {"accuracy": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5}))
        (run_dir / "loss.csv").write_text("epoch,mean_loss\n0,0.69\n")
        (run_dir / name).write_bytes(content)
        assert run("report", tmp_path / "runs", "--out", tmp_path / "rep") == 2
        message = _one_error_line(capsys, "DataError")
        assert str(run_dir / name) in message and detail in message


def _evaluate_args(market, out, checkpoint):
    args = _train_args(market, out, epochs=2, checkpoint=checkpoint)
    args[0] = "evaluate"
    return args


# argv for each path flag, given the unreadable path, the market CSV, the
# summaries file and an output directory
PATH_FLAGS = {
    "market": lambda bad, market, summaries, out: ["train", "--market", bad, "--out", out],
    "features": lambda bad, market, summaries, out: _train_args(market, out, features=bad),
    "summaries": lambda bad, market, summaries, out: [
        "pretrain-encoder", "--summaries", bad, "--out", out],
    "checkpoint": lambda bad, market, summaries, out: _evaluate_args(market, out, bad),
    "encoder": lambda bad, market, summaries, out: [
        "featurize", "--summaries", summaries, "--out", out, "--encoder", bad],
    "similar-words": lambda bad, market, summaries, out: [
        "pretrain-encoder", "--summaries", summaries, "--out", out, "--similar-words", bad],
}


class TestUnreadableInputs:
    """An input that cannot be read ends in one JSON line and exit 2."""

    @pytest.mark.parametrize("flag", sorted(PATH_FLAGS))
    def test_directory_is_data_error(self, tmp_path, market_csv, summaries, capsys, flag):
        bad = tmp_path / "a_directory"
        bad.mkdir()
        argv = PATH_FLAGS[flag](bad, market_csv, summaries, tmp_path / "out")
        assert run(*argv) == 2
        assert str(bad) in _one_error_line(capsys, "IsADirectoryError")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", sorted(PATH_FLAGS))
    def test_non_utf8_file_is_data_error(self, tmp_path, market_csv, summaries, encoder_json,
                                         capsys, flag):
        if flag == "features":
            assert run("featurize", "--summaries", summaries, "--out", tmp_path / "feat",
                       "--encoder", encoder_json, "--feature-len", "6") == 0
        if flag == "checkpoint":
            assert run(*_train_args(market_csv, tmp_path / "run", epochs=2)) == 0
        (tmp_path / "similar.json").write_text('{"alpha": ["beta"]}')
        source = {"market": market_csv, "summaries": summaries,
                  "features": tmp_path / "feat" / "features.csv",
                  "encoder": encoder_json,
                  "checkpoint": tmp_path / "run" / "checkpoint.json",
                  "similar-words": tmp_path / "similar.json"}[flag]
        bad = tmp_path / f"latin1_{flag}"
        bad.write_bytes(source.read_bytes() + "caf\u00e9\n".encode("latin-1"))
        argv = PATH_FLAGS[flag](bad, market_csv, summaries, tmp_path / "out")
        capsys.readouterr()
        assert run(*argv) == 2
        message = _one_error_line(capsys, "DataError")
        assert bad.name in message and "not UTF-8 text" in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", sorted(PATH_FLAGS))
    def test_missing_file_is_config_error(self, tmp_path, market_csv, summaries, capsys,
                                          flag):
        missing = tmp_path / "missing"
        argv = PATH_FLAGS[flag](missing, market_csv, summaries, tmp_path / "out")
        assert run(*argv) == 1
        name = next(key for option, key, _ in cli.OPTIONS if option == f"--{flag}")
        assert _one_error_line(capsys, "ConfigError") == f"{name} path does not exist: {missing}"
        assert not (tmp_path / "out").exists()

    def test_truncated_market_row_is_parse_error(self, tmp_path, market_csv, capsys):
        lines = market_csv.read_text().splitlines()
        truncated = tmp_path / "truncated.csv"
        truncated.write_text("\n".join(lines[:-1] + [lines[-1].split(",")[0] + ",0.5"]) + "\n")
        assert run("train", "--market", truncated, "--out", tmp_path / "out") == 2
        message = _one_error_line(capsys, "ParseError")
        assert message.startswith(f"{truncated}: line {len(lines)}: ") and "Volume" in message

    def test_row_wider_than_header_is_parse_error(self, tmp_path, market_csv, capsys):
        lines = market_csv.read_text().splitlines()
        wider = tmp_path / "wider.csv"
        wider.write_text("\n".join(lines + ["2099-01-01,0.5%,10,11,1,000"]) + "\n")
        assert run("train", "--market", wider, "--out", tmp_path / "out") == 2
        message = _one_error_line(capsys, "ParseError")
        assert f"line {len(lines) + 1}" in message and "6 fields" in message


# A model size numpy refuses before it allocates anything: 2**62 float64s
# are more bytes than an array may hold.
HUGE = 2 ** 62


class TestImpossibleModelSize:
    """A model too large to allocate ends in one JSON line, not a traceback,
    and leaves no `--out` directory."""

    def test_evaluate_is_data_error_from_the_layout_check(self, tmp_path, market_csv, capsys):
        out = tmp_path / "run"
        assert run(*_train_args(market_csv, out, epochs=2)) == 0
        capsys.readouterr()
        args = _evaluate_args(market_csv, tmp_path / "eval", out / "checkpoint.json")
        assert run(*args, "--hidden", HUGE) == 2
        message = _one_error_line(capsys, "DataError")
        assert "checkpoint.json" in message and str(HUGE) in message
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_training_is_config_error_from_the_allocation(self, tmp_path, market_csv, capsys,
                                                          command):
        out = tmp_path / "out"
        args = _train_args(market_csv, out, epochs=2)
        args[0] = command
        assert run(*args, "--hidden", HUGE) == 1
        assert re.search(r"model of \d+ parameters", _one_error_line(capsys, "ConfigError"))
        assert not out.exists()

    @pytest.mark.parametrize("command, code, error", [
        ("train", 1, "ConfigError"), ("evaluate", 2, "DataError"), ("ablate", 1, "ConfigError")])
    def test_feature_len_ends_as_hidden_does(self, tmp_path, market_csv, capsys, command, code,
                                             error):
        """Without --features, a --feature-len too large to allocate ends in
        the exit code and error that --hidden of that size gives."""
        run_dir = tmp_path / "run"
        assert run(*_train_args(market_csv, run_dir, epochs=2)) == 0
        out = tmp_path / "out"
        argv = _evaluate_args(market_csv, out, run_dir / "checkpoint.json")
        argv[0] = command
        for flag in ("--hidden", "--feature-len"):
            capsys.readouterr()
            assert run(*argv, flag, HUGE) == code
            message = _one_error_line(capsys, error)
            assert not out.exists()
        assert str(HUGE) in message

    def test_pretrain_encoder_is_config_error_from_the_allocation(self, tmp_path, summaries,
                                                                  capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"encoder": {"d_model": HUGE}}))
        out = tmp_path / "out"
        assert run("pretrain-encoder", "--summaries", summaries, "--config", config,
                   "--out", out) == 1
        assert re.search(r"model of \d+ parameters", _one_error_line(capsys, "ConfigError"))
        assert not out.exists()


class TestUnusableOut:
    """An `--out` that cannot be made (a regular file, or a path under one)
    is a ConfigError (exit 1) before any input is read, and nothing is made."""

    # argv given the market CSV, the summaries, a JSON file standing in for
    # a checkpoint (never read) and the output directory
    ARGS = {
        "train": lambda market, summaries, stub, out: _train_args(market, out),
        "ablate": lambda market, summaries, stub, out: [
            "ablate", "--market", market, "--out", out, "--epochs", "2"],
        "pretrain-encoder": lambda market, summaries, stub, out: [
            "pretrain-encoder", "--summaries", summaries, "--out", out],
        "featurize-encoder": lambda market, summaries, stub, out: [
            "featurize", "--summaries", summaries, "--out", out, "--encoder", stub],
        "evaluate": lambda market, summaries, stub, out: _evaluate_args(market, out, stub),
        "report": lambda market, summaries, stub, out: ["report", stub.parent, "--out", out],
    }

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_config_error_before_training(self, tmp_path, market_csv, summaries, capsys,
                                          monkeypatch, command, under):
        def refuse(*args, **kwargs):
            raise AssertionError("read an input or trained with an unusable --out")

        for owner, name in [(tr, "train_and_evaluate"), (tr, "ablate_prior_effect"),
                            (enc, "pretrain_mlm"), (ingest, "parse_market_csv"),
                            (ingest, "load_summaries"), (enc, "load_encoder"),
                            (cli.ParameterStore, "load")]:
            monkeypatch.setattr(owner, name, refuse)
        stub = tmp_path / "stub.json"
        stub.write_text("{}")
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        out = blocker / "run" if under else blocker
        assert run(*self.ARGS[command](market_csv, summaries, stub, out)) == 1
        assert "not a directory" in _one_error_line(capsys, "ConfigError")
        assert blocker.read_text() == "a file\n"


# argv for each command that reads summaries or market data, given the bad
# file, the other (good) inputs and an output directory
DATA_COMMANDS = {
    "featurize": lambda bad_summaries, bad_market, market, summaries, out: [
        "featurize", "--summaries", bad_summaries, "--out", out, "--encoder", market],
    "pretrain-encoder": lambda bad_summaries, bad_market, market, summaries, out: [
        "pretrain-encoder", "--summaries", bad_summaries, "--out", out],
    "train": lambda bad_summaries, bad_market, market, summaries, out: _train_args(
        bad_market, out),
    "evaluate": lambda bad_summaries, bad_market, market, summaries, out: _evaluate_args(
        bad_market, out, market),
    "ablate": lambda bad_summaries, bad_market, market, summaries, out: [
        "ablate", "--market", bad_market, "--out", out],
}


class TestFailedRunsLeaveNoOutput:
    """A run that exits 2 on bad data has read its inputs before making
    `--out`, so the directory does not exist afterwards."""

    @pytest.mark.parametrize("command", sorted(DATA_COMMANDS))
    def test_bad_data_makes_no_output_directory(self, tmp_path, market_csv, summaries,
                                                capsys, command):
        bad_summaries = tmp_path / "bad.jsonl"
        bad_summaries.write_text('{"date": "2023-01-03", "text": "ok"}\nnot json\n')
        bad_market = tmp_path / "bad.csv"
        bad_market.write_text("Date,Chg,Open,Close,Volume\n2023-01-03,oops,1,1,1\n")
        out = tmp_path / "out"
        argv = DATA_COMMANDS[command](bad_summaries, bad_market, market_csv, summaries, out)
        assert run(*argv) == 2
        message = _one_error_line(capsys, "ParseError")
        assert message.startswith(f"{bad_summaries}: line 2: " if "--summaries" in argv
                                  else f"{bad_market}: line 2: ")
        assert not out.exists()

    @pytest.mark.parametrize("days", [3, 5])
    @pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
    def test_market_too_short_for_the_window_makes_no_output_directory(
            self, tmp_path, market_csv, capsys, command, days):
        """Fewer days than two windows of `--window` (5 here) need is bad data."""
        short = tmp_path / "short.csv"
        short.write_text("".join(market_csv.read_text().splitlines(keepends=True)[:days + 1]))
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text("{}")  # never read: the market file is refused first
        out = tmp_path / "out"
        argv = _evaluate_args(short, out, checkpoint)
        argv[0] = command
        assert run(*argv) == 2
        assert _one_error_line(capsys, "DataError") == (
            f"{short}: {days} day(s), too few for --window 5: "
            "a train/test split needs at least 6")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
    def test_split_with_an_empty_side_makes_no_output_directory(self, tmp_path, market_csv,
                                                                capsys, command):
        """8 days give 3 windows of 6; a 0.3 split leaves training none."""
        short = tmp_path / "short.csv"
        short.write_text("".join(market_csv.read_text().splitlines(keepends=True)[:9]))
        config = tmp_path / "split.json"
        config.write_text(json.dumps({"split_ratio": 0.3}))
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text("{}")  # never read: the market file is refused first
        out = tmp_path / "out"
        argv = _evaluate_args(short, out, checkpoint)
        argv[0] = command
        assert run(*argv, "--window", 6, "--config", config) == 2
        assert _one_error_line(capsys, "DataError") == (
            f"{short}: 3 window(s) of --window 6; "
            "split_ratio 0.3 leaves the train or test side empty")
        assert not out.exists()

    def test_bad_checkpoint_makes_no_output_directory(self, tmp_path, market_csv, capsys):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text("{}")
        assert run(*_evaluate_args(market_csv, tmp_path / "out", checkpoint)) == 2
        assert "checkpoint.json" in _one_error_line(capsys, "DataError")
        assert not (tmp_path / "out").exists()


# One fault on line 3 of a dated CSV: an edit of the file's rows of fields
# (header first), and the error class and message after `<path>: ` that it
# gives, formatted with the header's date, first number and last column.
CSV_FAULTS = {
    "bad_date": (lambda rows: rows[2].__setitem__(0, "2023-13-03"), "ParseError",
                 "line 3: cannot parse {date}='2023-13-03' (expected YYYY-MM-DD)"),
    "spaced_date": (lambda rows: rows[2].__setitem__(0, f" {rows[2][0]} "), None, None),
    "non_number": (lambda rows: rows[2].__setitem__(1, "abc"), "ParseError",
                   "line 3: cannot parse {first}='abc' as a number"),
    "inf": (lambda rows: rows[2].__setitem__(1, "inf"), "ParseError",
            "line 3: non-finite {first}='inf'"),
    "short_row": (lambda rows: rows[2].pop(), "ParseError", "line 3: missing field(s) {last}"),
    "long_row": (lambda rows: rows[2].append("1"), "ParseError",
                 "line 3: {long} fields for a header of {width}"),
    "repeated_date": (lambda rows: rows[2].__setitem__(0, rows[1][0]), "DataError",
                      "duplicate date(s): {repeated}"),
}
# The same for the summaries' line 3, an edit of its JSON object.
SUMMARY_FAULTS = {
    "bad_date": (lambda obj: obj.update(date="2023-13-03"), "ParseError",
                 "line 3: cannot parse date='2023-13-03' (expected YYYY-MM-DD)"),
    "spaced_date": (lambda obj: obj.update(date=f" {obj['date']} "), None, None),
    "short_row": (lambda obj: obj.pop("text"), "ParseError",
                  "line 3: expected an object with date and text"),
}


class TestDatedFileFaults:
    """The three dated files share one date rule, and both CSVs one row
    rule: each fault is exit 2, one JSON line and the same wording in every
    file, and a date with spaces around it is read in every file."""

    @pytest.mark.parametrize("kind, fault", [
        *[("market", fault) for fault in CSV_FAULTS],
        *[("features", fault) for fault in CSV_FAULTS],
        *[("summaries", fault) for fault in SUMMARY_FAULTS]])
    def test_fault_is_one_line_naming_path_and_line(self, tmp_path, market_csv, summaries,
                                                    encoder_json, capsys, kind, fault):
        bad, out = tmp_path / f"bad_{kind}", tmp_path / "out"
        if kind == "summaries":
            edit, error, message = SUMMARY_FAULTS[fault]
            objects = [json.loads(line) for line in summaries.read_text().splitlines()]
            edit(objects[2])
            bad.write_text("".join(json.dumps(obj) + "\n" for obj in objects))
            argv = ["featurize", "--summaries", bad, "--encoder", encoder_json,
                    "--feature-len", "6", "--out", out]
        else:
            if kind == "features":
                dates = ingest.parse_market_csv(market_csv).dates
                block = np.random.default_rng(0).normal(size=(len(dates), 6))
                enc.write_features(bad, dates, block)
            else:
                bad.write_text(market_csv.read_text())
            rows = [line.split(",") for line in bad.read_text().splitlines()]
            edit, error, message = CSV_FAULTS[fault]
            header, repeated = rows[0], rows[1][0]
            edit(rows)
            bad.write_text("".join(",".join(row) + "\n" for row in rows))
            argv = (_train_args(bad, out, epochs=1) if kind == "market"
                    else _train_args(market_csv, out, epochs=1, features=bad))
            message = message and message.format(
                date=header[0], first=header[1], last=header[-1], width=len(header),
                long=len(header) + 1, repeated=repeated)
        if error is None:
            assert run(*argv) == 0
            assert '"error"' not in capsys.readouterr().err
            return
        assert run(*argv) == 2
        assert _one_error_line(capsys, error) == f"{bad}: {message}"
        assert not out.exists()


class TestBuildConfig:
    def _config(self, *argv):
        return cli.build_config(cli.build_parser().parse_args([str(a) for a in argv]))

    def test_zero_pretrain_epochs_flag_is_kept(self):
        cfg = self._config("pretrain-encoder", "--pretrain-epochs", "0")
        assert cfg.pretrain_epochs == 0

    def test_zero_pretrain_epochs_in_config_file_is_kept(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"pretrain_epochs": 0}))
        assert self._config("featurize", "--config", config).pretrain_epochs == 0

    def test_flag_overrides_config_file_and_default_is_50(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"pretrain_epochs": 7}))
        assert self._config("featurize", "--config", config,
                            "--pretrain-epochs", "0").pretrain_epochs == 0
        assert self._config("featurize", "--config", config).pretrain_epochs == 7
        assert self._config("featurize").pretrain_epochs == 50

    @pytest.mark.parametrize("key, value", [("pretrain", True), ("window", 5),
                                            ("feature_len", 7)])
    def test_top_level_key_of_no_setting_is_config_error(self, tmp_path, market_csv, capsys,
                                                          key, value):
        """`window` and `feature_len` are set in the `train` section only, and
        `pretrain` is no setting: at the top level each is an unknown key."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value, "train": {"window": 9, "feature_len": 3}}))
        assert run("train", "--config", config, "--market", market_csv,
                   "--out", tmp_path / "out") == 1
        assert _one_error_line(capsys, "ConfigError") == f"unknown config key(s): {key}"
        assert not (tmp_path / "out").exists()

    def test_absent_flags_leave_the_file_alone(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"pretrain_epochs": 7, "train": {"prior_effect": False}}))
        cfg = self._config("featurize", "--config", config)
        assert cfg.pretrain_epochs == 7 and cfg.train.prior_effect is False


def _resolve(cfg, key):
    """The value at a dotted OPTIONS key, which must name a dataclass field."""
    *sections, name = key.split(".")
    for section in sections:
        cfg = getattr(cfg, section)
    assert name in {f.name for f in dataclasses.fields(cfg)}, key
    return getattr(cfg, name)


class TestOptions:
    def test_every_flag_is_declared_once(self):
        flags = [flag for flag, _, _ in cli.OPTIONS]
        assert len(set(flags)) == len(flags) == 19
        assert len({key for _, key, _ in cli.OPTIONS}) == 19

    @pytest.mark.parametrize("flag,key,options", cli.OPTIONS,
                             ids=[flag for flag, _, _ in cli.OPTIONS])
    def test_flag_lands_in_its_field(self, flag, key, options):
        if "const" in options:
            argv, expected = [flag], options["const"]
        else:
            value = options["choices"][-1] if "choices" in options else "3"
            argv, expected = [flag, value], options.get("type", str)(value)
        default = _resolve(cli.ExperimentConfig(), key)
        cfg = cli.build_config(cli.build_parser().parse_args(["train", *argv]))
        assert _resolve(cfg, key) == expected != default

    def test_missing_market_names_the_flag(self, tmp_path, capsys):
        assert run("train", "--out", tmp_path / "out") == 1
        assert "--market" in _one_error_line(capsys, "ConfigError").split()


class TestBadConfigValues:
    """Malformed config values end as one ConfigError line and exit 1."""

    @pytest.mark.parametrize("config,flags,detail", [
        (json.dumps({"split_ratio": "0.8"}).encode(), [], "split_ratio"),
        (json.dumps({"train": {"epochs": 1.5}}).encode(), [], "epochs"),
        (json.dumps({"train": ["x"]}).encode(), [], "'train'"),
        (b'{"split_ratio": "\xff"}', [], "UTF-8"),
        (None, ["--lr", "nan"], "lr"),
        (json.dumps({"pretrain_epochs": -1}).encode(), [], "pretrain_epochs"),
        (json.dumps({"out": 5}).encode(), [], "out"),
        (json.dumps({"train": {"model": {"hidden": 8.5}}}).encode(), [], "hidden"),
        (json.dumps({"encoder": {"d_model": 8.0}}).encode(), [], "d_model"),
        (json.dumps({"encoder": {"mask_rate": "0.15"}}).encode(), [], "mask_rate"),
        (json.dumps({"epoch": 5}).encode(), [], "epoch"),
        (json.dumps({"trian": {"epochs": 2}}).encode(), [], "trian"),
        (json.dumps({"train": {"model": {"hiden": 8}}}).encode(), [], "train.model.hiden"),
        (json.dumps({"train": {"model": 4}}).encode(), [], "'train.model'"),
        (json.dumps({"pretrain": "false"}).encode(), [], "pretrain"),
        (json.dumps({"train": {"prior_effect": "no"}}).encode(), [], "prior_effect"),
        (json.dumps({"out": ""}).encode(), [], "out"),
        (json.dumps({"pretrain_epochs": None}).encode(), [], "pretrain_epochs"),
    ], ids=["split_ratio_string", "fractional_epochs", "train_not_an_object", "not_utf8",
            "nan_lr", "negative_pretrain_epochs", "path_not_a_string", "fractional_hidden",
            "float_d_model", "mask_rate_string", "unknown_top_level_key",
            "misspelled_section", "unknown_model_key", "model_not_an_object",
            "pretrain_string", "prior_effect_string", "empty_out", "null_pretrain_epochs"])
    def test_is_one_line_usage_error(self, tmp_path, market_csv, capsys, monkeypatch,
                                     config, flags, detail):
        monkeypatch.chdir(tmp_path)  # the default output directory, were one written
        argv = ["train", "--market", market_csv, *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_bytes(config)
            argv += ["--config", tmp_path / "cfg.json"]
        assert run(*argv) == 1
        assert detail in _one_error_line(capsys, "ConfigError")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_config_is_usage_error(self, tmp_path, market_csv, capsys, kind):
        bad = tmp_path / "cfg.json"
        if kind == "directory":
            bad.mkdir()
        assert run("train", "--config", bad, "--market", market_csv,
                   "--out", tmp_path / "out") == 1
        assert str(bad) in _one_error_line(capsys, "ConfigError")


# --- corrupted inputs: every outcome is an exit code, never a traceback ---

FUZZ_CONFIG = {"split_ratio": 0.75, "encoder": {"d_model": 4, "layers": 1, "d_ff": 4},
               "train": {"epochs": 1, "window": 4, "feature_len": 4, "batch_size": 8,
                         "model": {"kind": "lstm", "hidden": 4}}}

# argv for each corrupted input, given that file, the good inputs and `--out`
FUZZ_ARGS = {
    "market.csv": lambda bad, good, out: [
        "train", "--config", good["config.json"], "--market", bad, "--out", out],
    "features.csv": lambda bad, good, out: [
        "train", "--config", good["config.json"], "--market", good["market.csv"],
        "--features", bad, "--out", out],
    "summaries.jsonl": lambda bad, good, out: [
        "featurize", "--config", good["config.json"], "--summaries", bad,
        "--encoder", good["encoder.json"], "--out", out],
    "encoder.json": lambda bad, good, out: [
        "featurize", "--config", good["config.json"], "--summaries", good["summaries.jsonl"],
        "--encoder", bad, "--out", out],
    "checkpoint.json": lambda bad, good, out: [
        "evaluate", "--config", good["config.json"], "--market", good["market.csv"],
        "--checkpoint", bad, "--out", out],
    "config.json": lambda bad, good, out: [
        "train", "--config", bad, "--market", good["market.csv"], "--out", out],
}

NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity", "-Infinity", "1e999"]
WRONG_TYPES = [None, True, "x", 2.5, [], {}, ["x"], {"x": 1}]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small valid copy of every input the fuzz test corrupts."""
    root = tmp_path_factory.mktemp("fuzz")
    good = {name: root / name for name in FUZZ_ARGS}
    good["config.json"].write_text(json.dumps(FUZZ_CONFIG, separators=(",", ":")))
    synthetic.write_markov_market_csv(good["market.csv"], 24, seed=5, persistence=0.85)
    synthetic.write_toy_summaries(good["summaries.jsonl"], 6, seed=6)
    assert run("pretrain-encoder", "--config", good["config.json"], "--summaries",
               good["summaries.jsonl"], "--pretrain-epochs", 1, "--out", root / "feat") == 0
    assert run("featurize", "--config", good["config.json"], "--summaries",
               good["summaries.jsonl"], "--encoder", root / "feat" / "encoder.json",
               "--out", root / "feat") == 0
    assert run("train", "--config", good["config.json"], "--market", good["market.csv"],
               "--out", root / "run") == 0
    for name, made in [("features.csv", root / "feat" / "features.csv"),
                       ("encoder.json", root / "feat" / "encoder.json"),
                       ("checkpoint.json", root / "run" / "checkpoint.json")]:
        shutil.copy(made, good[name])
    return root, good


def _json_paths(doc, path=()):
    """The path of every node of a JSON document, reading at most the first
    two items of an array."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:2])
    else:
        items = ()
    for key, value in items:
        yield from _json_paths(value, (*path, key))


def _with_wrong_type(data: bytes, lines: bool, at: int, value) -> bytes:
    """`data` with the `at`-th node (mod their count) replaced by `value`;
    `lines` reads it as JSON lines, one array item a line."""
    doc = [json.loads(line) for line in data.splitlines()] if lines else json.loads(data)
    paths = [path for path in _json_paths(doc) if path or not lines]
    path = paths[at % len(paths)]
    if not path:
        return json.dumps(value).encode()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    if lines:
        return "".join(json.dumps(item) + "\n" for item in doc).encode()
    return json.dumps(doc).encode()


def _corrupt(name: str, data: bytes, draw) -> bytes:
    """`data` truncated, with up to three bytes flipped, with one number
    made non-finite or, in a JSON input, with one node of the wrong type."""
    kinds = ["truncate", "flip", "non-finite"] + ([] if name.endswith(".csv")
                                                   else ["wrong type"])
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        flipped = bytearray(data)
        for at, mask in draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                                st.integers(1, 255)), min_size=1, max_size=3)):
            flipped[at] ^= mask
        return bytes(flipped)
    if kind == "non-finite":
        numbers = list(NUMBER.finditer(data))
        number = numbers[draw(st.integers(0, len(numbers) - 1))]
        return (data[:number.start()] + draw(st.sampled_from(NON_FINITE)).encode()
                + data[number.end():])
    return _with_wrong_type(data, name.endswith(".jsonl"), draw(st.integers(0, 10 ** 6)),
                            draw(st.sampled_from(WRONG_TYPES)))


# argv for each input a byte-order mark is put before, as FUZZ_ARGS gives them
BOM_ARGS = {**FUZZ_ARGS, "similar.json": lambda bad, good, out: [
    "pretrain-encoder", "--config", good["config.json"], "--summaries",
    good["summaries.jsonl"], "--similar-words", bad, "--pretrain-epochs", 1, "--out", out]}


class TestByteOrderMark:
    """Each of the seven inputs, written with a leading UTF-8 byte-order mark
    (as an Excel "CSV UTF-8" export is), gives the plain file's outputs."""

    @pytest.mark.parametrize("name", sorted(BOM_ARGS))
    def test_is_read_as_the_plain_file(self, fuzz_inputs, tmp_path, name):
        _, good = fuzz_inputs
        good = {**good, "similar.json": tmp_path / "similar.json"}
        good["similar.json"].write_text('{"credit": ["supply"], "index": ["growth"]}')
        marked = tmp_path / f"bom_{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + good[name].read_bytes())
        outputs = []
        for path, out in ((good[name], tmp_path / "plain"), (marked, tmp_path / "marked")):
            assert run(*BOM_ARGS[name](path, good, out)) == 0
            outputs.append({file.name: file.read_bytes() for file in sorted(out.iterdir())})
        assert outputs[0] == outputs[1] and outputs[0]

    def test_bad_byte_offset_counts_from_the_start_of_the_file(self, tmp_path, capsys):
        """Past the mark and past the first decoded chunk, the offset is the
        bad byte's position in the file."""
        for name, head in (("mark", b"\xef\xbb\xbf"), ("long", b"x" * 20_000)):
            bad = tmp_path / f"{name}.jsonl"
            bad.write_bytes(head + b"123456789\xff\n")
            assert run("pretrain-encoder", "--summaries", bad, "--out", tmp_path / "out") == 2
            assert _one_error_line(capsys, "DataError") == (
                f"{bad}: not UTF-8 text (invalid start byte at byte {len(head) + 9})")


class TestCorruptInputs:
    """A truncated, bit-flipped, non-finite or mistyped input ends in exit 0
    (a truncation can leave a valid file) or in exactly one JSON error line
    with exit 1, 2 or 3 and no `--out`; a traceback fails the test."""

    @pytest.mark.parametrize("name", sorted(FUZZ_ARGS))
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_ends_in_an_exit_code(self, fuzz_inputs, name, data):
        root, good = fuzz_inputs
        work = Path(tempfile.mkdtemp(dir=root))
        try:
            bad = work / name
            bad.write_bytes(_corrupt(name, good[name].read_bytes(), data.draw))
            out = work / "out"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = run(*FUZZ_ARGS[name](bad, good, out))
            assert code in (0, 1, 2, 3)
            if code:
                lines = stderr.getvalue().splitlines()
                assert len(lines) == 1, lines
                assert set(json.loads(lines[0])) == {"error", "message"}
                assert not out.exists()
        finally:
            shutil.rmtree(work)
