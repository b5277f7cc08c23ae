"""Command surface: artifacts, determinism, exit codes, and file contracts."""

import csv
import json
from datetime import date, timedelta

import numpy as np
import pytest

import oracles

from trendfuse import cli, encoder as enc, fusion, ingest, synthetic
from trendfuse.encoder import read_features

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
    def test_one_row_per_summary_date(self, tmp_path, summaries):
        out = tmp_path / "feat"
        code = run("featurize", "--summaries", summaries, "--out", out,
                   "--pretrain", "--pretrain-epochs", "2", "--seed", "1",
                   "--feature-len", "6")
        assert code == 0
        features = read_features(out / "features.csv", expected_len=6)
        assert len(features) == 5
        assert (out / "encoder.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path, summaries):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("featurize", "--summaries", summaries, "--out", out,
                       "--pretrain", "--pretrain-epochs", "2", "--seed", "9",
                       "--feature-len", "6") == 0
            outs.append((out / "features.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_encoder_without_pretrain_is_config_error(self, tmp_path, summaries):
        code = run("featurize", "--summaries", summaries, "--out", tmp_path / "x")
        assert code == 1

    def test_existing_checkpoint_reused(self, tmp_path, summaries):
        first = tmp_path / "first"
        assert run("featurize", "--summaries", summaries, "--out", first,
                   "--pretrain", "--pretrain-epochs", "2", "--seed", "1",
                   "--feature-len", "6") == 0
        second = tmp_path / "second"
        assert run("featurize", "--summaries", summaries, "--out", second,
                   "--encoder", first / "encoder.json", "--feature-len", "6") == 0
        assert (first / "features.csv").read_bytes() == (second / "features.csv").read_bytes()

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
        for record in ingest.load_summaries(summaries):
            tokens = enc.tokenize(ingest.summarize(record.text), vocab, config.max_len)
            _, pooled = oracles.encode_text(tokens, config, params)
            rows.append(enc.TextFeature(record.date, enc.standardize_features(pooled.data, 20)))
        enc.write_features(tmp_path / "loop.csv", rows)
        assert (tmp_path / "feat" / "features.csv").read_bytes() \
            == (tmp_path / "loop.csv").read_bytes()


def _truncated(doc):
    text = json.dumps(doc)
    return text[:len(text) // 2]


def _without_emb(doc):
    del doc["params"]["params"]["emb"]
    return json.dumps(doc)


def _infinite_weight(doc):
    doc["params"]["params"]["layer0.wq"]["data"][3] = float("inf")
    return json.dumps(doc)  # written as the JSON extension `Infinity`


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
        (_truncated, "malformed"),
        (lambda doc: json.dumps({"format_version": 1}), "config"),
        (_unknown_config_key, "depth"),
        (_without_emb, "'emb'"),
        (_infinite_weight, "'layer0.wq' has a non-finite value"),
        (_replaced(["format_version"], True), "not a version 1"),
        (_replaced(["params", "format_version"], True), "format_version True"),
        (_replaced(["params", "params", "emb", "data"], lambda data: [str(v) for v in data]),
         "'emb' is malformed"),
        (_replaced(["params", "params", "mlm.b", "data"], lambda data: [False for _ in data]),
         "'mlm.b' is malformed"),
        (_replaced(["vocab", "similar"], {"2": [5]}), "similar-word entry 2"),
        (_replaced(["vocab", "similar"], {"5": [6, 7]}), "similar-word entry 5"),
        (_replaced(["vocab", "similar"], {"5": [5.9]}), "similar-word entry 5"),
        (_replaced(["vocab", "similar"], {"5": ["6"]}), "similar-word entry 5"),
    ], ids=["truncated_json", "no_config", "unknown_config_key", "no_emb", "infinite_weight",
            "document_version_true", "params_version_true", "string_data", "boolean_data",
            "special_similar_key", "similar_id_past_the_vocabulary", "float_similar_id",
            "string_similar_id"])
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


    @pytest.mark.parametrize("command", [["pretrain-encoder"], ["featurize", "--pretrain"]])
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
                                                summaries, capsys):
        feat_dir = tmp_path / "feat"
        assert run("featurize", "--summaries", summaries, "--out", feat_dir,
                   "--pretrain", "--pretrain-epochs", "2", "--seed", "1",
                   "--feature-len", "6") == 0
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
        dates = [r.date for r in ingest.parse_market_csv(market_csv).records]
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
        dates = [r.date for r in ingest.parse_market_csv(market_csv).records]
        assert "features.csv" in message and "duplicate date" in message
        assert dates[10].isoformat() in message

    def test_non_finite_fuse_input_is_divergence(self, tmp_path, market_csv, capsys,
                                                  monkeypatch):
        conv_text = fusion.conv_text
        monkeypatch.setattr(fusion, "conv_text", lambda embedded, params:
                            oracles.mul(conv_text(embedded, params), np.nan))
        assert run(*_train_args(market_csv, tmp_path / "run", epochs=2)) == 3
        message = _one_error_line(capsys, "DivergenceError")
        assert "fuse" in message

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
            "window": 5, "feature_len": 6,
            "train": {"epochs": 8, "seed": 3,
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
        ("run.json", b"[1, 2", "not valid JSON"),
        ("run.json", b"[1, 2]", "not a JSON object"),
        ("loss.csv", b"epoch,mean_loss\n0,\xff\n", "not UTF-8"),
    ], ids=["metrics_invalid_json", "metrics_without_accuracy", "run_invalid_json",
            "run_not_an_object", "loss_not_utf8"])
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


class TestBuildConfig:
    def _config(self, *argv):
        return cli.build_config(cli.build_parser().parse_args([str(a) for a in argv]))

    def test_zero_pretrain_epochs_flag_is_kept(self):
        cfg = self._config("featurize", "--pretrain", "--pretrain-epochs", "0")
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
    ], ids=["split_ratio_string", "fractional_epochs", "train_not_an_object", "not_utf8",
            "nan_lr", "negative_pretrain_epochs", "path_not_a_string", "fractional_hidden",
            "float_d_model", "mask_rate_string"])
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
