"""The three benchmark workloads: seeded inputs, one pass of work, output checks.

Each workload is a closed-loop batch job with a single caller. `setup`
turns the seed into inputs (the program sees only those), and `run_pass`
does one pass of work through the program's public API, timing every
operation and checking every output. All program calls go through module
attribute lookups, so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from trendfuse import cli, encoder, synthetic, train
from trendfuse.models import VALID_KINDS, ModelSpec

# Relative tolerance for final losses against the recorded reference seed.
LOSS_RTOL = 1e-9

# ROADMAP baseline shape; the sizes are the work in one pass.
SIZES = {
    "zoo-train": {"full": {"train": 128, "heldout": 2048, "epochs": 8},
                  "min": {"train": 32, "heldout": 32, "epochs": 2}},
    "text-encoder": {"full": {"short": 100, "long": 50, "epochs": 2},
                     "min": {"short": 6, "long": 2, "epochs": 2}},
    "cli-pipeline": {"full": {"days": 730, "epochs": 3},
                     "min": {"days": 60, "epochs": 2}},
}
ZOO_SHAPE = {"batch_size": 32, "window": 6, "feature_len": 8, "embed_width": 8}
HIDDEN = 8
FEATURE_LEN = 8


class PassLog:
    """Timings, failures and an output digest for one pass of a workload.

    An operation is one call into the program. It fails when it raises or
    when a check on its output does not hold; each failure is kept.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.final_losses: dict[str, tuple[str, float]] = {}  # key -> (op, loss)
        self.bytes_written = 0
        self.digest = hashlib.sha256()

    def call(self, op: str, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a failed operation is counted, never dropped
            self.fail(op, traceback.format_exc())
            return None
        self.seconds[op] = time.perf_counter() - start
        return out

    def fail(self, op: str, message: str) -> None:
        if op not in self.failed:
            self.failed[op] = message
            print(f"check failed: {op}: {message}", file=sys.stderr)

    def expect(self, op: str, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(op, message)
        return ok

    def absorb(self, data: bytes) -> None:
        self.digest.update(len(data).to_bytes(8, "little"))
        self.digest.update(data)


def _check_trace(log: PassLog, op: str, trace, key: str | None = None) -> None:
    """A finite loss trace that decreases from the first epoch to the last."""
    values = [float(v) for v in trace]
    if log.expect(op, bool(values) and all(math.isfinite(v) for v in values),
                  f"loss trace empty or non-finite: {values}"):
        log.expect(op, values[-1] < values[0],
                   f"loss did not decrease from first to last epoch: {values}")
        log.final_losses[key or op] = (op, values[-1])
    log.absorb(repr(values).encode())


def _check_report(log: PassLog, op: str, report: dict, size: int) -> None:
    """Probabilities in [0, 1]; confusion counts sum to the held-out size."""
    probs = np.array([row["probability"] for row in report["predictions"]])
    log.expect(op, probs.size == size and bool(np.all((probs >= 0) & (probs <= 1))),
               f"{probs.size} predictions for {size} samples, or one outside [0, 1]")
    counts = report["tp"] + report["fp"] + report["tn"] + report["fn"]
    log.expect(op, counts == size, f"confusion counts sum to {counts}, expected {size}")
    log.absorb(probs.tobytes())


# --- zoo-train: every predictor through train.train_model, then train.evaluate ---

def zoo_setup(seed: int, size: dict, workdir: Path) -> dict:
    samples = synthetic.markov_samples(size["train"] + size["heldout"], ZOO_SHAPE["window"],
                                       seed=seed, feature_len=ZOO_SHAPE["feature_len"])
    return {"seed": seed, "size": size,
            "train": samples[:size["train"]], "heldout": samples[size["train"]:]}


def zoo_pass(inputs: dict, log: PassLog, workdir: Path) -> dict:
    size = inputs["size"]
    metrics = {}
    scored, score_s = 0, 0.0
    for kind in VALID_KINDS:
        config = train.TrainConfig(epochs=size["epochs"], seed=inputs["seed"],
                                   model=ModelSpec(kind=kind, hidden=HIDDEN), **ZOO_SHAPE)
        op = f"train.{kind}"
        result = log.call(op, train.train_model, inputs["train"], config)
        if result is None:
            continue
        store, trace = result
        _check_trace(log, op, trace)
        metrics[f"train_samples_per_s.{kind}"] = (
            size["train"] * size["epochs"] / log.seconds[op])
        op = f"score.{kind}"
        report = log.call(op, train.evaluate, store, config, inputs["heldout"])
        if report is None:
            continue
        _check_report(log, op, report.to_dict(), len(inputs["heldout"]))
        scored += len(inputs["heldout"])
        score_s += log.seconds[op]
    if score_s:
        metrics["score_samples_per_s"] = scored / score_s
    return metrics


# --- text-encoder: encoder.pretrain_mlm, then encoder.encode_feature ---

def text_setup(seed: int, size: dict, workdir: Path) -> dict:
    """Toy sentences plus longer summary-style texts reaching max_len tokens,
    with a similar-word table over the corpus words."""
    rng = np.random.default_rng(seed)
    corpus = synthetic.toy_corpus(size["short"], seed=seed)
    words = sorted({w for text in corpus for w in text.split()})
    for _ in range(size["long"]):
        sentences = int(rng.integers(2, 9))
        corpus.append(". ".join(" ".join(rng.choice(words, size=4))
                                for _ in range(sentences)) + ".")
    similar = {w: [words[(i + 1) % len(words)], words[(i + 3) % len(words)]]
               for i, w in enumerate(words) if i % 2 == 0}
    return {"seed": seed, "size": size, "corpus": corpus, "similar": similar}


def text_pass(inputs: dict, log: PassLog, workdir: Path) -> dict:
    size, corpus = inputs["size"], inputs["corpus"]
    config = encoder.EncoderConfig()
    result = log.call("pretrain", encoder.pretrain_mlm, corpus, config, size["epochs"],
                      inputs["seed"], inputs["similar"])
    if result is None:
        return {}
    params, vocab, trace = result
    _check_trace(log, "pretrain", trace)
    feats = log.call("featurize", lambda: [
        encoder.encode_feature(text, vocab, config, params, FEATURE_LEN) for text in corpus])
    metrics = {"pretrain_sentences_per_s": len(corpus) * size["epochs"] / log.seconds["pretrain"]}
    if feats is not None:
        block = np.array(feats)
        log.expect("featurize", block.shape == (len(corpus), FEATURE_LEN)
                   and bool(np.isfinite(block).all()),
                   f"feature block of shape {block.shape} is not finite ({len(corpus)} texts)")
        log.absorb(block.tobytes())
        metrics["featurize_texts_per_s"] = len(corpus) / log.seconds["featurize"]
    return metrics


# --- cli-pipeline: files to report through cli.main ---

def cli_setup(seed: int, size: dict, workdir: Path) -> dict:
    data = workdir / "data"
    data.mkdir(parents=True, exist_ok=True)
    market, summaries = data / "market.csv", data / "summaries.jsonl"
    synthetic.write_markov_market_csv(market, size["days"], seed=seed)
    synthetic.write_toy_summaries(summaries, size["days"], seed=seed + 1)
    corpus = [json.loads(line)["text"]
              for line in summaries.read_text(encoding="utf-8").splitlines()]
    config = encoder.EncoderConfig()
    params, vocab, _ = encoder.pretrain_mlm(corpus, config, 0, seed)
    encoder.save_encoder(data / "encoder.json", config, vocab, params)
    samples = size["days"] - ZOO_SHAPE["window"] + 1
    return {"seed": seed, "size": size, "market": market, "summaries": summaries,
            "encoder": data / "encoder.json", "dates": len(corpus),
            "test_size": samples - math.floor(0.8 * samples)}


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _check_cli(log: PassLog, op: str, out: Path, inputs: dict) -> None:
    """Each command's documented artifacts exist and parse."""
    try:
        if op == "featurize":
            rows = _read_csv(out / "features" / "features.csv")
            log.expect(op, rows[0] == ["date"] + [f"f{i}" for i in range(FEATURE_LEN)],
                       f"bad feature header {rows[0]}")
            log.expect(op, len(rows) - 1 == inputs["dates"],
                       f"{len(rows) - 1} feature rows for {inputs['dates']} summary dates")
            log.expect(op, all(math.isfinite(float(v)) for row in rows[1:] for v in row[1:]),
                       "non-finite feature value")
        elif op == "train":
            run = out / "runs" / "lstm"
            log.expect(op, "params" in json.loads((run / "checkpoint.json").read_text()),
                       "checkpoint has no params")
            json.loads((run / "run.json").read_text())
            metrics = json.loads((run / "metrics.json").read_text())
            _check_trace(log, op, metrics["loss_trace"])
            _check_report(log, op, metrics, inputs["test_size"])
            losses = [float(r[1]) for r in _read_csv(run / "loss.csv")[1:]]
            log.expect(op, losses == metrics["loss_trace"], "loss.csv differs from metrics.json")
            preds = _read_csv(run / "predictions.csv")
            log.expect(op, len(preds) - 1 == inputs["test_size"],
                       f"{len(preds) - 1} prediction rows for {inputs['test_size']} samples")
        elif op == "evaluate":
            metrics = json.loads((out / "eval" / "metrics.json").read_text())
            _check_report(log, op, metrics, inputs["test_size"])
            trained = json.loads((out / "runs" / "lstm" / "metrics.json").read_text())
            log.expect(op, metrics["predictions"] == trained["predictions"],
                       "checkpoint round-trip changed the predictions")
        elif op == "ablate":
            for kind in ("feedforward", "lstm"):
                for arm in ("with", "without"):
                    report = json.loads(
                        (out / "ablation" / f"ablation_{kind}_{arm}.json").read_text())
                    _check_trace(log, op, report["loss_trace"], key=f"ablate.{kind}.{arm}")
                    _check_report(log, op, report, inputs["test_size"])
            rows = _read_csv(out / "ablation" / "ablation.csv")
            log.expect(op, [r[0] for r in rows[1:]] == ["feedforward", "lstm"],
                       f"ablation table rows {rows}")
        elif op == "report":
            rows = _read_csv(out / "report" / "comparison.csv")
            log.expect(op, len(rows) == 2 and rows[1][0] == "lstm", f"comparison rows {rows}")
            log.expect(op, _read_csv(out / "report" / "loss_lstm.csv")
                       == _read_csv(out / "runs" / "lstm" / "loss.csv"),
                       "report copied a different loss curve")
    except (OSError, ValueError, KeyError, IndexError) as err:
        log.fail(op, f"artifact missing or unparseable: {err!r}")


def cli_pass(inputs: dict, log: PassLog, workdir: Path) -> dict:
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    size = inputs["size"]
    common = ["--market", str(inputs["market"]), "--feature-len", str(FEATURE_LEN),
              "--window", str(ZOO_SHAPE["window"]), "--hidden", str(HIDDEN),
              "--seed", str(inputs["seed"]), "--epochs", str(size["epochs"]),
              "--features", str(out / "features" / "features.csv"), "--model", "lstm"]
    commands = {
        "featurize": ["featurize", "--summaries", str(inputs["summaries"]),
                      "--encoder", str(inputs["encoder"]),
                      "--feature-len", str(FEATURE_LEN), "--out", str(out / "features")],
        "train": ["train", *common, "--out", str(out / "runs" / "lstm")],
        "evaluate": ["evaluate", *common, "--out", str(out / "eval"),
                     "--checkpoint", str(out / "runs" / "lstm" / "checkpoint.json")],
        "ablate": ["ablate", *common, "--out", str(out / "ablation")],
        "report": ["report", str(out / "runs"), "--out", str(out / "report")],
    }
    metrics = {}
    for op, argv in commands.items():
        code = log.call(op, cli.main, argv)
        if log.expect(op, code == 0, f"exit code {code}"):
            _check_cli(log, op, out, inputs)
        metrics[f"cli.{op}_s"] = log.seconds.get(op, 0.0)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        log.bytes_written += len(data)
        log.absorb(str(path.relative_to(out)).encode() + b"\0" + data)
    return metrics


WORKLOADS = {
    "zoo-train": (zoo_setup, zoo_pass),
    "text-encoder": (text_setup, text_pass),
    "cli-pipeline": (cli_setup, cli_pass),
}

# End-to-end metrics each workload prints, with units, besides the common ones.
WORKLOAD_METRICS = {
    "zoo-train": {**{f"train_samples_per_s.{k}": "1/s" for k in VALID_KINDS},
                  "score_samples_per_s": "1/s"},
    "text-encoder": {"pretrain_sentences_per_s": "1/s", "featurize_texts_per_s": "1/s"},
    "cli-pipeline": {},
}
