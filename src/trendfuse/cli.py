"""Command-line surface: featurize, pretrain-encoder, train, evaluate, ablate, report.

Each result has one path (`pretrain-encoder` alone pretrains; `featurize`
only encodes, with an `--encoder` checkpoint), and each setting one config
key. Configuration comes from an optional JSON document plus flag overrides;
every command is deterministic under a fixed config and seed. Before a
command runs, `main` checks the config, then its input paths, then `--out`;
every JSON document is read by `errors.read_json`. Exit codes: 0 success,
1 usage or config problem, 2 bad data, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import ingest
from . import train as tr
from .errors import (ConfigError, ContractError, DataError, DivergenceError, ProviderError,
                     check_integer, is_real, open_text, read_json)
from .models import VALID_KINDS
from .numerics import ParameterStore

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3

# The six input paths of a run.
INPUTS = ("market_csv", "summaries", "similar_words", "features", "encoder_checkpoint",
          "checkpoint")
# Each command's help line and the inputs it cannot run without.
COMMANDS = {
    "featurize": ("encode summaries into a feature CSV", ("summaries", "encoder_checkpoint")),
    "pretrain-encoder": ("train the text encoder on a summaries corpus", ("summaries",)),
    "train": ("train a predictor and write metrics/loss/predictions", ("market_csv",)),
    "evaluate": ("evaluate a saved checkpoint on the test split", ("market_csv", "checkpoint")),
    "ablate": ("compare runs with and without the prior history", ("market_csv",)),
    "report": ("collect runs into comparison and loss-curve tables", ()),
}


@dataclass
class ExperimentConfig:
    market_csv: str | None = None
    summaries: str | None = None
    similar_words: str | None = None
    features: str | None = None
    encoder_checkpoint: str | None = None
    checkpoint: str | None = None
    out: str = "runs/latest"
    pretrain_epochs: int = 50
    split_ratio: float = 0.8
    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
    encoder: enc.EncoderConfig = field(default_factory=enc.EncoderConfig)

    def __post_init__(self):
        check_integer("pretrain_epochs", self.pretrain_epochs, 0)
        if not is_real(self.split_ratio) or not 0 < self.split_ratio < 1:
            raise ConfigError(f"split_ratio must be a number in (0, 1), got {self.split_ratio!r}")
        for name in (*INPUTS, "out"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value or value is None and name != "out"):
                raise ConfigError(f"{name} must be a non-empty path string, got {value!r}")


# One row per flag: the flag, the dotted ExperimentConfig key it sets, and its
# argparse options. A flag left out is None and leaves the file's value alone.
OPTIONS = (
    ("--model", "train.model.kind", {"choices": VALID_KINDS, "help": "predictor kind"}),
    ("--epochs", "train.epochs", {"type": int, "help": "training epochs (e.g. 100, 200, 400)"}),
    ("--seed", "train.seed", {"type": int, "help": "RNG seed"}),
    ("--no-prior-effect", "train.prior_effect",
     {"action": "store_const", "const": False,
      "help": "zero-mask the prior movement history"}),
    ("--features", "features", {"help": "feature CSV (date,f0..fN)"}),
    ("--out", "out", {"help": "output directory"}),
    ("--market", "market_csv", {"help": "market CSV (Date,Chg,Open,Close,Volume)"}),
    ("--summaries", "summaries", {"help": "JSON-lines summaries file"}),
    ("--similar-words", "similar_words", {"help": "JSON table token -> [substitute tokens]"}),
    ("--encoder", "encoder_checkpoint", {"help": "encoder checkpoint JSON"}),
    ("--checkpoint", "checkpoint", {"help": "model checkpoint JSON"}),
    ("--hidden", "train.model.hidden", {"type": int, "help": "recurrent hidden width"}),
    ("--window", "train.window", {"type": int, "help": "sliding window length n"}),
    ("--feature-len", "train.feature_len", {"type": int, "help": "text feature length L"}),
    ("--batch-size", "train.batch_size", {"type": int}),
    ("--lr", "train.lr", {"type": float}),
    ("--mogrifier-rounds", "train.model.mogrifier_rounds", {"type": int}),
    ("--swin-window", "train.model.swin_window", {"type": int}),
    ("--pretrain-epochs", "pretrain_epochs", {"type": int}),
)


def load_config_file(path) -> dict:
    try:
        doc = read_json(path, "config")
    except OSError as err:
        raise ConfigError(f"cannot read config file '{path}' ({err.strerror})") from None
    except DataError as err:
        raise ConfigError(str(err)) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _set(doc: dict, key: str, value) -> None:
    """Set the dotted `key` in the nested JSON object `doc`."""
    *sections, name = key.split(".")
    for section in sections:
        doc = doc.setdefault(section, {})
        if not isinstance(doc, dict):
            return  # `_build` refuses the section
    doc[name] = value


def _build(cls, doc, where: str = ""):
    """A `cls` dataclass from a JSON object; a dataclass field is built from
    its section by its default_factory. A section that is not an object and
    an unknown key are a ConfigError naming them."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {where!r} must be a JSON object, got {doc!r}")
    prefix = f"{where}." if where else ""
    fields = {f.name: f.default_factory for f in dataclasses.fields(cls)}
    unknown = [prefix + key for key in doc if key not in fields]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return cls(**{key: value if fields[key] is dataclasses.MISSING
                  else _build(fields[key], value, prefix + key)
                  for key, value in doc.items()})


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file (if any), then each given flag over it, as one checked ExperimentConfig."""
    doc = load_config_file(args.config) if args.config is not None else {}
    for flag, key, _ in OPTIONS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            _set(doc, key, value)
    return _build(ExperimentConfig, doc)


def _check_inputs(cfg: ExperimentConfig, command: str) -> None:
    """ConfigError unless `command`'s required inputs are given and all given paths exist."""
    for name in COMMANDS[command][1]:
        if getattr(cfg, name) is None:
            flag = next(flag for flag, key, _ in OPTIONS if key == name)
            raise ConfigError(f"missing required input: {flag}")
    for name in INPUTS:
        value = getattr(cfg, name)
        if value is not None and not Path(value).exists():
            raise ConfigError(f"{name} path does not exist: {value}")


def _check_out(cfg: ExperimentConfig) -> None:
    """ConfigError unless the nearest existing path of `--out` is a
    directory this process can write in. Nothing is made."""
    existing = Path(cfg.out)
    while not os.path.lexists(existing) and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(f"output directory not usable: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory not writable: {existing}")


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_summaries(cfg: ExperimentConfig) -> tuple[tuple, list[str]]:
    """The summaries' dates and texts; DataError when there are none."""
    dates, texts = ingest.load_summaries(cfg.summaries)
    if not dates:
        raise DataError(f"no usable summaries in {cfg.summaries}")
    return dates, texts


def cmd_featurize(cfg: ExperimentConfig) -> None:
    """Encode each summary with the `--encoder` checkpoint into a feature row and
    write the CSV; a non-finite row is a DivergenceError naming its date."""
    dates, corpus = _load_summaries(cfg)
    provider = ingest.ExtractiveSummaryProvider()
    encoder_cfg, vocab, params = enc.load_encoder(cfg.encoder_checkpoint)
    texts = []
    for day, text in zip(dates, corpus):
        try:
            texts.append(ingest.summarize(text, provider))
        except ProviderError:
            log.warning("summary provider failed for %s; using raw text", day)
            texts.append(text)
    block = enc.encode_features(texts, vocab, encoder_cfg, params, cfg.train.feature_len)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise DivergenceError(f"non-finite text feature for {dates[finite.argmin()]} "
                              f"from encoder {cfg.encoder_checkpoint}")
    out = _out_dir(cfg)
    enc.write_features(out / "features.csv", dates, block)
    log.info("wrote %d feature rows to %s", len(dates), out / "features.csv")


def cmd_pretrain_encoder(cfg: ExperimentConfig) -> None:
    """Train the text encoder on the summaries corpus; write its checkpoint and
    loss trace to the output directory, made once the encoder is trained."""
    similar = enc.load_similar_words(cfg.similar_words) if cfg.similar_words else None
    params, vocab, trace = enc.pretrain_mlm(_load_summaries(cfg)[1], cfg.encoder,
                                            cfg.pretrain_epochs, cfg.train.seed,
                                            similar_words=similar)
    out = _out_dir(cfg)
    enc.save_encoder(out / "encoder.json", cfg.encoder, vocab, params)
    _write_csv(out / "pretrain_loss.csv", ["epoch", "mean_loss"], enumerate(map(repr, trace)))
    log.info("encoder checkpoint at %s", out / "encoder.json")


def _read_market(cfg: ExperimentConfig) -> tuple[ingest.MarketSeries, tuple | None]:
    """The market series and, with `--features`, the feature file's (dates,
    block); DataError when the series is too short for `--window` or the split."""
    series = ingest.parse_market_csv(cfg.market_csv)
    window = cfg.train.window
    if len(series) <= window:
        raise DataError(f"{cfg.market_csv}: {len(series)} day(s), too few for --window "
                        f"{window}: a train/test split needs at least {window + 1}")
    count = len(series) - window + 1  # as `ingest.split_train_test` cuts them
    if not 0 < int(cfg.split_ratio * count) < count:
        raise DataError(f"{cfg.market_csv}: {count} window(s) of --window {window}; "
                        f"split_ratio {cfg.split_ratio} leaves the train or test side empty")
    features = None
    if cfg.features:
        features = enc.read_features(cfg.features, expected_len=cfg.train.feature_len)
    return series, features


def _split_samples(cfg: ExperimentConfig, series: ingest.MarketSeries,
                   features: tuple | None) -> tuple[ingest.Samples, ingest.Samples]:
    """`_read_market`'s inputs as windows, cut chronologically at split_ratio."""
    samples = ingest.make_windows(series, cfg.train.window, features,
                                  feature_len=cfg.train.feature_len)
    return ingest.split_train_test(samples, cfg.split_ratio)


def _run_metadata(cfg: ExperimentConfig) -> dict:
    return {
        "model": cfg.train.model.kind,
        "hidden": cfg.train.model.hidden,
        "epochs": cfg.train.epochs,
        "seed": cfg.train.seed,
        "window": cfg.train.window,
        "feature_len": cfg.train.feature_len,
        "prior_effect": cfg.train.prior_effect,
    }


def cmd_train(cfg: ExperimentConfig) -> None:
    """Full pipeline: ingest, window, split, train, evaluate, write artifacts."""
    train_samples, test_samples = _split_samples(cfg, *_read_market(cfg))
    store, report = tr.train_and_evaluate(train_samples, test_samples, cfg.train)
    out = _out_dir(cfg)
    store.save(out / "checkpoint.json")
    _write_csv(out / "loss.csv", ["epoch", "mean_loss"], enumerate(map(repr, report.loss_trace)))
    _write_json(out / "metrics.json", report.to_dict())
    _write_csv(out / "predictions.csv", ["date", "probability", "label", "target"],
               [(row["date"], repr(row["probability"]), row["label"], row["target"])
                for row in report.predictions])
    _write_json(out / "run.json", _run_metadata(cfg))
    log.info("train done: accuracy=%.4f f1=%.4f -> %s",
             report.accuracy, report.f1, out)


def cmd_evaluate(cfg: ExperimentConfig) -> None:
    """Evaluate a saved checkpoint on the chronological test split. The
    checkpoint is checked against the configured model before the windows
    are made, so a config it does not fit is a DataError naming it."""
    inputs = _read_market(cfg)
    store = ParameterStore.load(cfg.checkpoint, tr.pipeline_layout(cfg.train))
    _, test_samples = _split_samples(cfg, *inputs)
    report = tr.evaluate(store, cfg.train, test_samples)
    out = _out_dir(cfg)
    _write_json(out / "metrics.json", report.to_dict())
    log.info("evaluate done: accuracy=%.4f f1=%.4f", report.accuracy, report.f1)


def cmd_ablate(cfg: ExperimentConfig) -> None:
    """Prior-effect ablation for the feedforward baseline and the configured
    recurrent model; once both models' arms are trained, makes the output
    directory and writes each model's two reports and the delta table."""
    train_samples, test_samples = _split_samples(cfg, *_read_market(cfg))
    second = cfg.train.model.kind if cfg.train.model.kind != "feedforward" else "lstm"
    results = {}
    for kind in ("feedforward", second):
        spec = dataclasses.replace(cfg.train.model, kind=kind)
        config = dataclasses.replace(cfg.train, model=spec)
        results[kind] = tr.ablate_prior_effect(train_samples, test_samples, config)
    out = _out_dir(cfg)
    rows = []
    for kind, (with_report, without_report, deltas) in results.items():
        _write_json(out / f"ablation_{kind}_with.json", with_report.to_dict())
        _write_json(out / f"ablation_{kind}_without.json", without_report.to_dict())
        rows.append([kind,
                     repr(without_report.f1), repr(with_report.f1),
                     repr(deltas["f1_delta"]),
                     repr(without_report.recall), repr(with_report.recall),
                     repr(deltas["recall_delta"])])
    _write_csv(out / "ablation.csv", ["model", "f1_without", "f1_with", "f1_delta",
                                      "recall_without", "recall_with", "recall_delta"], rows)
    log.info("ablation table at %s", out / "ablation.csv")


def _read_run_file(path: Path, required: tuple[str, ...]) -> dict:
    """A run's JSON object; DataError naming the file when it is not valid
    JSON, not an object, or lacks a required key."""
    doc = read_json(path, "run file")
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a JSON object")
    missing = [key for key in required if key not in doc]
    if missing:
        raise DataError(f"{path}: missing {', '.join(repr(k) for k in missing)}")
    return doc


def cmd_report(cfg: ExperimentConfig, runs_dir: str) -> None:
    """Collect run artifacts into loss-curve CSVs and a comparison table."""
    root = Path(runs_dir)
    if not root.exists():
        raise DataError(f"run directory does not exist: {root}")
    run_dirs = [d for d in sorted(root.iterdir()) if d.is_dir()
                and (d / "metrics.json").exists()]
    if (root / "metrics.json").exists():
        run_dirs.insert(0, root)
    if not run_dirs:
        raise DataError(f"no runs with metrics.json under: {root}")
    losses, comparison = {}, []
    for run in run_dirs:
        metrics_path = run / "metrics.json"
        loss_path = run / "loss.csv"
        if not loss_path.exists():
            raise DataError(f"missing loss curve: {loss_path}")
        metrics = _read_run_file(metrics_path, ("accuracy", "precision", "recall", "f1"))
        meta_path = run / "run.json"
        meta = _read_run_file(meta_path, ()) if meta_path.exists() else {}
        name = run.name if run != root else root.name
        with open_text(loss_path) as fh:
            fh.reconfigure(newline=None)  # the copy ends its lines with "\n"
            losses[f"loss_{name}.csv"] = fh.read()
        comparison.append([meta.get("model", name), meta.get("epochs", ""),
                           repr(metrics["accuracy"]), repr(metrics["precision"]),
                           repr(metrics["recall"]), repr(metrics["f1"])])
    out = _out_dir(cfg)
    for file_name, loss_text in losses.items():
        (out / file_name).write_text(loss_text, encoding="utf-8")
    _write_csv(out / "comparison.csv",
               ["model", "epochs", "accuracy", "precision", "recall", "f1"], comparison)
    log.info("comparison table with %d run(s) at %s", len(comparison),
             out / "comparison.csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    """The `trendfuse` parser; every sub-command takes `--config` and the
    OPTIONS flags from one parent parser, built once per call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    for flag, _, options in OPTIONS:
        common.add_argument(flag, **options)
    parser = _Parser(prog="trendfuse",
                     description="Fused text + price movement forecasting")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text, parents=[common])
        if name == "report":
            sub.add_argument("runs_dir", help="directory containing run outputs")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        cfg = build_config(args)
        _check_inputs(cfg, args.command)
        _check_out(cfg)
        if args.command == "featurize":
            cmd_featurize(cfg)
        elif args.command == "pretrain-encoder":
            cmd_pretrain_encoder(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "evaluate":
            cmd_evaluate(cfg)
        elif args.command == "ablate":
            cmd_ablate(cfg)
        elif args.command == "report":
            cmd_report(cfg, args.runs_dir)
    except (ConfigError, ContractError) as err:
        _fail(err)
        return EXIT_USAGE
    except (DataError, OSError) as err:  # OSError: an unreadable path
        _fail(err)
        return EXIT_DATA
    except DivergenceError as err:
        _fail(err)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _fail(err: Exception) -> None:
    print(json.dumps({"error": type(err).__name__, "message": str(err)}),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
