"""Command-line surface: featurize, pretrain-encoder, train, evaluate, ablate, report.

Configuration comes from an optional JSON document plus flag overrides;
every command is deterministic under a fixed config and seed. Exit codes:
0 success, 1 usage or config problem, 2 bad data, 3 numeric divergence.
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

from . import encoder as enc
from . import ingest
from . import train as tr
from .errors import (ConfigError, ContractError, DataError, DivergenceError,
                     ProviderError)
from .models import VALID_KINDS, ModelSpec
from .numerics import ParameterStore

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3


@dataclass
class ExperimentConfig:
    market_csv: str | None = None
    summaries: str | None = None
    similar_words: str | None = None
    features: str | None = None
    encoder_checkpoint: str | None = None
    checkpoint: str | None = None
    out: str = "runs/latest"
    pretrain: bool = False
    pretrain_epochs: int = 50
    split_ratio: float = 0.8
    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
    encoder: enc.EncoderConfig = field(default_factory=enc.EncoderConfig)


def load_config_file(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON config ({err.msg})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _model_spec(doc: dict) -> ModelSpec:
    known = {f.name for f in dataclasses.fields(ModelSpec)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown model option(s): {', '.join(sorted(unknown))}")
    return ModelSpec(**doc)


def _first_set(*values):
    """The first value that is not None; 0 and other falsy values count as set."""
    return next(v for v in values if v is not None)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the config file (if any) with command-line overrides."""
    doc = load_config_file(args.config) if getattr(args, "config", None) else {}
    train_doc = dict(doc.get("train", {}))
    model_doc = dict(train_doc.pop("model", {}))
    encoder_doc = dict(doc.get("encoder", {}))

    def override(d: dict, key: str, value) -> None:
        if value is not None:
            d[key] = value

    override(model_doc, "kind", getattr(args, "model", None))
    override(model_doc, "hidden", getattr(args, "hidden", None))
    override(model_doc, "mogrifier_rounds", getattr(args, "mogrifier_rounds", None))
    override(model_doc, "swin_window", getattr(args, "swin_window", None))
    override(train_doc, "epochs", getattr(args, "epochs", None))
    override(train_doc, "seed", getattr(args, "seed", None))
    override(train_doc, "batch_size", getattr(args, "batch_size", None))
    override(train_doc, "lr", getattr(args, "lr", None))
    override(train_doc, "window", doc.get("window"))
    override(train_doc, "window", getattr(args, "window", None))
    override(train_doc, "feature_len", doc.get("feature_len"))
    override(train_doc, "feature_len", getattr(args, "feature_len", None))
    if getattr(args, "no_prior_effect", False):
        train_doc["prior_effect"] = False

    try:
        train_cfg = tr.TrainConfig(model=_model_spec(model_doc), **{
            k: v for k, v in train_doc.items() if k != "model"})
        encoder_cfg = enc.EncoderConfig(**encoder_doc)
    except TypeError as err:
        raise ConfigError(f"bad config key: {err}") from None

    cfg = ExperimentConfig(
        market_csv=getattr(args, "market", None) or doc.get("market_csv"),
        summaries=getattr(args, "summaries", None) or doc.get("summaries"),
        similar_words=getattr(args, "similar_words", None) or doc.get("similar_words"),
        features=getattr(args, "features", None) or doc.get("features"),
        encoder_checkpoint=getattr(args, "encoder", None) or doc.get("encoder_checkpoint"),
        checkpoint=getattr(args, "checkpoint", None) or doc.get("checkpoint"),
        out=getattr(args, "out", None) or doc.get("out") or "runs/latest",
        pretrain=bool(getattr(args, "pretrain", False) or doc.get("pretrain", False)),
        pretrain_epochs=_first_set(getattr(args, "pretrain_epochs", None),
                                   doc.get("pretrain_epochs"), 50),
        split_ratio=doc.get("split_ratio", 0.8),
        train=train_cfg,
        encoder=encoder_cfg,
    )
    return cfg


def _require_paths(cfg: ExperimentConfig, names: list[str]) -> None:
    for name in names:
        value = getattr(cfg, name)
        if not value:
            raise ConfigError(f"missing required input: --{name.replace('_', '-')}")
        if not Path(value).exists():
            raise ConfigError(f"{name} path does not exist: {value}")


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory not writable: {out}")
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_loss_csv(path: Path, trace: list[float]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, value in enumerate(trace):
            writer.writerow([epoch, repr(value)])


def _write_predictions_csv(path: Path, predictions: list[dict]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "probability", "label", "target"])
        for row in predictions:
            writer.writerow([row["date"], repr(row["probability"]),
                             row["label"], row["target"]])


def _pretrain_encoder(cfg: ExperimentConfig, corpus: list[str],
                      out: Path) -> tuple[enc.EncoderConfig, enc.Vocabulary, ParameterStore]:
    """Pretrain the encoder on `corpus`; write its checkpoint and loss trace to `out`."""
    similar = enc.load_similar_words(cfg.similar_words) if cfg.similar_words else None
    params, vocab, trace = enc.pretrain_mlm(corpus, cfg.encoder, cfg.pretrain_epochs,
                                            cfg.train.seed, similar_words=similar)
    enc.save_encoder(out / "encoder.json", cfg.encoder, vocab, params)
    _write_loss_csv(out / "pretrain_loss.csv", trace)
    return cfg.encoder, vocab, params


def _load_encoder_or_pretrain(cfg: ExperimentConfig, corpus: list[str],
                              out: Path) -> tuple[enc.EncoderConfig, enc.Vocabulary, ParameterStore]:
    if cfg.encoder_checkpoint:
        if not Path(cfg.encoder_checkpoint).exists():
            raise ConfigError(f"encoder checkpoint does not exist: {cfg.encoder_checkpoint}")
        return enc.load_encoder(cfg.encoder_checkpoint)
    if not cfg.pretrain:
        raise ConfigError("no encoder checkpoint given; pass --encoder <path> "
                          "or --pretrain to train one on the summaries")
    return _pretrain_encoder(cfg, corpus, out)


def _load_summaries(cfg: ExperimentConfig) -> tuple[Path, list[ingest.SummaryRecord]]:
    """The output directory and the summary records; DataError when there are none."""
    _require_paths(cfg, ["summaries"])
    out = _out_dir(cfg)
    records = ingest.load_summaries(cfg.summaries)
    if not records:
        raise DataError(f"no usable summaries in {cfg.summaries}")
    return out, records


def cmd_featurize(cfg: ExperimentConfig) -> None:
    """Encode each summary into a fixed-length feature row and write the CSV."""
    out, records = _load_summaries(cfg)
    provider = ingest.ExtractiveSummaryProvider()
    corpus = [r.text for r in records]
    encoder_cfg, vocab, params = _load_encoder_or_pretrain(cfg, corpus, out)
    features = []
    for record in records:
        try:
            text = ingest.summarize(record.text, provider)
        except ProviderError:
            log.warning("summary provider failed for %s; using raw text", record.date)
            text = record.text
        values = enc.encode_feature(text, vocab, encoder_cfg, params,
                                    cfg.train.feature_len)
        features.append(enc.TextFeature(date=record.date, values=values))
    enc.write_features(out / "features.csv", features)
    log.info("wrote %d feature rows to %s", len(features), out / "features.csv")


def cmd_pretrain_encoder(cfg: ExperimentConfig) -> None:
    """Train the text encoder on the summaries corpus and save a checkpoint."""
    out, records = _load_summaries(cfg)
    _pretrain_encoder(cfg, [r.text for r in records], out)
    log.info("encoder checkpoint at %s", out / "encoder.json")


def _load_split_samples(cfg: ExperimentConfig) -> tuple[list, list]:
    series = ingest.parse_market_csv(cfg.market_csv)
    labeled = ingest.to_binary_labels(series)
    features = None
    if cfg.features:
        _require_paths(cfg, ["features"])
        features = enc.read_features(cfg.features, expected_len=cfg.train.feature_len)
    samples = ingest.make_windows(labeled, cfg.train.window, features,
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
    _require_paths(cfg, ["market_csv"])
    out = _out_dir(cfg)
    train_samples, test_samples = _load_split_samples(cfg)
    store, report = tr.train_and_evaluate(train_samples, test_samples, cfg.train)
    store.save(out / "checkpoint.json")
    _write_loss_csv(out / "loss.csv", report.loss_trace)
    _write_json(out / "metrics.json", report.to_dict())
    _write_predictions_csv(out / "predictions.csv", report.predictions)
    _write_json(out / "run.json", _run_metadata(cfg))
    log.info("train done: accuracy=%.4f f1=%.4f -> %s",
             report.accuracy, report.f1, out)


def cmd_evaluate(cfg: ExperimentConfig) -> None:
    """Evaluate a saved checkpoint on the chronological test split."""
    _require_paths(cfg, ["market_csv", "checkpoint"])
    out = _out_dir(cfg)
    _, test_samples = _load_split_samples(cfg)
    store = ParameterStore.load(cfg.checkpoint)
    store.check_layout(tr.init_pipeline_params(cfg.train), cfg.checkpoint)
    report = tr.evaluate(store, cfg.train, test_samples)
    _write_json(out / "metrics.json", report.to_dict())
    log.info("evaluate done: accuracy=%.4f f1=%.4f", report.accuracy, report.f1)


def cmd_ablate(cfg: ExperimentConfig) -> None:
    """Prior-effect ablation for the feedforward baseline and the configured
    recurrent model; writes per-arm reports and the delta table."""
    _require_paths(cfg, ["market_csv"])
    out = _out_dir(cfg)
    train_samples, test_samples = _load_split_samples(cfg)
    second = cfg.train.model.kind if cfg.train.model.kind != "feedforward" else "lstm"
    rows = []
    for kind in ("feedforward", second):
        spec = dataclasses.replace(cfg.train.model, kind=kind)
        config = dataclasses.replace(cfg.train, model=spec)
        with_report, without_report, deltas = tr.ablate_prior_effect(
            train_samples, test_samples, config)
        _write_json(out / f"ablation_{kind}_with.json", with_report.to_dict())
        _write_json(out / f"ablation_{kind}_without.json", without_report.to_dict())
        rows.append([kind,
                     repr(without_report.f1), repr(with_report.f1),
                     repr(deltas["f1_delta"]),
                     repr(without_report.recall), repr(with_report.recall),
                     repr(deltas["recall_delta"])])
    with (out / "ablation.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "f1_without", "f1_with", "f1_delta",
                         "recall_without", "recall_with", "recall_delta"])
        writer.writerows(rows)
    log.info("ablation table at %s", out / "ablation.csv")


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
    out = _out_dir(cfg)
    comparison = []
    for run in run_dirs:
        metrics_path = run / "metrics.json"
        loss_path = run / "loss.csv"
        if not loss_path.exists():
            raise DataError(f"missing loss curve: {loss_path}")
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        meta_path = run / "run.json"
        meta = (json.loads(meta_path.read_text(encoding="utf-8"))
                if meta_path.exists() else {})
        name = run.name if run != root else root.name
        (out / f"loss_{name}.csv").write_text(
            loss_path.read_text(encoding="utf-8"), encoding="utf-8")
        comparison.append([meta.get("model", name), meta.get("epochs", ""),
                           repr(metrics["accuracy"]), repr(metrics["precision"]),
                           repr(metrics["recall"]), repr(metrics["f1"])])
    with (out / "comparison.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "epochs", "accuracy", "precision", "recall", "f1"])
        writer.writerows(comparison)
    log.info("comparison table with %d run(s) at %s", len(comparison),
             out / "comparison.csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--model", choices=VALID_KINDS, help="predictor kind")
    sub.add_argument("--epochs", type=int, help="training epochs (e.g. 100, 200, 400)")
    sub.add_argument("--seed", type=int, help="RNG seed")
    sub.add_argument("--no-prior-effect", action="store_true",
                     help="zero-mask the prior movement history")
    sub.add_argument("--features", help="feature CSV (date,f0..fN)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--market", help="market CSV (Date,Chg,Open,Close,Volume)")
    sub.add_argument("--summaries", help="JSON-lines summaries file")
    sub.add_argument("--similar-words", dest="similar_words",
                     help="JSON table token -> [substitute tokens]")
    sub.add_argument("--encoder", help="encoder checkpoint JSON")
    sub.add_argument("--checkpoint", help="model checkpoint JSON")
    sub.add_argument("--hidden", type=int, help="recurrent hidden width")
    sub.add_argument("--window", type=int, help="sliding window length n")
    sub.add_argument("--feature-len", dest="feature_len", type=int,
                     help="text feature length L")
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--mogrifier-rounds", dest="mogrifier_rounds", type=int)
    sub.add_argument("--swin-window", dest="swin_window", type=int)
    sub.add_argument("--pretrain", action="store_true",
                     help="pretrain the encoder when no checkpoint is given")
    sub.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="trendfuse",
                     description="Fused text + price movement forecasting")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("featurize", "encode summaries into a feature CSV"),
        ("pretrain-encoder", "train the text encoder on a summaries corpus"),
        ("train", "train a predictor and write metrics/loss/predictions"),
        ("evaluate", "evaluate a saved checkpoint on the test split"),
        ("ablate", "compare runs with and without the prior history"),
        ("report", "collect runs into comparison and loss-curve tables"),
    ]:
        sub = commands.add_parser(name, help=help_text)
        _add_common_flags(sub)
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
    except (DataError, FileNotFoundError) as err:
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
