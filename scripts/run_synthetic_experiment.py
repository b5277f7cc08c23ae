#!/usr/bin/env python3
"""End-to-end demo on generated data: pretrain-encoder, featurize, train, ablate, report.

Creates a synthetic market CSV and summaries file, pretrains a small text
encoder, encodes the summaries into features, trains two predictors, runs
the prior-history ablation, and collects everything into a comparison
table. All stages go through the CLI entry points, so rerunning with the
same seed reproduces every output byte for byte.
"""

import argparse
import sys
from pathlib import Path

from trendfuse import cli, synthetic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo", help="workspace directory")
    parser.add_argument("--days", type=int, default=220, help="market series length")
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--models", nargs="+", default=["lstm", "gru"],
                        help="predictor kinds to train")
    args = parser.parse_args()
    if args.days < 1:
        parser.error(f"--days must be at least 1, got {args.days}")

    out = Path(args.out)
    data = out / "data"
    data.mkdir(parents=True, exist_ok=True)
    market = data / "market.csv"
    summaries = data / "summaries.jsonl"
    synthetic.write_markov_market_csv(market, args.days, seed=args.seed,
                                      persistence=0.85)
    synthetic.write_toy_summaries(summaries, args.days, seed=args.seed + 1)
    print(f"data: {market} ({args.days} days), {summaries}")

    feat_dir = out / "features"
    rc = cli.main(["pretrain-encoder", "--summaries", str(summaries), "--out", str(feat_dir),
                   "--pretrain-epochs", "10", "--seed", str(args.seed)])
    if rc:
        return rc
    rc = cli.main(["featurize", "--summaries", str(summaries), "--out", str(feat_dir),
                   "--encoder", str(feat_dir / "encoder.json"), "--feature-len", "12"])
    if rc:
        return rc
    features = feat_dir / "features.csv"

    common = ["--market", str(market), "--features", str(features),
              "--feature-len", "12", "--window", "6", "--seed", str(args.seed),
              "--epochs", str(args.epochs), "--hidden", "16"]
    for kind in args.models:
        rc = cli.main(["train", *common, "--model", kind,
                       "--out", str(out / "runs" / kind)])
        if rc:
            return rc

    rc = cli.main(["ablate", *common, "--model", args.models[0],
                   "--out", str(out / "ablation")])
    if rc:
        return rc

    rc = cli.main(["report", str(out / "runs"), "--out", str(out / "report")])
    if rc:
        return rc

    print(f"\ncomparison table: {out / 'report' / 'comparison.csv'}")
    print(f"ablation deltas:  {out / 'ablation' / 'ablation.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
