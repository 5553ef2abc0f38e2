"""Command-line entry point: train / evaluate / compare.

train and compare take each config value as a flag or from a JSON config
file (same key names); explicit flags win over file values, which win over
defaults. evaluate reads the config of the run directory it is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import read_json
from .errors import BoostLabError
from .harness import CONFIG_KEYS, ExperimentConfig, build_datasets, check_config_keys
from .harness import evaluate_run, export_reports, read_run, run_comparison, run_experiment
from .sampler import STRATEGIES


def _parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--dataset", help="'blobs' or path to a labeled CSV")
    p.add_argument("--label-column", dest="label_column", help="label column name for CSV input")
    p.add_argument("--blob-counts", dest="blob_counts", type=_parse_int_list,
                   help="per-class sample counts, e.g. 900,100")
    p.add_argument("--blob-dim", dest="blob_dim", type=int)
    p.add_argument("--blob-separation", dest="blob_separation", type=float)
    p.add_argument("--test-counts", dest="test_counts", type=_parse_int_list)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--pareto-scale", dest="pareto_scale", type=float,
                   help="resample the train split onto a long-tail count curve")
    p.add_argument("--sampler", choices=STRATEGIES)
    p.add_argument("--temp-kind", dest="temp_kind", choices=("multiplicative", "inverse-linear"))
    p.add_argument("--temp-start", dest="temp_start", type=float)
    p.add_argument("--temp-scale", dest="temp_scale", type=float)
    p.add_argument("--temp-interval", dest="temp_interval", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--hidden-units", dest="hidden_units", type=int)
    p.add_argument("--seeds", type=_parse_int_list, help="comma-separated seeds")
    p.add_argument("--out", dest="out_dir", help="output directory")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    path = getattr(args, "config", None)
    values = check_config_keys(read_json(path), path) if path else {}
    flags = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key, None) is not None}
    return ExperimentConfig(**{**values, **flags})


def cmd_train(args) -> int:
    config = build_config(args)
    records = run_experiment(config)
    paths = export_reports(records, config.out_dir)
    for record in records:
        agg = record.metrics.aggregate
        print(
            f"seed {record.seed}: accuracy {agg['accuracy'] * 100:.2f}% "
            f"macro-F1 {agg['macro_f1'] * 100:.2f}%"
        )
    print(f"wrote {len(paths)} files under {config.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    config, seed, model = read_run(args.run)
    _, test = build_datasets(config, seed)
    report = evaluate_run(model, test, config, seed)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_compare(args) -> int:
    config = build_config(args)
    strategies = args.strategies or STRATEGIES
    summary = run_comparison(config, strategies)

    columns = ["accuracy", "macro_f1", "macro_recall", "macro_precision", "mab_accuracy"]
    header = f"{'strategy':<22}" + "".join(f"{c:>16}" for c in columns)
    print(header)
    print("-" * len(header))
    for strategy, row in summary.items():
        print(f"{strategy:<22}" + "".join(f"{row[c]:>16.2f}" for c in columns))

    os.makedirs(config.out_dir, exist_ok=True)
    out = f"{config.out_dir}/comparison.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"config": config.to_dict(), "summary": summary}, fh, indent=2)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boostlab",
        description="Bias-aware adaptive sampling experiments on small classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one sampler strategy over the configured seeds")
    _add_common_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a run's checkpoint as its training did")
    p_eval.add_argument("--run", required=True, help="a run directory that train wrote")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="train all strategies and tabulate mean metrics")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--strategies", type=lambda s: tuple(s.split(",")), default=None)
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BoostLabError, OSError) as exc:  # OSError names the missing or unreadable file
        print(f"boostlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
