"""Command-line entry point: train / evaluate / compare.

All flags can also be supplied through a JSON config file (same key
names); explicit flags win over file values, which win over defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .data import read_json
from .errors import BoostLabError, InvalidParameterError
from .harness import (
    ExperimentConfig,
    build_datasets,
    evaluate_run,
    export_reports,
    run_comparison,
    run_experiment,
)
from .model import load_model, save_model
from .sampler import STRATEGIES

CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


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
    values = {}
    if getattr(args, "config", None):
        file_values = read_json(args.config)
        if not isinstance(file_values, dict):
            raise InvalidParameterError(f"{args.config}: a config file must hold a JSON object")
        unknown = set(file_values) - set(CONFIG_KEYS)
        if unknown:
            raise InvalidParameterError(f"{args.config}: unknown config keys {sorted(unknown)}")
        values.update(file_values)
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return ExperimentConfig(**values)


def cmd_train(args) -> int:
    config = build_config(args)
    records = run_experiment(config)
    paths = export_reports(records, config.out_dir)
    for record in records:
        model_path = f"{config.out_dir}/model_seed{record.seed}.json"
        save_model(record.model, model_path)
        paths.append(model_path)
        agg = record.metrics.aggregate
        print(
            f"seed {record.seed}: accuracy {agg['accuracy'] * 100:.2f}% "
            f"macro-F1 {agg['macro_f1'] * 100:.2f}%"
        )
    print(f"wrote {len(paths)} files under {config.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    config = build_config(args)
    seed = config.seeds[0]
    _, test = build_datasets(config, seed)
    report = evaluate_run(load_model(args.model), test, config, seed)
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

    p_eval = sub.add_parser("evaluate", help="score a checkpoint as its training run did")
    _add_common_flags(p_eval)
    p_eval.add_argument("--model", required=True, help="model checkpoint (JSON)")
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
