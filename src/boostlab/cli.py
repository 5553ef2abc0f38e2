"""Command-line entry point: train / evaluate / compare.

train and compare take each config key as the flag its field declares or
from a JSON config file; explicit flags win over file values, which win
over defaults. evaluate reads the config of the run directory it is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .data import read_json
from .errors import BoostLabError, ConfigurationError, InputShapeError
from .harness import CHECKPOINT, CONFIG_KEYS, ExperimentConfig, build_datasets, run_evaluation
from .harness import export_reports, load_config, read_run, run_comparison, run_experiment
from .sampler import STRATEGIES


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:  # argparse prints the message after the flag's name
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """--config, and a flag for each config key as its field declares it,
    parsed by the type its annotation names ("| None" left off), with the
    field's rule at the end of its help."""
    parsers = {"str": str, "int": int, "float": float, "tuple[int, ...]": _parse_int_list}
    p.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(ExperimentConfig):
        options = dict(f.metadata)
        flag = options.pop("flag", "--" + f.name.replace("_", "-"))
        if rule := options.pop("rule"):
            options["help"] = f"{options['help']}; {rule[0]}" if "help" in options else rule[0]
        p.add_argument(flag, dest=f.name, type=parsers[f.type.removesuffix(" | None")], **options)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's values with the flags' over them (load_config),
    or the flags' over the defaults when there is no file."""
    path = getattr(args, "config", None)
    flags = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key, None) is not None}
    return load_config(read_json(path), path, flags) if path else ExperimentConfig(**flags)


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
    _, test, step = build_datasets(config, seed)
    try:
        report = run_evaluation(model, test, step, config)
    except (ConfigurationError, InputShapeError) as exc:  # the checkpoint does not fit the data
        raise type(exc)(f"{os.path.join(args.run, CHECKPOINT.format(seed))}: {exc}") from exc
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
    # OSError names the missing or unreadable file; MemoryError (numpy's
    # _ArrayMemoryError too) an allocation past what the machine has
    except (BoostLabError, OSError, MemoryError) as exc:
        print(f"boostlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
