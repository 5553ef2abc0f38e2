"""Experiment orchestration.

Wires the pieces into a training loop: a temperature schedule drives the
calibration, the sampler rebuilds its distribution before every epoch,
and the trainer consumes multinomially drawn batches. Evaluation and
report export live here too. Runs are fully deterministic per
(config, seed); no clock is read (np.savez dates every member 1980-01-01),
so repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import model as model_mod
from .calibration import SCHEDULE_KINDS, calibrate_batch_full, temperature_at
from .data import FRACTION, NON_NEGATIVE, POSITIVE, POSITIVE_INT, TAIL_SCALE, Dataset, check
from .data import class_labels, compute_feature_std, csv_fields, is_number, load_csv, make_blobs
from .data import one_of, pareto_resample, read_json, train_test_split, write_csv
from .errors import BoostLabError, ConfigurationError, EmptyInputError
from .errors import InvalidParameterError, NumericOverflowError
from .metrics import MetricsReport, PredictionLog, build_metrics_report
from .model import ClassifierModel, hidden_activations, softmax_rows, train_step
from .sampler import STRATEGIES, SamplerState, draw_batch, epoch_resample


def _key(default, rule=None, **argparse_kwargs):
    """A config field: its default; its rule, a (text, test) pair that its
    value must pass, which takes None too where the default is None; and its
    CLI flag's argparse keywords ("help", "choices") and, under "flag", a
    name other than --<field-name>. Given choices, the rule is one of them."""
    if choices := argparse_kwargs.get("choices"):
        rule = one_of(choices)
    if default is None:
        rule = "None or " + rule[0], lambda v, test=rule[1]: v is None or test(v)
    return field(default=default, metadata={"rule": rule, **argparse_kwargs})


def _ints(value) -> bool:  # ints in a tuple, or in a list as JSON has no tuples
    return isinstance(value, (tuple, list)) and all(is_number(v, numbers.Integral) for v in value)


COUNTS = ("one or more ints >= 1 and < 2**63",
          lambda v: _ints(v) and min(v, default=0) >= 1 and max(v) < 2**63)
TEXT = ("a string", lambda v: isinstance(v, str))


@dataclass
class ExperimentConfig:
    dataset: str = _key("blobs", TEXT, help="'blobs' or path to a labeled CSV")
    label_column: str = _key("label", TEXT, help="label column name for CSV input")
    blob_counts: tuple[int, ...] = _key((900, 100), COUNTS,
                                        help="per-class sample counts, e.g. 900,100")
    blob_dim: int = _key(2, POSITIVE_INT)
    blob_separation: float = _key(3.0, POSITIVE)
    test_counts: tuple[int, ...] | None = _key(None, COUNTS)  # blobs only; defaults to blob_counts
    test_fraction: float = _key(0.25, FRACTION)  # csv only
    pareto_scale: float | None = _key(None, TAIL_SCALE,
                                      help="resample the train split onto a long-tail count curve")
    sampler: str = _key("boost", choices=STRATEGIES)
    temp_kind: str = _key("multiplicative", choices=SCHEDULE_KINDS)
    temp_start: float = _key(1.0, POSITIVE)
    temp_scale: float = _key(5.0, ("finite and above 1",
                                   lambda v: is_number(v) and 1 < v < math.inf))
    temp_interval: int = _key(5, POSITIVE_INT)
    epsilon: float = _key(0.05, NON_NEGATIVE)
    epochs: int = _key(20, POSITIVE_INT)
    batch_size: int = _key(32, POSITIVE_INT)
    learning_rate: float = _key(0.2, NON_NEGATIVE, flag="--lr")
    hidden_units: int = _key(16, POSITIVE_INT)
    seeds: tuple[int, ...] = _key((0,), ("one or more non-negative ints",
                                         lambda v: _ints(v) and min(v, default=-1) >= 0),
                                  help="comma-separated seeds")
    out_dir: str = _key("runs", TEXT, flag="--out", help="output directory")

    def __post_init__(self):
        for f in fields(self):  # a config file can hold any JSON value
            check(value := getattr(self, f.name), f.name, f.metadata["rule"])
            if isinstance(value, (tuple, list)):  # numpy numbers become Python's, for JSON
                setattr(self, f.name, tuple(int(v) for v in value))
            elif isinstance(value, np.generic):
                setattr(self, f.name, value.item())
        if len(set(self.seeds)) < len(self.seeds):
            raise InvalidParameterError(f"seeds must be distinct, got {self.seeds!r}")
        if len(self.test_counts or self.blob_counts) != len(self.blob_counts):
            raise InvalidParameterError(f"test_counts must be None or as long as blob_counts "
                                        f"({len(self.blob_counts)}), got {self.test_counts!r}")

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def load_config(values, source, flags: dict) -> ExperimentConfig:
    """The config `values`, read from the file `source`, describe, with
    `flags` over them. An error that the flags alone over the defaults do
    not raise names the file."""
    if not isinstance(values, dict):
        raise InvalidParameterError(f"{source}: a config must be a JSON object")
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise InvalidParameterError(f"{source}: unknown config keys {sorted(unknown)}")
    try:
        return ExperimentConfig(**{**values, **flags})
    except BoostLabError as exc:
        ExperimentConfig(**flags)  # a flag that is wrong on its own is reported as such
        raise type(exc)(f"{source}: {exc}") from exc


@dataclass
class RunRecord:
    config: ExperimentConfig
    seed: int
    epoch_losses: list[float]  # mean training loss per epoch; the rest is in the sampler history
    metrics: MetricsReport
    sampler_state: SamplerState
    train_labels: np.ndarray
    test: Dataset
    model: ClassifierModel


MAX_ELEMENTS = np.iinfo(np.intp).max // 8  # float64s in the largest array numpy can index


def _check_sizes(config: ExperimentConfig, **elements) -> None:
    """InvalidParameterError naming the first key, in the order given, whose
    largest array would hold more float64s (`elements[key]`, counted in Python
    ints) than numpy can index; called before those arrays are allocated."""
    for key, size in elements.items():
        check(getattr(config, key), key, ("small enough for numpy to index the arrays it sizes",
                                          lambda _: size <= MAX_ELEMENTS))


def build_datasets(config: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset, np.ndarray]:
    """Materialize the (train, test) pair a run will see, and the run's
    perturbation step, epsilon over the train split's per-feature std, which
    perturbs both training and evaluation. A key that sizes an array past
    numpy's index range is rejected first."""
    if config.dataset == "blobs":
        test_counts = config.test_counts or config.blob_counts
        n = max(sum(config.blob_counts), sum(test_counts))
        _check_sizes(config, blob_counts=sum(config.blob_counts), test_counts=sum(test_counts),
                     blob_dim=n * config.blob_dim)
        train = make_blobs(config.blob_counts, config.blob_dim, config.blob_separation, seed)
        test = make_blobs(test_counts, config.blob_dim, config.blob_separation, seed + 10_000)
    else:
        full = load_csv(config.dataset, config.label_column)
        train, test = train_test_split(full, config.test_fraction, seed)

    if config.pareto_scale is not None:
        train = pareto_resample(train, config.pareto_scale, seed)
    d, c, h = train.num_features, train.num_classes, config.hidden_units
    _check_sizes(config,  # a split's hidden activations or the parameters; a batch's widest array
                 hidden_units=max(max(train.n, test.n) * h, h * (d + c + 1) + c),
                 batch_size=config.batch_size * max(d, c, h))
    try:
        std = compute_feature_std(train)
    except NumericOverflowError as exc:
        source = (f"blob_separation {config.blob_separation!r}" if config.dataset == "blobs"
                  else config.dataset)
        raise NumericOverflowError(f"{source}: {exc}") from exc
    with np.errstate(over="ignore"):  # a tiny std overflows the step: reported below
        step = config.epsilon / std
    if not np.isfinite(step).all():
        raise InvalidParameterError(f"epsilon {config.epsilon!r}: epsilon / grad_std overflows "
                                    "float64; lower epsilon or rescale the features")
    return train, test, step


def run_seeds(seed: int) -> tuple[int, int]:
    """The (model, sampler) seeds of the run with this seed. Evaluation
    draws nothing, so it needs no seed of its own."""
    return tuple(int(v) for v in np.random.SeedSequence(seed).generate_state(2))


def run_training(config: ExperimentConfig, seed: int | None = None) -> RunRecord:
    """Train one model under the configured sampling strategy.

    Per epoch: the schedule sets the temperature, the sampler rebuilds
    its distribution, and the trainer consumes ceil(n / batch_size) drawn
    batches. Ends with the run's final evaluation (`run_evaluation`). No
    numpy warning leaks: a step that diverges raises NumericOverflowError.
    """
    seed = config.seeds[0] if seed is None else seed
    model_seed, sampler_seed = run_seeds(seed)

    train, test, step = build_datasets(config, seed)
    model = model_mod.init_model(
        train.num_features, config.hidden_units, train.num_classes, model_seed
    )
    state = SamplerState(strategy=config.sampler, rng_seed=sampler_seed)

    epoch_losses = []
    with np.errstate(all="ignore"):  # each stage checks its own results for non-finite values
        for epoch in range(config.epochs):
            epoch_resample(state, model, train, temperature_at(config, epoch), step)
            losses = []
            for _ in range(math.ceil(train.n / config.batch_size)):
                idx = draw_batch(state, config.batch_size)
                model, loss = train_step(model, train.features[idx], train.labels[idx],
                                         config.learning_rate)
                losses.append(loss)
            epoch_losses.append(float(np.mean(losses)))

        metrics = run_evaluation(model, test, step, config)

    return RunRecord(
        config=config,
        seed=seed,
        epoch_losses=epoch_losses,
        metrics=metrics,
        sampler_state=state,
        train_labels=train.labels,
        test=test,
        model=model,
    )


def run_evaluation(
    model: ClassifierModel, test: Dataset, step: np.ndarray, config: ExperimentConfig
) -> MetricsReport:
    """The final evaluation of a run under this config, one way for every sampler.

    The classification metrics come from the model's plain softmax, taken
    from the logits of calibration's clean first pass; the OOD-mass (SODC)
    scores from the calibrated second-pass profiles at the schedule's final
    temperature, perturbed by the step that build_datasets returns. Both
    passes are pure: the model is not modified.
    """
    if model.num_classes != test.num_classes:
        raise ConfigurationError(
            f"model has {model.num_classes} classes but dataset has {test.num_classes}"
        )

    temperature = temperature_at(config, config.epochs - 1)
    profiles, _, logits = calibrate_batch_full(model, test.features, temperature, step)
    plain = softmax_rows(logits)
    logs = [PredictionLog(test.labels, p.argmax(axis=1), p) for p in (plain, profiles)]
    return build_metrics_report(logs[0], sodc_log=logs[1])


REPORT_FILES = ("report.json", "per_class_metrics.csv", "sampler_history.csv", "embeddings.npz")
CHECKPOINT = "model_seed{}.json"  # beside a run's REPORT_FILES, named by the run's seed


def record_to_report(record: RunRecord) -> dict:
    """report.json's content: a per_epoch row per sampler history record."""
    epochs = zip(record.sampler_state.history, record.epoch_losses, strict=True)
    return {
        "config": {**record.config.to_dict(), "seed": record.seed},
        "per_epoch": [{"epoch": h.epoch, "loss": loss,
                       "temperature": temperature_at(record.config, h.epoch),
                       "ess": 1.0 / float((h.probabilities ** 2).sum())} for h, loss in epochs],
        "metrics": record.metrics.to_dict(),
    }


def write_history_csv(state: SamplerState, true_labels: np.ndarray, path) -> None:
    """One row per (epoch, sample): prediction, score, probability, and draw
    count. A record that calibrated nothing (a baseline's, whose scores and
    predictions are None) has predicted_class -1 and an empty score."""
    labels = class_labels(true_labels, np.iinfo(np.intp).max, "true_labels")  # any class count
    for record in state.history:  # one label per sample of every epoch
        class_labels(labels, np.iinfo(np.intp).max, "true_labels", record.probabilities.shape)
    n = len(labels)
    # columns that are the same from epoch to epoch are formatted once
    sample_column = csv_fields(np.arange(n))
    true_classes = csv_fields(labels)
    no_prediction, no_score = ["-1"] * n, [""] * n

    def blocks():  # one epoch at a time, so memory stays per epoch
        last = probabilities = None
        for record in state.history:
            if record.probabilities is not last:  # a baseline's records share theirs: format
                last = record.probabilities       # it once; a boost record's goes in chunks
                probabilities = last if record.scores is not None else csv_fields(last)
            yield [[str(record.epoch)] * n, sample_column, true_classes,
                   no_prediction if record.predicted is None else record.predicted,
                   no_score if record.scores is None else record.scores,
                   probabilities, record.draw_counts]

    header = ["epoch", "sample_id", "true_class", "predicted_class",
              "calibrated_score", "sampling_probability", "times_drawn"]
    write_csv(path, header, blocks())


def _write_record(record: RunRecord, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in REPORT_FILES]
    report_path, per_class_path, history_path, embeddings_path = paths

    report = record_to_report(record)
    if record.config.dataset != "blobs":  # read_run resolves it against the run directory
        report["config"]["dataset"] = os.path.relpath(record.config.dataset, out_dir)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    per_class = report["metrics"]["per_class"]
    rows = [(c, name, value) for c, values in per_class.items() for name, value in values.items()]
    classes, names, percents = zip(*rows)
    write_csv(per_class_path, ["class", "metric", "value_percent"],
              [[list(classes), list(names), np.array(percents)]])

    write_history_csv(record.sampler_state, record.train_labels, history_path)

    hidden = hidden_activations(record.model, record.test.features)  # row i: test sample i
    np.savez(embeddings_path, true_class=record.test.labels, hidden=hidden)

    paths.append(os.path.join(out_dir, CHECKPOINT.format(record.seed)))
    model_mod.save_model(record.model, paths[-1])
    return paths


def read_run(run_dir) -> tuple[ExperimentConfig, int, ClassifierModel]:
    """The (config, seed, model) of a run directory export_reports wrote:
    report.json's config block (a CSV path relative to the run directory)
    and the checkpoint beside it. A missing or malformed piece raises a
    typed error naming the file (and the key)."""
    path = os.path.join(run_dir, "report.json")
    report = read_json(path)
    values = report.get("config") if isinstance(report, dict) else None
    if not isinstance(values, dict):
        raise InvalidParameterError(f"{path}: report has no 'config' object")
    for key in (*CONFIG_KEYS, "seed"):  # a missing key would fall back to its default
        if key not in values:
            raise InvalidParameterError(f"{path}: config has no key '{key}'")
    seed = values.pop("seed")
    if isinstance(values.get("dataset"), str) and values["dataset"] != "blobs":
        values["dataset"] = os.path.normpath(os.path.join(run_dir, values["dataset"]))
    config = load_config(values, path, {})
    check(seed, f"{path}: seed", (f"one of {config.seeds}",
                                  lambda v: is_number(v, numbers.Integral) and v in config.seeds))
    return config, seed, model_mod.load_model(os.path.join(run_dir, CHECKPOINT.format(seed)))


def export_reports(records: list[RunRecord], out_dir: str) -> list[str]:
    """Persist run artifacts.

    A single record writes its REPORT_FILES and CHECKPOINT into out_dir;
    multiple records each get a run_<index> subdirectory with the same names.
    """
    if not records:
        raise EmptyInputError("no records to export")
    if len(records) == 1:
        return _write_record(records[0], out_dir)
    paths = []
    for i, record in enumerate(records):
        sub = os.path.join(out_dir, f"run_{i:02d}_{record.config.sampler}_seed{record.seed}")
        paths.extend(_write_record(record, sub))
    return paths


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """One run per configured seed."""
    return [run_training(config, seed) for seed in config.seeds]


def run_comparison(config: ExperimentConfig, strategies=STRATEGIES) -> dict:
    """Train every strategy over the configured seeds; returns mean
    aggregate metrics per strategy, percent-scaled."""
    if not strategies:
        raise InvalidParameterError(f"name at least one strategy from {STRATEGIES}")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise InvalidParameterError(f"unknown strategies {unknown}; choose from {STRATEGIES}")
    if len(set(strategies)) < len(strategies):
        raise InvalidParameterError(f"strategies must be distinct, got {list(strategies)}")
    summary = {}
    for strategy in strategies:
        records = run_experiment(replace(config, sampler=strategy))
        keys = records[0].metrics.aggregate.keys()
        summary[strategy] = {
            k: float(np.mean([r.metrics.aggregate[k] for r in records])) * 100.0 for k in keys
        }
        for bias in ("mab", "sdb"):
            summary[strategy][f"{bias}_accuracy"] = (
                float(np.mean([r.metrics.bias["accuracy"][bias] for r in records])) * 100.0
            )
    return summary
