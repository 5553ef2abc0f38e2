"""Experiment orchestration.

Wires the pieces into a training loop: a temperature schedule drives the
calibration, the sampler rebuilds its distribution before every epoch,
and the trainer consumes multinomially drawn batches. Evaluation and
report export live here too. Runs are fully deterministic per
(config, seed); no timestamps are written, so repeated runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat

import numpy as np

from . import model as model_mod
from .calibration import OdinConfig, calibrate_batch_full
from .data import Dataset, ParetoTailSpec, load_csv, make_blobs, pareto_resample
from .data import read_json, train_test_split, write_csv
from .errors import BoostLabError, ConfigurationError, EmptyInputError, InvalidParameterError
from .metrics import MetricsReport, PredictionLog, build_metrics_report
from .model import ClassifierModel, hidden_activations, softmax_rows, train_step
from .sampler import STRATEGIES, SamplerState, draw_batch, epoch_resample
from .scheduler import TemperatureSchedule, temperature_at


def _fits(value, annotation: str) -> bool:
    """Whether a config value has the type its field's annotation names:
    "str", "int", "float" or "tuple[int, ...]", any of them "| None"."""
    kind = annotation.removesuffix(" | None")
    if value is None:
        return kind != annotation
    if kind == "tuple[int, ...]":  # a list is welcome too: JSON has no tuples
        return isinstance(value, (tuple, list)) and all(_fits(v, "int") for v in value)
    expected = {"str": str, "int": numbers.Integral, "float": numbers.Real}[kind]
    return isinstance(value, expected) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    dataset: str = "blobs"  # "blobs" or a path to a labeled CSV
    label_column: str = "label"
    blob_counts: tuple[int, ...] = (900, 100)
    blob_dim: int = 2
    blob_separation: float = 3.0
    test_counts: tuple[int, ...] | None = None  # blobs only; defaults to blob_counts
    test_fraction: float = 0.25  # csv only
    pareto_scale: float | None = None  # applied to the train split when set
    sampler: str = "boost"
    temp_kind: str = "multiplicative"
    temp_start: float = 1.0
    temp_scale: float = 5.0
    temp_interval: int = 5
    epsilon: float = 0.05
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.2
    hidden_units: int = 16
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs"

    def __post_init__(self):
        for f in fields(self):  # a config file can hold any JSON value
            if not _fits(value := getattr(self, f.name), f.type):
                raise InvalidParameterError(f"{f.name} must be of type {f.type}, got {value!r}")
            if isinstance(value, (tuple, list)):  # numpy ints become ints, for JSON
                setattr(self, f.name, tuple(int(v) for v in value))
        rules = (  # each written so that NaN fails it
            ("sampler", self.sampler in STRATEGIES, f"one of {STRATEGIES}"),
            ("seeds", min(self.seeds, default=-1) >= 0, "one or more non-negative ints"),
            ("seeds", len(set(self.seeds)) == len(self.seeds), "distinct"),
            ("test_counts", not self.test_counts or len(self.test_counts) == len(self.blob_counts),
             f"as long as blob_counts ({len(self.blob_counts)})"),
            ("blob_dim", self.blob_dim >= 1, "at least 1"),
            ("blob_separation", 0 < self.blob_separation < math.inf, "finite and positive"),
            ("test_fraction", 0 < self.test_fraction < 1, "in (0, 1)"),
            ("epsilon", 0 <= self.epsilon < math.inf, "finite and non-negative"),
            ("learning_rate", 0 <= self.learning_rate < math.inf, "finite and non-negative"),
            ("epochs", self.epochs >= 1, "at least 1"),
            ("batch_size", self.batch_size >= 1, "at least 1"),
            ("hidden_units", self.hidden_units >= 1, "at least 1"),
        )
        for name, valid, rule in rules:
            if not valid:
                raise InvalidParameterError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        # the tail spec and the schedule check their own fields when built
        if self.pareto_scale is not None:
            ParetoTailSpec(scale=self.pareto_scale)
        self.schedule()

    def schedule(self) -> TemperatureSchedule:
        return TemperatureSchedule(
            kind=self.temp_kind,
            start=self.temp_start,
            scale=self.temp_scale,
            interval_epochs=self.temp_interval,
            horizon_epochs=self.epochs,
        )

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["blob_counts"] = list(self.blob_counts)
        doc["seeds"] = list(self.seeds)
        doc["test_counts"] = list(self.test_counts) if self.test_counts else None
        return doc


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def check_config_keys(values, source) -> dict:
    """`values`, read from the file `source`, if it maps config fields only."""
    if not isinstance(values, dict):
        raise InvalidParameterError(f"{source}: a config must be a JSON object")
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise InvalidParameterError(f"{source}: unknown config keys {sorted(unknown)}")
    return values


@dataclass
class EpochStats:
    epoch: int
    loss: float
    temperature: float
    sampling_entropy: float


@dataclass
class RunRecord:
    config: ExperimentConfig
    seed: int
    per_epoch: list[EpochStats]
    metrics: MetricsReport
    sampler_state: SamplerState
    train_labels: np.ndarray
    test_labels: np.ndarray
    embeddings: np.ndarray  # hidden activations per test sample
    model: ClassifierModel


def build_datasets(config: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    """Materialize the (train, test) pair a run will see."""
    if config.dataset == "blobs":
        train = make_blobs(config.blob_counts, config.blob_dim, config.blob_separation, seed)
        test_counts = config.test_counts or config.blob_counts
        test = make_blobs(test_counts, config.blob_dim, config.blob_separation, seed + 10_000)
    else:
        full = load_csv(config.dataset, config.label_column)
        train, test = train_test_split(full, config.test_fraction, seed)

    if config.pareto_scale is not None:
        train = pareto_resample(train, ParetoTailSpec(scale=config.pareto_scale, rng_seed=seed))

    # the perturbation std always comes from the training split
    return train, replace(test, feature_std=train.feature_std)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _train_epoch(
    model: ClassifierModel, state: SamplerState, data: Dataset, batch_size: int, lr: float
) -> tuple[ClassifierModel, list[float]]:
    """ceil(n / batch_size) steps on batches drawn from the sampler's
    current distribution; returns the updated model and per-step losses."""
    losses = []
    for _ in range(math.ceil(data.n / batch_size)):
        idx = draw_batch(state, batch_size)
        model, loss = train_step(model, data.features[idx], data.labels[idx], lr)
        losses.append(loss)
    return model, losses


def run_seeds(seed: int) -> tuple[int, int, int]:
    """The (model, sampler, evaluation) seeds of the run with this seed."""
    return tuple(int(v) for v in np.random.SeedSequence(seed).generate_state(3))


def run_training(config: ExperimentConfig, seed: int | None = None) -> RunRecord:
    """Train one model under the configured sampling strategy.

    Per epoch: the scheduler sets the temperature, the sampler rebuilds
    its distribution, and the trainer consumes ceil(n / batch_size) drawn
    batches. Ends with the run's final evaluation (`evaluate_run`).
    """
    seed = config.seeds[0] if seed is None else seed
    model_seed, sampler_seed, _ = run_seeds(seed)

    train, test = build_datasets(config, seed)
    model = model_mod.init_model(
        train.num_features, config.hidden_units, train.num_classes, model_seed
    )
    schedule = config.schedule()
    state = SamplerState(strategy=config.sampler, rng_seed=sampler_seed)

    per_epoch = []
    for epoch in range(config.epochs):
        temp = temperature_at(schedule, epoch)
        odin = OdinConfig(temperature=temp, epsilon=config.epsilon, grad_std=train.feature_std)
        state = epoch_resample(state, model, train, odin)
        model, losses = _train_epoch(model, state, train, config.batch_size, config.learning_rate)
        loss = float(np.mean(losses))
        per_epoch.append(EpochStats(epoch, loss, temp, _entropy(state.probabilities)))

    metrics = evaluate_run(model, test, config, seed)

    return RunRecord(
        config=config,
        seed=seed,
        per_epoch=per_epoch,
        metrics=metrics,
        sampler_state=state,
        train_labels=train.labels,
        test_labels=test.labels,
        embeddings=hidden_activations(model, test.features),
        model=model,
    )


def evaluate_run(
    model: ClassifierModel, test: Dataset, config: ExperimentConfig, seed: int
) -> MetricsReport:
    """The final evaluation of the run with this (config, seed): boost mode
    for the boost sampler, control mode otherwise, at the schedule's final
    temperature. build_datasets gives `test` the train split's std."""
    temperature = temperature_at(config.schedule(), config.epochs - 1)
    odin = OdinConfig(temperature, config.epsilon, grad_std=test.feature_std)
    mode = "boost" if config.sampler == "boost" else "control"
    _, _, eval_seed = run_seeds(seed)
    return run_evaluation(
        model, test, mode, odin, config.batch_size, config.learning_rate, eval_seed
    )


def _prediction_log(profiles: np.ndarray, labels: np.ndarray) -> PredictionLog:
    return PredictionLog(
        sample_ids=np.arange(len(labels)),
        true_labels=labels,
        predicted_labels=profiles.argmax(axis=1),
        profiles=profiles,
    )


def _plain_log(model: ClassifierModel, test: Dataset) -> PredictionLog:
    _, logits = model_mod.forward_batch(model, test.features)
    return _prediction_log(softmax_rows(logits), test.labels)


def run_evaluation(
    model: ClassifierModel,
    test: Dataset,
    mode: str,
    odin: OdinConfig,
    batch_size: int,
    learning_rate: float,
    sampler_seed: int,
) -> MetricsReport:
    """Score a trained model on a test split.

    boost mode: calibrated second-pass profiles feed the prediction log,
    so both the classification metrics and the OOD-mass scores see the
    perturb-and-rescore pipeline.

    control mode: classification metrics come from the model's plain
    softmax predictions; the OOD-mass scores use a copy fine-tuned for
    exactly one epoch under the boost sampler, which supplies the
    expected-misclassification profiles. Every step is pure, so the
    caller's model is never modified in either mode.
    """
    if test.n == 0:
        raise EmptyInputError("test split is empty")
    if model.num_classes != test.num_classes:
        raise ConfigurationError(
            f"model has {model.num_classes} classes but dataset has {test.num_classes}"
        )

    if mode == "boost":
        profiles, _ = calibrate_batch_full(model, test.features, odin)
        return build_metrics_report(_prediction_log(profiles, test.labels))

    if mode != "control":
        raise InvalidParameterError("mode must be 'boost' or 'control'")

    state = SamplerState(strategy="boost", rng_seed=sampler_seed)
    state = epoch_resample(state, model, test, odin)
    tuned, _ = _train_epoch(model, state, test, batch_size, learning_rate)
    return build_metrics_report(_plain_log(model, test), sodc_log=_plain_log(tuned, test))


REPORT_FILES = ("report.json", "per_class_metrics.csv", "sampler_history.csv", "embeddings.csv")
CHECKPOINT = "model_seed{}.json"  # beside a run's REPORT_FILES, named by the run's seed


def record_to_report(record: RunRecord) -> dict:
    return {
        "config": {**record.config.to_dict(), "seed": record.seed},
        "per_epoch": [asdict(s) for s in record.per_epoch],
        "metrics": record.metrics.to_dict(),
    }


def write_history_csv(state: SamplerState, true_labels: np.ndarray, path) -> None:
    """One row per (epoch, sample): score, probability, and draw count. The
    score is empty where the sampler calibrated nothing (the baselines)."""
    true_labels = np.asarray(true_labels, dtype=np.intp).tolist()

    def rows():
        for record in state.history:  # one epoch at a time, so memory stays per epoch
            scores = [None if math.isnan(s) else s for s in record.scores.tolist()]
            yield from zip(repeat(record.epoch), range(len(true_labels)), true_labels,
                           record.predicted.tolist(), scores, record.probabilities.tolist(),
                           record.draw_counts.tolist())

    header = ["epoch", "sample_id", "true_class", "predicted_class",
              "calibrated_score", "sampling_probability", "times_drawn"]
    write_csv(path, header, rows())


def _write_record(record: RunRecord, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in REPORT_FILES]
    report_path, per_class_path, history_path, embeddings_path = paths

    report = record_to_report(record)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    per_class = report["metrics"]["per_class"]
    rows = ((c, name, value) for c, values in per_class.items() for name, value in values.items())
    write_csv(per_class_path, ["class", "metric", "value_percent"], rows)

    write_history_csv(record.sampler_state, record.train_labels, history_path)

    hidden = [f"h_{j}" for j in range(record.embeddings.shape[1])]
    labels = record.test_labels.tolist()
    rows = ([i, labels[i], *h.tolist()] for i, h in enumerate(record.embeddings))
    write_csv(embeddings_path, ["sample_id", "true_class", *hidden], rows)

    paths.append(os.path.join(out_dir, CHECKPOINT.format(record.seed)))
    model_mod.save_model(record.model, paths[-1])
    return paths


def read_run(run_dir) -> tuple[ExperimentConfig, int, ClassifierModel]:
    """The (config, seed, model) of a run directory export_reports wrote:
    report.json's config block and the checkpoint beside it. A missing or
    malformed piece raises a typed error naming the file (and the key)."""
    path = os.path.join(run_dir, "report.json")
    report = read_json(path)
    values = report.get("config") if isinstance(report, dict) else None
    if not isinstance(values, dict):
        raise InvalidParameterError(f"{path}: report has no 'config' object")
    if "seed" not in values:
        raise InvalidParameterError(f"{path}: config has no key 'seed'")
    seed = values.pop("seed")
    check_config_keys(values, path)
    try:
        config = ExperimentConfig(**values)
    except BoostLabError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if not _fits(seed, "int") or seed not in config.seeds:
        raise InvalidParameterError(f"{path}: seed must be one of {config.seeds}, got {seed!r}")
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
