import argparse
import dataclasses
import json
import logging
import os
import re
import shlex

import numpy as np
import pytest

from boostlab import cli
from boostlab.cli import _add_common_flags, build_config, main
from boostlab.data import Dataset, make_blobs, save_csv
from boostlab.errors import BoostLabError
from boostlab.harness import ExperimentConfig
from boostlab.sampler import STRATEGIES


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_train_writes_reports_and_model(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out = run_cli(
        [
            "train",
            "--blob-counts", "30,10",
            "--epochs", "2",
            "--batch-size", "16",
            "--hidden-units", "4",
            "--seeds", "0",
            "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "embeddings.npz",
        "model_seed0.json",
        "per_class_metrics.csv",
        "report.json",
        "sampler_history.csv",
    ]
    assert "seed 0" in out


def test_evaluate_prints_report(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(
        ["train", "--blob-counts", "30,10", "--epochs", "2", "--hidden-units", "4",
         "--seeds", "0", "--out", str(out_dir)],
        capsys,
    )
    code, out = run_cli(["evaluate", "--run", str(out_dir)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "aggregate" in doc and "bias" in doc


def _train_then_evaluate_each_run(tmp_path, capsys, flags, seeds="0"):
    """Train for 6 epochs, then evaluate every run directory train wrote.
    Returns one (report.json, evaluate stdout) pair, parsed, per run."""
    out_dir = tmp_path / "run"
    flags = ["--hidden-units", "4", "--seeds", seeds, "--epochs", "6"] + flags  # flags win
    assert run_cli(["train", "--out", str(out_dir)] + flags, capsys)[0] == 0
    pairs = []
    for report_path in sorted(out_dir.rglob("report.json")):
        code, out = run_cli(["evaluate", "--run", str(report_path.parent)], capsys)
        assert code == 0
        pairs.append((json.loads(report_path.read_text()), json.loads(out)))
    assert len(pairs) == len(seeds.split(","))
    return pairs


def _train_then_evaluate(tmp_path, capsys, flags):
    """The one (report.json, evaluate stdout) pair of a single-seed run."""
    [pair] = _train_then_evaluate_each_run(tmp_path, capsys, flags)
    return pair


@pytest.mark.parametrize(
    "run_flags",
    [
        [],  # boost sampler, scored at the final temperature, 5
        ["--sampler", "random"],  # a baseline sampler, scored the same way
        ["--temp-kind", "inverse-linear"],  # final temperature 1 + 999/6
        ["--blob-dim", "1", "--hidden-units", "1"],  # a checkpoint whose layers are 1 wide
    ],
    ids=["boost", "random", "inverse-linear", "one-feature-one-hidden-unit"],
)
def test_evaluate_reproduces_train_metrics(tmp_path, capsys, run_flags):
    flags = ["--blob-counts", "30,10", "--blob-separation", "2.5"] + run_flags
    report, evaluated = _train_then_evaluate(tmp_path, capsys, flags)
    assert evaluated == report["metrics"]


@pytest.mark.parametrize(
    "run_flags",
    [["--sampler", s] for s in STRATEGIES]
    + [["--temp-kind", "inverse-linear", "--pareto-scale", "0"], ["--dataset", "{csv}"]],
    ids=[*STRATEGIES, "inverse-linear-pareto", "csv"],
)
def test_evaluate_reproduces_every_run_of_a_two_seed_train(tmp_path, capsys, run_flags):
    """Seed 1 is scored on its own split, not on the first seed's."""
    csv_path = tmp_path / "data.csv"
    save_csv(make_blobs([30, 10], 2, 2.5, seed=0), csv_path)
    flags = ["--blob-counts", "30,10", "--blob-separation", "2.5"]
    flags += [flag.format(csv=csv_path) for flag in run_flags]
    for report, evaluated in _train_then_evaluate_each_run(tmp_path, capsys, flags, "0,1"):
        assert evaluated == report["metrics"]


def test_evaluate_has_no_mode_or_temperature_flag(capsys):
    with pytest.raises(SystemExit):
        main(["evaluate", "--help"])
    usage = capsys.readouterr().out
    assert "--run" in usage
    assert not re.search(r"--mode\b", usage) and "--temperature" not in usage
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage)) == {"-h", "--help", "--run"}


def _file(content, name="config.json"):
    """Setup: write content, bytes or a JSON value, to tmp/name."""
    def setup(tmp, monkeypatch):
        data = content if isinstance(content, bytes) else json.dumps(content).encode()
        (tmp / name).write_bytes(data)
    return setup


def _csv(dataset):
    return lambda tmp, monkeypatch: save_csv(dataset, tmp / "data.csv")


def _run(edit, name="report.json", flags=()):
    """Setup: a one-seed run in tmp/run, trained with flags, its file `name`
    then edited in place by edit, or removed when edit is None."""
    def setup(tmp, monkeypatch):
        argv = ["train", "--blob-counts", "30,10", "--epochs", "1", "--hidden-units", "4",
                "--seeds", "0", *flags, "--out", str(tmp / "run")]
        assert main(argv) == 0
        path = tmp / "run" / name
        if edit is None:
            path.unlink()
        else:
            doc = json.loads(path.read_text())
            edit(doc)
            path.write_text(json.dumps(doc))
    return setup


def _config_value(**values):
    return lambda doc: doc["config"].update(values)


def _too_big(config):
    # numpy raises a MemoryError subclass for an array no machine can hold
    # (say --hidden-units 1000000000000); raised here, nothing is allocated
    raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                      "(1000000000000, 2) and data type float64")


def _to_layers(doc):
    """The checkpoint rewritten in the per-layer format boostlab no longer reads."""
    params = doc.pop("params")
    doc.update(activation="tanh", weights_hidden=params[:8], bias_hidden=params[8:12],
               weights_out=params[12:20], bias_out=params[20:])


HUGE = 100000000000000000000
MAX_INTP = 9223372036854775807
OVERFLOW_CSV = Dataset(np.column_stack([np.tile([1e308, -1e308], 4), np.arange(8.0)]),
                       np.tile([0, 1], 4), 2)
FULL_CONFIG = ExperimentConfig(epochs=3, seeds=(4, 5), test_counts=(7, 8)).to_dict()
CONFIG, EVALUATE = "--config {tmp}/config.json", "evaluate --run {tmp}/run"
E = "boostlab: error: "
E_CONFIG, E_REPORT = f"{E}{{tmp}}/config.json: ", f"{E}{{tmp}}/run/report.json: "
E_MODEL, E_CSV = f"{E}{{tmp}}/run/model_seed0.json: ", f"{E}{{tmp}}/data.csv: "
E_MISSING = f"{E}[Errno 2] No such file or directory: "
EPSILON = "epsilon must be finite and non-negative, got"
BLOB_COUNTS = "blob_counts must be one or more ints >= 1 and < 2**63, got"
TEST_COUNTS = "test_counts must be None or one or more ints >= 1 and < 2**63, got"
SEED = f"{E_REPORT}seed must be one of (0,), got"
NUMPY_RANGE = "must be small enough for numpy to index the arrays it sizes, got"
STRATEGIES_RULE = "('boost', 'random', 'stratified')"
UNKNOWN_STRATEGIES = f"{E}unknown strategies ['dynamic-%s']; choose from {STRATEGIES_RULE}"
SAMPLER_RULE = f"sampler must be one of {STRATEGIES_RULE}, got 'dynamic-%s'"

# every input a command rejects with exit 2: (setup(tmp, monkeypatch) or
# None, the command line, with {tmp} for the test's directory and
# `--out {tmp}/run` added to train and compare, the whole of stderr). main's
# own message is one line, `boostlab: error: ...`; argparse's is the line
# given here, after the subcommand's usage
EXIT_2 = {
    "epsilon-nan": (None, "train --epsilon nan", f"{E}{EPSILON} nan"),
    "diverging-run": (
        None, "train --blob-counts 60,20 --epochs 3 --hidden-units 4 --lr 1e308",
        f"{E}training diverged: a step at learning_rate 1e+308 left non-finite parameters"),
    "allocation-past-the-machine": (
        lambda tmp, monkeypatch: monkeypatch.setattr(cli, "run_experiment", _too_big),
        "train --blob-counts 20,10",
        f"{E}Unable to allocate 14.6 TiB for an array with shape (1000000000000, 2) and data "
        "type float64"),
    "overflowing-blob-separation": (
        None, "train --blob-counts 60,20 --epochs 3 --blob-separation 1e160",
        f"{E}blob_separation 1e+160: feature std overflows float64; rescale the features"),
    "overflowing-csv-feature-std": (
        _csv(OVERFLOW_CSV), "train --dataset {tmp}/data.csv --epochs 1 --hidden-units 2",
        f"{E_CSV}feature std overflows float64; rescale the features"),
    "overflowing-perturbation-step": (  # the train split's std is that small at seed 0
        None, "train --blob-counts 20,10 --epochs 1 --hidden-units 4 --epsilon 1.7e308 --seeds 0",
        f"{E}epsilon 1.7e+308: epsilon / the train split's feature std overflows float64; "
        "lower epsilon or rescale the features"),
    "blob-counts-text": (
        None, "train --blob-counts 1,x",
        "boostlab train: error: argument --blob-counts: expected comma-separated integers, "
        "got '1,x'"),
    "test-counts-text": (
        None, "train --test-counts 2,x",
        "boostlab train: error: argument --test-counts: expected comma-separated integers, "
        "got '2,x'"),
    "blob-counts-empty": (None, "train --blob-counts ''", f"{E}{BLOB_COUNTS} ()"),
    "blob-counts-zero": (None, "train --blob-counts 0,5", f"{E}{BLOB_COUNTS} (0, 5)"),
    "blob-counts-past-64-bits": (
        None, f"train --blob-counts {HUGE},10", f"{E}{BLOB_COUNTS} ({HUGE}, 10)"),
    "test-counts-empty": (None, "train --test-counts ''", f"{E}{TEST_COUNTS} ()"),
    "test-counts-zero": (None, "train --test-counts 0,5", f"{E}{TEST_COUNTS} (0, 5)"),
    "test-counts-past-64-bits": (
        None, f"train --test-counts {HUGE},10", f"{E}{TEST_COUNTS} ({HUGE}, 10)"),
    "hidden-units-past-numpy": (
        None, f"train --blob-counts 20,10 --hidden-units {HUGE}",
        f"{E}hidden_units {NUMPY_RANGE} {HUGE}"),
    "blob-dim-past-numpy": (
        None, f"train --blob-counts 20,10 --blob-dim {HUGE}", f"{E}blob_dim {NUMPY_RANGE} {HUGE}"),
    "batch-size-past-numpy": (
        None, f"train --blob-counts 20,10 --batch-size {HUGE}",
        f"{E}batch_size {NUMPY_RANGE} {HUGE}"),
    "blob-counts-past-numpy": (
        None, f"train --blob-counts {MAX_INTP},10",
        f"{E}blob_counts {NUMPY_RANGE} ({MAX_INTP}, 10)"),
    "run-hidden-units-past-numpy": (
        _run(_config_value(hidden_units=HUGE)), EVALUATE, f"{E}hidden_units {NUMPY_RANGE} {HUGE}"),
    "run-blob-dim-past-numpy": (
        _run(_config_value(blob_dim=HUGE)), EVALUATE, f"{E}blob_dim {NUMPY_RANGE} {HUGE}"),
    "run-batch-size-past-numpy": (
        _run(_config_value(batch_size=HUGE)), EVALUATE, f"{E}batch_size {NUMPY_RANGE} {HUGE}"),
    "run-blob-counts-past-numpy": (
        _run(_config_value(blob_counts=[MAX_INTP, 10])), EVALUATE,
        f"{E}blob_counts {NUMPY_RANGE} ({MAX_INTP}, 10)"),
    "temp-start": (
        _file({}), f"train {CONFIG} --temp-start 0",
        f"{E}temp_start must be finite and positive, got 0.0"),
    "temp-scale": (
        _file({}), f"train {CONFIG} --temp-scale 1",
        f"{E}temp_scale must be finite and above 1, got 1.0"),
    "temp-interval": (
        _file({}), f"train {CONFIG} --temp-interval 0",
        f"{E}temp_interval must be an int >= 1, got 0"),
    "pareto-scale": (
        _file({}), f"train {CONFIG} --pareto-scale -2",
        f"{E}pareto_scale must be None or at least -1, got -2.0"),
    "flag-beside-a-config": (
        _file({"epochs": 2}), f"train {CONFIG} --epsilon nan", f"{E}{EPSILON} nan"),
    "config-temp-kind": (
        _file({"temp_kind": "x"}), f"train {CONFIG}",
        f"{E_CONFIG}temp_kind must be one of ('multiplicative', 'inverse-linear'), got 'x'"),
    "config-text-epsilon": (
        _file({"epsilon": "x"}), f"train {CONFIG}", f"{E_CONFIG}{EPSILON} 'x'"),
    "config-int-blob-counts": (
        _file({"blob_counts": 5}), f"train {CONFIG}", f"{E_CONFIG}{BLOB_COUNTS} 5"),
    "config-zero-epochs": (
        _file({"epochs": 0}), f"train {CONFIG}", f"{E_CONFIG}epochs must be an int >= 1, got 0"),
    "config-value-breaks-a-rule-with-a-flag": (
        _file({"blob_counts": [5, 5, 5]}), f"train {CONFIG} --test-counts 1,2",
        f"{E_CONFIG}test_counts must be None or as long as blob_counts (3), got (1, 2)"),
    "config-not-an-object": (
        _file([]), f"train {CONFIG}", f"{E_CONFIG}a config must be a JSON object"),
    "config-truncated": (
        _file(b'{"epochs": '), f"train {CONFIG}",
        f"{E_CONFIG}not valid JSON: Expecting value: line 1 column 12 (char 11)"),
    "config-unknown-key": (
        _file({**FULL_CONFIG, "perturbation_sign": "odin-classic"}), f"train {CONFIG}",
        f"{E_CONFIG}unknown config keys ['perturbation_sign']"),
    "compare-unknown-strategy": (
        None, "compare --strategies boost,bogus",
        f"{E}unknown strategies ['bogus']; choose from {STRATEGIES_RULE}"),
    "compare-repeated-strategy": (
        None, "compare --strategies boost,boost,random",
        f"{E}strategies must be distinct, got ['boost', 'boost', 'random']"),
    **{f"retired-{s}-sampler-flag": (
        None, f"train --sampler dynamic-{s}",
        f"boostlab train: error: argument --sampler: invalid choice: 'dynamic-{s}' "
        f"(choose from {STRATEGIES_RULE[1:-1]})") for s in ("random", "stratified")},
    **{f"retired-{s}-sampler-in-a-config": (
        _file({"sampler": f"dynamic-{s}"}), f"train {CONFIG}", E_CONFIG + SAMPLER_RULE % s)
       for s in ("random", "stratified")},
    **{f"retired-{s}-strategy-in-compare": (
        None, f"compare --strategies boost,dynamic-{s}", UNKNOWN_STRATEGIES % s)
       for s in ("random", "stratified")},
    "retired-sampler-in-a-run": (
        _run(_config_value(sampler="dynamic-random"), flags=("--sampler", "random")), EVALUATE,
        E_REPORT + SAMPLER_RULE % "random"),
    "missing-run": (
        None, "evaluate --run {tmp}/missing.file",
        f"{E_MISSING}'{{tmp}}/missing.file/report.json'"),
    "missing-dataset": (
        None, "train --dataset {tmp}/missing.file", f"{E_MISSING}'{{tmp}}/missing.file'"),
    "missing-config": (
        None, "train --config {tmp}/missing.file", f"{E_MISSING}'{{tmp}}/missing.file'"),
    **{f"one-row-csv-{s}": (
        _csv(make_blobs([1], 2, 3.0, seed=0)), f"train --dataset {{tmp}}/data.csv --sampler {s}",
        f"{E}1 sample(s) cannot fill both a train and a test split") for s in ("boost", "random")},
    "csv-label-only": (
        _file(b"label\n" + b"0\n1\n" * 4, "data.csv"), "train --dataset {tmp}/data.csv",
        f"{E_CSV}no feature column besides 'label'"),
    "csv-not-utf8": (
        _file(b"f0,label\n\xff,0\n", "data.csv"), "train --dataset {tmp}/data.csv",
        f"{E_CSV}not a readable CSV file: 'utf-8' codec can't decode byte 0xff in position 9: "
        "invalid start byte"),
    "csv-repeated-label": (
        _file(b"label,a,label\n" + b"0,1.5,1\n1,2.5,0\n" * 4, "data.csv"),
        "train --dataset {tmp}/data.csv", f"{E_CSV}more than one column named 'label'"),
    "no-report": (_run(None), EVALUATE, f"{E_MISSING}'{{tmp}}/run/report.json'"),
    "report-without-config": (
        _run(lambda doc: doc.pop("config")), EVALUATE, f"{E_REPORT}report has no 'config' object"),
    "report-without-seed": (
        _run(lambda doc: doc["config"].pop("seed")), EVALUATE,
        f"{E_REPORT}config has no key 'seed'"),
    **{f"report-{kind}-seed": (_run(_config_value(seed=seed)), EVALUATE, f"{SEED} {seed!r}")
       for kind, seed in [("text", "0"), ("negative", -1), ("bool", True), ("unlisted", 1)]},
    "report-without-epochs": (
        _run(lambda doc: doc["config"].pop("epochs")), EVALUATE,
        f"{E_REPORT}config has no key 'epochs'"),
    "report-without-temp-scale": (
        _run(lambda doc: doc["config"].pop("temp_scale")), EVALUATE,
        f"{E_REPORT}config has no key 'temp_scale'"),
    "report-unknown-key": (
        _run(_config_value(odin_sign=1)), EVALUATE, f"{E_REPORT}unknown config keys ['odin_sign']"),
    "report-text-epsilon": (
        _run(_config_value(epsilon="x")), EVALUATE, f"{E_REPORT}{EPSILON} 'x'"),
    "report-number-dataset": (
        _run(_config_value(dataset=5)), EVALUATE, f"{E_REPORT}dataset must be a string, got 5"),
    "run-with-a-class-more": (
        _run(_config_value(blob_counts=[30, 10, 10])), EVALUATE,
        f"{E_MODEL}model has 2 classes but dataset has 3"),
    "run-with-a-feature-more": (
        _run(_config_value(blob_dim=3)), EVALUATE,
        f"{E_MODEL}features must have shape (*, 2), got (40, 3)"),
    "no-checkpoint": (
        _run(None, "model_seed0.json"), EVALUATE, f"{E_MISSING}'{{tmp}}/run/model_seed0.json'"),
    "checkpoint-without-keys": (
        _run(dict.clear, "model_seed0.json"), EVALUATE, f"{E_MODEL}checkpoint has no key 'dims'"),
    "checkpoint-params-one-short": (
        _run(lambda doc: doc.update(params=doc["params"][:-1]), "model_seed0.json"), EVALUATE,
        f"{E_MODEL}params must have shape (22,), got (21,)"),
    "checkpoint-per-layer-format": (
        _run(_to_layers, "model_seed0.json"), EVALUATE,
        f"{E_MODEL}checkpoint has an unknown key 'activation'"),
}


@pytest.mark.parametrize("case", EXIT_2)
def test_bad_input_exits_2_with_one_line_and_writes_nothing(tmp_path, capsys, monkeypatch, case):
    setup, command, expected = EXIT_2[case]
    if setup is not None:
        setup(tmp_path, monkeypatch)
    argv = shlex.split(command.replace("{tmp}", shlex.quote(str(tmp_path))))
    if argv[0] != "evaluate":
        argv += ["--out", str(tmp_path / "run")]
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    expected = expected.replace("{tmp}", str(tmp_path))
    if expected.startswith(E):
        assert err == f"{expected}\n"
    else:
        usage, line = err.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith(f"usage: boostlab {argv[0]} ") and line == expected
    assert sorted(tmp_path.rglob("*")) == before


def test_long_tail_resampling_keeps_a_class_with_no_train_samples_empty(tmp_path, capsys):
    csv_path = tmp_path / "rare3.csv"
    save_csv(make_blobs([40, 30, 1], 2, 3.0, 0), csv_path)  # seed 0 puts class 2 in test
    out_dir = tmp_path / "run"
    argv = ["train", "--dataset", str(csv_path), "--pareto-scale", "0", "--epochs", "2",
            "--seeds", "0", "--out", str(out_dir)]
    assert run_cli(argv, capsys)[0] == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["metrics"]["ood_partition"]["2"] == {"id": 0, "ood": 1}
    history = np.loadtxt(out_dir / "sampler_history.csv", delimiter=",", skiprows=1)
    train_labels = history[history[:, 0] == 0, 2].astype(int)
    # 29 and 24 train samples: class 0 keeps its count, class 1 gets 29 / 2 rounded to even
    np.testing.assert_array_equal(np.bincount(train_labels, minlength=3), [29, 14, 0])


def test_class_missing_from_the_test_split_is_flagged(tmp_path, capsys):
    csv_path = tmp_path / "rare.csv"
    save_csv(make_blobs([40, 1], 2, 3.0, 0), csv_path)
    out_dir = tmp_path / "run"
    argv = ["train", "--dataset", str(csv_path), "--epochs", "2", "--hidden-units", "4",
            "--seeds", "1", "--out", str(out_dir)]
    assert run_cli(argv, capsys)[0] == 0
    metrics = json.loads((out_dir / "report.json").read_text())["metrics"]
    assert metrics["ood_partition"]["1"] == {"id": 0, "ood": 0}
    assert metrics["per_class"]["1"]["accuracy"] == 0.0
    assert metrics["flags"][-1] == (
        "class 1: no test samples; its accuracy, F1 and SODC are reported as 0")


def test_train_help_shows_each_key_rule(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no line breaks inside a help text
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    usage = capsys.readouterr().out
    for f in dataclasses.fields(ExperimentConfig):  # every key has a rule
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        help_text = re.search(rf"^  {flag} \S+\s+(.*)$", usage, re.M).group(1)
        assert help_text.endswith(f.metadata["rule"][0])


def test_each_flag_is_its_config_key_but_lr_and_out():
    parser = argparse.ArgumentParser()
    _add_common_flags(parser)
    flags = {a.dest: a.option_strings for a in parser._actions if a.dest != "help"}
    renamed = {"learning_rate": ["--lr"], "out_dir": ["--out"]}
    assert flags == {"config": ["--config"], **{
        f.name: renamed.get(f.name, ["--" + f.name.replace("_", "-")])
        for f in dataclasses.fields(ExperimentConfig)}}


def test_csv_evaluate_scores_only_the_test_split(tmp_path, capsys):
    path = tmp_path / "data.csv"
    save_csv(make_blobs([30, 10], 2, 2.5, seed=0), path)
    flags = ["--dataset", str(path), "--test-fraction", "0.25"]
    report, evaluated = _train_then_evaluate(tmp_path, capsys, flags)
    scored = sum(c["id"] + c["ood"] for c in evaluated["ood_partition"].values())
    assert scored == 10  # round(40 * 0.25) test rows, not the file's 40
    assert evaluated == report["metrics"]


def test_evaluate_finds_a_relative_csv_path_from_another_directory(tmp_path, capsys, monkeypatch):
    """A CSV run records its dataset relative to the run directory, so
    evaluate --run works from any working directory."""
    save_csv(make_blobs([30, 10], 2, 2.5, seed=0), tmp_path / "d.csv")
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--dataset", "d.csv", "--epochs", "2", "--hidden-units", "4",
            "--seeds", "0", "--out", "r2"]
    assert run_cli(argv, capsys)[0] == 0
    report = json.loads((tmp_path / "r2" / "report.json").read_text())
    assert report["config"]["dataset"] == os.path.join("..", "d.csv")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    code, out = run_cli(["evaluate", "--run", os.path.join("..", "r2")], capsys)
    assert code == 0
    assert json.loads(out) == report["metrics"]


def test_constant_column_std_is_computed_once_per_run(tmp_path, capsys, caplog):
    """Each run_training and each evaluate --run computes the train split's
    std once, so a constant column is reported once, and evaluate perturbs
    by the std training used."""
    blobs = make_blobs([30, 10], 2, 2.5, seed=0)
    features = np.column_stack([blobs.features[:, 0], np.full(blobs.n, 7.5)])
    path = tmp_path / "constant.csv"
    save_csv(Dataset(features, blobs.labels, blobs.num_classes), path)

    def reported():
        count = sum("constant feature column(s) [1]" in r.getMessage() for r in caplog.records)
        caplog.clear()
        return count

    out_dir = tmp_path / "run"
    argv = ["train", "--dataset", str(path), "--pareto-scale", "0", "--epochs", "3",
            "--hidden-units", "4", "--seeds", "0,1", "--out", str(out_dir)]
    with caplog.at_level(logging.WARNING, logger="boostlab.data"):
        assert run_cli(argv, capsys)[0] == 0
        assert reported() == 2  # one per seed
        run_dirs = sorted(p.parent for p in out_dir.rglob("report.json"))
        assert len(run_dirs) == 2
        for run_dir in run_dirs:
            code, out = run_cli(["evaluate", "--run", str(run_dir)], capsys)
            assert code == 0 and reported() == 1
            assert json.loads(out) == json.loads((run_dir / "report.json").read_text())["metrics"]


def test_compare_tabulates_strategies(tmp_path, capsys):
    code, out = run_cli(
        [
            "compare",
            "--blob-counts", "30,10",
            "--epochs", "1",
            "--hidden-units", "4",
            "--seeds", "0",
            "--strategies", "random,boost",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "random" in out and "boost" in out
    summary = json.loads((tmp_path / "comparison.json").read_text())["summary"]
    assert set(summary) == {"random", "boost"}


def test_compare_trains_every_strategy_by_default(tmp_path, capsys):
    argv = ["compare", "--blob-counts", "30,10", "--epochs", "1", "--hidden-units", "4",
            "--seeds", "0", "--out", str(tmp_path)]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[2:-1]] == list(STRATEGIES)
    summary = json.loads((tmp_path / "comparison.json").read_text())["summary"]
    assert list(summary) == list(STRATEGIES) == ["boost", "random", "stratified"]


def test_config_file_merging(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"epochs": 7, "sampler": "stratified", "batch_size": 8}))

    import argparse

    args = argparse.Namespace(config=str(cfg_path), epochs=9)
    config = build_config(args)
    assert config.epochs == 9  # flag beats file
    assert config.sampler == "stratified"  # file beats default
    assert config.batch_size == 8


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"not_a_key": 1}))
    import argparse

    with pytest.raises(BoostLabError, match="not_a_key"):
        build_config(argparse.Namespace(config=str(cfg_path)))


def test_every_config_field_has_a_flag():
    parser = argparse.ArgumentParser()
    _add_common_flags(parser)
    dests = set(vars(parser.parse_args([])))
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} <= dests


def test_config_file_accepts_every_field(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(FULL_CONFIG))
    assert build_config(argparse.Namespace(config=str(cfg_path))).to_dict() == FULL_CONFIG


def test_config_file_value_a_flag_overrides_is_not_checked(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"epochs": 0, "epsilon": "x", "blob_counts": [30, 10]}))
    argv = ["train", "--config", str(cfg_path), "--epochs", "1", "--epsilon", "0.05",
            "--hidden-units", "4", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["config"]["epochs"] == 1 and report["config"]["epsilon"] == 0.05


