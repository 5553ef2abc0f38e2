import argparse
import dataclasses
import json
import logging
import os
import re

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


def test_bad_value_exits_2_with_a_one_line_error(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["train", "--epsilon", "nan", "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("boostlab: error:") and "epsilon" in err
    assert err.count("\n") == 1  # no traceback
    assert not out_dir.exists()


def test_diverging_run_exits_2_with_a_one_line_error(tmp_path, capsys):
    out_dir = tmp_path / "run"
    argv = ["train", "--blob-counts", "60,20", "--epochs", "3", "--hidden-units", "4",
            "--lr", "1e308", "--out", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("boostlab: error: training diverged: a step at "
                                       "learning_rate 1e+308 left non-finite parameters\n")
    assert not out_dir.exists()


def test_allocation_past_the_machine_exits_2_with_a_one_line_error(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError subclass for an array no machine can hold
    # (say --hidden-units 1000000000000); raised here, nothing is allocated
    def too_big(config):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(1000000000000, 2) and data type float64")

    monkeypatch.setattr(cli, "run_experiment", too_big)
    out_dir = tmp_path / "run"
    assert main(["train", "--blob-counts", "20,10", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == ("boostlab: error: Unable to allocate 14.6 TiB for an array with shape "
                   "(1000000000000, 2) and data type float64\n")
    assert not out_dir.exists()


def test_overflowing_blob_separation_exits_2_naming_the_key(tmp_path, capsys):
    out_dir = tmp_path / "run"
    argv = ["train", "--blob-counts", "60,20", "--epochs", "3", "--blob-separation", "1e160",
            "--out", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("boostlab: error: blob_separation 1e+160: feature std "
                                       "overflows float64; rescale the features\n")
    assert not out_dir.exists()


def test_overflowing_csv_feature_std_exits_2_naming_the_file(tmp_path, capsys):
    csv_path = tmp_path / "big.csv"
    features = np.column_stack([np.tile([1e308, -1e308], 4), np.arange(8.0)])
    save_csv(Dataset(features, np.tile([0, 1], 4), 2), csv_path)
    out_dir = tmp_path / "run"
    argv = ["train", "--dataset", str(csv_path), "--epochs", "1", "--hidden-units", "2",
            "--out", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"boostlab: error: {csv_path}: feature std "
                                       "overflows float64; rescale the features\n")
    assert not out_dir.exists()


def test_epsilon_that_overflows_the_perturbation_step_exits_2_naming_the_key(tmp_path, capsys):
    # the train split's std is small enough at seed 0 that epsilon / std is infinite
    out_dir = tmp_path / "run"
    argv = ["train", "--blob-counts", "20,10", "--epochs", "1", "--hidden-units", "4",
            "--epsilon", "1.7e308", "--seeds", "0", "--out", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("boostlab: error: epsilon 1.7e+308: epsilon / grad_std "
                                       "overflows float64; lower epsilon or rescale the "
                                       "features\n")
    assert not out_dir.exists()


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


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--blob-counts", "1,x", "argument --blob-counts: expected comma-separated integers"),
        ("--test-counts", "2,x", "argument --test-counts: expected comma-separated integers"),
        ("--blob-counts", "", "boostlab: error: blob_counts must be one or more ints >= 1"),
        ("--blob-counts", "0,5", "boostlab: error: blob_counts must be one or more ints >= 1"),
        ("--test-counts", "", "boostlab: error: test_counts must be None or one or more ints"),
        ("--test-counts", "0,5", "boostlab: error: test_counts must be None or one or more ints"),
    ],
    ids=["blob-text", "test-text", "blob-empty", "blob-zero", "test-empty", "test-zero"],
)
def test_bad_count_list_exits_2_naming_the_flag(tmp_path, capsys, flag, value, named):
    out_dir = tmp_path / "run"
    try:
        code = main(["train", flag, value, "--out", str(out_dir)])
    except SystemExit as exc:  # argparse rejects text that is no list of ints
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and named in err and "_parse_int_list" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, message", [
    ("--blob-counts", "blob_counts must be one or more ints >= 1 and < 2**63"),
    ("--test-counts", "test_counts must be None or one or more ints >= 1 and < 2**63"),
])
def test_count_past_64_bits_exits_2_naming_its_key(tmp_path, capsys, flag, message):
    out_dir = tmp_path / "run"
    assert main(["train", flag, "100000000000000000000,10", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        f"boostlab: error: {message}, got (100000000000000000000, 10)\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--hidden-units", "100000000000000000000", "hidden_units"),
    ("--blob-dim", "100000000000000000000", "blob_dim"),
    ("--batch-size", "100000000000000000000", "batch_size"),
    ("--blob-counts", "9223372036854775807,10", "blob_counts"),
])
def test_size_past_numpys_index_range_exits_2_naming_its_key(tmp_path, capsys, flag, value, key):
    shown = f"({value.replace(',', ', ')})" if "," in value else value
    message = f"boostlab: error: {key} must be small enough for numpy to index the arrays it sizes"
    out_dir = tmp_path / "train"
    argv = ["train", "--blob-counts", "20,10", "--epochs", "1", flag, value, "--out", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"{message}, got {shown}\n")
    assert not out_dir.exists()
    # and evaluate, from a run whose report.json holds that value
    run = tmp_path / "run"
    assert main(["train", "--blob-counts", "20,10", "--epochs", "1", "--out", str(run)]) == 0
    report = json.loads((run / "report.json").read_text())
    report["config"][key] = json.loads(f"[{value}]") if "," in value else int(value)
    (run / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["evaluate", "--run", str(run)]) == 2
    assert capsys.readouterr() == ("", f"{message}, got {shown}\n")


@pytest.mark.parametrize(
    "flags, values, error",
    [
        (["--temp-start", "0"], {}, "temp_start must be finite and positive, got 0.0"),
        (["--temp-scale", "1"], {}, "temp_scale must be finite and above 1, got 1.0"),
        (["--temp-interval", "0"], {}, "temp_interval must be an int >= 1, got 0"),
        (["--pareto-scale", "-2"], {}, "pareto_scale must be None or at least -1, got -2.0"),
        ([], {"temp_kind": "x"}, "temp_kind must be one of ('multiplicative', 'inverse-linear'), "
                                 "got 'x'"),
    ],
    ids=["temp-start", "temp-scale", "temp-interval", "pareto-scale", "temp-kind-in-a-file"],
)
def test_bad_schedule_or_tail_value_exits_2_naming_its_key(tmp_path, capsys, flags, values, error):
    out_dir = tmp_path / "run"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(values))
    assert main(["train", "--config", str(cfg_path), *flags, "--out", str(out_dir)]) == 2
    source = f"{cfg_path}: " if values else ""
    assert capsys.readouterr().err == f"boostlab: error: {source}{error}\n"
    assert not out_dir.exists()


def test_each_flag_is_its_config_key_but_lr_and_out():
    parser = argparse.ArgumentParser()
    _add_common_flags(parser)
    flags = {a.dest: a.option_strings for a in parser._actions if a.dest != "help"}
    renamed = {"learning_rate": ["--lr"], "out_dir": ["--out"]}
    assert flags == {"config": ["--config"], **{
        f.name: renamed.get(f.name, ["--" + f.name.replace("_", "-")])
        for f in dataclasses.fields(ExperimentConfig)}}


def test_compare_rejects_unknown_strategy_names(tmp_path, capsys):
    code = main(["compare", "--strategies", "boost,bogus", "--out", str(tmp_path / "cmp")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_compare_rejects_repeated_strategy_names(tmp_path, capsys):
    argv = ["compare", "--strategies", "boost,boost,random", "--out", str(tmp_path / "cmp")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and "distinct" in err and err.count("\n") == 1
    assert not (tmp_path / "cmp").exists()


RETIRED_SAMPLERS = ["dynamic-random", "dynamic-stratified"]
SAMPLER_RULE = "sampler must be one of ('boost', 'random', 'stratified')"


@pytest.mark.parametrize("sampler", RETIRED_SAMPLERS)
def test_a_retired_sampler_flag_is_a_usage_error(tmp_path, capsys, sampler):
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--sampler", sampler, "--out", str(out_dir)])
    assert exc.value.code == 2
    assert f"argument --sampler: invalid choice: {sampler!r}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("sampler", RETIRED_SAMPLERS)
def test_a_retired_sampler_in_a_config_file_exits_2_naming_the_file(tmp_path, capsys, sampler):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"sampler": sampler}))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    expected = f"boostlab: error: {cfg_path}: {SAMPLER_RULE}, got {sampler!r}\n"
    assert capsys.readouterr().err == expected
    assert not out_dir.exists()


@pytest.mark.parametrize("sampler", RETIRED_SAMPLERS)
def test_compare_rejects_a_retired_strategy_name(tmp_path, capsys, sampler):
    argv = ["compare", "--strategies", f"boost,{sampler}", "--out", str(tmp_path / "cmp")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error: unknown strategies") and repr(sampler) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "cmp").exists()


def test_evaluate_of_a_run_recorded_under_a_retired_sampler_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    argv = ["train", "--blob-counts", "30,10", "--epochs", "1", "--hidden-units", "4",
            "--seeds", "0", "--sampler", "random", "--out", str(out_dir)]
    assert run_cli(argv, capsys)[0] == 0
    report_path = out_dir / "report.json"
    report = json.loads(report_path.read_text())
    report["config"]["sampler"] = "dynamic-random"
    report_path.write_text(json.dumps(report))
    assert main(["evaluate", "--run", str(out_dir)]) == 2
    expected = f"boostlab: error: {report_path}: {SAMPLER_RULE}, got 'dynamic-random'\n"
    assert capsys.readouterr().err == expected


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


def test_config_file_accepts_every_field_and_names_unknown_keys(tmp_path, capsys):
    full = ExperimentConfig(epochs=3, seeds=(4, 5), test_counts=(7, 8)).to_dict()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(full))
    assert build_config(argparse.Namespace(config=str(cfg_path))).to_dict() == full

    cfg_path.write_text(json.dumps({**full, "perturbation_sign": "odin-classic"}))
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and "perturbation_sign" in err


@pytest.mark.parametrize(
    "values, named", [({"epsilon": "x"}, "epsilon"), ({"blob_counts": 5}, "blob_counts")]
)
def test_config_file_value_of_the_wrong_type_exits_2(tmp_path, capsys, values, named):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(values))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and named in err
    assert err.count("\n") == 1  # no traceback


@pytest.mark.parametrize(
    "values, flags",
    [
        ({"epsilon": "x"}, []),
        ({"epochs": 0}, []),
        ({"blob_counts": [5, 5, 5]}, ["--test-counts", "1,2"]),  # the file's value breaks the rule
        ([], []),
    ],
    ids=["wrong-type", "out-of-range", "with-a-flag", "not-an-object"],
)
def test_bad_config_file_value_names_the_file(tmp_path, capsys, values, flags):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(values))
    argv = ["train", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"boostlab: error: {cfg_path}: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_bad_flag_is_reported_without_the_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"epochs": 2}))
    assert main(["train", "--config", str(cfg_path), "--epsilon", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error: epsilon ") and str(cfg_path) not in err


def test_config_file_value_a_flag_overrides_is_not_checked(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"epochs": 0, "epsilon": "x", "blob_counts": [30, 10]}))
    argv = ["train", "--config", str(cfg_path), "--epochs", "1", "--epsilon", "0.05",
            "--hidden-units", "4", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["config"]["epochs"] == 1 and report["config"]["epsilon"] == 0.05


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--run", "{missing}"],
        ["train", "--dataset", "{missing}", "--out", "{out}"],
        ["train", "--config", "{missing}", "--out", "{out}"],
    ],
    ids=["evaluate-run", "train-dataset", "train-config"],
)
def test_missing_input_file_exits_2_naming_the_path(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.file")
    out_dir = tmp_path / "run"
    argv = [arg.format(missing=missing, out=out_dir) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and missing in err
    assert err.count("\n") == 1  # no traceback
    assert not out_dir.exists()


@pytest.mark.parametrize("sampler", ["boost", "random"])
def test_one_row_csv_exits_2_for_every_sampler(tmp_path, capsys, sampler):
    csv_path = tmp_path / "one.csv"
    save_csv(make_blobs([1], 2, 3.0, seed=0), csv_path)
    argv = ["train", "--dataset", str(csv_path), "--sampler", sampler,
            "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [
        b"label\n" + b"0\n1\n" * 4,
        b"f0,label\n\xff,0\n",
        b"label,a,label\n" + b"0,1.5,1\n1,2.5,0\n" * 4,
    ],
    ids=["label-only", "not-utf8", "repeated-label"],
)
def test_malformed_csv_exits_2_naming_the_file(tmp_path, capsys, content):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(content)
    assert main(["train", "--dataset", str(csv_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and str(csv_path) in err
    assert err.count("\n") == 1


def test_truncated_config_file_exits_2_naming_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"epochs": ')
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and str(cfg_path) in err
    assert err.count("\n") == 1


def _trained_run(tmp_path, capsys):
    """A one-seed run directory, as `train` writes it."""
    out_dir = tmp_path / "run"
    flags = ["--blob-counts", "30,10", "--epochs", "1", "--hidden-units", "4", "--seeds", "0"]
    assert main(["train", *flags, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir


def _evaluate_fails_naming(run_dir, capsys, path, key):
    assert main(["evaluate", "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and err.count(str(path)) == 1 and key in err
    assert err.count("\n") == 1


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_checkpoint_without_keys_exits_2_naming_file_and_key(tmp_path, capsys):
    run_dir = _trained_run(tmp_path, capsys)
    model_path = run_dir / "model_seed0.json"
    model_path.write_text("{}")
    _evaluate_fails_naming(run_dir, capsys, model_path, "dims")


def test_checkpoint_params_of_the_wrong_length_exits_2(tmp_path, capsys):
    run_dir = _trained_run(tmp_path, capsys)
    model_path = run_dir / "model_seed0.json"
    _edit_json(model_path, lambda doc: doc.update(params=doc["params"][:-1]))
    _evaluate_fails_naming(run_dir, capsys, model_path,
                           "params must have shape (22,), got (21,)")


def test_checkpoint_in_the_per_layer_format_exits_2_naming_activation(tmp_path, capsys):
    run_dir = _trained_run(tmp_path, capsys)
    model_path = run_dir / "model_seed0.json"

    def to_layers(doc):
        params = doc.pop("params")
        doc.update(activation="tanh", weights_hidden=params[:8], bias_hidden=params[8:12],
                   weights_out=params[12:20], bias_out=params[20:])

    _edit_json(model_path, to_layers)
    _evaluate_fails_naming(run_dir, capsys, model_path, "unknown key 'activation'")


@pytest.mark.parametrize(
    "name, edit, key",
    [
        ("report.json", None, ""),
        ("report.json", lambda doc: doc.pop("config"), "config"),
        ("report.json", lambda doc: doc["config"].pop("seed"), "seed"),
        ("report.json", lambda doc: doc["config"].update(seed="0"), "seed"),
        ("report.json", lambda doc: doc["config"].update(seed=-1), "seed"),
        ("report.json", lambda doc: doc["config"].update(seed=True), "seed"),
        ("report.json", lambda doc: doc["config"].update(seed=1), "seed"),  # not in seeds
        ("report.json", lambda doc: doc["config"].pop("epochs"), "epochs"),
        ("report.json", lambda doc: doc["config"].pop("temp_scale"), "temp_scale"),
        ("report.json", lambda doc: doc["config"].update(odin_sign=1), "odin_sign"),
        ("report.json", lambda doc: doc["config"].update(epsilon="x"), "epsilon"),
        ("report.json", lambda doc: doc["config"].update(dataset=5), "dataset"),
        ("model_seed0.json", None, ""),
    ],
    ids=["no-report", "no-config", "no-seed", "string-seed", "negative-seed", "bool-seed",
         "unlisted-seed", "no-epochs", "no-temp-scale", "unknown-key", "wrong-type",
         "number-dataset", "no-checkpoint"],
)
def test_broken_run_directory_exits_2_naming_file_and_key(tmp_path, capsys, name, edit, key):
    run_dir = _trained_run(tmp_path, capsys)
    path = run_dir / name
    if edit is None:
        path.unlink()
    else:
        _edit_json(path, edit)
    _evaluate_fails_naming(run_dir, capsys, path, key)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"blob_counts": [30, 10, 10]}, "model has 2 classes but dataset has 3"),
        ({"blob_dim": 3}, "features must have shape (*, 2), got (40, 3)"),
    ],
    ids=["class-count", "feature-count"],
)
def test_checkpoint_that_does_not_fit_the_run_data_exits_2_naming_it(
    tmp_path, capsys, values, message
):
    run_dir = _trained_run(tmp_path, capsys)
    _edit_json(run_dir / "report.json", lambda doc: doc["config"].update(values))
    _evaluate_fails_naming(run_dir, capsys, run_dir / "model_seed0.json", message)
