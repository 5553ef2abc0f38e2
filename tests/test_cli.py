import argparse
import dataclasses
import json
import re

import pytest

from boostlab.cli import _add_common_flags, build_config, main
from boostlab.data import make_blobs, save_csv
from boostlab.errors import BoostLabError
from boostlab.harness import ExperimentConfig


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
        "embeddings.csv",
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
    code, out = run_cli(
        [
            "evaluate",
            "--model", str(out_dir / "model_seed0.json"),
            "--blob-counts", "30,10",
            "--seeds", "0",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert "aggregate" in doc and "bias" in doc


def _train_then_evaluate(tmp_path, capsys, flags):
    """Train one seed for 6 epochs, then evaluate its checkpoint with the
    same flags. Returns (train report.json, evaluate stdout) as parsed JSON."""
    out_dir = tmp_path / "run"
    common = flags + ["--hidden-units", "4", "--seeds", "0", "--epochs", "6"]
    run_cli(["train", "--out", str(out_dir)] + common, capsys)
    code, out = run_cli(["evaluate", "--model", str(out_dir / "model_seed0.json")] + common, capsys)
    assert code == 0
    return json.loads((out_dir / "report.json").read_text()), json.loads(out)


@pytest.mark.parametrize(
    "run_flags",
    [
        [],  # boost sampler: boost mode at the final temperature, 5
        ["--sampler", "random"],  # control mode, with the run's own evaluation seed
        ["--temp-kind", "inverse-linear"],  # final temperature 1 + 999/6
    ],
    ids=["boost", "random-control", "inverse-linear"],
)
def test_evaluate_reproduces_train_metrics(tmp_path, capsys, run_flags):
    flags = ["--blob-counts", "30,10", "--blob-separation", "2.5"] + run_flags
    report, evaluated = _train_then_evaluate(tmp_path, capsys, flags)
    assert evaluated == report["metrics"]


def test_evaluate_has_no_mode_or_temperature_flag(capsys):
    with pytest.raises(SystemExit):
        main(["evaluate", "--help"])
    usage = capsys.readouterr().out
    assert "--model" in usage
    assert not re.search(r"--mode\b", usage) and "--temperature" not in usage


def test_bad_value_exits_2_with_a_one_line_error(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["train", "--epsilon", "nan", "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("boostlab: error:") and "epsilon" in err
    assert err.count("\n") == 1  # no traceback
    assert not out_dir.exists()


def test_compare_rejects_unknown_strategy_names(tmp_path, capsys):
    code = main(["compare", "--strategies", "boost,bogus", "--out", str(tmp_path / "cmp")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_csv_evaluate_scores_only_the_test_split(tmp_path, capsys):
    path = tmp_path / "data.csv"
    save_csv(make_blobs([30, 10], 2, 2.5, seed=0), path)
    flags = ["--dataset", str(path), "--test-fraction", "0.25"]
    report, evaluated = _train_then_evaluate(tmp_path, capsys, flags)
    scored = sum(c["id"] + c["ood"] for c in evaluated["ood_partition"].values())
    assert scored == 10  # round(40 * 0.25) test rows, not the file's 40
    assert evaluated == report["metrics"]


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
    "argv",
    [
        ["evaluate", "--model", "{missing}"],
        ["train", "--dataset", "{missing}"],
        ["train", "--config", "{missing}"],
    ],
    ids=["evaluate-model", "train-dataset", "train-config"],
)
def test_missing_input_file_exits_2_naming_the_path(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.file")
    out_dir = tmp_path / "run"
    argv = [arg.format(missing=missing) for arg in argv] + ["--out", str(out_dir)]
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


def test_truncated_config_file_exits_2_naming_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"epochs": ')
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and str(cfg_path) in err
    assert err.count("\n") == 1


def test_checkpoint_without_keys_exits_2_naming_file_and_key(tmp_path, capsys):
    model_path = tmp_path / "empty.json"
    model_path.write_text("{}")
    assert main(["evaluate", "--model", str(model_path), "--blob-counts", "30,10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and str(model_path) in err and "dims" in err
    assert err.count("\n") == 1


def test_checkpoint_layer_of_the_wrong_length_exits_2(tmp_path, capsys):
    flags = ["--blob-counts", "30,10", "--epochs", "1", "--hidden-units", "4", "--seeds", "0"]
    out_dir = tmp_path / "run"
    assert main(["train", *flags, "--out", str(out_dir)]) == 0
    model_path = out_dir / "model_seed0.json"
    doc = json.loads(model_path.read_text())
    doc["bias_out"] = doc["bias_out"][:-1]
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boostlab: error:") and str(model_path) in err and "bias_out" in err
    assert err.count("\n") == 1
