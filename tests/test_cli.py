import argparse
import dataclasses
import json

import pytest

from boostlab.cli import _add_common_flags, build_config, main
from boostlab.data import make_blobs, save_csv
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
            "--mode", "boost",
            "--temperature", "5",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert "aggregate" in doc and "bias" in doc


def _train_then_evaluate(tmp_path, capsys, data_flags):
    """Train one seed for 6 epochs, then evaluate its checkpoint in boost
    mode at the run's final temperature (5 under the default schedule).
    Returns (train report.json, evaluate stdout) as parsed JSON."""
    out_dir = tmp_path / "run"
    common = data_flags + ["--hidden-units", "4", "--seeds", "0"]
    run_cli(["train", "--epochs", "6", "--out", str(out_dir)] + common, capsys)
    code, out = run_cli(
        ["evaluate", "--model", str(out_dir / "model_seed0.json"), "--mode", "boost",
         "--temperature", "5"] + common,
        capsys,
    )
    assert code == 0
    return json.loads((out_dir / "report.json").read_text()), json.loads(out)


def test_evaluate_reproduces_train_metrics(tmp_path, capsys):
    flags = ["--blob-counts", "30,10", "--blob-separation", "2.5"]
    report, evaluated = _train_then_evaluate(tmp_path, capsys, flags)
    assert evaluated == report["metrics"]


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

    with pytest.raises(SystemExit):
        build_config(argparse.Namespace(config=str(cfg_path)))


def test_every_config_field_has_a_flag():
    parser = argparse.ArgumentParser()
    _add_common_flags(parser)
    dests = set(vars(parser.parse_args([])))
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} <= dests


def test_config_file_accepts_every_field_and_names_unknown_keys(tmp_path):
    full = ExperimentConfig(epochs=3, seeds=(4, 5), test_counts=(7, 8)).to_dict()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(full))
    assert build_config(argparse.Namespace(config=str(cfg_path))).to_dict() == full

    cfg_path.write_text(json.dumps({**full, "perturbation_sign": "odin-classic"}))
    with pytest.raises(SystemExit, match="perturbation_sign"):
        main(["train", "--config", str(cfg_path)])
