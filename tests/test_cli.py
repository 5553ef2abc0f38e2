import argparse
import dataclasses
import json
import re

import pytest

from boostlab.cli import _add_common_flags, build_config, main
from boostlab.data import make_blobs, save_csv
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
    code, out = run_cli(["evaluate", "--run", str(out_dir)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "aggregate" in doc and "bias" in doc


def _train_then_evaluate_each_run(tmp_path, capsys, flags, seeds="0"):
    """Train for 6 epochs, then evaluate every run directory train wrote.
    Returns one (report.json, evaluate stdout) pair, parsed, per run."""
    out_dir = tmp_path / "run"
    flags = flags + ["--hidden-units", "4", "--seeds", seeds, "--epochs", "6"]
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
    "content", [b"label\n" + b"0\n1\n" * 4, b"f0,label\n\xff,0\n"], ids=["label-only", "not-utf8"]
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


def test_checkpoint_layer_of_the_wrong_length_exits_2(tmp_path, capsys):
    run_dir = _trained_run(tmp_path, capsys)
    model_path = run_dir / "model_seed0.json"
    _edit_json(model_path, lambda doc: doc.update(bias_out=doc["bias_out"][:-1]))
    _evaluate_fails_naming(run_dir, capsys, model_path, "bias_out")


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
        ("report.json", lambda doc: doc["config"].update(odin_sign=1), "odin_sign"),
        ("report.json", lambda doc: doc["config"].update(epsilon="x"), "epsilon"),
        ("model_seed0.json", None, ""),
    ],
    ids=["no-report", "no-config", "no-seed", "string-seed", "negative-seed", "bool-seed",
         "unlisted-seed", "unknown-key", "wrong-type", "no-checkpoint"],
)
def test_broken_run_directory_exits_2_naming_file_and_key(tmp_path, capsys, name, edit, key):
    run_dir = _trained_run(tmp_path, capsys)
    path = run_dir / name
    if edit is None:
        path.unlink()
    else:
        _edit_json(path, edit)
    _evaluate_fails_naming(run_dir, capsys, path, key)
