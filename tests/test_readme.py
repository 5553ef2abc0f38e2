"""The README's `boostlab ...` examples must stay commands the CLI accepts,
its `report.json` schema must name the keys a report has, its Reports
bullets the files and arrays a run writes, and the ESS its intro quotes for
the `train` example must be what that run measures.

Each command is pulled out of the README's fenced blocks (with `\\`
continuations joined) and handed to `cli.main`, with the three command
functions replaced by recorders, so nothing is trained or written.
"""

import importlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from boostlab import cli
from boostlab.harness import REPORT_FILES, ExperimentConfig, export_reports, record_to_report
from boostlab.harness import run_training

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    lines = (line for block in blocks for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line)[1:] for line in lines if line.strip().startswith("boostlab ")]


COMMANDS = readme_commands()


def test_readme_shows_each_command():
    assert sorted(argv[0] for argv in COMMANDS) == ["compare", "evaluate", "train"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_is_accepted(monkeypatch, argv):
    calls = []
    for name in ("cmd_train", "cmd_evaluate", "cmd_compare"):
        monkeypatch.setattr(cli, name, lambda args, name=name: calls.append((name, args)) or 0)
    assert cli.main(argv) == 0
    [(called, args)] = calls
    assert called == f"cmd_{argv[0]}"
    if argv[0] != "evaluate":  # its one value is a directory, read when it runs
        cli.build_config(args)  # every value the example sets is in range


def intro_ess_claims() -> tuple[int, int, dict[int, int]]:
    """(seed, n, {epoch: ESS}) the README intro states for the `train` example."""
    intro = " ".join(README.read_text(encoding="utf-8").split("\n## ")[0].split())
    seed, n = map(int, re.search(r"\(seed (\d+), n = (\d+)\)", intro).groups())
    values, first, last = re.search(r"is ((?:\d+, )+\d+) over epochs (\d+)-(\d+)", intro).groups()
    values = [int(v) for v in values.split(", ")]
    assert len(values) == int(last) - int(first) + 1
    claims = dict(zip(range(int(first), int(last) + 1), values))
    a, b, epoch_a, epoch_b = map(int, re.search(
        r"and (\d+) and (\d+) at epochs (\d+) and (\d+)", intro).groups())
    return seed, n, {**claims, epoch_a: a, epoch_b: b}


def test_readme_intro_ess_is_the_train_examples(monkeypatch):
    seed, n, claims = intro_ess_claims()
    calls = []
    monkeypatch.setattr(cli, "cmd_train", lambda args: calls.append(args) or 0)
    [argv] = [argv for argv in COMMANDS if argv[0] == "train"]
    assert cli.main(argv) == 0
    config = cli.build_config(calls[0])
    assert sum(config.blob_counts) == n and seed in config.seeds
    rows = record_to_report(run_training(config, seed))["per_epoch"]
    measured = {e: round(rows[e]["ess"]) for e in claims}
    assert measured == claims


def parse_schema(text: str) -> dict:
    """`{a, b: [{c}], d: {e}}` as {"a": None, "b": [{"c": None}], "d": {"e": None}}."""
    quoted = re.sub(r"(\w+)", r'"\1"', text)
    return json.loads(re.sub(r'("\w+")(?=\s*[,}])', r"\1: null", quoted))


def test_readme_report_schema_names_the_report_keys():
    [bullet] = re.findall(r"^- `report\.json`: `(\{.*?\})`", README.read_text(encoding="utf-8"),
                          flags=re.MULTILINE)
    schema = parse_schema(bullet)
    config = ExperimentConfig(blob_counts=(20, 10), epochs=1, hidden_units=4)
    report = record_to_report(run_training(config))
    assert set(schema) == set(report)
    assert set(schema["per_epoch"][0]) == set(report["per_epoch"][0])
    assert set(schema["metrics"]) == set(report["metrics"])


def report_bullets() -> dict[str, str]:
    """{file name: text} of each bullet of the "Reports" section."""
    section = README.read_text(encoding="utf-8").split("\n## Reports")[1].split("\n## ")[0]
    return dict(re.findall(r"^- `([\w.]+)`: (.*)$", section, flags=re.MULTILINE))


def test_readme_report_bullets_name_the_files_a_run_writes():
    assert list(report_bullets()) == list(REPORT_FILES)


def test_readme_embeddings_bullet_names_the_arrays_a_run_writes(tmp_path):
    # "`true_class` (int64, `[n]`)": each array's name, dtype and dimensions
    named = re.findall(r"`(\w+)` \((\w+), `\[([^]`]*)\]`\)", report_bullets()["embeddings.npz"])
    config = ExperimentConfig(blob_counts=(20, 10), epochs=1, hidden_units=4)
    export_reports([run_training(config)], str(tmp_path))
    with np.load(tmp_path / "embeddings.npz", allow_pickle=False) as arrays:
        written = [(name, arrays[name].dtype.name, arrays[name].ndim) for name in arrays.files]
    assert [(name, dtype, len(dims.split(" × "))) for name, dtype, dims in named] == written


def box_rows() -> list[tuple[str, str]]:
    """(module, contents) of each row of the "What's in the box" table."""
    section = README.read_text(encoding="utf-8").split("## What's in the box")[1].split("\n## ")[0]
    return re.findall(r"^\| `(boostlab\.\w+)` \| (.*) \|$", section, flags=re.MULTILINE)


@pytest.mark.parametrize("module, contents", box_rows(), ids=[m for m, _ in box_rows()])
def test_readme_box_names_only_attributes_of_its_module(module, contents):
    # a call like `pareto_resample(dataset, scale, seed)` names pareto_resample
    names = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", contents)
    missing = [name for name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_readme_box_has_a_row_per_module():
    modules = {p.stem for p in (README.parent / "src" / "boostlab").glob("*.py")}
    rows = {module for module, _ in box_rows()}
    assert rows == {f"boostlab.{m}" for m in modules - {"__init__", "errors"}}
