"""The benchmark in perfbench/ wraps boostlab functions by (module, name) and
reads sampler counters, so moving or renaming one of them breaks its traced
run (`--trace 1`). This check loads perfbench/run.py, writing nothing under
perfbench/, and fails here first."""

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

from boostlab import harness
from boostlab.sampler import SamplerState

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling tracing.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        targets = run.trace_targets()
    finally:
        sys.modules.pop("tracing", None)

    missing = [f"{m.__name__}.{name}" for m, name, *_ in targets if not hasattr(m, name)]
    assert missing == []
    assert "degenerate_draws" in {f.name for f in fields(SamplerState)}


def test_export_calls_the_history_writer_through_the_module(tmp_path, monkeypatch):
    # perfbench times the history write by replacing harness.write_history_csv
    config = harness.ExperimentConfig(blob_counts=(12, 6), epochs=1, hidden_units=2, seeds=(0, 1))
    records = harness.run_experiment(config)
    calls = []
    write = harness.write_history_csv

    def recorder(state, true_labels, path):
        calls.append((state, path))
        write(state, true_labels, path)

    monkeypatch.setattr(harness, "write_history_csv", recorder)
    paths = harness.export_reports(records, str(tmp_path))
    assert len(calls) == len(records)
    assert all(state is r.sampler_state for (state, _), r in zip(calls, records))
    history_paths = [p for p in paths if p.endswith("sampler_history.csv")]
    assert [str(path) for _, path in calls] == history_paths
