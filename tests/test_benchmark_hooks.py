"""The benchmark in perfbench/ wraps boostlab functions by (module, name),
reads sampler counters and warnings, and checks each operation's records
and metrics, so moving or renaming one of them, or changing when a fallback
is logged or counted, breaks its runs. This check loads perfbench/run.py,
writing nothing under perfbench/, and fails here first."""

import importlib.util
import logging
import math
import statistics
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from boostlab import harness
from boostlab.sampler import SamplerState, draw_batch, install_distribution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling tracing.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.modules.pop("tracing", None)


def test_benchmark_hooks_resolve(perfbench_run):
    targets = perfbench_run.trace_targets()
    missing = [f"{m.__name__}.{name}" for m, name, *_ in targets if not hasattr(m, name)]
    assert missing == []
    assert "degenerate_draws" in {f.name for f in fields(SamplerState)}


def test_fallback_is_logged_once_per_install_and_counted_per_batch(perfbench_run):
    # sampler.fallbacks.logged counts warnings through perfbench's handler;
    # sampler.fallbacks.degenerate_draws sums SamplerState.degenerate_draws
    counter = perfbench_run.FallbackCounter()
    logger = logging.getLogger("boostlab.sampler")
    logger.addHandler(counter)
    try:
        state = SamplerState(strategy="boost", rng_seed=0)
        install_distribution(state, np.zeros(5))
        assert counter.count == 1
        for drawn in range(1, 4):
            draw_batch(state, 8)
            assert state.degenerate_draws == drawn
        assert counter.count == 1
        install_distribution(state, np.ones(5))
        draw_batch(state, 8)
        assert (counter.count, state.degenerate_draws) == (1, 3)
    finally:
        logger.removeHandler(counter)


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


def tiny_workloads(perfbench_run, out_root):
    """Two train workloads, boost and a baseline whose records share their
    fixed arrays, and a compare workload, small enough for a unit test."""
    tiny = {"blob_counts": (24, 8), "epochs": 2, "batch_size": 8, "hidden_units": 4}
    return [
        perfbench_run.Workload("train", harness.ExperimentConfig(
            **tiny, seeds=(0,), out_dir=str(out_root / "train"))),
        perfbench_run.Workload("train", harness.ExperimentConfig(
            **tiny, sampler="stratified", seeds=(0,), out_dir=str(out_root / "stratified"))),
        perfbench_run.Workload("compare", harness.ExperimentConfig(
            **tiny, seeds=(0, 1), out_dir=str(out_root / "compare"))),
    ]


def test_run_op_and_check_op_pass_on_tiny_workloads(perfbench_run, tmp_path):
    # every operation perfbench times goes through run_op and check_op, and its
    # quality numbers read metrics.aggregate and metrics.bias["accuracy"]
    for wl in tiny_workloads(perfbench_run, tmp_path):
        result = perfbench_run.run_op(wl, wl.config)
        assert perfbench_run.check_op(wl, result) == []
        assert result.records
        for read in (lambda r: r.metrics.aggregate["macro_f1"],
                     lambda r: r.metrics.bias["accuracy"]["mab"]):
            assert math.isfinite(statistics.fmean(read(r) for r in result.records))


def test_traced_operations_pass_and_train_only_in_the_loop(perfbench_run, tmp_path):
    # perfbench --trace 1 runs each operation with trace_targets() patched in:
    # the traced operation must pass check_op, write what the untraced one
    # writes, open one evaluation span per run, and take no training step
    # outside the training loops
    for wl in tiny_workloads(perfbench_run, tmp_path):
        untraced = perfbench_run.run_op(wl, wl.config)
        tracer = perfbench_run.Tracer()
        with tracer.patched(perfbench_run.trace_targets()):
            result = perfbench_run.run_op(wl, wl.config, tracer.span("bench.op"))
        assert perfbench_run.check_op(wl, result) == []
        digest = perfbench_run.artifact_digest
        assert digest(result.artifacts) == digest(untraced.artifacts)

        evaluations = sum(count for name, count in tracer.calls.items()
                          if name.startswith("harness.evaluate."))
        assert evaluations == len(result.records)
        metrics = perfbench_run.layer_metrics(tracer, result, wl, 0)
        steps = sum(len(r.sampler_state.history)
                    * math.ceil(r.train_labels.size / r.config.batch_size)
                    for r in result.records)
        assert metrics["model.train_step_calls"] == metrics["sampler.draw_calls"] == steps
        assert all(math.isfinite(value) for value in metrics.values())
