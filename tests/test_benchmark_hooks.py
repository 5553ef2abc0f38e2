"""The benchmark in perfbench/ wraps boostlab functions by (module, name) and
reads sampler counters, so moving or renaming one of them breaks its traced
run (`--trace 1`). This check loads perfbench/run.py, writing nothing under
perfbench/, and fails here first."""

import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

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
