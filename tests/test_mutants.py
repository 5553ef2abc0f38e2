"""ci/mutants.py names each mutant by its function and source text, and
ci/survivors/<module>.txt lists the mutants Tier-1 does not kill, one
`name -- reason` per line. This check loads the script, writing nothing
under ci/ and running no mutant, and fails when a listed survivor is no
longer a mutant the script makes (its code changed: rerun the sweep on that
module) or gives no reason."""

import importlib.util
import sys
from pathlib import Path

import pytest

CI = Path(__file__).resolve().parent.parent / "ci"
SWEPT = ("calibration", "cli", "data", "harness", "metrics", "model", "sampler")


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("ci_mutants", CI / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_swept_module_has_a_survivor_list():
    assert sorted(p.stem for p in (CI / "survivors").glob("*.txt")) == list(SWEPT)


@pytest.mark.parametrize("module", SWEPT)
def test_each_listed_survivor_is_a_mutant_with_a_reason(mutants, module):
    names = {m.name for m in mutants.generate(module)}
    for line in (CI / "survivors" / f"{module}.txt").read_text(encoding="utf-8").splitlines():
        name, _, reason = line.partition(mutants.SEP)
        assert name in names, line
        assert reason.strip(), line
