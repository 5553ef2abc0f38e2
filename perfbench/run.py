"""boostlab benchmark: training workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload blobs-10k-boost --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each operation makes the calls `boostlab train` or `boostlab compare` make
(run_experiment, export_reports + save_model, run_comparison + the
comparison.json write) on inputs generated from --seed, checks its
outputs, and is timed. With --trace 1 the run alternates untraced and
traced operations and reports per-module self times instead. The last
line of standard output is one JSON object; the lines before it are for
people. See perfbench/README.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402  (this script's directory is on sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_out")  # relative to ROOT; it appears in report.json, so keep it fixed

WORKLOADS = ("blobs-10k-boost", "csv-wide-longtail-boost", "compare-longtail-5way")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 3  # fewest rounds of timed operations a run makes, whatever --seconds says

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_program():
    """Import boostlab from this checkout's sources, never from elsewhere."""
    if not (SRC / "boostlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no boostlab sources under {SRC}")
    sys.dont_write_bytecode = True  # every run compiles the same way; no __pycache__ appears
    # Every matrix product in boostlab is small. On a 2-CPU host a second BLAS
    # thread made the CSV workload slower, and up to 3x slower while another
    # process was busy, so BLAS runs on one thread unless the caller says otherwise.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import boostlab

    if Path(boostlab.__file__).resolve().parent != SRC / "boostlab":
        sys.exit(f"perfbench: imported boostlab from {boostlab.__file__}, not {SRC}")


# --- workloads --------------------------------------------------------------


@dataclass
class Workload:
    kind: str  # "train" (train + export) or "compare"
    config: object  # ExperimentConfig
    csv_seed: int | None = None  # the CSV workload writes its input at set-up


def make_workload(name: str, seed: int, work: Path) -> Workload:
    from boostlab.harness import ExperimentConfig

    out = str(work / "run")
    if name == "blobs-10k-boost":
        config = ExperimentConfig(
            blob_counts=(9000, 1000), blob_separation=2.5, hidden_units=16,
            sampler="boost", epochs=20, batch_size=32, seeds=(seed,), out_dir=out,
        )
        return Workload("train", config)
    if name == "csv-wide-longtail-boost":
        config = ExperimentConfig(
            dataset=str(work / "input" / "data.csv"), test_fraction=0.25, pareto_scale=0.0,
            hidden_units=64, sampler="boost", epochs=20, batch_size=256, seeds=(seed,),
            out_dir=out,
        )
        return Workload("train", config, csv_seed=seed)
    config = ExperimentConfig(
        blob_counts=(1000, 400, 150, 50), blob_dim=4, epochs=20, batch_size=32,
        seeds=(2 * seed, 2 * seed + 1), out_dir=out,
    )
    return Workload("compare", config)


def write_inputs(wl: Workload) -> None:
    """Generate the workload's input files (only the CSV workload has any)."""
    if wl.csv_seed is None:
        return
    from boostlab.data import make_blobs, save_csv

    path = Path(wl.config.dataset)
    shutil.rmtree(path.parent, ignore_errors=True)
    path.parent.mkdir(parents=True)
    save_csv(make_blobs([3000] * 10, 32, 2.5, wl.csv_seed), path)


# --- one operation ----------------------------------------------------------


@dataclass
class OpResult:
    run_s: float
    train_s: float
    records: list  # RunRecords the training loop produced
    artifacts: list  # files whose sha256 must repeat


def run_op(wl: Workload, config, root=contextlib.nullcontext()) -> OpResult:
    """One CLI-equivalent operation into a fresh output directory. Program
    functions are looked up on their modules at call time so that the
    tracer's wrappers, when installed, are the ones called."""
    from boostlab import harness, model

    shutil.rmtree(config.out_dir, ignore_errors=True)
    if wl.kind == "train":
        with root:
            t0 = time.perf_counter()
            records = harness.run_experiment(config)
            t1 = time.perf_counter()
            paths = harness.export_reports(records, config.out_dir)
            model.save_model(records[0].model, f"{config.out_dir}/model_seed{records[0].seed}.json")
            t2 = time.perf_counter()
        artifacts = [p for p in paths if os.path.basename(p) in harness.REPORT_FILES]
        return OpResult(t2 - t0, t1 - t0, records, artifacts)

    records = []
    inner = harness.run_experiment

    def capture(cfg):
        got = inner(cfg)
        records.extend(got)
        return got

    out = f"{config.out_dir}/comparison.json"
    harness.run_experiment = capture
    try:
        with root:
            t0 = time.perf_counter()
            summary = harness.run_comparison(config)
            t1 = time.perf_counter()
            # what `boostlab compare` writes after the comparison
            os.makedirs(config.out_dir, exist_ok=True)
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"config": config.to_dict(), "summary": summary}, fh, indent=2)
            t2 = time.perf_counter()
    finally:
        harness.run_experiment = inner
    return OpResult(t2 - t0, t1 - t0, records, [out])


# --- output checks ----------------------------------------------------------


def _finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return math.isfinite(node)
    return True


def check_op(wl: Workload, result: OpResult) -> list[str]:
    """Problems found in one operation's outputs; empty when all is well."""
    from boostlab.sampler import PROB_SUM_TOL

    problems = []
    doc_path = result.artifacts[0]  # report.json or comparison.json
    try:
        with open(doc_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{doc_path}: {exc}"]
    block = doc["metrics"] if wl.kind == "train" else doc["summary"]
    if not _finite_numbers(block):
        problems.append(f"{doc_path}: non-finite metric")

    for record in result.records:
        batch = record.config.batch_size
        expected = math.ceil(len(record.train_labels) / batch) * batch
        for epoch in record.sampler_state.history:
            total = float(epoch.probabilities.sum())
            if abs(total - 1.0) > PROB_SUM_TOL:
                problems.append(f"{record.config.sampler} seed {record.seed} epoch {epoch.epoch}: "
                                f"probabilities sum to {total!r}")
            drawn = int(epoch.draw_counts.sum())
            if drawn != expected:
                problems.append(f"{record.config.sampler} seed {record.seed} epoch {epoch.epoch}: "
                                f"{drawn} draws, expected {expected}")
    return problems


def samples_drawn(records) -> int:
    """Samples the training loops consumed, from the sampler's own counts."""
    return sum(int(e.draw_counts.sum()) for r in records for e in r.sampler_state.history)


def artifact_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


class FallbackCounter(logging.Handler):
    """Counts the warnings boostlab.sampler logs when it falls back to a
    uniform distribution; they reach nothing else in the program."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


# --- tracing ----------------------------------------------------------------


def trace_targets():
    """(module, attribute, span name, timed, tally) for every wrapped call."""
    from boostlab import harness, model, sampler

    def evaluate_name(_model, _test, mode, *args, **kwargs):
        return f"harness.evaluate.{mode}"

    return [
        (harness, "run_comparison", "harness.loop", True, None),
        (harness, "run_experiment", "harness.loop", True, None),
        (harness, "run_training", "harness.loop", True, None),
        (harness, "build_datasets", "data.build_datasets", True, None),
        (harness, "load_csv", "data.load_csv", True, lambda args, ds: ds.n),
        (harness, "temperature_at", "scheduler.temperature_at", False, None),
        (harness, "epoch_resample", "sampler.resample", True, None),
        (sampler, "calibrate_batch_full", "calibration.calibrate", True,
         lambda args, out: len(args[1])),
        (harness, "calibrate_batch_full", "calibration.calibrate", True,
         lambda args, out: len(args[1])),
        (sampler, "aggregate_class_scores", "sampler.weights", True, None),
        (sampler, "boost_probabilities", "sampler.weights", True, None),
        (harness, "draw_batch", "sampler.draw", True, None),
        (harness, "train_step", "model.train_step", True, None),
        (harness, "hidden_activations", "model.hidden_activations", True, None),
        (harness, "run_evaluation", evaluate_name, True, None),
        (harness, "build_metrics_report", "metrics.build_report", True, None),
        (harness, "export_reports", "harness.export", True, None),
        (harness, "write_history_csv", "harness.export.history_csv", True, None),
        (model, "save_model", "model.save_model", True, None),
    ]


MODULES = ("data", "calibration", "sampler", "model", "metrics", "harness", "bench")


def layer_metrics(tracer, result: OpResult, wl: Workload, fallbacks_logged: int) -> dict:
    """Per-layer figures of one traced operation."""
    own = tracer.self_times()
    incl = tracer.inclusive_times()
    calls, tallies = tracer.calls, tracer.tallies

    def per(total_s, count):
        return 1e6 * total_s / count if count else 0.0

    drawn = samples_drawn(result.records)
    distinct = sum(int((e.draw_counts > 0).sum())
                   for r in result.records for e in r.sampler_state.history)
    out_dir = os.path.dirname(result.artifacts[0])
    if wl.kind == "train":
        export_bytes = sum(f.stat().st_size for f in Path(out_dir).iterdir())
    else:
        export_bytes = os.path.getsize(result.artifacts[0])
    m = {
        "data.build_datasets_s": own.get("data.build_datasets", 0.0),
        "data.load_csv_s": own.get("data.load_csv", 0.0),
        "data.rows_loaded": tallies["data.load_csv"],
        "calibration.calibrate_s": own.get("calibration.calibrate", 0.0),
        "calibration.calls": calls["calibration.calibrate"],
        "calibration.samples": tallies["calibration.calibrate"],
        "calibration.us_per_sample": per(own.get("calibration.calibrate", 0.0),
                                         tallies["calibration.calibrate"]),
        "sampler.draw_s": own.get("sampler.draw", 0.0),
        "sampler.draw_calls": calls["sampler.draw"],
        "sampler.us_per_draw": per(own.get("sampler.draw", 0.0), calls["sampler.draw"]),
        "sampler.weights_s": own.get("sampler.weights", 0.0),
        "sampler.resample_self_s": own.get("sampler.resample", 0.0),
        "sampler.fallbacks.logged": fallbacks_logged,
        "sampler.fallbacks.degenerate_draws": sum(
            r.sampler_state.degenerate_draws for r in result.records),
        "sampler.unique_draw_ratio": distinct / drawn,
        "model.train_step_s": own.get("model.train_step", 0.0),
        "model.train_step_calls": calls["model.train_step"],
        "model.us_per_step": per(own.get("model.train_step", 0.0), calls["model.train_step"]),
        "model.save_model_s": own.get("model.save_model", 0.0),
        "scheduler.temperature_at_calls": calls["scheduler.temperature_at"],
        "metrics.build_report_s": own.get("metrics.build_report", 0.0),
        "harness.loop_self_s": own.get("harness.loop", 0.0),
        "harness.evaluate_boost_s": incl.get("harness.evaluate.boost", 0.0),
        "harness.evaluate_control_s": incl.get("harness.evaluate.control", 0.0),
        "harness.export.history_csv_s": own.get("harness.export.history_csv", 0.0),
        "harness.export_self_s": own.get("harness.export", 0.0),
        "harness.export_bytes": export_bytes,
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == module)
    m["trace.run_s"] = result.run_s
    m["trace.accounted_ratio"] = sum(m[f"{mod}.self_s"] for mod in MODULES[:-1]) / result.run_s
    return m


# --- the run ----------------------------------------------------------------


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(wl: Workload) -> list[float]:
    """Generate the inputs and warm up with a one-epoch operation, several
    times over; returns the duration of each repeat."""
    warm = replace(wl.config, epochs=1, seeds=wl.config.seeds[:1],
                   out_dir=wl.config.out_dir + "-warmup")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        write_inputs(wl)
        run_op(wl, warm)
        times.append(time.perf_counter() - t0)
    shutil.rmtree(warm.out_dir, ignore_errors=True)
    return times


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with at least ten of n
    samples beyond it."""
    p = math.floor(100 * (1 - 10 / n))
    return p if p > 50 else None


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("quality."):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run(args) -> dict:
    import_s = time.perf_counter() - T_START
    print("env " + json.dumps(environment(args)))

    work = WORK / "work" / f"{args.workload}-seed{args.seed}"
    wl = make_workload(args.workload, args.seed, work)
    fallback = FallbackCounter()
    logging.getLogger("boostlab.sampler").addHandler(fallback)
    setups = set_up(wl)
    setup_s = import_s + statistics.median(setups)
    print(f"setup: import {import_s:.3f} s; input generation + warm-up "
          + ", ".join(f"{t:.3f}" for t in setups) + " s")

    modes = (False, True) if args.trace else (False,)
    attempted = failed = rounds = 0
    reference = quality = None
    plain, traced, tracers = [], [], []  # plain: (run_s, train_samples_per_s)
    start = time.perf_counter()
    # whole rounds (one operation per mode) until the next would overrun --seconds
    while rounds < MIN_ROUNDS or (time.perf_counter() - start) * (rounds + 1) / rounds <= args.seconds:
        rounds += 1
        for use_trace in modes:
            attempted += 1
            tracer = Tracer() if use_trace else None
            before = fallback.count
            try:
                if use_trace:
                    with tracer.patched(trace_targets()):
                        result = run_op(wl, wl.config, tracer.span("bench.op"))
                else:
                    result = run_op(wl, wl.config)
                problems = check_op(wl, result)
                digest = artifact_digest(result.artifacts)
            except Exception:  # noqa: BLE001 - a failed operation is counted; the run goes on
                traceback.print_exc()
                failed += 1
                continue
            reference = reference or digest
            if digest != reference:
                problems.append(f"artifact sha256 {digest} differs from {reference}")
            if problems:
                print("FAILED: " + "; ".join(problems), file=sys.stderr)
                failed += 1
            elif use_trace:
                tracers.append(tracer)
                traced.append(layer_metrics(tracer, result, wl, fallback.count - before))
            else:
                quality = quality or {
                    "macro_f1": statistics.fmean(
                        r.metrics.aggregate["macro_f1"] for r in result.records) * 100.0,
                    "mab_accuracy": statistics.fmean(
                        r.metrics.bias["accuracy"]["mab"] for r in result.records) * 100.0,
                }
                plain.append((result.run_s, samples_drawn(result.records) / result.train_s))
            del result  # records of one operation at a time, so peak memory is per operation
    shutil.rmtree(work, ignore_errors=True)

    report = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if not plain or (args.trace and not traced):
        report["correct"] = False
        return report

    run_times = [op[0] for op in plain]
    e2e = {
        "setup_s": setup_s,
        "run_s": statistics.median(run_times),
        "train_samples_per_s": statistics.median(op[1] for op in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p = tail_percentile(len(run_times))
    tail = (f"p{p} {statistics.quantiles(run_times, n=100)[p - 1]:.4f} s" if p
            else "too few for a tail percentile")
    print(f"artifacts sha256 {reference}")
    print(f"run_s over {len(run_times)} operations: "
          + ", ".join(f"{t:.4f}" for t in run_times) + f"; {tail}")
    for name, value in e2e.items():
        print(f"{name:<22} {value:>14.4f} {E2E_UNITS[name]}")
    print(f"{'ops_failed_ratio':<22} {failed / attempted:>14.4f} ratio")
    for name, value in quality.items():
        print(f"{name:<22} {value:>14.4f} %")

    if not args.trace:
        report["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        return report

    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for op, tracer in enumerate(tracers):
            tracer.dump(fh, op)
    layer = {k: statistics.median(op[k] for op in traced) for k in traced[0]}
    layer["trace.untraced_run_s"] = e2e["run_s"]
    layer["trace.overhead_s"] = layer["trace.run_s"] - e2e["run_s"]
    layer["quality.macro_f1"] = quality["macro_f1"]
    layer["quality.mab_accuracy"] = quality["mab_accuracy"]
    print(f"traced operations {len(traced)}; spans written to {spans_path}")
    for name, value in layer.items():
        print(f"{name:<36} {value:>14.6f} {layer_unit(name)}")
    report["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    return report


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_program()
    if args.workload == "all":
        report = run_all(args)
    else:
        WORK.mkdir(exist_ok=True)
        report = run(args)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
