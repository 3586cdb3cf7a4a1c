"""One benchmark run: measure, check, print and save the result."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
from pathlib import Path

import numpy as np

from .harness import Run, calibrate, samples_beyond_p90
from .workloads import Workload

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_units(kind: str) -> dict[str, str]:
    """Metric name → unit for ``end_to_end`` or ``per_layer``, as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def host_info(calib_ms: float) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:                        # not on Linux
        nproc = os.cpu_count()
    return {"nproc": nproc,
            "blas_threads": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")},
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "calib_ms": calib_ms}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            import_seconds: float, work_dir: Path) -> tuple[Run, dict, dict]:
    """Run the workload; returns the run, its metrics and host record."""
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        calib = calibrate()
        run = Run(workload, seed, work_dir)
        run.measure(seconds, trace)
        calib += calibrate()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    calib_ms = statistics.median(calib)
    metrics = (run.per_layer(calib_ms) if trace
               else run.end_to_end(import_seconds))
    return run, metrics, host_info(calib_ms)


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, import_seconds: float, work_dir: Path,
                 results_dir: Path) -> int:
    name = workload.name
    run, metrics, host = measure(workload, seed, seconds, trace,
                                 import_seconds, work_dir)
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise ValueError(f"measured {sorted(metrics)} but BENCHMARK.json "
                         f"declares {sorted(units)}")
    steps = len(run.untraced.steps())
    checks = {
        "failed_frac": run.failed / max(run.attempted, 1),
        "cells_rerun": run.repeats,
        "rerun_mismatches": run.mismatches,
        "all_metrics_finite": all(math.isfinite(v) for v in metrics.values()),
    }
    correct = (run.failed == 0 and run.repeats > 0 and run.mismatches == 0
               and checks["all_metrics_finite"])
    samples = {"passes": run.passes, "distinct_cells": len(run.workload.cells),
               "distinct_steps": steps,
               "steps_beyond_p90": samples_beyond_p90(steps),
               "traced_steps": len(run.traced.steps()),
               "setups": len(run.untraced.setup)}

    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        run.rec.write_jsonl(results_dir / f"{stem}.spans.jsonl")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "checks": checks, "samples": samples,
              "host": host,
              "metrics": {k: {"value": v if math.isfinite(v) else None,
                              "unit": units[k]}
                          for k, v in metrics.items()}}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {name} seed {seed}: {samples}")
    print(f"host {host}")
    print(f"checks {checks}")
    for key, value in metrics.items():
        print(f"  {key:<28} {value:>14.6g} {units[key]}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": record["metrics"]}))
    return 0
