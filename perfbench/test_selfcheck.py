"""Fast self-check of the benchmark: tiny runs of every workload.

Run from the root of a checkout (about a minute)::

    python3 -m pytest perfbench/test_selfcheck.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.report import declared_units, run_workload  # noqa: E402
from perfbench.workloads import WORKLOADS, tiny  # noqa: E402
from repro.obs.spans import SpanTree  # noqa: E402

COUNTS = ("nn.tape_nodes_per_step", "nn.matmul_nodes_per_step",
          "nn.tape_elements_per_step", "datasets.cache_hit_ratio")


def tiny_run(name, seed, trace, out: Path, capsys, monkeypatch) -> dict:
    monkeypatch.setenv("REPRO_CACHE_DIR", str(out / "cache"))
    code = run_workload(tiny(WORKLOADS[name]), seed, 0.0, trace, 0.0,
                        work_dir=out / "work", results_dir=out / "results")
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    return result


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_and_host(name, tmp_path, capsys, monkeypatch):
    result = tiny_run(name, 1, False, tmp_path, capsys, monkeypatch)
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == declared_units("end_to_end")
    record = json.loads(
        (tmp_path / "results" / f"{name}-seed1-trace0.json").read_text())
    assert {"nproc", "blas_threads", "numpy", "calib_ms"} <= set(
        record["host"])
    assert record["checks"]["cells_rerun"] > 0
    assert record["checks"]["rerun_mismatches"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_and_exact_counts(name, tmp_path, capsys,
                                            monkeypatch):
    first, second = (
        tiny_run(name, seed, True, tmp_path / str(seed), capsys, monkeypatch)
        for seed in (1, 2))
    for result in (first, second):
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        assert units == declared_units("per_layer")
    for key in COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
    spans = tmp_path / "1" / "results" / f"{name}-seed1-trace1.spans.jsonl"
    labels = {node.label for node, _ in SpanTree.from_trace(spans).walk()}
    assert {"data/load_miss", "data/load_hit", "models/build",
            "core/predict", "core/intervals"} <= labels


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(
                        "results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix-light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
