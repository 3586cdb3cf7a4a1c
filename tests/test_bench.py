"""Quick-mode smoke test for every suite in the ``repro.bench`` registry.

Tier-1 guards against the benchmarks rotting: each suite's quick preset
must run end to end through ``repro bench <suite>``, print the banner and
table, write its JSON record and emit well-formed ``bench_case``
telemetry that matches the record and the printed table, and the registry
must list exactly the cases of the committed ``BENCH_<suite>.json``
baseline.  Speedup *thresholds* are asserted only by the full-size, opt-in
``benchmarks/bench_suites.py`` (tiny quick-mode shapes are timing noise).
"""

import json
from pathlib import Path

import pytest

from repro.bench import (SUITES, BenchTiming, paired, render_timings, run,
                         timings_to_record)
from repro.cli import main
from repro.obs import EventBus, MemorySink, read_trace
from repro.obs.gate import load_bench_record
from repro.reference import reference_active

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Cheap cases per suite, in registry order (requested reversed, so the
#: runner's registry ordering is checked too).
SMOKE_CASES = {
    "kernels": ["conv2d_backward", "col2im", "split_backward"],
    "optim": ["adam_step", "rmsprop_step", "zero_grad"],
    "data": ["dataset_load", "window_build", "train_epoch",
             "resident_memory"],
    "obs": ["traced_train_step", "span_noop_vs_recorded"],
}


@pytest.mark.parametrize("suite", list(SUITES))
def test_quick_smoke(suite, tmp_path, capsys):
    entry, cases = SUITES[suite], SMOKE_CASES[suite]
    assert {"quick", "full"} <= set(entry.modes)
    baseline = load_bench_record(REPO_ROOT / f"BENCH_{suite}.json")
    assert baseline["suite"] == suite
    assert list(entry.cases) == [t["name"] for t in baseline["timings"]]

    json_path = tmp_path / f"BENCH_{suite}.json"
    trace_path = tmp_path / "bench_trace.jsonl"
    assert main(["bench", suite, "--mode", "quick",
                 "--case", *reversed(cases),
                 "--json", str(json_path), "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(entry.banner.format(mode="quick") + "\n")
    assert "speedup" in out
    for case in entry.cases:
        assert (f"[bench] {case}:" in out) == (case in cases)
    for case in cases:
        assert f"\n{case:<26} " in out              # its table row

    record = json.loads(json_path.read_text())
    assert set(record) == {"suite", "mode", "numpy", "timings"}
    assert (record["suite"], record["mode"]) == (suite, "quick")
    assert [t["name"] for t in record["timings"]] == cases
    events = read_trace(trace_path)
    assert [(e.kind, e.suite, e.mode) for e in events] == [
        ("bench_case", suite, "quick")] * len(cases)
    # The trace keeps full precision: the JSON record and the printed
    # table are exactly what those timings render to.
    timings = [BenchTiming(e.name, e.reference_seconds, e.fast_seconds,
                           e.meta) for e in events]
    assert [e.speedup for e in events] == [t.speedup for t in timings]
    assert record == json.loads(json.dumps(
        timings_to_record(timings, mode="quick", suite=suite)))
    assert render_timings(timings) in out
    for timing in timings:
        assert timing.reference_seconds > 0
        assert timing.fast_seconds > 0
        assert timing.speedup > 0
        assert timing.meta
    meta = {t.name: t.meta for t in timings}
    if suite == "optim":
        assert {m["parameters"] for m in meta.values()} == {60}
    if suite == "obs":
        assert "overhead_pct" in meta["traced_train_step"]


@pytest.mark.parametrize("suite", list(SUITES))
def test_rejects_unknown_mode_and_case(suite, capsys):
    with pytest.raises(ValueError, match="unknown bench mode"):
        run(suite, "warp")
    with pytest.raises(ValueError, match="unknown bench case"):
        run(suite, "quick", cases=["conv9d"])
    assert main(["bench", suite, "--mode", "quick", "--case", "nope"]) == 2
    assert "unknown bench case" in capsys.readouterr().err


def test_optim_suite_covers_every_optimizer():
    assert {"adam_step", "adamw_step", "sgd_step", "rmsprop_step",
            "adagrad_step", "clip_grad_norm", "zero_grad"} <= set(
        SUITES["optim"].cases)


def test_span_case_meta_reports_per_span_cost():
    """In process, too: the emitted event carries the exact timing."""
    sink = MemorySink()
    (timing,) = run("obs", "quick", bus=EventBus([sink]),
                    cases=["span_noop_vs_recorded"])
    (event,) = sink.of_kind("bench_case")
    assert (event.suite, event.mode, event.name) == ("obs", "quick",
                                                     timing.name)
    assert event.reference_seconds == timing.reference_seconds
    assert event.fast_seconds == timing.fast_seconds
    assert event.speedup == timing.speedup
    assert event.meta == timing.meta
    assert timing.meta["spans"] == SUITES["obs"].modes["quick"]["spans"]
    assert timing.meta["noop_ns_per_span"] > 0
    assert timing.meta["recorded_ns_per_span"] > 0


def test_paired_times_reference_then_fast():
    seen = []

    def make_step(sizes, rng):
        return (lambda: seen.append(reference_active("optim")),
                {"n": sizes["n"]})

    reference, fast, meta = paired(make_step, "optim", seed=0)(
        {"repeats": 2, "n": 5})
    assert reference >= 0 and fast >= 0
    assert meta == {"n": 5}
    assert seen == [True] * 3 + [False] * 3
    assert not reference_active("optim")


def test_speedup_property():
    assert BenchTiming("x", 2.0, 0.5).speedup == 4.0
    assert BenchTiming("x", 1.0, 0.0).speedup == float("inf")
