"""Quick-mode smoke tests for the optimizer benchmark suite.

Tier-1 guards against the fused-vs-reference benchmark rotting: the quick
preset must run end to end through :func:`repro.bench.run`, emit
well-formed ``bench_case`` telemetry tagged ``suite="optim"``, and
round-trip its JSON record with ``suite="optim"``.  Speedup *floors* are
asserted only by the full-size, opt-in ``benchmarks/bench_suites.py``
(tiny quick-mode shapes are timing noise).
"""

import json

import pytest

from repro.bench import (SUITES, render_timings, run, timings_to_record,
                         write_bench_json)
from repro.cli import main
from repro.obs import EventBus, MemorySink

SMOKE_CASES = ["adam_step", "rmsprop_step", "zero_grad"]


@pytest.fixture(scope="module")
def quick_timings():
    sink = MemorySink()
    timings = run("optim", mode="quick", bus=EventBus([sink]),
                  cases=SMOKE_CASES)
    return timings, sink


class TestBenchOptim:
    def test_runs_all_requested_cases(self, quick_timings):
        timings, _ = quick_timings
        assert [t.name for t in timings] == SMOKE_CASES
        for timing in timings:
            assert timing.reference_seconds > 0
            assert timing.fast_seconds > 0
            assert timing.speedup > 0
            assert timing.meta["parameters"] == 60

    def test_emits_optim_bench_events(self, quick_timings):
        timings, sink = quick_timings
        events = sink.of_kind("bench_case")
        assert [e.name for e in events] == [t.name for t in timings]
        for event, timing in zip(events, timings):
            assert event.suite == "optim"
            assert event.mode == "quick"
            assert event.reference_seconds == timing.reference_seconds
            assert event.fast_seconds == timing.fast_seconds
            assert event.speedup == pytest.approx(timing.speedup)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown bench mode"):
            run("optim", mode="huge")

    def test_unknown_case_raises(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            run("optim", mode="quick", cases=["lion_step"])

    def test_modes_cover_quick_and_full(self):
        assert {"quick", "full"} <= set(SUITES["optim"].modes)

    def test_full_suite_covers_every_optimizer(self):
        names = set(SUITES["optim"].cases)
        assert {"adam_step", "adamw_step", "sgd_step", "rmsprop_step",
                "adagrad_step", "clip_grad_norm", "zero_grad"} <= names


class TestBenchRecords:
    def test_record_tagged_as_optim_suite(self, quick_timings, tmp_path):
        timings, _ = quick_timings
        record = timings_to_record(timings, mode="quick", suite="optim")
        assert record["suite"] == "optim"
        assert record["mode"] == "quick"
        assert len(record["timings"]) == len(timings)
        path = tmp_path / "bench.json"
        write_bench_json(timings, path, mode="quick", suite="optim")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(record))

    def test_render_timings_table(self, quick_timings):
        timings, _ = quick_timings
        table = render_timings(timings)
        for timing in timings:
            assert timing.name in table
        assert "speedup" in table


class TestBenchCLI:
    def test_cli_quick_run_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "BENCH_optim.json"
        trace_path = tmp_path / "bench_trace.jsonl"
        exit_code = main(["bench", "optim", "--mode", "quick",
                          "--case", "adam_step",
                          "--json", str(json_path),
                          "--trace", str(trace_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "[bench] adam_step:" in out
        assert "Optimizer benchmark suite" in out
        record = json.loads(json_path.read_text())
        assert record["suite"] == "optim"
        assert record["mode"] == "quick"
        assert [t["name"] for t in record["timings"]] == ["adam_step"]
        trace_records = [json.loads(line) for line in
                         trace_path.read_text().splitlines()]
        assert [(r["event"], r["suite"]) for r in trace_records] == [
            ("bench_case", "optim")]
