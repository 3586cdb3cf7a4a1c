"""Quick-mode smoke tests for the kernel benchmark suite.

Tier-1 guards against the benchmark rotting: the quick preset must run end
to end through :func:`repro.bench.run`, emit well-formed ``bench_case``
telemetry tagged ``suite="kernels"``, and round-trip its JSON record.
Speedup *thresholds* are asserted only by the full-size, opt-in
``benchmarks/bench_suites.py`` (tiny quick-mode shapes are timing noise).
"""

import json

import pytest

from repro.bench import (SUITES, render_timings, run, timings_to_record,
                         write_bench_json)
from repro.cli import main
from repro.obs import EventBus, MemorySink

SMOKE_CASES = ["conv2d_backward", "col2im", "split_backward"]


@pytest.fixture(scope="module")
def quick_timings():
    sink = MemorySink()
    timings = run("kernels", mode="quick", bus=EventBus([sink]),
                  cases=SMOKE_CASES)
    return timings, sink


class TestBenchKernels:
    def test_runs_all_requested_cases(self, quick_timings):
        timings, _ = quick_timings
        assert [t.name for t in timings] == SMOKE_CASES
        for timing in timings:
            assert timing.reference_seconds > 0
            assert timing.fast_seconds > 0
            assert timing.speedup > 0
            assert timing.meta

    def test_emits_kernel_bench_events(self, quick_timings):
        timings, sink = quick_timings
        events = sink.of_kind("bench_case")
        assert [e.name for e in events] == [t.name for t in timings]
        for event, timing in zip(events, timings):
            assert event.suite == "kernels"
            assert event.mode == "quick"
            assert event.reference_seconds == timing.reference_seconds
            assert event.speedup == pytest.approx(timing.speedup)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown bench mode"):
            run("kernels", mode="warp")

    def test_unknown_case_raises(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            run("kernels", mode="quick", cases=["conv9d"])

    def test_modes_cover_quick_and_full(self):
        assert {"quick", "full"} <= set(SUITES["kernels"].modes)


class TestBenchRecords:
    def test_record_structure_and_json_roundtrip(self, quick_timings,
                                                 tmp_path):
        timings, _ = quick_timings
        record = timings_to_record(timings, mode="quick", suite="kernels")
        assert record["suite"] == "kernels"
        assert record["mode"] == "quick"
        assert len(record["timings"]) == len(timings)
        path = tmp_path / "bench.json"
        write_bench_json(timings, path, mode="quick", suite="kernels")
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
        json_path = tmp_path / "BENCH_kernels.json"
        trace_path = tmp_path / "bench_trace.jsonl"
        exit_code = main(["bench", "kernels", "--mode", "quick",
                          "--case", "col2im",
                          "--json", str(json_path),
                          "--trace", str(trace_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "[bench] col2im:" in out
        assert "col2im" in out
        record = json.loads(json_path.read_text())
        assert record["mode"] == "quick"
        assert [t["name"] for t in record["timings"]] == ["col2im"]
        trace_records = [json.loads(line) for line in
                         trace_path.read_text().splitlines()]
        assert [(r["event"], r["suite"]) for r in trace_records] == [
            ("bench_case", "kernels")]
