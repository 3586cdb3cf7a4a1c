"""The observability bench suite itself (cheap cases only in tier 1)."""

import pytest

from repro.bench import run
from repro.obs import EventBus, MemorySink


class TestBenchObs:
    def test_emits_obs_bench_events(self):
        sink = MemorySink()
        timings = run("obs", mode="quick", bus=EventBus([sink]),
                      cases=["span_noop_vs_recorded"])
        assert [t.name for t in timings] == ["span_noop_vs_recorded"]
        events = sink.of_kind("bench_case")
        assert [e.name for e in events] == [t.name for t in timings]
        for event, timing in zip(events, timings):
            assert event.suite == "obs"
            assert event.mode == "quick"
            assert event.speedup == timing.speedup
            assert event.meta == timing.meta

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown bench mode"):
            run("obs", mode="nope")

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            run("obs", mode="quick", cases=["nope"])
