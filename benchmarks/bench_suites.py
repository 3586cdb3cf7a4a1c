"""Engine speedups: every ``repro.bench`` suite against its acceptance floors.

One test per suite in :data:`repro.bench.SUITES` — kernels (fast engine
vs. the reference ``np.add.at`` paths), optim (fused arena updates vs. the
per-parameter loop), data (cache hits and lazy windows vs. cold builds and
the eager pipeline) and obs (traced-but-unobserved vs. untraced).  Each
runs the suite in one process, prints the table, and in ``full`` mode
asserts the floors below.  ``REPRO_BENCH_MODE=quick`` runs tiny workloads
for a sanity pass without the floors (small-shape timings are noise).

The recorded runs behind the ``BENCH_<suite>.json`` files at the repo
root come from the same suites via ``python -m repro bench <suite> --mode
full --json BENCH_<suite>.json``; ``REPRO_BENCH_CHECK=1`` (or ``repro
bench check``) gates fresh timings against them.
"""

import os
from pathlib import Path

import pytest

from repro.bench import SUITES, render_timings, run, timings_to_record
from repro.obs.gate import (OVERHEAD_BUDGET_PCT, check_records,
                            load_bench_record)

MODE = os.environ.get("REPRO_BENCH_MODE", "full")
CHECK = os.environ.get("REPRO_BENCH_CHECK", "").lower() in (
    "1", "true", "yes", "on")
ROOT = Path(__file__).resolve().parent.parent

#: Acceptance floors (full mode only): suite -> case -> minimum speedup.
SPEEDUP_FLOORS = {
    "kernels": {"conv2d_backward": 2.0, "stgcn_train_step": 1.5},
    "optim": {name: 2.0 for name in (
        "adam_step", "adamw_step", "sgd_step", "rmsprop_step",
        "adagrad_step", "clip_grad_norm", "zero_grad")},
    "data": {
        "dataset_load": 5.0,      # cache hit vs cold simulate+persist
        "window_build": 5.0,      # lazy views vs eager stacking
    },
}

#: Lazy batch gathers may cost more per epoch than eager fancy-indexing;
#: they must stay within this factor (the trade buys ~24x memory).
EPOCH_SLOWDOWN_CEILING = 2.0

#: Peak-memory ratios (full mode only): eager must need at least this
#: multiple of the lazy pipeline's bytes, measured and at paper scale.
MEMORY_RATIO_FLOOR = 4.0

#: Ceiling (full mode only) on recorded-span cost: even with a live
#: MemorySink every span must stay under this many microseconds.
RECORDED_SPAN_CEILING_US = 50.0


def _check_data(by_name, full):
    memory = by_name["resident_memory"].meta
    assert memory["eager_peak_bytes"] > memory["lazy_peak_bytes"]
    if full:
        epoch = by_name["train_epoch"]
        assert epoch.speedup >= 1.0 / EPOCH_SLOWDOWN_CEILING, (
            f"train_epoch: lazy gathers {1 / epoch.speedup:.2f}x slower "
            f"than eager (> {EPOCH_SLOWDOWN_CEILING}x ceiling)")
        assert memory["memory_ratio"] >= MEMORY_RATIO_FLOOR, (
            f"measured peak-memory ratio {memory['memory_ratio']:.2f}x "
            f"< {MEMORY_RATIO_FLOOR}x floor")
        assert memory["paper_memory_ratio"] >= MEMORY_RATIO_FLOOR, (
            f"paper-scale memory ratio {memory['paper_memory_ratio']:.2f}x "
            f"< {MEMORY_RATIO_FLOOR}x floor")


def _check_obs(by_name, full):
    spans = by_name["span_noop_vs_recorded"].meta
    assert spans["noop_ns_per_span"] < spans["recorded_ns_per_span"]
    if full:
        overhead = by_name["traced_train_step"].meta["overhead_pct"]
        assert overhead <= OVERHEAD_BUDGET_PCT, (
            f"tracing an unobserved fit costs {overhead:.2f}% "
            f"(> {OVERHEAD_BUDGET_PCT}% budget)")
        assert spans["recorded_ns_per_span"] <= RECORDED_SPAN_CEILING_US * 1e3, (
            f"recorded span costs {spans['recorded_ns_per_span']:.0f}ns "
            f"(> {RECORDED_SPAN_CEILING_US}us ceiling)")


#: Suite-specific checks beyond the speedup floors.
EXTRA_CHECKS = {"data": _check_data, "obs": _check_obs}


def _check_baseline(suite, timings):
    """Gate fresh timings against the committed ``BENCH_<suite>.json``
    (mode mismatches are reported as skipped, never failed)."""
    baseline_path = ROOT / f"BENCH_{suite}.json"
    if not baseline_path.exists():
        return
    report = check_records(timings_to_record(timings, MODE, suite),
                           load_bench_record(baseline_path))
    print()
    print(report.render())
    assert report.passed, (
        f"bench check failed against {baseline_path.name}: "
        + "; ".join(f.detail or f.status for f in report.failures))


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_speedups(suite, benchmark):
    timings = benchmark.pedantic(lambda: run(suite, MODE),
                                 rounds=1, iterations=1)
    print()
    print(render_timings(timings))

    by_name = {t.name: t for t in timings}
    for timing in timings:
        assert timing.reference_seconds > 0 and timing.fast_seconds > 0
    full = MODE == "full"
    if full:
        for name, floor in SPEEDUP_FLOORS.get(suite, {}).items():
            assert by_name[name].speedup >= floor, (
                f"{name}: {by_name[name].speedup:.2f}x < {floor}x floor")
    if suite in EXTRA_CHECKS:
        EXTRA_CHECKS[suite](by_name, full)
    if CHECK:
        _check_baseline(suite, timings)
