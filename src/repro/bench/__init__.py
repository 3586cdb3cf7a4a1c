"""One benchmark harness for the engine suites behind ``repro bench``.

The paper's Table III is only honest if the shared framework every model
runs on is measured under one protocol.  Each suite here
(``repro.bench.<suite>``) times a fast path against the reference code
it replaced, in one process, and the recorded runs are the
``BENCH_<suite>.json`` baselines at the repo root.

:data:`SUITES` is the one registry: suite → CLI help, console banner,
workload presets per mode, and cases (name → ``case(sizes)`` returning
``(reference_seconds, fast_seconds, meta)``).  :func:`run` runs any
suite and emits one :class:`repro.obs.BenchCase` event per case; the
``repro bench <suite>`` subcommands, ``repro bench check`` and
``benchmarks/bench_suites.py`` are all generated from the registry.
See ``docs/performance.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Callable

import numpy as np

from ..artifacts import write_json
from ..obs.events import BenchCase, EventBus, get_bus
from ..reference import reference_mode

__all__ = ["Suite", "SUITES", "BenchTiming", "best_of", "interleaved_best",
           "paired", "run", "timings_to_record", "write_bench_json",
           "render_timings"]


@dataclass(frozen=True)
class Suite:
    """One registry entry; ``cases`` lives in ``repro.bench.<name>``."""

    name: str
    help: str
    banner: str                   # formatted with ``mode=``
    modes: dict[str, dict]

    @property
    def cases(self) -> dict[str, Callable]:
        """Case name → ``case(sizes) -> (reference_s, fast_s, meta)``."""
        return import_module(f"{__name__}.{self.name}").CASES


#: The suites, in canonical order.  ``quick`` presets keep each suite to
#: seconds (tier-1 smoke tests run them; their timings are noise);
#: ``full`` presets are the recorded configurations behind
#: ``BENCH_<suite>.json`` and the ones ``benchmarks/bench_suites.py``
#: holds to floors.
SUITES: dict[str, Suite] = {s.name: s for s in (
    Suite("kernels", "time the hot kernels against the reference paths",
          "Kernel benchmark suite (mode={mode}) — reference np.add.at "
          "engine vs fast kernels",
          {"quick": dict(repeats=3, batch=4, channels=8, nodes=10,
                         time_steps=12, gru_hidden=16, stgcn_nodes=8,
                         stgcn_batch=4),
           "full": dict(repeats=5, batch=16, channels=32, nodes=48,
                        time_steps=12, gru_hidden=64, stgcn_nodes=36,
                        stgcn_batch=16)}),
    # 500 small gate-sized parameters: the dispatch-bound regime the arena
    # targets.  With few huge matrices the loop path is already
    # bandwidth-bound and fusing cannot win, so that is not the preset.
    Suite("optim", "time fused arena optimizer updates against the "
                   "per-parameter reference loop",
          "Optimizer benchmark suite (mode={mode}) — per-parameter "
          "reference loop vs fused arena updates",
          {"quick": dict(repeats=3, params=60, dim=16),
           "full": dict(repeats=5, params=500, dim=8)}),
    Suite("data", "time the lazy window pipeline and the dataset cache "
                  "against eager builds and cold loads",
          "Data pipeline benchmark suite (mode={mode}) — eager windows / "
          "cold loads vs lazy gathers / cache hits",
          {"quick": dict(repeats=2, dataset="metr-la", scale="ci",
                         batch_size=32),
           "full": dict(repeats=3, dataset="metr-la", scale="bench",
                        batch_size=32)}),
    Suite("obs", "time the observability layer itself (span overhead)",
          "Observability benchmark suite (mode={mode}) — untraced vs "
          "traced-but-unobserved instrumentation",
          {"quick": dict(repeats=2, epochs=1, max_batches=4, batch_size=8,
                         spans=2_000),
           "full": dict(repeats=5, epochs=1, max_batches=16, batch_size=16,
                        spans=20_000)}),
)}


@dataclass
class BenchTiming:
    """Reference vs. fast wall time for one benchmark case."""

    name: str
    reference_seconds: float
    fast_seconds: float
    meta: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Reference time over fast time (>1 means the fast path wins)."""
        if self.fast_seconds <= 0:
            return float("inf")
        return self.reference_seconds / self.fast_seconds


def best_of(step: Callable[[], object], repeats: int,
            warmup: bool = True) -> float:
    """Minimum wall time of ``step`` over ``repeats`` runs."""
    if warmup:
        step()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - start)
    return best


def interleaved_best(reference_step: Callable[[], object],
                     fast_step: Callable[[], object],
                     repeats: int) -> tuple[float, float]:
    """Best-of timings for two steps, alternating per round.

    Measuring all reference rounds and then all fast rounds bakes slow
    system drift (cache warmth, thermal state) into the ratio; for
    percent-level comparisons like the tracing-overhead budget the two
    sides must sample the same conditions, so alternate them.
    """
    reference_step()
    fast_step()
    reference_best = fast_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reference_step()
        reference_best = min(reference_best, time.perf_counter() - start)
        start = time.perf_counter()
        fast_step()
        fast_best = min(fast_best, time.perf_counter() - start)
    return reference_best, fast_best


def paired(make_step: Callable, area: str, seed: int) -> Callable:
    """Case from ``make_step(sizes, rng) -> (step, meta)``.

    The one ``step`` is timed inside ``reference_mode(area)`` and then
    on the fast path, over identical inputs.
    """
    def case(sizes: dict):
        step, meta = make_step(sizes, np.random.default_rng(seed))
        with reference_mode(area):
            reference = best_of(step, sizes["repeats"])
        return reference, best_of(step, sizes["repeats"]), meta

    return case


def run(suite: str, mode: str = "quick", bus: EventBus | None = None,
        cases: list[str] | None = None) -> list[BenchTiming]:
    """Run one suite; returns per-case reference/fast timings.

    ``mode`` selects the workload preset; ``cases`` restricts the run to
    a subset of case names (run in registry order).  Every case emits a
    :class:`repro.obs.BenchCase` event on ``bus`` (the ambient bus when
    None).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown bench suite {suite!r}; "
                         f"expected one of {tuple(SUITES)}")
    entry = SUITES[suite]
    if mode not in entry.modes:
        raise ValueError(f"unknown bench mode {mode!r}; "
                         f"expected one of {sorted(entry.modes)}")
    registered = entry.cases
    if cases is not None and set(cases) - set(registered):
        raise ValueError(f"unknown bench case(s) "
                         f"{sorted(set(cases) - set(registered))}")
    bus = bus if bus is not None else get_bus()
    results = []
    for name, case in registered.items():
        if cases is not None and name not in cases:
            continue
        reference, fast, meta = case(dict(entry.modes[mode]))
        timing = BenchTiming(name, reference, fast, meta)
        bus.emit(BenchCase(suite=suite, name=name, mode=mode,
                           reference_seconds=reference, fast_seconds=fast,
                           speedup=timing.speedup, meta=meta))
        results.append(timing)
    return results


def timings_to_record(timings: list[BenchTiming], mode: str,
                      suite: str) -> dict:
    """JSON-safe record of one suite run (the ``BENCH_<suite>.json`` body)."""
    return {
        "suite": suite,
        "mode": mode,
        "numpy": np.__version__,
        "timings": [
            {"name": t.name,
             "reference_seconds": round(t.reference_seconds, 6),
             "fast_seconds": round(t.fast_seconds, 6),
             "speedup": round(t.speedup, 2),
             "meta": t.meta}
            for t in timings
        ],
    }


def write_bench_json(timings: list[BenchTiming], path: str | Path,
                     mode: str, suite: str) -> None:
    """Write :func:`timings_to_record` to ``path`` (pretty-printed)."""
    write_json(path, timings_to_record(timings, mode, suite), indent=2,
               sort_keys=True)


def render_timings(timings: list[BenchTiming]) -> str:
    """Fixed-width table of the suite results for terminal output."""
    header = (f"{'case':<26} {'reference':>12} {'fast':>12} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for t in timings:
        lines.append(f"{t.name:<26} {t.reference_seconds * 1e3:>10.2f}ms "
                     f"{t.fast_seconds * 1e3:>10.2f}ms {t.speedup:>7.2f}x")
    return "\n".join(lines)
