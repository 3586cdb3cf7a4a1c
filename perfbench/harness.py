"""Runs one workload through the public entry points and measures it.

``load_dataset`` → ``create_model`` → ``Engine.fit`` → ``evaluate_model``
for every cell, whole passes at a time (see :mod:`perfbench.workloads`),
until the run's time is spent.  An untraced run yields the end-to-end
metrics; a traced run alternates untraced and traced passes, takes the
per-layer metrics from the traced ones and compares the two step times.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import create_model, evaluate_model, load_dataset
from repro.core import (EvaluationResult, TrainingConfig, difficult_mask,
                        evaluate_horizons, predict, prediction_mask)
from repro.nn import Tensor
from repro.nn.profiler import profile
from repro.obs import EventBus, MemorySink
from repro.obs.spans import SpanTree
from repro.obs.manifest import peak_rss_kb
from repro.train import Engine
from repro.train.callbacks import default_callbacks

from .tracing import (NULL_RECORDER, OutputCheck, Recorder, StepClock,
                      TracedClock, now, wrap_gather, wrap_optimizer_factory,
                      wrap_training_loss)
from .workloads import WORLD_STRIDE, Cell, Workload

HORIZONS = (15, 30, 60)
CENSUS_SEED = 0          # tape counts depend on the model's own RNG draws
MIN_PASSES = 3           # every cell re-run; every step has 3+ repeats
MAX_SECONDS = 120.0      # stop adding passes here, whatever else is unmet

@dataclass
class CellTimes:
    """What one run of one cell measured."""

    steps: list[float]
    val_forwards: list[float]      # inference batches of the validations
    test_forwards: list[float]     # inference batches of the test predict
    epoch_seconds: float           # Σ history.epoch_seconds
    infer_seconds: float           # the test predict
    seconds: float                 # warm reload + build + fit + evaluate
    train_samples: int
    test_samples: int


def fastest_repeat(repeats: list[CellTimes]) -> CellTimes:
    """One cell's times with each step and inference batch taken at its
    fastest repeat, and each total rebuilt as those parts plus the fastest
    repeat of what the parts leave over.

    Every pass repeats the same cells with the same seeds, so each step
    and batch does identical work on every repeat.  Other tenants of a
    shared machine only ever add time, and the fastest repeat of each
    short interval is the one they disturbed least.
    """
    def fastest(name: str) -> list[float]:
        return [min(v) for v in zip(*(getattr(r, name) for r in repeats))]

    def rest(total: str, *parts: str) -> float:
        return min(getattr(r, total) - sum(sum(getattr(r, p)) for p in parts)
                   for r in repeats)

    steps = fastest("steps")
    val, test = fastest("val_forwards"), fastest("test_forwards")
    return CellTimes(
        steps=steps, val_forwards=val, test_forwards=test,
        epoch_seconds=sum(steps) + rest("epoch_seconds", "steps"),
        infer_seconds=sum(test) + rest("infer_seconds", "test_forwards"),
        seconds=sum(steps) + sum(val) + sum(test) + rest(
            "seconds", "steps", "val_forwards", "test_forwards"),
        train_samples=repeats[0].train_samples,
        test_samples=repeats[0].test_samples)


@dataclass
class Tally:
    """What one kind of pass (untraced or traced) measured."""

    setup: list[float] = field(default_factory=list)
    cells: dict[int, list[CellTimes]] = field(default_factory=dict)

    def best(self) -> list[CellTimes]:
        return [fastest_repeat(repeats) for repeats in self.cells.values()]

    def steps(self) -> list[float]:
        return [step for cell in self.best() for step in cell.steps]


class Run:
    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.cell_mae: dict[int, float] = {}     # first result per cell
        self.repeats = 0                          # cells run again
        self.mismatches = 0                       # repeats that differ
        self.untraced = Tally()
        self.traced = Tally()
        self.rec = Recorder()
        self.load_events = MemorySink()
        self.load_bus = EventBus([self.load_events])
        self.resident: list[int] = []
        self.census: dict[tuple[str, str, int], tuple[int, int, int]] = {}
        self.census_weighted = np.zeros(3)
        self.census_steps = 0
        self.passes = 0

    # ------------------------------------------------------------------ #
    def measure(self, seconds: float, trace: bool) -> None:
        """Run whole passes, at least ``MIN_PASSES``, until ``seconds`` have
        passed and there are enough step samples.  A traced run alternates
        untraced and traced passes and ends after a traced one."""
        start = now()
        while True:
            traced = trace and self.passes % 2 == 1
            self.run_pass(self.rec if traced else NULL_RECORDER,
                          self.traced if traced else self.untraced)
            elapsed = now() - start
            if self.passes < MIN_PASSES:
                continue
            if elapsed >= MAX_SECONDS:
                break
            if trace:
                if traced and elapsed >= seconds:
                    break
            elif (elapsed >= seconds and len(self.untraced.steps())
                  >= self.workload.min_steps):
                break

    def run_pass(self, rec, tally: Tally) -> None:
        cache = self.work_dir / f"cache-{self.passes}"
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        self.passes += 1
        with rec.span("bench/pass", number=self.passes):
            start = now()
            data = {key: self.load(key, rec) for key in self.workload.worlds}
            first = self.workload.cells[0]
            self.build(first, data[first.data_key], self.seed + first.seed,
                       rec)
            tally.setup.append(now() - start)
            for index, cell in enumerate(self.workload.cells):
                start = now()
                if cell.reload:
                    data[cell.data_key] = self.load(cell.data_key, rec)
                self.run_cell(index, cell, data[cell.data_key], rec, tally,
                              start)
        shutil.rmtree(cache, ignore_errors=True)

    def load(self, key: tuple[str, int], rec):
        name, world = key
        seed_offset = self.seed * WORLD_STRIDE + world
        if not isinstance(rec, Recorder):
            return load_dataset(name, scale=self.workload.scale,
                                seed_offset=seed_offset)
        hits = len(self.load_events.of_kind("cache_hit"))
        rec.open("data/load", dataset=name, world=world)
        data = load_dataset(name, scale=self.workload.scale,
                            seed_offset=seed_offset, bus=self.load_bus)
        hit = len(self.load_events.of_kind("cache_hit")) > hits
        rec.close(label="data/load_hit" if hit else "data/load_miss")
        for split_name, split in zip(("train", "val", "test"),
                                     data.supervised.splits):
            wrap_gather(split, rec, split_name)
        self.resident.append(data.supervised.resident_nbytes)
        return data

    def build(self, cell: Cell, data, seed: int, rec=NULL_RECORDER):
        with rec.span("models/build", model=cell.model):
            return create_model(
                cell.model, data.num_nodes, data.adjacency,
                history=data.supervised.config.history,
                horizon=data.supervised.config.horizon,
                in_features=data.supervised.train.num_features, seed=seed)

    # ------------------------------------------------------------------ #
    def run_cell(self, index: int, cell: Cell, data, rec, tally: Tally,
                 start: float) -> None:
        traced = isinstance(rec, Recorder)
        seed = self.seed + cell.seed
        config = TrainingConfig(epochs=cell.epochs,
                                batch_size=cell.batch_size,
                                max_batches_per_epoch=cell.max_batches)
        clock = TracedClock(rec) if traced else StepClock()
        engine = Engine(config, callbacks=[clock, *default_callbacks(config)])
        depth = rec.depth
        self.attempted += 1
        try:
            with rec.span("bench/cell", model=cell.model,
                          dataset=cell.dataset, seed=seed):
                model = self.build(cell, data, seed, rec)
                check = OutputCheck(model, rec)
                if traced:
                    self.take_census(cell, data, rec)
                    wrap_training_loss(model, rec)
                    engine.optimizer_factory = wrap_optimizer_factory(
                        engine.optimizer_factory, rec)
                with rec.span("train/fit"):
                    history = engine.fit(model, data, seed=seed)
                val_forwards = check.take_seconds()
                if traced:
                    evaluation = self.traced_evaluate(
                        model, data, config.eval_batch_size, rec)
                else:
                    evaluation = evaluate_model(
                        model, data, eval_batch_size=config.eval_batch_size)
            seconds = now() - start
        except Exception:                       # a raised cell is a failure
            rec.unwind(depth)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.attempted += len(clock.steps)
            return

        self.attempted += len(clock.steps)
        self.failed += clock.bad_losses
        n_train = data.supervised.train.num_samples
        tally.cells.setdefault(index, []).append(CellTimes(
            steps=clock.steps, val_forwards=val_forwards,
            test_forwards=check.seconds,
            epoch_seconds=sum(history.epoch_seconds),
            infer_seconds=evaluation.inference_seconds, seconds=seconds,
            train_samples=sum(min(b * config.batch_size, n_train)
                              for b in clock.epoch_batches),
            test_samples=data.supervised.test.num_samples))
        if traced and clock.steps:
            self.census_weighted += (np.array(
                self.census[cell.model, cell.dataset, cell.batch_size])
                * len(clock.steps))
            self.census_steps += len(clock.steps)

        test = data.supervised.test
        shapes_ok = (
            all(shape[1:] == (model.horizon, data.num_nodes)
                for shape, _ in check.outputs)
            and sum(shape[0] for shape, _ in check.outputs)
            == test.num_samples)
        finite_ok = all(finite for _, finite in check.outputs)
        mae = mean_test_mae(evaluation)
        if not (shapes_ok and finite_ok and math.isfinite(mae)):
            self.failed += 1
            print(f"cell {cell} failed its output check: shapes_ok="
                  f"{shapes_ok} finite_ok={finite_ok} test_mae={mae}",
                  file=sys.stderr)
        elif index not in self.cell_mae:
            self.cell_mae[index] = mae
        else:
            self.repeats += 1
            self.mismatches += self.cell_mae[index] != mae

    def traced_evaluate(self, model, data, batch_size: int,
                        rec: Recorder) -> EvaluationResult:
        """``evaluate_model``'s steps, each called and timed on its own."""
        split = data.supervised.test
        with rec.span("core/predict"):
            prediction, seconds = predict(model, split,
                                          data.supervised.scaler, batch_size)
        with rec.span("core/metrics"):
            full = evaluate_horizons(prediction, split.y)
        with rec.span("core/intervals"):
            hard = difficult_mask(data.supervised.series, window=6,
                                  quantile=0.75)
            aligned = prediction_mask(hard, split.start_index,
                                      data.supervised.config.horizon)
        with rec.span("core/metrics"):
            difficult = evaluate_horizons(prediction, split.y, mask=aligned)
        return EvaluationResult(full=full, difficult=difficult,
                                inference_seconds=seconds,
                                num_parameters=model.num_parameters())

    def take_census(self, cell: Cell, data, rec: Recorder) -> None:
        """Tape nodes, matmul nodes and output elements of one forward and
        backward, counted by ``repro.nn.profiler.profile`` on a separate
        model built with a fixed seed, so the counts are exact."""
        key = (cell.model, cell.dataset, cell.batch_size)
        if key in self.census:
            return
        with rec.span("nn/census", model=cell.model):
            probe = self.build(cell, data, CENSUS_SEED)
            split = data.supervised.train
            x, y, _ = type(split).batch(
                split, np.arange(min(cell.batch_size, split.num_samples)),
                target_scaler=data.supervised.scaler)
            with profile() as report:
                loss = probe.training_loss(Tensor(x), Tensor(y))
                if loss.requires_grad:
                    loss.backward(free_graph=True)
        matmul = report.ops.get("matmul")
        self.census[key] = (report.total_nodes,
                            matmul.count if matmul else 0,
                            report.total_elements)

    # ------------------------------------------------------------------ #
    def end_to_end(self, import_seconds: float) -> dict[str, float]:
        best = self.untraced.best()
        steps = self.untraced.steps()
        return {
            "setup_s": import_seconds + statistics.median(self.untraced.setup),
            "train_samples_per_s": ratio(sum(c.train_samples for c in best),
                                         sum(c.epoch_seconds for c in best)),
            "step_ms_p50": 1e3 * median(steps),
            "step_ms_p90": 1e3 * p90(steps),
            "infer_samples_per_s": ratio(sum(c.test_samples for c in best),
                                         sum(c.infer_seconds for c in best)),
            "cells_per_min": ratio(60.0 * len(best),
                                   sum(c.seconds for c in best)),
            "peak_rss_mb": (peak_rss_kb() or 0) / 1024.0,
            "test_mae": (statistics.fmean(self.cell_mae.values())
                         if self.cell_mae else math.nan),
        }

    def per_layer(self, calib_ms: float) -> dict[str, float]:
        rec = self.rec
        ms = 1e3
        hits = len(self.load_events.of_kind("cache_hit"))
        misses = len(self.load_events.of_kind("cache_miss"))
        batches = [node for node in SpanTree(rec.events()).nodes.values()
                   if node.label == "train/batch"]
        census = self.census_weighted / max(self.census_steps, 1)
        return {
            "datasets.load_miss_s": median(rec.durations("data/load_miss")),
            "datasets.load_hit_s": median(rec.durations("data/load_hit")),
            "datasets.cache_hit_ratio": ratio(hits, hits + misses),
            "datasets.gather_ms_p50":
                ms * median(rec.durations("data/gather", split="train")),
            "datasets.resident_mb": max(self.resident, default=0) / 2**20,
            "models.build_s": median(rec.durations("models/build")),
            "models.forward_ms_p50": ms * median(
                rec.durations("models/forward")),
            "models.infer_batch_ms_p50": ms * median(
                rec.durations("models/infer_batch")),
            "nn.backward_ms_p50": ms * median(rec.durations("nn/backward")),
            "nn.optim_ms_p50": ms * median(rec.durations("nn/optim")),
            "nn.tape_nodes_per_step": float(census[0]),
            "nn.matmul_nodes_per_step": float(census[1]),
            "nn.tape_elements_per_step": float(census[2]),
            "train.engine_self_ms_p50": ms * median(
                [node.self_seconds for node in batches]),
            "train.validate_s": median(rec.durations("train/validate")),
            "core.predict_s": median(rec.durations("core/predict")),
            "core.metrics_s": median(rec.durations("core/metrics")),
            "core.intervals_s": median(rec.durations("core/intervals")),
            "host.calib_ms": calib_ms,
            "trace.overhead_pct": 100.0 * (median(self.traced.steps())
                                           / median(self.untraced.steps()) - 1),
        }


# --------------------------------------------------------------------- #
def mean_test_mae(evaluation: EvaluationResult) -> float:
    """Mean test MAE over the 15/30/60-minute horizons."""
    return statistics.fmean(evaluation.full[m].mae for m in HORIZONS)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else math.nan


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def samples_beyond_p90(n: int) -> int:
    return n - math.ceil(0.9 * n) if n else 0


def calibrate(reps: int = 15) -> list[float]:
    """Times (ms) of a fixed numpy loop: BLAS work plus per-call overhead.
    It exercises no program code, so it separates machine noise from a
    change in the program."""
    rng = np.random.default_rng(0)
    big = rng.standard_normal((128, 128)) / 16
    small = rng.standard_normal((16, 16)) / 4
    times = []
    for _ in range(reps):
        start = now()
        b, s = big, small
        for _ in range(20):
            b = np.tanh(b @ big)
        for _ in range(400):
            s = np.tanh(s @ small)
        times.append(1e3 * (now() - start))
    return times
