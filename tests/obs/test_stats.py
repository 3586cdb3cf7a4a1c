"""Metrics registry: instruments, snapshots, scoping, live wiring, and
bus-publishing profiled regions."""

import json
import math

import pytest

from repro.core import TrainingConfig
from repro.nn import Tensor
from repro.obs import (EventBus, Histogram, MemorySink, MetricsRegistry,
                       bus_scope, get_registry, profile_region,
                       registry_scope)


class TestInstruments:
    def test_counter_increments(self):
        counter = MetricsRegistry().counter("hits")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("hits")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("rss_mb")
        gauge.set(100.0)
        gauge.add(-25.0)
        assert gauge.value == 75.0

    def test_histogram_buckets_observations(self):
        hist = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]     # one in the +inf bucket
        assert hist.count == 4
        assert hist.mean == pytest.approx(5.555 / 4)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("bad", buckets=(1.0, 0.5))

    def test_histogram_quantiles(self):
        hist = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for _ in range(9):
            hist.observe(0.005)
        hist.observe(0.5)
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(1.0) == 1.0
        assert math.isnan(Histogram("empty").quantile(0.5))
        with pytest.raises(ValueError, match="outside"):
            hist.quantile(1.5)


class TestRegistry:
    def test_create_or_fetch_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("lat", buckets=(0.5, 1.0))

    def test_ratio(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.counter("misses").inc(1)
        assert registry.ratio("hits", "misses") == pytest.approx(0.75)
        assert math.isnan(registry.ratio("never", "touched"))

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(0.1,)).observe(0.05)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"] == {"n": 2}
        assert snap["histograms"]["h"]["count"] == 1

    def test_publish_emits_metrics_event(self):
        sink = MemorySink()
        registry = MetricsRegistry()
        registry.counter("n").inc()
        event = registry.publish("end-of-fit", bus=EventBus([sink]))
        assert sink.events == [event]
        assert event.kind == "metrics"
        assert event.label == "end-of-fit"
        assert event.counters == {"n": 1}

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestAmbientScope:
    def test_scope_swaps_and_restores(self):
        outer = get_registry()
        with registry_scope() as inner:
            assert get_registry() is inner
            assert inner is not outer
        assert get_registry() is outer

    def test_scope_accepts_explicit_registry(self):
        mine = MetricsRegistry()
        with registry_scope(mine) as got:
            assert got is mine
            assert get_registry() is mine


class TestLiveWiring:
    """The stack's built-in instruments fill in during real work."""

    def test_engine_fit_updates_batch_metrics(self, ci_dataset):
        from repro.models import create_model
        from repro.train import Engine

        config = TrainingConfig(epochs=2, batch_size=32,
                                max_batches_per_epoch=3, learning_rate=0.01)
        model = create_model("linear", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        with registry_scope() as registry:
            Engine(config).fit(model, ci_dataset, seed=0)
            assert registry.counter("train/batches").value == 6
            hist = registry.histogram("train/batch_seconds")
            assert hist.count == 6
            assert hist.mean > 0

    def test_grad_clip_rate(self, ci_dataset):
        from repro.models import create_model
        from repro.train import Engine

        config = TrainingConfig(epochs=1, batch_size=32,
                                max_batches_per_epoch=3, learning_rate=0.01,
                                grad_clip=1e-9)      # always rescales
        model = create_model("linear", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        with registry_scope() as registry:
            Engine(config).fit(model, ci_dataset, seed=0)
            assert registry.ratio("train/grad_clip_steps",
                                  "train/grad_clip_checks") > 0
            assert registry.counter("train/grad_clip_checks").value == 3
            assert registry.counter("train/grad_clip_steps").value == 3

    def test_cache_hit_ratio(self, tmp_path, monkeypatch):
        from repro.datasets import load_dataset

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with registry_scope() as registry:
            load_dataset("pemsd8", scale="ci")        # cold: miss
            load_dataset("pemsd8", scale="ci")        # warm: hit
            assert registry.counter("data/cache_misses").value == 1
            assert registry.counter("data/cache_hits").value == 1
            assert registry.ratio("data/cache_hits",
                                  "data/cache_misses") == pytest.approx(0.5)

    def test_loader_gather_metrics(self, ci_dataset):
        from repro.datasets import DataLoader

        with registry_scope() as registry:
            loader = DataLoader(ci_dataset.supervised.train, batch_size=32,
                                seed=0)
            batches = sum(1 for _ in loader)
            assert registry.counter("data/batches").value == batches
            assert registry.histogram("data/gather_seconds").count == batches


class TestProfileRegion:
    def test_emits_snapshot_with_op_census(self):
        sink = MemorySink()
        bus = EventBus([sink])
        with profile_region("fwd+bwd", bus=bus, top=3):
            a = Tensor([[1.0, 2.0]], requires_grad=True)
            (a @ Tensor([[1.0], [1.0]])).sum().backward()
        (snapshot,) = sink.of_kind("profile")
        assert snapshot.label == "fwd+bwd"
        assert snapshot.total_nodes > 0
        assert snapshot.total_elements > 0
        assert snapshot.top_ops
        assert len(snapshot.top_ops) <= 3
        for stats in snapshot.top_ops.values():
            assert stats["count"] >= 1
            assert stats["elements"] >= 1

    def test_defaults_to_ambient_bus(self):
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            with profile_region("region"):
                Tensor([1.0]) + Tensor([2.0])
        assert len(sink.of_kind("profile")) == 1

    def test_yields_live_report(self):
        with profile_region("r", bus=EventBus()) as report:
            Tensor([1.0]) + Tensor([2.0])
        assert report.total_nodes > 0
