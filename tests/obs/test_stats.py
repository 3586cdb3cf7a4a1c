"""Aggregates answered from the trace (batch/gather spans, cache and
grad-clip events) during real work, and bus-publishing profiled regions."""

import pytest

from repro.core import TrainingConfig
from repro.nn import Tensor
from repro.obs import EventBus, MemorySink, SpanTree, bus_scope, profile_region


class TestLiveWiring:
    """The stack's spans and events carry the run's aggregates."""

    def test_engine_fit_updates_batch_metrics(self, ci_dataset):
        from repro.models import create_model
        from repro.train import Engine

        config = TrainingConfig(epochs=2, batch_size=32,
                                max_batches_per_epoch=3, learning_rate=0.01)
        model = create_model("linear", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        sink = MemorySink()
        Engine(config).fit(model, ci_dataset, seed=0, bus=EventBus([sink]))
        batches = [e for e in sink.of_kind("span")
                   if e.label == "train/batch"]
        assert len(batches) == 6
        assert all(e.seconds > 0 for e in batches)
        row = SpanTree(sink.events).aggregate()["train/batch"]
        assert row["count"] == 6
        assert row["total_seconds"] == pytest.approx(
            sum(e.seconds for e in batches))

    def test_grad_clip_rate(self, ci_dataset):
        from repro.models import create_model
        from repro.train import Engine

        config = TrainingConfig(epochs=1, batch_size=32,
                                max_batches_per_epoch=3, learning_rate=0.01,
                                grad_clip=1e-9)      # always rescales
        model = create_model("linear", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        sink = MemorySink()
        Engine(config).fit(model, ci_dataset, seed=0, bus=EventBus([sink]))
        clips = sink.of_kind("grad_clip")
        assert len(clips) == 3
        batches = SpanTree(sink.events).aggregate()["train/batch"]["count"]
        assert len(clips) / batches == 1.0                # the clip rate

    def test_cache_hit_ratio(self, tmp_path, monkeypatch):
        from repro.datasets import load_dataset

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sink = MemorySink()
        bus = EventBus([sink])
        load_dataset("pemsd8", scale="ci", bus=bus)       # cold: miss
        load_dataset("pemsd8", scale="ci", bus=bus)       # warm: hit
        hits = len(sink.of_kind("cache_hit"))
        misses = len(sink.of_kind("cache_miss"))
        assert (hits, misses) == (1, 1)
        assert hits / (hits + misses) == pytest.approx(0.5)

    def test_loader_gather_metrics(self, ci_dataset):
        from repro.datasets import DataLoader

        sink = MemorySink()
        loader = DataLoader(ci_dataset.supervised.train, batch_size=32,
                            seed=0)
        with bus_scope(EventBus([sink])):
            batches = sum(1 for _ in loader)
        gathers = [e for e in sink.of_kind("span")
                   if e.label == "data/gather"]
        assert len(gathers) == batches == len(loader)
        assert all(e.seconds > 0 for e in gathers)


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
