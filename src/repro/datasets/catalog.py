"""The seven benchmark datasets (paper Table I), synthesised.

Each catalog entry mirrors one of the paper's datasets: its task (speed or
flow), region topology, relative size, and traffic character.  Node and day
counts follow Table I at ``paper`` scale and are scaled down for the ``ci``
and ``bench`` presets so the full model×dataset matrix trains on CPU.

Loading a dataset builds the road network, runs the traffic simulator, and
returns windowed supervised splits plus the Gaussian-kernel adjacency.
Built worlds are memoised on disk by a content hash of everything that
determines them (see :mod:`repro.datasets.cache`), so the benchmark
matrix, cross-validation, and sweeps simulate each world once; telemetry
(``cache_hit`` / ``cache_miss`` / ``dataset_build`` events) records which
path served every load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..graph.adjacency import gaussian_adjacency
from ..graph.road_network import RoadNetwork, build_network
from ..obs.events import CacheHit, CacheMiss, DatasetBuild, EventBus, get_bus
from ..obs.spans import span
from .cache import DatasetCache, cache_enabled, dataset_cache_key
from .generator import SimulationConfig, SimulationResult, TrafficSimulator
from .windows import SupervisedDataset, WindowConfig, make_windows

__all__ = ["DatasetSpec", "LoadedDataset", "DATASETS", "SPEED_DATASETS",
           "FLOW_DATASETS", "load_dataset", "dataset_names"]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one benchmark dataset (one Table I column)."""

    name: str
    task: str                  # "speed" | "flow"
    region: str
    topology: str              # road-network family for the simulator
    paper_nodes: int           # Table I sensor count
    paper_days: int            # Table I day count
    weekdays_only: bool = False
    rush_intensity: float = 0.45
    incident_rate_per_day: float = 1.2
    sim_seed: int = 0


# Table I, one entry per column.  Topologies and traffic intensities are
# chosen to echo each region's character (LA corridors vs. Bay Area mesh).
DATASETS: dict[str, DatasetSpec] = {
    "metr-la": DatasetSpec(
        name="metr-la", task="speed", region="Los Angeles",
        topology="corridor", paper_nodes=207, paper_days=122,
        rush_intensity=0.52, incident_rate_per_day=1.6, sim_seed=101),
    "pems-bay": DatasetSpec(
        name="pems-bay", task="speed", region="Bay Area",
        topology="grid", paper_nodes=325, paper_days=181,
        rush_intensity=0.40, incident_rate_per_day=1.0, sim_seed=102),
    "pemsd7m": DatasetSpec(
        name="pemsd7m", task="speed", region="Los Angeles",
        topology="corridor", paper_nodes=228, paper_days=44,
        weekdays_only=True, rush_intensity=0.50,
        incident_rate_per_day=1.4, sim_seed=103),
    "pemsd3": DatasetSpec(
        name="pemsd3", task="flow", region="North Central",
        topology="radial", paper_nodes=358, paper_days=91,
        rush_intensity=0.38, incident_rate_per_day=0.8, sim_seed=104),
    "pemsd4": DatasetSpec(
        name="pemsd4", task="flow", region="Bay Area",
        topology="grid", paper_nodes=307, paper_days=59,
        rush_intensity=0.46, incident_rate_per_day=1.2, sim_seed=105),
    "pemsd7": DatasetSpec(
        name="pemsd7", task="flow", region="Los Angeles",
        topology="corridor", paper_nodes=883, paper_days=98,
        rush_intensity=0.50, incident_rate_per_day=1.4, sim_seed=106),
    "pemsd8": DatasetSpec(
        name="pemsd8", task="flow", region="San Bernardino",
        topology="corridor", paper_nodes=170, paper_days=62,
        rush_intensity=0.36, incident_rate_per_day=0.9, sim_seed=107),
}

SPEED_DATASETS = tuple(n for n, s in DATASETS.items() if s.task == "speed")
FLOW_DATASETS = tuple(n for n, s in DATASETS.items() if s.task == "flow")

# nodes/days per preset; paper scale uses Table I values.
_SCALES = {
    "ci": (10, 3),
    "bench": (20, 8),
    "paper": (None, None),
}


def dataset_names() -> list[str]:
    """Names of all catalogued datasets (Table I columns)."""
    return list(DATASETS)


@dataclass
class LoadedDataset:
    """A fully materialised dataset ready for training."""

    spec: DatasetSpec
    scale: str
    network: RoadNetwork
    adjacency: np.ndarray
    simulation: SimulationResult
    supervised: SupervisedDataset

    @property
    def num_nodes(self) -> int:
        return self.network.num_nodes

    @property
    def values(self) -> np.ndarray:
        """The raw measurement series for this dataset's task."""
        return (self.simulation.speed if self.spec.task == "speed"
                else self.simulation.flow)


def _scaled_size(spec: DatasetSpec, scale: str) -> tuple[int, int]:
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}")
    nodes, days = _SCALES[scale]
    if nodes is None:
        return spec.paper_nodes, spec.paper_days
    # Preserve relative dataset sizes: pemsd7 stays the largest, pemsd8 the
    # smallest, matching Table I proportions (scaled to the preset).
    node_scale = spec.paper_nodes / 307.0     # pemsd4 as reference
    day_scale = spec.paper_days / 91.0
    scaled_nodes = max(8, int(round(nodes * node_scale)))
    scaled_days = max(3, int(round(days * day_scale)))
    return scaled_nodes, scaled_days


def load_dataset(name: str, scale: str = "ci",
                 window: WindowConfig | None = None,
                 seed_offset: int = 0,
                 cache: bool | None = None,
                 bus: "EventBus | None" = None) -> LoadedDataset:
    """Build a named dataset at the requested scale.

    Parameters
    ----------
    name:
        One of :func:`dataset_names` (case-insensitive; ``_`` ≡ ``-``).
    scale:
        ``ci`` (tests), ``bench`` (benchmarks) or ``paper`` (Table I sizes).
    seed_offset:
        Added to the dataset's base seed — lets property tests draw distinct
        but reproducible worlds.
    cache:
        Consult/populate the on-disk world cache (see
        :mod:`repro.datasets.cache`).  ``None`` follows the
        ``REPRO_DATA_CACHE`` environment default (on); ``False`` forces a
        fresh build, ``True`` forces cache use.
    bus:
        Event bus for cache/build telemetry and ``data/load`` spans
        (the ambient bus when None).
    """
    spec_key = name.lower().replace("_", "-")
    if spec_key not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; choose from {dataset_names()}")
    spec = DATASETS[spec_key]
    num_nodes, num_days = _scaled_size(spec, scale)
    sim_config = SimulationConfig(
        num_days=num_days,
        rush_intensity=spec.rush_intensity,
        incident_rate_per_day=spec.incident_rate_per_day)
    window = window or WindowConfig()

    use_cache = cache_enabled() if cache is None else bool(cache)
    bus = bus if bus is not None else get_bus()
    with span("data/load", bus=bus, dataset=spec.name, scale=scale) as sp:
        store = DatasetCache() if use_cache else None
        cache_key = dataset_cache_key(spec, sim_config, window, seed_offset,
                                      scale)
        if store is not None:
            start = time.perf_counter()
            cached = store.get(spec.name, scale, cache_key)
            if cached is not None:
                sp.set(cache="hit")
                bus.emit(CacheHit(name=spec.name, scale=scale, key=cache_key,
                                  path=str(store.path_for(spec.name, scale,
                                                          cache_key)),
                                  seconds=time.perf_counter() - start))
                return cached
            sp.set(cache="miss")
            bus.emit(CacheMiss(name=spec.name, scale=scale, key=cache_key))

        build_start = time.perf_counter()
        with span("data/build", bus=bus, dataset=spec.name, scale=scale):
            network = build_network(num_nodes, topology=spec.topology,
                                    seed=spec.sim_seed + seed_offset)
            simulation = TrafficSimulator(network, sim_config,
                                          seed=spec.sim_seed
                                          + seed_offset).run()

            if spec.weekdays_only:
                weekday = simulation.day_of_week < 5
                simulation = replace(
                    simulation,
                    density=simulation.density[weekday],
                    speed=simulation.speed[weekday],
                    flow=simulation.flow[weekday],
                    timestamps=simulation.timestamps[weekday],
                    time_of_day=simulation.time_of_day[weekday],
                    day_of_week=simulation.day_of_week[weekday],
                    missing_mask=simulation.missing_mask[weekday])

            values = (simulation.speed if spec.task == "speed"
                      else simulation.flow)
            supervised = make_windows(values, simulation.time_of_day, window,
                                      day_of_week=simulation.day_of_week)
            adjacency = gaussian_adjacency(network)

            dataset = LoadedDataset(spec=spec, scale=scale, network=network,
                                    adjacency=adjacency,
                                    simulation=simulation,
                                    supervised=supervised)
        if store is not None:
            store.put(dataset, cache_key)
        bus.emit(DatasetBuild(name=spec.name, scale=scale,
                              num_nodes=dataset.num_nodes,
                              num_steps=len(simulation.time_of_day),
                              seconds=time.perf_counter() - build_start,
                              cached=store is not None))
    return dataset
