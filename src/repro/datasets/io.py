"""Dataset persistence: save/load simulated worlds as ``.npz`` archives.

Paper-scale simulations (hundreds of sensors, months of 5-minute steps)
take a while to generate; persisting them lets the benchmark matrix reuse
one world across model runs and lets users share exact datasets.  The
content-addressed dataset cache (:mod:`repro.datasets.cache`) round-trips
every built world through this module.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..artifacts import read_archive, write_archive
from ..graph.road_network import RoadNetwork
from .catalog import DatasetSpec, LoadedDataset
from .generator import SimulationResult
from .windows import WindowConfig, make_windows

__all__ = ["save_dataset", "load_saved_dataset"]


def save_dataset(dataset: LoadedDataset, path: str | Path) -> None:
    """Persist a loaded dataset (simulation + graph) to one ``.npz`` file.

    The supervised windows are *not* stored — rebuilding them is a few
    zero-copy sliding views under the lazy pipeline, while storing them
    would multiply the file size ~24x.
    """
    network = dataset.network
    edges = np.array([(src, dst, attrs["distance"])
                      for src, dst, attrs in network.graph.edges(data=True)])
    sim = dataset.simulation
    meta = {
        "spec": asdict(dataset.spec),
        "scale": dataset.scale,
        "window": asdict(dataset.supervised.config),
        "incident_log": [list(entry) for entry in sim.incident_log],
    }
    write_archive(path, dict(
        edges=edges,
        positions=network.positions,
        free_flow_speed=network.free_flow_speed,
        capacity=network.capacity,
        adjacency=dataset.adjacency,
        density=sim.density,
        speed=sim.speed,
        flow=sim.flow,
        timestamps=sim.timestamps,
        time_of_day=sim.time_of_day,
        day_of_week=sim.day_of_week,
        missing_mask=sim.missing_mask,
    ), meta, compress=True)


def load_saved_dataset(path: str | Path) -> LoadedDataset:
    """Rebuild a :class:`LoadedDataset` saved by :func:`save_dataset`."""
    import networkx as nx

    payload, meta = read_archive(path)
    sim = SimulationResult(
        density=payload["density"],
        speed=payload["speed"],
        flow=payload["flow"],
        timestamps=payload["timestamps"],
        time_of_day=payload["time_of_day"],
        day_of_week=payload["day_of_week"],
        missing_mask=payload["missing_mask"],
        incident_log=[tuple(entry) for entry in meta["incident_log"]])

    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(payload["positions"])))
    for src, dst, distance in payload["edges"]:
        graph.add_edge(int(src), int(dst), distance=float(distance))
    network = RoadNetwork(graph=graph, positions=payload["positions"],
                          free_flow_speed=payload["free_flow_speed"],
                          capacity=payload["capacity"])

    spec = DatasetSpec(**meta["spec"])
    window = WindowConfig(**meta["window"])
    values = sim.speed if spec.task == "speed" else sim.flow
    supervised = make_windows(values, sim.time_of_day, window,
                              day_of_week=sim.day_of_week)

    return LoadedDataset(spec=spec, scale=meta["scale"], network=network,
                         adjacency=payload["adjacency"], simulation=sim,
                         supervised=supervised)
