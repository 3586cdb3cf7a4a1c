"""The benchmark's workloads: fixed passes of paper-protocol cells.

A *cell* is one (model, dataset, seed) train-validate-evaluate run, as in
the paper's evaluation matrix.  A *pass* starts from an empty dataset
cache, cold-loads the workload's datasets (one per world), builds the
first model (that is the set-up), and then runs the pass's cells in
order.  A run repeats whole passes, so every count a pass produces (cache
hits per load, tape nodes per step) is the same on every run.  Why each
workload exists, and which layer it stresses, is written down in
``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

SCALE = "bench"
MATRIX_DATASETS = ("metr-la", "pems-bay", "pemsd7m", "pemsd3", "pemsd4",
                   "pemsd7", "pemsd8")
MATRIX_MODELS = ("linear", "historical-average", "last-value")
MATRIX_SEEDS = 5
# A world is one simulated dataset: load_dataset(seed_offset=seed * WORLD_STRIDE
# + world).  Test MAE varies from cell to cell (world, init, shuffle), so a
# train workload spreads its cells over several worlds to steady its mean.
WORLD_STRIDE = 16


@dataclass(frozen=True)
class Cell:
    """One train + validate + evaluate run.

    ``seed`` is added to the run's ``--seed`` and used for model init and
    shuffling; ``world`` picks the simulated world (see ``WORLD_STRIDE``).
    ``reload`` loads the dataset through the warm cache before the cell,
    as a separate ``repro run`` call would.
    """

    model: str
    dataset: str
    seed: int
    epochs: int
    max_batches: int
    batch_size: int = 32
    world: int = 0
    reload: bool = True

    @property
    def data_key(self) -> tuple[str, int]:
        return self.dataset, self.world


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    min_steps: int = 100          # distinct steps; p90 needs ten beyond
    scale: str = SCALE

    @property
    def worlds(self) -> tuple[tuple[str, int], ...]:
        """The (dataset, world) pairs a pass cold-loads, in order."""
        return tuple(dict.fromkeys(c.data_key for c in self.cells))


def _matrix_cells() -> tuple[Cell, ...]:
    # The paper's repeat protocol: every dataset, five seeds, each seed
    # reloading the world through the warm cache, then one cell per model.
    cells = []
    for dataset in MATRIX_DATASETS:
        for seed in range(MATRIX_SEEDS):
            for k, model in enumerate(MATRIX_MODELS):
                cells.append(Cell(model, dataset, seed, epochs=3,
                                  max_batches=12, reload=k == 0))
    return tuple(cells)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="recurrent-train",
        # Batch 16 keeps a pass of 104 distinct steps under 20 s; the tape
        # holds the same nodes per step at any batch size.
        # Two epochs: with the best-epoch restore, test MAE spread over
        # seeds 1-10 (IQR/median) was 10%, against 20% for one epoch of
        # the same 26 steps.
        cells=tuple(Cell("dcrnn", "metr-la", k, epochs=2, max_batches=13,
                         batch_size=16, world=k) for k in range(4))),
    Workload(
        name="matrix-light",
        cells=_matrix_cells()),
)}


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant for the self-check: ci scale, the first
    three cells, one epoch of two batches, no step floor."""
    cells = tuple(Cell(c.model, c.dataset, c.seed, epochs=1, max_batches=2,
                       batch_size=c.batch_size, world=c.world,
                       reload=c.reload)
                  for c in workload.cells[:len(MATRIX_MODELS)])
    return Workload(name=workload.name, cells=cells, min_steps=0,
                    scale="ci")
