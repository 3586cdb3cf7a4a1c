"""Mini-batch iteration over supervised splits."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..obs.spans import span
from .windows import SupervisedSplit

__all__ = ["DataLoader"]


class DataLoader:
    """Iterates ``(x, y, start_index)`` mini-batches.

    Batches are gathered through :meth:`SupervisedSplit.batch`, so a lazy
    split never materialises its full input tensor — each batch is built
    from the shared window views on demand.  Shuffling uses its own
    generator so epoch order is reproducible per seed independently of
    model-weight randomness.

    ``target_scaler`` yields targets in scaled units (training loops need
    them scaled every epoch); the transform is hoisted to dataset level —
    a lazy split gathers from the pre-scaled series, an eager split
    transforms its target array once and caches it — instead of being
    re-applied per batch.
    """

    def __init__(self, split: SupervisedSplit, batch_size: int = 64,
                 shuffle: bool = False, seed: int = 0, drop_last: bool = False,
                 target_scaler=None):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.split = split
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.target_scaler = target_scaler
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = self.split.num_samples
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        n = self.split.num_samples
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        gather = getattr(self.split, "batch", None)
        for lo in range(0, stop, self.batch_size):
            index = order[lo:lo + self.batch_size]
            # The span closes before the yield, so consumer work is never
            # billed to the gather.
            with span("data/gather", size=len(index)):
                if gather is not None:
                    batch = gather(index, target_scaler=self.target_scaler)
                else:                   # duck-typed split without batch()
                    y = self.split.y[index]
                    if self.target_scaler is not None:
                        y = self.target_scaler.transform(y)
                    batch = (self.split.x[index], y,
                             self.split.start_index[index])
            yield batch
