"""Content-addressed dataset cache: build each simulated world once.

Paper-scale simulations (hundreds of sensors, months of 5-minute steps)
dominate benchmark start-up, and the same world is rebuilt by every
entry point — the benchmark matrix, rolling-origin cross-validation,
hyper-parameter sweeps.  This module keys a built world by a hash of
everything that determines it — the :class:`~repro.datasets.DatasetSpec`,
the derived :class:`~repro.datasets.SimulationConfig`, the
:class:`~repro.datasets.WindowConfig`, the seed offset, the scale preset,
and a format version — and round-trips it through the existing ``.npz``
persistence (:mod:`repro.datasets.io`), so a second ``load_dataset`` of
the same spec/seed is one archive read instead of a full simulation.

Layout and knobs
----------------
Entries live under ``~/.cache/repro`` (one ``<name>_<scale>_<key>.npz``
per world), overridable with ``REPRO_CACHE_DIR``; set
``REPRO_DATA_CACHE=0`` to disable caching entirely.  Writes go through
:func:`repro.artifacts.atomic_write` (temp file + rename), so concurrent
builders never observe a torn entry.

Invalidation
------------
The key covers every input that shapes the world, so changing a spec,
window, seed, or scale creates a new entry.  Changes to the *simulator
code itself* are invisible to the hash — bump
:data:`CACHE_FORMAT_VERSION` when the generated worlds change, or wipe
with ``python -m repro cache clear``.  See ``docs/data.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from ..artifacts import read_archive

__all__ = ["CACHE_FORMAT_VERSION", "CacheEntry", "DatasetCache",
           "cache_enabled", "default_cache_dir", "dataset_cache_key"]

#: Bump when the simulator or the saved-archive layout changes in a way
#: that makes previously cached worlds stale.
CACHE_FORMAT_VERSION = 1

_DISABLED_VALUES = {"0", "off", "false", "no"}


def cache_enabled() -> bool:
    """Whether ``load_dataset`` should consult the cache by default
    (``REPRO_DATA_CACHE=0`` disables it)."""
    return os.environ.get("REPRO_DATA_CACHE", "1").lower() not in _DISABLED_VALUES


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def dataset_cache_key(spec, sim_config, window, seed_offset: int,
                      scale: str) -> str:
    """Content hash of everything that determines a built world.

    Hashes the JSON of the dataclass fields (sorted keys) plus the scale
    preset, seed offset, and :data:`CACHE_FORMAT_VERSION`; 16 hex chars,
    matching the :class:`~repro.core.BenchmarkMatrix` fingerprint width.
    """
    payload = json.dumps({
        "format": CACHE_FORMAT_VERSION,
        "spec": asdict(spec),
        "sim": asdict(sim_config),
        "window": asdict(window),
        "seed_offset": seed_offset,
        "scale": scale,
    }, sort_keys=True, default=list)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class CacheEntry:
    """One cached world on disk."""

    name: str
    scale: str
    key: str
    path: Path
    size_bytes: int

    @classmethod
    def from_path(cls, path: Path) -> "CacheEntry | None":
        """Parse ``<name>_<scale>_<key>.npz``; None for foreign files."""
        parts = path.stem.rsplit("_", 2)
        if len(parts) != 3 or path.suffix != ".npz":
            return None
        name, scale, key = parts
        return cls(name=name, scale=scale, key=key, path=path,
                   size_bytes=path.stat().st_size)


class DatasetCache:
    """Content-addressed store of built worlds under one directory.

    ``get``/``put`` move :class:`~repro.datasets.LoadedDataset` objects
    through :func:`~repro.datasets.save_dataset` /
    :func:`~repro.datasets.load_saved_dataset`; ``entries``/``clear``
    back the ``repro cache`` CLI.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def path_for(self, name: str, scale: str, key: str) -> Path:
        return self.directory / f"{name}_{scale}_{key}.npz"

    def get(self, name: str, scale: str, key: str):
        """The cached :class:`LoadedDataset` for ``key``, or None.

        A corrupt entry (torn write from an old interpreter crash,
        truncated disk) is deleted and treated as a miss rather than
        propagating a load error into the caller.
        """
        from ..obs.spans import span
        from .io import load_saved_dataset

        with span("data/cache_get", dataset=name, key=key) as sp:
            path = self.path_for(name, scale, key)
            if not path.exists():
                sp.set(hit=False)
                return None
            try:
                result = load_saved_dataset(path)
            except Exception:
                path.unlink(missing_ok=True)
                sp.set(hit=False, corrupt=True)
                return None
            sp.set(hit=True)
            return result

    def put(self, dataset, key: str) -> Path:
        """Persist ``dataset`` under ``key`` atomically; returns the path."""
        from ..obs.spans import span
        from .io import save_dataset

        with span("data/cache_put", dataset=dataset.spec.name, key=key):
            path = self.path_for(dataset.spec.name, dataset.scale, key)
            save_dataset(dataset, path)
        return path

    def entries(self) -> list[CacheEntry]:
        """Every recognised entry, newest first."""
        if not self.directory.is_dir():
            return []
        found = [CacheEntry.from_path(p)
                 for p in sorted(self.directory.glob("*.npz"))]
        entries = [e for e in found if e is not None]
        entries.sort(key=lambda e: e.path.stat().st_mtime, reverse=True)
        return entries

    def info(self, key: str) -> dict:
        """Archive metadata of the one entry whose key (or file name)
        starts with ``key``; ``KeyError`` if none or several match."""
        matches = [entry for entry in self.entries()
                   if entry.key.startswith(key)
                   or entry.path.name.startswith(key)]
        if not matches:
            raise KeyError(f"no cache entry matching {key!r} "
                           f"in {self.directory}")
        if len(matches) > 1:
            raise KeyError(f"cache key {key!r} is ambiguous, it matches "
                           + ", ".join(entry.key for entry in matches))
        (entry,) = matches
        arrays, meta = read_archive(entry.path)
        return {"path": str(entry.path), "key": entry.key,
                "size_bytes": entry.size_bytes,
                "spec": meta["spec"], "scale": meta["scale"],
                "window": meta["window"],
                "arrays": {name: list(value.shape)
                           for name, value in arrays.items()}}

    def clear(self) -> tuple[int, int]:
        """Delete every entry; returns (entries removed, bytes freed)."""
        removed = freed = 0
        for entry in self.entries():
            freed += entry.size_bytes
            entry.path.unlink(missing_ok=True)
            removed += 1
        return removed, freed
