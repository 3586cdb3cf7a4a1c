"""Run manifests: one ``run.json`` per experiment, enough to reproduce it.

A manifest freezes everything Table III-style bookkeeping needs and that a
trace alone does not carry: the full :class:`~repro.core.TrainingConfig`,
model and dataset identity, seed, parameter count, wall time, peak RSS,
and the library/interpreter versions the run executed under.  DL-Traff-
style benchmark reproductions live or die by exactly this bookkeeping, so
:func:`run_experiment` writes one whenever given ``manifest_path=``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..artifacts import write_json

__all__ = ["MANIFEST_SCHEMA_VERSION", "RunManifest", "build_manifest",
           "write_manifest", "read_manifest", "peak_rss_kb",
           "normalize_ru_maxrss"]

MANIFEST_SCHEMA_VERSION = 1

# Fields a manifest must always carry (checked by tests and readers).
REQUIRED_FIELDS = ("schema_version", "model", "dataset", "seed", "config",
                   "num_parameters", "wall_seconds", "repro_version")


def normalize_ru_maxrss(raw: float, system: str | None = None) -> int:
    """Normalise a raw ``ru_maxrss`` reading to KiB.

    POSIX leaves the unit unspecified and platforms disagree: Linux (and
    most BSDs) report KiB, macOS reports bytes.  ``system`` defaults to
    :func:`platform.system`; pass it explicitly to test either path.
    """
    system = system if system is not None else platform.system()
    raw = int(raw)
    return raw // 1024 if system == "Darwin" else raw


def peak_rss_kb() -> int | None:
    """Peak resident set size of this process in KiB (``None`` where the
    ``resource`` module is unavailable, e.g. non-unix platforms)."""
    try:
        import resource
    except ImportError:                                # pragma: no cover
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return normalize_ru_maxrss(peak)


@dataclass
class RunManifest:
    """Everything needed to identify, cost, and re-run one experiment."""

    model: str
    dataset: str
    seed: int
    config: dict
    num_parameters: int
    wall_seconds: float
    schema_version: int = MANIFEST_SCHEMA_VERSION
    peak_rss_kb: int | None = None
    repro_version: str = ""
    numpy_version: str = ""
    python_version: str = ""
    created_unix: float = 0.0
    best_epoch: int = -1
    best_val_mae: float | None = None
    test_mae_15: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunManifest":
        """Inverse of :meth:`to_dict`; unknown keys land in ``extra``."""
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in payload.items() if k in known}
        unknown = {k: v for k, v in payload.items() if k not in known}
        if unknown:
            kwargs.setdefault("extra", {}).update(unknown)
        return cls(**kwargs)


def build_manifest(model: str, dataset: str, seed: int, config: Any,
                   num_parameters: int, wall_seconds: float,
                   best_epoch: int = -1,
                   best_val_mae: float | None = None,
                   test_mae_15: float | None = None,
                   extra: dict | None = None) -> RunManifest:
    """Assemble a :class:`RunManifest` with environment fields filled in.

    ``config`` may be the :class:`~repro.core.TrainingConfig` dataclass or
    an already-flattened dict.
    """
    from .. import __version__                      # lazy: avoids a cycle

    if is_dataclass(config) and not isinstance(config, type):
        config = asdict(config)
    return RunManifest(
        model=model, dataset=dataset, seed=seed, config=dict(config),
        num_parameters=num_parameters, wall_seconds=wall_seconds,
        peak_rss_kb=peak_rss_kb(),
        repro_version=__version__,
        numpy_version=np.__version__,
        python_version=platform.python_version(),
        created_unix=time.time(),
        best_epoch=best_epoch, best_val_mae=best_val_mae,
        test_mae_15=test_mae_15, extra=extra or {})


def write_manifest(path: str | Path, manifest: RunManifest) -> Path:
    """Write ``manifest`` as pretty-printed JSON; returns the path."""
    write_json(path, manifest.to_dict(), indent=2, sort_keys=True)
    return Path(path)


def read_manifest(path: str | Path) -> RunManifest:
    """Load a manifest written by :func:`write_manifest`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    missing = [key for key in REQUIRED_FIELDS if key not in payload]
    if missing:
        raise ValueError(f"manifest {path} is missing required fields: "
                         f"{missing}")
    return RunManifest.from_dict(payload)
