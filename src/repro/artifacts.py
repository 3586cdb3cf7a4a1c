"""One writer for every file the package produces.

Checkpoints, cached worlds, prediction dumps, results, ``run.json``
manifests, timelines and ``BENCH_*.json`` records all reach disk through
:func:`atomic_write`, so a write that raises or a killed process leaves
the previous file intact.  Archives are ``.npz`` files of named arrays
plus an optional JSON blob (a uint8 array under the ``meta`` key).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

__all__ = ["atomic_write", "write_archive", "read_archive", "write_json",
           "pack_json", "unpack_json"]


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb") -> Iterator[Any]:
    """Stream into a temp file beside ``path`` that replaces it on success.

    ``mode`` is ``"wb"`` or ``"w"`` (UTF-8).  Parent directories are
    created.  The temp file is removed if the write raises.  It is created
    exclusively with the default permissions (``mkstemp`` would make every
    artifact owner-only).  numpy writes into the open stream, so archives
    land at exactly ``path`` (``np.savez`` appends ``.npz`` to a bare one).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    stream = open(tmp, mode.replace("w", "x"),
                  encoding=None if "b" in mode else "utf-8")
    try:
        with stream:
            yield stream
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def pack_json(payload: Any) -> np.ndarray:
    """``payload`` as a uint8 array of its JSON text (an archive entry)."""
    return np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)


def unpack_json(blob: np.ndarray) -> Any:
    """Inverse of :func:`pack_json`."""
    return json.loads(bytes(np.asarray(blob)).decode())


def write_archive(path: str | Path, arrays: Mapping[str, Any],
                  meta: Any = None, *, compress: bool = False) -> None:
    """Write ``arrays`` (plus ``meta`` as JSON, if given) to one ``.npz``."""
    payload = dict(arrays)
    if meta is not None:
        payload["meta"] = pack_json(meta)
    save = np.savez_compressed if compress else np.savez
    with atomic_write(path) as stream:
        save(stream, **payload)


def read_archive(path: str | Path) -> tuple[dict[str, np.ndarray], Any]:
    """Every array of an archive, and its metadata (None if it has none)."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = arrays.pop("meta", None)
    return arrays, None if meta is None else unpack_json(meta)


def write_json(path: str | Path, payload: Any, **dumps_kwargs) -> None:
    """Write ``json.dumps(payload, **dumps_kwargs)`` and a newline."""
    with atomic_write(path, "w") as stream:
        stream.write(json.dumps(payload, **dumps_kwargs) + "\n")
