"""One switch that routes the engine's fast paths back to their reference code.

Every fast path in the stack keeps the code it replaced as a test oracle
and as the "before" side of ``repro bench``:

- ``kernels``  — conv scatter (``np.add.at`` col2im), uncached im2col
  indices, einsum contractions, duplicate-safe basic-index gradients,
  and plain ``getitem`` nodes for ``split``/``unbind`` views
  (:mod:`repro.nn.kernels`, :mod:`repro.nn.functional`,
  :class:`repro.nn.Tensor`);
- ``optim``    — the per-parameter optimizer, clipping and ``zero_grad``
  loops instead of fused arena updates (:mod:`repro.nn.optim`);
- ``pipeline`` — eager window materialisation instead of lazy gathers
  (:func:`repro.datasets.make_windows`).

:func:`reference_mode` turns one or more areas on for a ``with`` block.
Hot paths check an area with a plain module-global read,
``"kernels" in _REFERENCE``, so the check stays cheap on every op.
"""

from __future__ import annotations

import contextlib

__all__ = ["AREAS", "reference_mode", "reference_active"]

#: The areas :func:`reference_mode` can switch.
AREAS = ("kernels", "optim", "pipeline")

#: Areas currently in reference mode.  Mutated in place, never rebound,
#: so modules that import it read the live state.
_REFERENCE: set[str] = set()


def _check(areas) -> None:
    unknown = sorted(set(areas) - set(AREAS))
    if unknown:
        raise ValueError(f"unknown reference area(s) {unknown}; "
                         f"expected some of {list(AREAS)}")


@contextlib.contextmanager
def reference_mode(*areas: str):
    """Run the block with ``areas`` on their reference code paths.

    Contexts nest: leaving one restores exactly the areas that were on
    when it was entered, also when the block raises.  An unknown area
    is a ``ValueError`` — a typo must not leave the fast path running.
    """
    if not areas:
        raise ValueError(f"reference_mode needs at least one of "
                         f"{list(AREAS)}")
    _check(areas)
    previous = frozenset(_REFERENCE)
    _REFERENCE.update(areas)
    try:
        yield
    finally:
        _REFERENCE.clear()
        _REFERENCE.update(previous)


def reference_active(area: str) -> bool:
    """Whether ``area`` is currently on its reference code path."""
    _check((area,))
    return area in _REFERENCE
