"""The vector data plane: columnar numpy kernels, bit-identical to scalar.

Where :mod:`repro.fastpath` removed Python cycles from the cycle-level
simulator without changing its per-request structure, this package
replaces whole per-record loops with columnar numpy kernels:

* bulk address-stream generation for every access pattern
  (:mod:`repro.kernels.tracegen`), feeding both
  :func:`repro.workloads.tracegen.generate_workload` and the workload
  bank's blob materialisation;
* batch 64-byte line synthesis and class evaluation
  (:mod:`repro.kernels.datagen`);
* vectorised size-only BDI/FPC classifiers over N x 64 byte matrices
  (:mod:`repro.kernels.classify`), consumed by
  :meth:`repro.compression.engine.CompressionEngine.is_compressible_many`;
* bulk scrambler keystream generation (:mod:`repro.kernels.scramble`);
* a batched :func:`repro.sim.functional.run_functional` pipeline
  (:mod:`repro.kernels.functional`) built on a chunked-rounds
  set-associative LRU kernel (:mod:`repro.kernels.lru`);
* the vector *timing* plane for the detailed simulator: batched
  functional warm-up and memo prewarm (:mod:`repro.kernels.timing`),
  and LLC state loaded from a shared event stream
  (:meth:`repro.cpu.cache.LastLevelCache.fill`).

Every kernel is required to be **bit-identical** to the scalar path it
replaces: ``tests/test_kernels.py`` runs hypothesis differentials per
kernel and golden digest equality for whole runs with the vector path on
and off.

Control mirrors the fastpath gate:

* environment: ``REPRO_VECTOR=0`` (or ``false``/``off``) disables the
  vector path process-wide before import;
* code: :func:`set_enabled`, or :func:`overridden` for scoped toggling
  (used by the differential tests and ``repro profile --vector off``).

The gate also degrades gracefully: :func:`available` checks that numpy
imports, and :func:`enabled` is False without it, so every caller keeps
its scalar fallback.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "available",
    "enabled",
    "overridden",
    "set_enabled",
]


def _env_default() -> bool:
    raw = os.environ.get("REPRO_VECTOR", "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except Exception:  # pragma: no cover - exercised only without numpy
        return False
    return True


_enabled: bool = _env_default()
_available: bool = _numpy_available()


def available() -> bool:
    """Whether the vector kernels can run at all (numpy imports)."""
    return _available


def enabled() -> bool:
    """Whether new components should take the vector path (default True)."""
    return _enabled and _available


def set_enabled(value: bool) -> None:
    """Globally enable/disable the vector path for components built later.

    Components consult the flag at batch boundaries, so flipping it
    mid-simulation never mixes the two modes within one batch.
    """
    global _enabled
    _enabled = bool(value)


@contextmanager
def overridden(value: bool) -> Iterator[None]:
    """Scoped :func:`set_enabled` (restores the previous value on exit)."""
    previous = _enabled
    set_enabled(value)
    try:
        yield
    finally:
        set_enabled(previous)
