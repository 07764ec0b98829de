"""The single-run fast path: same results, fewer Python cycles.

This package concentrates every optimisation that makes one simulation
faster *without changing its output*:

* size-only compressibility classifiers for BDI and FPC
  (:mod:`repro.fastpath.classifiers`) — the compressed size and the
  Metadata-Header fit are computed without materialising a bitstream, so
  the full encoders only run when the stored image is actually needed
  (BLEM write paths and the data-integrity verifier);
* a memoised per-address scrambler keystream cache
  (:class:`repro.scramble.DataScrambler`) — the keystream is a pure
  function of (seed, address);
* an incremental FR-FCFS candidate cache with per-(rank, bank) bucket
  invalidation and event-horizon skipping
  (:class:`repro.dram.channel.Channel`);
* the profiling harness (:mod:`repro.fastpath.bench` and the
  ``repro profile`` CLI subcommand) that proves the above.

The fast path is **on by default** and must be *bit-identical* to the
slow path: ``tests/test_fastpath.py`` enforces equality of
``SimulationResult.to_dict()`` with the fast path on and off, and
hypothesis differential tests pin the classifiers to the full codecs.

Control:

* environment: ``REPRO_FASTPATH=0`` (or ``false``/``off``) disables it
  process-wide before import;
* code: :func:`set_enabled`, or the :func:`overridden` context manager
  for scoped toggling (used by the differential tests and the
  ``repro profile --fastpath off`` flag).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = [
    "CacheCounters",
    "SchedulerCounters",
    "enabled",
    "overridden",
    "set_enabled",
]


def _env_default() -> bool:
    raw = os.environ.get("REPRO_FASTPATH", "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


_enabled: bool = _env_default()


def enabled() -> bool:
    """Whether new components should take the fast path (default True)."""
    return _enabled


def set_enabled(value: bool) -> None:
    """Globally enable/disable the fast path for components built later.

    Components snapshot the flag at construction time, so flipping it
    mid-simulation never mixes the two modes within one run.
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


# ----------------------------------------------------------------------
# Perf counters
#
# Every fastpath cache exposes one of these; the simulator aggregates
# them into ``SimulationResult.perf`` (a non-serialised attribute — perf
# telemetry must never leak into the result payload, which is required
# to be byte-identical with the fast path on and off).
# ----------------------------------------------------------------------


@dataclass
class CacheCounters:
    """Hit/miss accounting for one memoisation cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
        }


@dataclass
class SchedulerCounters:
    """FR-FCFS incremental-cache accounting for one channel."""

    #: full best-candidate computations (version-cache misses)
    computes: int = 0
    #: per-bucket candidate cache hits/misses inside those computes
    bucket: CacheCounters = field(default_factory=CacheCounters)
    #: ``advance`` calls answered by the event-horizon skip
    horizon_skips: int = 0
    #: ``advance`` calls that ran the full issue loop
    advances: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "computes": self.computes,
            "bucket": self.bucket.to_dict(),
            "horizon_skips": self.horizon_skips,
            "advances": self.advances,
        }

    def merge(self, other: "SchedulerCounters") -> None:
        self.computes += other.computes
        self.bucket.hits += other.bucket.hits
        self.bucket.misses += other.bucket.misses
        self.horizon_skips += other.horizon_skips
        self.advances += other.advances
