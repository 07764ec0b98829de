"""Shared last-level cache model (8 MB, 8-way, 64-byte lines in Table II).

Write-allocate, write-back, true-LRU.  The LLC filters the trace: only
misses and dirty evictions reach the memory controller, which is where
all of the paper's mechanisms live.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.util.bitops import CACHELINE_BYTES

#: sentinel distinguishing "absent" from a stored ``False`` dirty flag.
_MISS = object()


@dataclass
class CacheStats:
    """Hit/miss accounting for MPKI and traffic reporting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        """Flat counter view for observability samplers."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
        }


@dataclass(frozen=True)
class Eviction:
    """A victim line pushed out by an allocation."""

    line_address: int
    dirty: bool


class LastLevelCache:
    """Set-associative write-back cache over 64-byte lines.

    ``access`` returns whether the reference hit and, on a miss, the
    eviction (if any) caused by allocating the new line.  The caller is
    responsible for turning misses into memory reads and dirty evictions
    into memory writes.
    """

    def __init__(self, capacity_bytes: int = 8 * 1024 * 1024, ways: int = 8) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        if capacity_bytes % (ways * CACHELINE_BYTES) != 0:
            raise ValueError(
                "capacity must be a whole number of sets: "
                f"{capacity_bytes} bytes / ({ways} ways x {CACHELINE_BYTES} B)"
            )
        self._ways = ways
        self._sets = capacity_bytes // (ways * CACHELINE_BYTES)
        # Each set is an OrderedDict of line_address -> dirty flag,
        # ordered least- to most-recently-used.
        self._lines: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self._sets)
        ]
        self.stats = CacheStats()

    @property
    def sets(self) -> int:
        return self._sets

    @property
    def ways(self) -> int:
        return self._ways

    def _set_index(self, line_address: int) -> int:
        return line_address % self._sets

    def access(self, address: int, is_write: bool) -> Tuple[bool, Optional[Eviction]]:
        """Look up *address*; allocate on miss.

        Returns ``(hit, eviction)``.  ``eviction`` is non-``None`` only
        when a miss displaced a valid line; its ``dirty`` flag tells the
        caller whether a write-back to memory is needed.
        """
        line = address // CACHELINE_BYTES
        cache_set = self._lines[self._set_index(line)]
        # pop + reinsert is one lookup cheaper than the idiomatic
        # contains/getitem/move_to_end triple and leaves the same
        # LRU order (reinsertion lands at the MRU end).
        dirty = cache_set.pop(line, _MISS)
        if dirty is not _MISS:
            self.stats.hits += 1
            cache_set[line] = dirty or is_write
            return True, None

        self.stats.misses += 1
        eviction: Optional[Eviction] = None
        if len(cache_set) >= self._ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
            eviction = Eviction(line_address=victim_line, dirty=victim_dirty)
        cache_set[line] = is_write
        return False, eviction

    def fill(self, outcome) -> None:
        """Load an access stream's result into this (empty) cache.

        Vector-timing-plane entry point: *outcome* is the
        :func:`repro.kernels.lru.lru_simulate` result of the stream on
        this cache's geometry.  Materialises its final set contents into
        the per-set ``OrderedDict`` state (LRU way inserted first, so
        insertion order equals recency order) and accumulates
        :class:`CacheStats` exactly as the scalar :meth:`access` loop
        would.  Only valid for an *empty* cache — the kernel assumes
        cold sets.
        """
        if any(self._lines):
            raise ValueError("fill requires an empty cache")
        import numpy as np

        set_tags = outcome.set_tags
        set_dirty = outcome.set_dirty
        if set_tags.shape != (self._sets, self._ways):
            raise ValueError("outcome geometry differs from the cache's")
        occupied = np.nonzero((set_tags >= 0).any(axis=1))[0]
        # Columns reversed: the LRU way is inserted first.
        for set_index, row_tags, row_dirty in zip(
            occupied.tolist(),
            set_tags[occupied, ::-1].tolist(),
            set_dirty[occupied, ::-1].tolist(),
        ):
            cache_set = self._lines[set_index]
            for tag, dirty in zip(row_tags, row_dirty):
                if tag >= 0:
                    cache_set[tag] = dirty
        self.stats.hits += outcome.hits
        self.stats.misses += outcome.misses
        self.stats.evictions += outcome.evictions
        self.stats.writebacks += outcome.dirty_evictions

    def contains(self, address: int) -> bool:
        """True when the line holding *address* is resident."""
        line = address // CACHELINE_BYTES
        return line in self._lines[self._set_index(line)]

    def is_dirty(self, address: int) -> bool:
        """True when the resident line holding *address* is dirty."""
        line = address // CACHELINE_BYTES
        return self._lines[self._set_index(line)].get(line, False)

    def drain_dirty_lines(self) -> List[int]:
        """Return (and clean) every dirty line — end-of-run write-back."""
        dirty: List[int] = []
        for cache_set in self._lines:
            for line, is_dirty in cache_set.items():
                if is_dirty:
                    dirty.append(line)
                    cache_set[line] = False
        return dirty
