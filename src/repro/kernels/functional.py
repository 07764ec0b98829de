"""The batched functional-simulation pipeline.

Columnar mirror of :class:`repro.sim.functional.MissStream` plus the
event loop of :func:`repro.sim.functional.run_functional`:

1. per-core trace columns interleave round-robin into one global
   access stream;
2. one :func:`repro.kernels.lru.lru_simulate` pass replaces the
   per-access LLC walk, producing miss/write-back events with their
   global record positions;
3. line versions at write-back time are answered analytically — the
   version of a line at position *p* is the count of stores to it at
   positions <= *p* (a sorted composite-key lookup), so the scalar
   ``note_store`` bookkeeping never runs;
4. write-back classes and version-0 read classes come from
   :func:`repro.kernels.datagen.line_classes`, routed per data-model
   region; each read's effective class is its line's most recent
   preceding write-back class, exactly like ``MissStream._stored``;
5. the metadata cache is replayed from the event arrays — one more
   ``lru_simulate`` pass for the ``lru`` policy (with the final dict
   state materialised back, so a caller-held cache is left exactly as
   the scalar loop leaves it), or a scalar loop for ``drrip``/``ship``;
   COPR predicts and trains in one fused
   :meth:`~repro.core.copr.CoprPredictor.replay` over the event arrays.

Steps 1-4 depend only on the workload and the LLC geometry, so they
build one read-only :class:`EventStream` that every functional pass
and detailed warm-up (:mod:`repro.kernels.timing`) on the workload
shares through its :class:`~repro.workloads.tracegen.SharedTrace`;
only step 5 runs per pass.

The pipeline never touches ``DataModel._versions`` or LLC dict state;
both live only inside the workload instance built for the run, so the
omission is unobservable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..util.bitops import CACHELINE_BYTES
from .datagen import line_classes
from .lru import lru_simulate

__all__ = [
    "EventStream",
    "FunctionalCounters",
    "event_stream",
    "interleave_columns",
    "replay_metadata_cache",
    "simulate_events",
]


class FunctionalCounters:
    """Counter results of one batched functional pass."""

    __slots__ = ("demand_reads", "demand_writes", "compressible_reads")

    def __init__(self, demand_reads: int, demand_writes: int,
                 compressible_reads: int) -> None:
        self.demand_reads = demand_reads
        self.demand_writes = demand_writes
        self.compressible_reads = compressible_reads


def interleave_columns(columns, count: int):
    """Round-robin interleave the first *count* records of every core.

    Returns ``(addresses, is_store)`` in the exact order
    ``MissStream.events`` and the scalar warm-up consume records; every
    core must hold at least *count* records.
    """
    addresses = np.stack([
        np.asarray(column, dtype=np.uint64)[:count]
        for column, __, ___ in columns
    ]).T.ravel()
    ops = np.stack([
        np.asarray(column, dtype=np.uint8)[:count]
        for __, ___, column in columns
    ]).T.ravel()
    return addresses, ops == 1  # MemOp.STORE.value


def _route_models(data_model, lines: np.ndarray) -> np.ndarray:
    """Region index owning each line (mirrors ``_model_for_line``)."""
    regions = data_model.regions
    bases = np.array([base for base, __, ___ in regions], dtype=np.uint64)
    limits = np.array(
        [base + size for base, size, __ in regions], dtype=np.uint64
    )
    byte = lines * np.uint64(CACHELINE_BYTES)
    index = np.searchsorted(bases, byte, side="right").astype(np.int64) - 1
    clipped = np.clip(index, 0, len(regions) - 1)
    inside = (index >= 0) & (byte < limits[clipped])
    # Out-of-region lines default to the first model, like the scalar.
    return np.where(inside, clipped, 0)


def _classes_routed(
    data_model, lines: np.ndarray, versions: np.ndarray
) -> np.ndarray:
    """Per-region ``line_classes`` over a mixed batch of lines."""
    regions = data_model.regions
    out = np.zeros(lines.shape[0], dtype=bool)
    owners = _route_models(data_model, lines)
    for region_index in range(len(regions)):
        member = np.nonzero(owners == region_index)[0]
        if member.size:
            model = regions[region_index][2]
            out[member] = line_classes(
                model, lines[member], versions[member]
            )
    return out


def _materialize_metadata_lru(metadata_cache, outcome) -> None:
    """Write an ``lru_simulate`` end state back into a MetadataCache.

    Restricted to the ``lru`` policy starting from an empty cache (the
    caller checks both): entries then always carry ``rrpv == 0``, and
    ``reused`` is True exactly when a block saw any access after its
    last install.
    """
    # Per-key suffix access totals since the last install: sort nodes by
    # (key, pos) — outcome arrays are pos-ordered, so a stable key sort
    # gives pos order within each key segment.
    order = np.argsort(outcome.key, kind="stable")
    seg_keys = outcome.key[order]
    seg_hit = outcome.hit[order]
    seg_count = outcome.count[order]
    from repro.core.metadata_cache import _Entry

    sets, ways = outcome.set_tags.shape
    for set_index in range(sets):
        cache_set = metadata_cache._data[set_index]
        for way in range(ways - 1, -1, -1):  # LRU way first: dict order
            tag = int(outcome.set_tags[set_index, way])
            if tag < 0:
                continue
            entry = _Entry(
                dirty=bool(outcome.set_dirty[set_index, way]), rrpv=0
            )
            lo = int(np.searchsorted(seg_keys, tag, side="left"))
            hi = int(np.searchsorted(seg_keys, tag, side="right"))
            # A resident key was installed by its last missing node
            # (the cache started empty, so one exists).
            install = lo + int((~seg_hit[lo:hi]).nonzero()[0][-1])
            entry.reused = bool(seg_count[install:hi].sum() > 1)
            cache_set[tag] = entry


def _metadata_cache_empty(metadata_cache) -> bool:
    return all(not cache_set for cache_set in metadata_cache._data)


def _read_only(*arrays) -> None:
    for array in arrays:
        array.flags.writeable = False


class EventStream:
    """The LLC-filtered memory events of one trace window.

    A pure function of the workload and the LLC geometry, so every
    functional pass and detailed warm-up on the workload shares one
    (all arrays are read-only).  Built from an empty LLC:

    Attributes:
        outcome: the LLC's :func:`lru_simulate` result (end state and
            counters).
        store_lines: every line the window stores to, sorted.
        store_counts: the stores to each of ``store_lines``.
        line: each event's line, in stream order — per miss, the dirty
            victim's write-back (if any), then the demand read.
        is_wb: whether each event is a write-back.
        wb_index / read_index: event indices of the write-backs / reads.
        wb_versions: each write-back line's version (stores at or
            before the evicting access).
    """

    def __init__(self, columns, window: int, sets: int, ways: int) -> None:
        addresses, is_store = interleave_columns(columns, window)
        lines = (addresses >> np.uint64(6)).astype(np.int64)
        total = lines.shape[0]
        outcome = self.outcome = lru_simulate(lines, is_store, sets, ways)
        miss = ~outcome.hit
        miss_pos = outcome.pos[miss]
        miss_line = outcome.key[miss]
        wb_line = outcome.evict_key[miss]
        wb_flag = outcome.evict_dirty[miss]

        # Event assembly: each miss node yields [dirty write-back?,
        # read], in stream order (miss nodes are already pos-sorted).
        event_counts = 1 + wb_flag.astype(np.int64)
        ends = np.cumsum(event_counts)
        starts = ends - event_counts
        n_events = int(ends[-1]) if ends.shape[0] else 0
        is_wb = np.zeros(n_events, dtype=bool)
        is_wb[starts[wb_flag]] = True
        ev_node = np.repeat(np.arange(miss_pos.shape[0]), event_counts)
        ev_pos = miss_pos[ev_node]
        line = np.where(is_wb, wb_line[ev_node], miss_line[ev_node])

        # Dense line ids make (line, pos) composite keys overflow-safe.
        unique_lines = np.unique(lines)
        stride = np.int64(total + 1)
        store_positions = np.nonzero(is_store)[0]
        store_lines = lines[store_positions]
        store_keys = np.sort(
            np.searchsorted(unique_lines, store_lines) * stride
            + store_positions
        )
        wb_index = np.nonzero(is_wb)[0]
        read_index = np.nonzero(~is_wb)[0]
        wb_ids = np.searchsorted(unique_lines, line[wb_index])
        wb_keys = wb_ids * stride + ev_pos[wb_index]
        # Version at write-back = stores to the victim line at pos <= p.
        # The pos-p store (if any) targets the *requesting* line, which
        # can never equal the victim, so <= and < coincide.
        wb_versions = (
            np.searchsorted(store_keys, wb_keys, side="right")
            - np.searchsorted(store_keys, wb_ids * stride, side="left")
        )
        # A read's stored class is its line's last preceding
        # write-back's class, else the version-0 class.
        wb_order = np.argsort(wb_keys)
        wb_keys_sorted = wb_keys[wb_order]
        rd_ids = np.searchsorted(unique_lines, line[read_index])
        lo = np.searchsorted(wb_keys_sorted, rd_ids * stride, side="left")
        hi = np.searchsorted(
            wb_keys_sorted, rd_ids * stride + ev_pos[read_index],
            side="left",
        )
        self._has_prior = hi > lo
        self._prior = wb_order[np.maximum(hi - 1, 0)[self._has_prior]]
        # The last write-back per line, in line order: the stored state
        # a warm-up leaves behind.
        if wb_order.size:
            sorted_ids = wb_ids[wb_order]
            last = np.empty(wb_order.size, dtype=bool)
            last[-1] = True
            last[:-1] = sorted_ids[:-1] != sorted_ids[1:]
            self._final_wb = wb_order[last]
        else:
            self._final_wb = wb_order

        self.store_lines, self.store_counts = np.unique(
            store_lines, return_counts=True
        )
        self.line = line
        self.is_wb = is_wb
        self.wb_index = wb_index
        self.read_index = read_index
        self.wb_versions = wb_versions
        self._classes = None
        self._stored = None
        _read_only(
            outcome.pos, outcome.key, outcome.count, outcome.write_any,
            outcome.hit, outcome.evict_key, outcome.evict_dirty,
            outcome.set_tags, outcome.set_dirty, self.store_lines,
            self.store_counts, line, is_wb, wb_index, read_index,
            wb_versions, self._has_prior, self._prior, self._final_wb,
        )

    def classes(self, data_model):
        """``(wb_classes, read_classes, event_classes)``: compressibility
        of each write-back, each read and each event.

        Computed on first use from *data_model* (any model of the
        workload: classes are pure in the workload's seed).
        """
        if self._classes is None:
            line = self.line
            wb_classes = _classes_routed(
                data_model, line[self.wb_index].astype(np.uint64),
                self.wb_versions,
            )
            read_classes = _classes_routed(
                data_model, line[self.read_index].astype(np.uint64),
                np.zeros(self.read_index.shape[0], dtype=np.int64),
            )
            read_classes[self._has_prior] = wb_classes[self._prior]
            event_classes = np.zeros(line.shape[0], dtype=bool)
            event_classes[self.wb_index] = wb_classes
            event_classes[self.read_index] = read_classes
            _read_only(wb_classes, read_classes, event_classes)
            self._classes = (wb_classes, read_classes, event_classes)
        return self._classes

    def stored_state(self, data_model):
        """``(classes, versions)``: per-line dicts of the stored
        compressibility and version a controller's warm-up leaves.

        The last write-back per line wins; lines that are only ever read
        keep their version-0 class.  Callers copy the dicts into empty
        controller state, which keeps their insertion order.
        """
        if self._stored is None:
            wb_classes = self.classes(data_model)[0]
            final = self._final_wb
            wb_lines = self.line[self.wb_index]
            final_lines = wb_lines[final].tolist()
            classes = dict(zip(final_lines, wb_classes[final].tolist()))
            versions = dict(zip(
                final_lines, self.wb_versions[final].tolist()
            ))
            read_only = np.setdiff1d(
                np.unique(self.line[self.read_index]), np.unique(wb_lines)
            )
            if read_only.size:
                read_only_classes = _classes_routed(
                    data_model,
                    read_only.astype(np.uint64),
                    np.zeros(read_only.size, dtype=np.int64),
                )
                for line, cls in zip(
                    read_only.tolist(), read_only_classes.tolist()
                ):
                    classes[line] = cls
                    versions[line] = 0
            self._stored = (classes, versions)
        return self._stored


def event_stream(workload, sets: int, ways: int, window=None):
    """The shared :class:`EventStream` of *workload*'s first *window*
    records per core (``None``: all of them) through an LLC of
    *sets* x *ways*.

    Built once per ``(sets, ways, window)`` and kept in the workload's
    :class:`~repro.workloads.tracegen.SharedTrace`.  Returns ``None``
    when the workload carries no columns, when ``window=None`` and the
    cores' record counts differ, or when a core holds fewer than
    *window* records.
    """
    columns = getattr(workload, "columns", None)
    if not columns:
        return None
    lengths = [len(addresses) for addresses, __, ___ in columns]
    if window is None:
        window = lengths[0]
        if any(length != window for length in lengths):
            return None
    elif min(lengths) < window:
        return None
    shared = getattr(workload, "shared", None)
    key = (sets, ways, window)
    stream = shared.streams.get(key) if shared is not None else None
    if stream is None:
        stream = EventStream(columns, window, sets, ways)
        if shared is not None:
            shared.streams[key] = stream
    return stream


def replay_metadata_cache(metadata_cache, stream: EventStream) -> None:
    """Feed *stream*'s events through *metadata_cache*.

    One more ``lru_simulate`` pass for an empty ``lru`` cache (with the
    end state materialised back), else the scalar access loop.
    """
    if metadata_cache.policy == "lru" and _metadata_cache_empty(
        metadata_cache
    ):
        md = lru_simulate(
            stream.line // metadata_cache.coverage_lines,
            stream.is_wb,
            metadata_cache._sets,
            metadata_cache._ways,
        )
        stats = metadata_cache.stats
        stats.accesses += md.accesses
        stats.hits += md.hits
        stats.installs += md.misses
        stats.dirty_evictions += md.dirty_evictions
        _materialize_metadata_lru(metadata_cache, md)
    else:
        access = metadata_cache.access
        for line, dirty in zip(stream.line.tolist(), stream.is_wb.tolist()):
            access(line, make_dirty=dirty)


def simulate_events(
    workload,
    llc_sets: int,
    llc_ways: int,
    metadata_cache=None,
    copr=None,
) -> Optional[FunctionalCounters]:
    """One batched functional pass over *workload*'s trace columns.

    Returns the demand counters (metadata cache and COPR accumulate
    into the caller's objects, exactly like the scalar event loop), or
    ``None`` when the workload carries no columns / uneven columns —
    the caller falls back to the scalar path.
    """
    stream = event_stream(workload, llc_sets, llc_ways)
    if stream is None:
        return None
    __, read_classes, event_classes = stream.classes(workload.data_model)
    if metadata_cache is not None:
        replay_metadata_cache(metadata_cache, stream)

    if copr is not None:
        copr.replay(
            (stream.line * CACHELINE_BYTES).tolist(),
            event_classes.tolist(),
            is_read=(~stream.is_wb).tolist(),
        )

    return FunctionalCounters(
        demand_reads=int(stream.read_index.shape[0]),
        demand_writes=int(stream.wb_index.shape[0]),
        compressible_reads=int(read_classes.sum()),
    )
