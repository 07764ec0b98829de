"""Vector timing plane: batched warm-up + memo prewarm for the
detailed simulator.

The detailed timing path (``repro.sim.runner.run_benchmark``) spends a
large share of its wall clock outside the event loop proper: the
functional warm-up streams every record through the LLC and the
controller's training state one Python call at a time, and the timed
window then repeatedly recomputes pure per-line values (content bytes,
compressibility classes, scrambler keystreams) that batch kernels can
produce up front.  This module vectorises both, bit-identically:

* :func:`warm_up_vector` replays the warm-up window from the workload's
  shared :class:`~repro.kernels.functional.EventStream` — the LLC end
  state (:meth:`LastLevelCache.fill`), store counts for the version
  counters, and the controller's stored-state dicts, all built once per
  workload and geometry — then runs the per-system parts: one more LRU
  pass for the metadata cache and one fused COPR training pass
  (:meth:`repro.core.copr.CoprPredictor.replay`), and rebuilds
  ``workload.traces`` to start at the timed window.  Any
  configuration it cannot mirror exactly returns ``False`` with no
  state touched; the caller keeps the scalar loop.
* :func:`prewarm_timed_phase` batch-fills the pure memo caches the
  timed window will consult — ``DataModel`` content/class memos at each
  line's warm-state version and the scrambler's keystream cache — so
  first-touch boot encodes hit warm caches.  Every memo is a pure
  function of (line, version) or address, so prewarming is unobservable
  in the results.

See docs/ARCHITECTURE.md §13.
"""

from __future__ import annotations

import numpy as np

from ..util.bitops import CACHELINE_BYTES
from .datagen import line_classes, lines_data
from .functional import _route_models, event_stream, replay_metadata_cache

__all__ = ["warm_up_vector", "prewarm_timed_phase"]

#: Leave headroom under the clear-on-full memo caps so prewarming never
#: triggers the wipe it is trying to avoid.
_MEMO_HEADROOM = 64


def warm_up_vector(workload, llc, controller, warmup_per_core: int) -> bool:
    """Vector replacement for ``repro.sim.runner._warm_up``.

    Leaves the LLC, the controller's training state, the data model's
    version counters, and ``workload.traces`` exactly as the scalar
    warm-up loop would, then zeroes the statistics the same way.
    Returns ``False`` — with *no* state touched — when the workload or
    controller shape cannot be mirrored exactly.
    """
    from ..core.controllers import (
        AttacheController,
        BaselineController,
        IdealController,
        MetadataCacheController,
    )
    from ..cpu.cache import CacheStats
    from ..workloads.bank import replay_records

    columns = getattr(workload, "columns", None)
    if not columns or warmup_per_core <= 0:
        return False
    # Exact types only: subclasses may override the warm hooks.
    kind = type(controller)
    if kind not in (
        BaselineController,
        IdealController,
        MetadataCacheController,
        AttacheController,
    ):
        return False
    if any(llc._lines):
        return False
    data_model = workload.data_model
    if not hasattr(data_model, "regions"):
        return False
    compressed = kind is not BaselineController
    if compressed and (
        controller._stored_compressed or controller._version_written
    ):
        return False
    stream = event_stream(workload, llc.sets, llc.ways, warmup_per_core)
    if stream is None:
        return False
    llc.fill(stream.outcome)

    # note_store replay: the scalar loop bumps the owning region model's
    # version counter once per store; only the final counts matter.
    regions = data_model.regions
    if stream.store_lines.size:
        owners = _route_models(
            data_model, stream.store_lines.astype(np.uint64)
        )
        for region_index in range(len(regions)):
            member = np.nonzero(owners == region_index)[0]
            if not member.size:
                continue
            versions = regions[region_index][2]._versions
            for line, count in zip(
                stream.store_lines[member].tolist(),
                stream.store_counts[member].tolist(),
            ):
                versions[line] = versions.get(line, 0) + count

    if compressed:
        # warm_write records the class/version at the victim's current
        # store count and warm_read initialises never-stored lines at
        # version 0: the stream's stored state, copied into empty dicts.
        classes, versions = stream.stored_state(data_model)
        controller._stored_compressed.update(classes)
        controller._version_written.update(versions)
        if kind is MetadataCacheController:
            replay_metadata_cache(controller.metadata_cache, stream)
        if kind is AttacheController:
            controller.copr.replay(
                (stream.line * CACHELINE_BYTES).tolist(),
                stream.classes(data_model)[2].tolist(),
            )

    # The timed window resumes where the warm-up stopped.
    workload.traces = [
        replay_records(
            memoryview(addresses_col)[warmup_per_core:],
            memoryview(gaps_col)[warmup_per_core:],
            memoryview(ops_col)[warmup_per_core:],
        )
        for addresses_col, gaps_col, ops_col in columns
    ]
    llc.stats = CacheStats()
    controller.reset_stats()
    return True


def prewarm_timed_phase(workload, controller, offset: int, count: int) -> None:
    """Batch-fill the pure memo caches the timed window will consult.

    Unique lines of the timed window (columns ``[offset:offset+count]``)
    get their content bytes and compressibility class memoised at the
    version the controller's warm state pins (``_version_written``, or
    0 for untouched lines) — the version every first-touch boot encode
    and verification read will ask for — and, for BLEM controllers, the
    scrambler keystream for the line's base address.  All three caches
    are pure functions of their key, so this changes no simulated
    outcome, only when the work happens.
    """
    columns = getattr(workload, "columns", None)
    if not columns or count <= 0:
        return
    version_written = getattr(controller, "_version_written", None)
    if version_written is None:
        return
    data_model = workload.data_model
    if not hasattr(data_model, "regions"):
        return
    rows = []
    for addresses, __, ___ in columns:
        row = np.asarray(addresses, dtype=np.uint64)
        rows.append(row[offset: offset + count] >> np.uint64(6))
    unique_lines = np.unique(np.concatenate(rows)).astype(np.int64)
    if not unique_lines.size:
        return
    versions = np.fromiter(
        (version_written.get(line, 0) for line in unique_lines.tolist()),
        dtype=np.int64,
        count=unique_lines.shape[0],
    )
    owners = _route_models(data_model, unique_lines.astype(np.uint64))
    regions = data_model.regions
    for region_index in range(len(regions)):
        member = np.nonzero(owners == region_index)[0]
        if not member.size:
            continue
        model = regions[region_index][2]
        member_lines = unique_lines[member].astype(np.uint64)
        member_versions = versions[member]
        limit = model._content_cache_limit - _MEMO_HEADROOM
        _memoise_missing(
            model._content_cache, limit, member_lines, member_versions,
            lambda lines, line_versions: [
                row.tobytes() for row in lines_data(
                    model, lines, line_versions.astype(np.uint64)
                )
            ],
        )
        if model._class_cache is not None:
            _memoise_missing(
                model._class_cache, limit, member_lines, member_versions,
                lambda lines, line_versions: line_classes(
                    model, lines, line_versions
                ).tolist(),
            )

    blem = getattr(controller, "blem", None)
    if blem is None:
        return
    from ..scramble.scrambler import _KEYSTREAM_CACHE_ENTRIES

    scrambler = blem._scrambler
    keystreams = scrambler._keystreams
    line_addresses = unique_lines * CACHELINE_BYTES
    missing_addresses = [
        address
        for address in line_addresses.tolist()
        if address not in keystreams
    ]
    if missing_addresses and (
        len(keystreams) + len(missing_addresses)
        < _KEYSTREAM_CACHE_ENTRIES - _MEMO_HEADROOM
    ):
        from .scramble import keystream_matrix

        matrix = keystream_matrix(
            scrambler.seed,
            np.asarray(missing_addresses, dtype=np.uint64),
        )
        for address, row in zip(missing_addresses, matrix):
            raw = row.tobytes()
            keystreams[address] = (raw, int.from_bytes(raw, "little"))


def _memoise_missing(cache, limit, lines, versions, compute) -> None:
    """Store ``compute(lines, versions)`` in *cache* for the
    ``(line, version)`` pairs it lacks, unless that would reach *limit*.
    """
    pairs = list(zip(lines.tolist(), versions.tolist()))
    need = [index for index, pair in enumerate(pairs) if pair not in cache]
    if need and len(cache) + len(need) < limit:
        for index, value in zip(need, compute(lines[need], versions[need])):
            cache[pairs[index]] = value
