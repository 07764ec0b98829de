"""The fast path's contract: same results, fewer cycles.

Two layers of evidence (see ``repro.fastpath``):

* **Differential tests** pin the size-only classifiers to the full
  codecs over adversarial line content: ``classify`` must agree with
  ``compress`` on feasibility and size, ``materialize`` must rebuild the
  winning payload byte-for-byte, and the fast prefix decoder must match
  the BitReader-based one.
* **Golden runs** require ``SimulationResult.to_dict()`` to be exactly
  equal with the fast path on and off, for every workload profile —
  the end-to-end statement that no cache, memo or scheduler shortcut is
  observable in a result.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.compression.base import DecompressionError
from repro.compression.bdi import BdiCompressor
from repro.compression.engine import CompressionEngine
from repro.compression.fpc import FpcCompressor
from repro.fastpath.classifiers import (
    bdi_classify,
    bdi_materialize,
    fpc_classify,
    fpc_decode_prefix,
)
from repro.sim.runner import SYSTEMS, ExperimentScale, run_benchmark
from repro.workloads.profiles import PROFILES
from repro.workloads.tracegen import clear_shared_memos

# ----------------------------------------------------------------------
# Line-content strategies.  Uniform random bytes almost never compress,
# so the mix below steers generation toward the codecs' decision
# boundaries (zero runs, small signed words, repeated bytes, base+delta
# clusters) while keeping a fully-random arm for the incompressible case.
# ----------------------------------------------------------------------

_WORD = st.one_of(
    st.just(0),
    st.integers(-8, 7).map(lambda v: v & 0xFFFFFFFF),
    st.integers(-128, 127).map(lambda v: v & 0xFFFFFFFF),
    st.integers(-32768, 32767).map(lambda v: v & 0xFFFFFFFF),
    st.integers(0, 0xFFFF).map(lambda v: v << 16),
    st.integers(0, 255).map(lambda b: b * 0x01010101),
    st.integers(0, 0xFFFFFFFF),
)

_FPC_LIKE = st.lists(_WORD, min_size=16, max_size=16).map(
    lambda words: struct.pack("<16I", *words)
)

_UNSIGNED_FMT = {2: "<32H", 4: "<16I", 8: "<8Q"}


@st.composite
def _bdi_like(draw) -> bytes:
    base_size = draw(st.sampled_from([2, 4, 8]))
    bits = 8 * base_size
    count = 64 // base_size
    base = draw(st.integers(0, (1 << bits) - 1))
    spread = draw(st.sampled_from([1 << 3, 1 << 7, 1 << 15]))
    words = [
        (base + draw(st.integers(-spread, spread - 1))) % (1 << bits)
        for _ in range(count)
    ]
    return struct.pack(_UNSIGNED_FMT[base_size], *words)


_LINE = st.one_of(
    st.just(bytes(64)),
    st.binary(min_size=8, max_size=8).map(lambda chunk: chunk * 8),
    _bdi_like(),
    _FPC_LIKE,
    st.binary(min_size=64, max_size=64),
)

_BDI = BdiCompressor()
_FPC = FpcCompressor()


class TestBdiDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_LINE)
    def test_classify_matches_compress(self, data):
        block = _BDI.compress(data)
        classified = bdi_classify(data)
        if block is None:
            assert classified is None
        else:
            size, token = classified
            assert size == block.size
            rebuilt = bdi_materialize(_BDI, data, token)
            assert rebuilt.payload == block.payload
            assert rebuilt.algorithm == block.algorithm

    @settings(max_examples=200, deadline=None)
    @given(_LINE, st.integers(min_value=0, max_value=64))
    def test_limit_never_changes_an_accepted_answer(self, data, limit):
        exact = bdi_classify(data)
        limited = bdi_classify(data, limit)
        if exact is None:
            assert limited is None
        elif exact[0] <= limit:
            assert limited == exact
        else:
            # Above the limit the classifier may skip work (None) but
            # must never fabricate a different size.
            assert limited is None or limited == exact


class TestFpcDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_LINE)
    def test_classify_matches_compress(self, data):
        block = _FPC.compress(data)
        classified = fpc_classify(data)
        if block is None:
            assert classified is None
        else:
            assert classified[0] == block.size

    @settings(max_examples=200, deadline=None)
    @given(_LINE, st.integers(min_value=0, max_value=64))
    def test_limit_never_changes_an_accepted_answer(self, data, limit):
        exact = fpc_classify(data)
        limited = fpc_classify(data, limit)
        if exact is None:
            assert limited is None
        elif exact[0] <= limit:
            assert limited == exact
        else:
            assert limited is None or limited == exact

    @settings(max_examples=300, deadline=None)
    @given(_FPC_LIKE, st.integers(min_value=0, max_value=8))
    def test_decode_prefix_matches_bitreader(self, data, pad):
        block = _FPC.compress(data)
        if block is None:
            return
        padded = block.payload + bytes(pad)
        assert fpc_decode_prefix(padded) == _FPC.decompress_prefix(padded)
        assert fpc_decode_prefix(padded) == data

    @settings(max_examples=100, deadline=None)
    @given(_FPC_LIKE, st.integers(min_value=0, max_value=6))
    def test_decode_prefix_rejects_truncation_like_bitreader(
        self, data, keep
    ):
        block = _FPC.compress(data)
        if block is None or keep >= block.size:
            return
        truncated = block.payload[:keep]
        with pytest.raises((DecompressionError, ValueError)):
            _FPC.decompress_prefix(truncated)
        with pytest.raises((DecompressionError, ValueError)):
            fpc_decode_prefix(truncated)


class TestEngineDifferential:
    """The engine's fast classify/memo layer against a slow-mode twin."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_LINE, min_size=1, max_size=6))
    def test_both_modes_agree_line_by_line(self, lines):
        with fastpath.overridden(True):
            fast = CompressionEngine()
        with fastpath.overridden(False):
            slow = CompressionEngine()
        # Repeat the list so the fast engine's content memo gets hits.
        for data in lines + lines:
            assert fast.is_compressible(data) == slow.is_compressible(data)
            assert fast.compressed_size(data) == slow.compressed_size(data)
            fast_block = fast.compress(data)
            slow_block = slow.compress(data)
            if slow_block is None:
                assert fast_block is None
            else:
                assert fast_block.algorithm == slow_block.algorithm
                assert fast_block.payload == slow_block.payload


# ----------------------------------------------------------------------
# Channel differential: the fast FR-FCFS selector against the reference
# scan, compared command by command.
# ----------------------------------------------------------------------


def _drive_channel(fast, events):
    """Run one request stream through a fresh channel; normalised log."""
    from repro.dram import DramTiming
    from repro.dram.channel import Channel
    from repro.dram.request import DramRequest, RequestKind

    with fastpath.overridden(fast):
        channel = Channel(
            DramTiming(), events["org"], log_commands=True,
            page_policy=events["page_policy"],
        )
    assert channel._fastpath == fast
    id_map = {}
    completions = []
    for arrival, address, decoded, write, mask in events["stream"]:
        completions += channel.advance(arrival)
        request = DramRequest(
            byte_address=address, decoded=decoded, is_write=write,
            subrank_mask=mask, data_beats=4,
            kind=RequestKind.DEMAND_READ, arrival_cycle=arrival,
        )
        id_map[request.request_id] = len(id_map)
        channel.enqueue(request)
    completions += channel.advance(10_000_000.0)
    # Request ids are process-global; map them to enqueue order so two
    # independently constructed runs are comparable.
    log = [
        (cycle, command, rank, bank,
         id_map[rid] if rid is not None else None)
        for cycle, command, rank, bank, rid in channel.command_log
    ]
    done = [
        (id_map[r.request_id], r.issue_cycle, r.completion_cycle,
         r.row_outcome)
        for r in completions
    ]
    return log, done


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_channel_fastpath_candidate_selection_matches_reference(data):
    """Two ranks exercise the per-rank refresh caches and rank-wide
    invalidation; the closed page policy exercises the auto-precharge
    rider."""
    from repro.dram import AddressMapper, DramOrganization, DramTiming
    from repro.dram.config import MemoryAddress

    org = DramOrganization(ranks_per_channel=data.draw(st.sampled_from([1, 2])))
    mapper = AddressMapper(org)
    count = data.draw(st.integers(5, 80))
    # Starting just before the first refresh falls due makes REF land
    # while requests are queued.
    arrival = data.draw(st.sampled_from([0.0, DramTiming().t_refi - 40.0]))
    stream = []
    for _ in range(count):
        address = mapper.encode(MemoryAddress(
            channel=0,
            rank=data.draw(st.integers(0, org.ranks_per_channel - 1)),
            bank_group=data.draw(st.integers(0, org.bank_groups - 1)),
            bank=data.draw(st.integers(0, org.banks_per_group - 1)),
            row=data.draw(st.integers(0, 3)),
            column=data.draw(st.integers(0, 7)),
        ))
        stream.append((
            arrival, address, mapper.decode(address),
            data.draw(st.booleans()),
            data.draw(st.sampled_from([(0, 1), (0,), (1,)])),
        ))
        arrival += data.draw(
            st.sampled_from([0.0, 0.0, 1.0, 5.0, 40.0, 4000.0])
        )
    events = {
        "org": org,
        "page_policy": data.draw(st.sampled_from(["open", "closed"])),
        "stream": stream,
    }
    assert _drive_channel(True, events) == _drive_channel(False, events)


# ----------------------------------------------------------------------
# Golden end-to-end equality: fast path on vs off.
# ----------------------------------------------------------------------

#: Small enough that 18 profiles x 2 modes stay test-suite friendly,
#: large enough to reach steady-state scheduling (write drains, refresh,
#: bank conflicts) in every profile.
_GOLDEN_SCALE = ExperimentScale(
    name="fastpath-golden", factor=64, cores=2, records_per_core=150,
    warmup_per_core=0,
)


def _run_both_modes(workload: str, system: str) -> tuple:
    payloads = []
    for mode in (True, False):
        # Each mode generates its own line contents: a memo the other
        # mode filled would hide a content or version bug in either.
        clear_shared_memos()
        with fastpath.overridden(mode):
            result = run_benchmark(
                workload, system, scale=_GOLDEN_SCALE, seed=2018
            )
        payloads.append(result.to_dict())
    return payloads[0], payloads[1]


class TestGoldenEquality:
    # ("workload", not "benchmark": pytest-benchmark reserves that name)
    @pytest.mark.parametrize("workload", sorted(PROFILES))
    def test_every_profile_is_bit_identical_on_attache(self, workload):
        fast, slow = _run_both_modes(workload, "attache")
        assert fast == slow

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_system_is_bit_identical(self, system):
        fast, slow = _run_both_modes("STREAM", system)
        assert fast == slow

    def test_perf_telemetry_never_enters_the_payload(self):
        with fastpath.overridden(True):
            result = run_benchmark(
                "STREAM", "attache", scale=_GOLDEN_SCALE, seed=2018
            )
        assert result.perf is not None
        assert result.perf["fastpath"] is True
        assert "perf" not in result.to_dict()
        # A result rebuilt from the payload carries no telemetry.
        from repro.sim.simulator import SimulationResult

        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt.perf is None
