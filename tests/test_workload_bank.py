"""Tests for the workload bank: columnar encoding, replay, sharing.

The bank's whole contract is "indistinguishable from generation, only
cheaper": a round-tripped column blob must re-yield exactly the records
that went in (property-tested over arbitrary traces), and a replayed
:class:`WorkloadInstance` must match a generated one record for record
and line for line.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import MemOp, TraceRecord
from repro.workloads import bank
from repro.workloads.bank import (
    BANK_SCHEMA_VERSION,
    WorkloadBank,
    column_views,
    decode_header,
    encode_columns,
    records_to_columns,
    replay_records,
)
from repro.workloads.tracegen import build_workload, generate_workload

WORKLOAD = dict(cores=2, records_per_core=120, seed=11, footprint_scale=1.0)


@pytest.fixture(autouse=True)
def _no_leaked_bank():
    """Every test starts and ends without a process-global bank."""
    bank.deactivate()
    yield
    bank.deactivate()


def _drain(instance):
    return [list(trace) for trace in instance.traces]


# ----------------------------------------------------------------------
# Columnar encode/decode
# ----------------------------------------------------------------------

_records = st.lists(
    st.builds(
        TraceRecord,
        gap=st.integers(min_value=0, max_value=2**32 - 1),
        op=st.sampled_from([MemOp.LOAD, MemOp.STORE]),
        address=st.integers(min_value=0, max_value=2**64 - 1),
    ),
    max_size=64,
)


class TestColumnarRoundTrip:
    @given(st.lists(_records, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_round_trips(self, cores):
        header = {"bank_schema": BANK_SCHEMA_VERSION, "name": "prop"}
        blob = encode_columns(
            header, [records_to_columns(core) for core in cores]
        )
        decoded = decode_header(blob)
        assert decoded["name"] == "prop"
        views = column_views(blob, decoded)
        assert len(views) == len(cores)
        for view, original in zip(views, cores):
            assert list(replay_records(*view)) == original

    def test_mismatched_column_lengths_rejected(self):
        addresses, gaps, ops = records_to_columns(
            [TraceRecord(gap=0, op=MemOp.LOAD, address=1)]
        )
        with pytest.raises(ValueError, match="lengths disagree"):
            encode_columns({}, [(addresses, gaps, ops + b"\x00")])

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_header(b"NOTABANK" + b"\x00" * 32)

    def test_truncated_blob_rejected(self):
        blob = encode_columns(
            {"bank_schema": BANK_SCHEMA_VERSION},
            [records_to_columns(
                [TraceRecord(gap=1, op=MemOp.STORE, address=2)] * 8
            )],
        )
        with pytest.raises(ValueError, match="truncated"):
            decode_header(blob[:-16])

    def test_wrong_schema_rejected(self):
        blob = encode_columns({"bank_schema": BANK_SCHEMA_VERSION + 1}, [])
        with pytest.raises(ValueError, match="schema"):
            decode_header(blob)


# ----------------------------------------------------------------------
# Bank replay vs direct generation
# ----------------------------------------------------------------------

class TestBankReplay:
    @pytest.mark.parametrize("name", ["STREAM", "mcf", "mix1"])
    def test_replay_matches_generation(self, tmp_path, name):
        generated = generate_workload(name, **WORKLOAD)
        replayed = WorkloadBank(tmp_path).workload(name=name, **WORKLOAD)
        assert replayed.name == generated.name
        assert replayed.region_bases == generated.region_bases
        assert replayed.region_sizes == generated.region_sizes
        assert [p.name for p in replayed.profiles] == [
            p.name for p in generated.profiles
        ]
        assert _drain(replayed) == _drain(generated)

    def test_replayed_data_model_matches(self, tmp_path):
        generated = generate_workload("mix1", **WORKLOAD)
        replayed = WorkloadBank(tmp_path).workload(name="mix1", **WORKLOAD)
        lines = [base // 64 + offset
                 for base in generated.region_bases for offset in (0, 1, 7)]
        for line in lines:
            assert (replayed.data_model.line_data(line, 0)
                    == generated.data_model.line_data(line, 0))
            assert (replayed.data_model.line_class(line, 3)
                    == generated.data_model.line_class(line, 3))

    def test_materialize_is_idempotent(self, tmp_path):
        store = WorkloadBank(tmp_path)
        key = store.materialize(name="STREAM", **WORKLOAD)
        assert store.materialize(name="STREAM", **WORKLOAD) == key
        assert store.stats.built == 1
        assert len(list(tmp_path.glob("*.bank"))) == 1

    def test_distinct_parameters_distinct_entries(self, tmp_path):
        store = WorkloadBank(tmp_path)
        base = store.key(name="STREAM", **WORKLOAD)
        changed = dict(WORKLOAD, seed=WORKLOAD["seed"] + 1)
        assert store.key(name="STREAM", **changed) != base
        assert store.key(name="mcf", **WORKLOAD) != base

    def test_attach_is_cached_per_key(self, tmp_path):
        store = WorkloadBank(tmp_path)
        store.workload(name="STREAM", **WORKLOAD)
        store.workload(name="STREAM", **WORKLOAD)
        assert store.stats.attached == 1
        assert store.stats.replayed == 2


# ----------------------------------------------------------------------
# Process-global installation
# ----------------------------------------------------------------------

class TestInstall:
    def test_build_workload_consults_active_bank(self, tmp_path):
        direct = _drain(build_workload("STREAM", **WORKLOAD))
        installed = bank.install(tmp_path)
        via_bank = _drain(build_workload("STREAM", **WORKLOAD))
        assert installed.stats.replayed == 1
        assert via_bank == direct

    def test_deactivate_restores_generation(self, tmp_path):
        installed = bank.install(tmp_path)
        build_workload("STREAM", **WORKLOAD)
        bank.deactivate()
        assert bank.active_bank() is None
        build_workload("STREAM", **WORKLOAD)
        assert installed.stats.replayed == 1  # unchanged after deactivate

    def test_shared_memos_survive_across_instances(self, tmp_path):
        bank.install(tmp_path)
        first = build_workload("STREAM", **WORKLOAD)
        line = first.region_bases[0] // 64
        data = first.data_model.line_data(line, 0)
        second = build_workload("STREAM", **WORKLOAD)
        # The second instance's model starts with the first one's memo:
        # same object identity proves the cache was shared, not re-derived.
        assert second.data_model.line_data(line, 0) is data


# ----------------------------------------------------------------------
# Process-wide data-model memos (no bank installed)
# ----------------------------------------------------------------------

def _first_model(instance):
    return instance.data_model.regions[0][2]


class TestSharedModelMemos:
    def test_generated_instances_share_memos(self):
        first = build_workload("STREAM", **WORKLOAD)
        line = first.region_bases[0] // 64
        data = first.data_model.line_data(line, 0)
        second = build_workload("STREAM", **WORKLOAD)
        assert second.data_model.line_data(line, 0) is data
        assert (_first_model(second)._content_cache
                is _first_model(first)._content_cache)

    def test_versions_are_per_instance(self):
        first = build_workload("STREAM", **WORKLOAD)
        second = build_workload("STREAM", **WORKLOAD)
        line = first.region_bases[0] // 64
        first.data_model.note_store(line)
        assert first.data_model.version_of(line) == 1
        assert second.data_model.version_of(line) == 0

    def test_different_seed_gets_different_memo(self):
        first = build_workload("STREAM", **WORKLOAD)
        other = build_workload(
            "STREAM", **dict(WORKLOAD, seed=WORKLOAD["seed"] + 1)
        )
        assert (_first_model(other)._content_cache
                is not _first_model(first)._content_cache)

    def test_registry_keeps_only_the_last_workloads_memos(self):
        from repro.workloads import tracegen

        first = build_workload("STREAM", **WORKLOAD)
        mix = build_workload("mix1", **WORKLOAD)
        kept = {id(model._content_cache)
                for __, ___, model in mix.data_model.regions}
        assert {id(memo.content)
                for memo in tracegen._model_memos.values()} == kept
        again = build_workload("STREAM", **WORKLOAD)
        assert (_first_model(again)._content_cache
                is not _first_model(first)._content_cache)

    def test_reused_memos_leave_the_result_digest_unchanged(self):
        from repro.fastpath.bench import result_digest
        from repro.sim.runner import ExperimentScale, run_benchmark
        from repro.workloads import tracegen

        scale = ExperimentScale(
            name="memo", factor=64, cores=2, records_per_core=60,
            warmup_per_core=60,
        )
        run_benchmark("mix1", "baseline", scale=scale, seed=11)
        assert tracegen._model_memos  # the second run starts warm
        warm = result_digest(
            run_benchmark("mix1", "attache", scale=scale, seed=11)
        )
        tracegen.clear_shared_memos()
        cold = result_digest(
            run_benchmark("mix1", "attache", scale=scale, seed=11)
        )
        assert warm == cold


# ----------------------------------------------------------------------
# Process-wide trace columns and LLC event streams
# ----------------------------------------------------------------------

def _count_calls(monkeypatch, module, name, record=lambda *a, **k: True):
    """Wrap ``module.name``; returns the list of recorded calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        if record(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSharedTrace:
    FUNCTIONAL = dict(cores=2, records_per_core=1500, seed=2018,
                      footprint_scale=1 / 64, llc_bytes=64 * 1024)

    def _functional(self, mode):
        from repro.core.copr import CoprConfig
        from repro.core.metadata_cache import MetadataCache
        from repro.sim.functional import run_functional

        if mode == "lru":
            cache = MetadataCache(capacity_bytes=8 * 1024, ways=8,
                                  policy="lru")
            run = run_functional("mix1", metadata_cache=cache,
                                 **self.FUNCTIONAL)
            state = [[(block, e.dirty, e.rrpv, e.reused)
                      for block, e in bucket.items()]
                     for bucket in cache._data]
            return run.to_dict(), state
        run = run_functional("mix1", copr_config=CoprConfig(),
                             **self.FUNCTIONAL)
        return run.to_dict(), None

    def test_functional_passes_share_one_llc_simulation(self, monkeypatch):
        from repro import kernels
        from repro.kernels import functional
        from repro.workloads.tracegen import clear_shared_memos

        llc_sets = self.FUNCTIONAL["llc_bytes"] // (64 * 8)
        llc_runs = _count_calls(
            monkeypatch, functional, "lru_simulate",
            lambda keys, writes, sets, ways: (sets, ways) == (llc_sets, 8),
        )
        with kernels.overridden(True):
            warm = [self._functional("lru"), self._functional("copr")]
            assert len(llc_runs) == 1
            cold = []
            for mode in ("lru", "copr"):
                clear_shared_memos()
                cold.append(self._functional(mode))
        assert len(llc_runs) == 3
        assert warm == cold

    def test_detailed_systems_generate_columns_once(self, monkeypatch):
        from repro import kernels
        from repro.fastpath.bench import result_digest
        from repro.kernels import tracegen as vector_tracegen
        from repro.sim.runner import SYSTEMS, ExperimentScale, run_benchmark
        from repro.workloads.tracegen import clear_shared_memos

        scale = ExperimentScale(name="shared", factor=64, cores=2,
                                records_per_core=60, warmup_per_core=60)
        generated = _count_calls(
            monkeypatch, vector_tracegen, "workload_columns"
        )
        with kernels.overridden(True):
            warm = [result_digest(run_benchmark("mix1", system, scale=scale,
                                                seed=11))
                    for system in SYSTEMS]
            assert len(generated) == 1
            cold = []
            for system in SYSTEMS:
                clear_shared_memos()
                cold.append(result_digest(
                    run_benchmark("mix1", system, scale=scale, seed=11)))
        assert warm == cold

    def test_shared_arrays_are_read_only(self):
        from repro import kernels
        from repro.kernels.functional import event_stream

        with kernels.overridden(True):
            instance = build_workload("STREAM", **WORKLOAD)
        stream = event_stream(instance, 16, 4)
        for array in (instance.columns[0][0], stream.line,
                      stream.outcome.set_tags,
                      stream.classes(instance.data_model)[2]):
            with pytest.raises(ValueError):
                array[0] = 0
        assert event_stream(instance, 16, 4) is stream
        # Another warm-up window or LLC geometry is another stream.
        window = event_stream(instance, 16, 4, 60)
        assert window is not stream
        assert window.outcome.accesses == 2 * 60
        assert event_stream(instance, 32, 4) is not stream

    def test_building_another_workload_rebuilds_the_first(
        self, monkeypatch
    ):
        from repro import kernels
        from repro.kernels import tracegen as vector_tracegen

        generated = _count_calls(
            monkeypatch, vector_tracegen, "workload_columns"
        )
        with kernels.overridden(True):
            first = build_workload("STREAM", **WORKLOAD)
            again = build_workload("STREAM", **WORKLOAD)
            assert len(generated) == 1 and again.shared is first.shared
            build_workload("mix1", **WORKLOAD)
            third = build_workload("STREAM", **WORKLOAD)
        assert len(generated) == 3
        # An instance keeps its own entry: a later build never swaps the
        # columns or streams a running simulation reads.
        assert third.shared is not first.shared
        assert first.columns is not third.columns
        assert _drain(first) == _drain(third)

    def test_bank_replays_share_one_entry(self, tmp_path):
        from repro.kernels.functional import event_stream

        bank.install(tmp_path)
        first = build_workload("STREAM", **WORKLOAD)
        second = build_workload("STREAM", **WORKLOAD)
        assert second.shared is first.shared
        assert event_stream(second, 16, 4) is event_stream(first, 16, 4)
