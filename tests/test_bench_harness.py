"""Tests for the perf-pin harness (``repro.fastpath.bench``).

The pins' ``run`` callables are replaced by fakes that do no work, so
these tests check the harness itself — interleaving, best-of-N, the
digest check, the report layout — in milliseconds.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.fastpath.bench import PINS, BenchRun, Pin, measure

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def _toy_pin(walls, digests=None):
    """A pin whose runs return scripted wall clocks and digests, in call
    order, and record which mode each call asked for."""
    calls = []

    def run(fast):
        index = len(calls)
        calls.append(fast)
        digest = digests[index] if digests else "same"
        return BenchRun(wall_s=walls[index], events=10, digest=digest,
                        perf=None)

    pin = Pin(name="toy", config={"knob": 1}, modes=("quick", "plain"),
              repeats=2, run=run)
    return pin, calls


def test_modes_are_interleaved():
    pin, calls = _toy_pin([1.0] * 6)
    measure(pin, 3)
    assert calls == [True, False, True, False, True, False]


def test_best_of_n_keeps_the_minimum_wall_clock_per_mode():
    # Calls alternate fast, slow: fast walls 3, 1, 2; slow walls 9, 7, 8.
    pin, _ = _toy_pin([3.0, 9.0, 1.0, 7.0, 2.0, 8.0])
    report = measure(pin, 3)
    assert report.fast.wall_s == 1.0
    assert report.slow.wall_s == 7.0
    assert report.speedup == 7.0
    assert report.repeats == 3
    assert report.identical


def test_one_differing_digest_breaks_identity():
    pin, _ = _toy_pin([1.0] * 4, digests=["a", "a", "a", "b"])
    assert not measure(pin, 2).identical


def test_every_run_starts_with_cold_data_model_memos():
    from repro.workloads import tracegen

    seen = []
    traces = []

    def run(fast):
        seen.append(len(tracegen._model_memos))
        traces.append(tracegen._last_trace)
        tracegen.build_workload("STREAM", cores=1, records_per_core=10,
                                seed=3)
        return BenchRun(wall_s=1.0, events=1, digest="d", perf=None)

    pin = Pin(name="toy", config={}, modes=("quick", "plain"), repeats=2,
              run=run)
    measure(pin, 2)
    tracegen.clear_shared_memos()
    assert seen == [0, 0, 0, 0]
    # Trace columns and event streams start cold too.
    assert traces == [None, None, None, None]


def test_zero_repeats_raises():
    pin, calls = _toy_pin([1.0])
    with pytest.raises(ValueError, match="repeats"):
        measure(pin, 0)
    assert calls == []


def test_report_labels_runs_by_mode_and_keeps_the_config():
    pin, _ = _toy_pin([2.0, 4.0])
    payload = measure(pin, 1).to_dict()
    assert payload["knob"] == 1
    assert payload["speedup"] == 2.0
    assert payload["quick"]["wall_s"] == 2.0
    assert payload["plain"]["wall_s"] == 4.0
    assert payload["quick"]["events_per_s"] == 5.0


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.name)
def test_report_matches_the_committed_baseline_layout(pin):
    fake = dataclasses.replace(pin, run=lambda fast: BenchRun(
        wall_s=1.0, events=1, digest="d", perf=None,
    ))
    payload = measure(fake, 1).to_dict()
    baseline = json.loads(
        (BENCH_DIR / f"BENCH_{pin.name}.json").read_text(encoding="utf-8")
    )
    assert set(payload) == set(baseline)
    for mode in pin.modes:
        assert set(payload[mode]) == set(baseline[mode])
    # The pinned configuration is the one the baseline was measured at.
    for key, value in pin.config.items():
        assert baseline[key] == value

