"""Performance trajectory: every pinned yardstick must stay fast.

Measures each pin of ``repro.fastpath.bench.PINS`` with
``repro.fastpath.bench.measure``, publishes the fresh numbers to
``benchmarks/out/``, and gates each against its committed baseline
``benchmarks/BENCH_<name>.json``:

* single_run — the pinned workload with the fast path on and off;
* sweep — the pinned sensitivity grid end-to-end through the
  orchestrator with the warm pool and with spawn-per-job workers;
* functional — the pinned metadata-traffic functional pass with the
  vector kernels on and off;
* timing — the pinned detailed-simulator run with a deep functional
  warm-up, vector timing plane on and off.

For every pin: the two modes must produce bit-identical results, the
fast mode must beat the slow one outright, and the speedup ratio must
not regress more than 25% below the committed baseline ratio.  Where
the baseline records the fast run's ``perf`` counters, the fast run
must also do no more work than committed (``WORK_COUNTERS``): these
counts are deterministic, so a fast-path memo that stops working fails
them on every run, however noisy the host.  The
gates compare *ratios*, not wall clocks: absolute times depend on the
machine, but dividing one mode's time by the other's on the same
machine cancels that out.  After a deliberate perf change, re-measure
on a quiet machine (``REPRO_BENCH_PERF_REPEATS=7``) and commit the
refreshed baseline.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.fastpath.bench import PINS, measure

from conftest import publish

BASELINE_DIR = pathlib.Path(__file__).parent

#: Paths into ``SimulationResult.perf`` of the work counters gated as
#: "no more than the committed baseline".
WORK_COUNTERS = (
    ("scheduler", "computes"),
    ("scheduler", "advances"),
    ("scheduler", "bucket", "misses"),
    ("full_encodes",),
    ("classify", "misses"),
    ("keystream", "misses"),
    ("verified_reads", "misses"),
)


def _counter(perf: dict, path) -> int:
    for key in path:
        perf = perf[key]
    return perf


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.name)
def test_perf_trajectory(pin, report_dir):
    name = f"BENCH_{pin.name}"
    repeats = int(os.environ.get("REPRO_BENCH_PERF_REPEATS", pin.repeats))
    report = measure(pin, repeats)
    (report_dir / f"{name}.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    baseline_path = BASELINE_DIR / f"{name}.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    fast, slow = pin.modes
    rows = "\n".join(
        f"  {label:<28}{value}"
        for label, value in [
            ("repeats (best-of)", report.repeats),
            (f"{fast} wall clock (s)", f"{report.fast.wall_s:.3f}"),
            (f"{slow} wall clock (s)", f"{report.slow.wall_s:.3f}"),
            (f"{fast} events/sec", f"{report.fast.events_per_s:.0f}"),
            (f"{slow} events/sec", f"{report.slow.events_per_s:.0f}"),
            (f"speedup ({slow}/{fast})", f"{report.speedup:.2f}x"),
            ("baseline speedup", f"{baseline['speedup']:.2f}x"),
            ("bit-identical", report.identical),
        ]
    )
    publish(report_dir, name, f"{pin.name} pin ({fast} vs {slow})\n" + rows)

    assert report.identical, (
        f"{pin.name}: the {fast} mode is not bit-identical to the {slow} "
        f"mode: {fast} digest {report.fast.digest[:16]}, "
        f"{slow} digest {report.slow.digest[:16]}"
    )
    committed = baseline[fast]["perf"]
    if committed is not None:
        work = {
            ".".join(path): (_counter(report.fast.perf, path),
                             _counter(committed, path))
            for path in WORK_COUNTERS
        }
        more_work = {
            name: counts for name, counts in work.items()
            if counts[0] > counts[1]
        }
        assert not more_work, (
            f"{pin.name}: the {fast} mode did more work than its baseline "
            f"(measured, committed): {more_work}"
        )
    assert report.speedup > 1.0, (
        f"{pin.name}: the {fast} mode is slower than the {slow} mode: "
        f"{report.speedup:.2f}x"
    )
    floor = 0.75 * baseline["speedup"]
    assert report.speedup >= floor, (
        f"{pin.name} speedup regressed: measured {report.speedup:.2f}x, "
        f"baseline {baseline['speedup']:.2f}x (gate: >= {floor:.2f}x). "
        "If this follows a deliberate change, re-measure and refresh "
        f"{baseline_path.name}."
    )
