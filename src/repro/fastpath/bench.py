"""The pinned perf yardsticks and the one harness that measures them.

Performance claims need fixed yardsticks.  Each :class:`Pin` fixes ONE
workload and two modes of running it — fast path on/off, warm pool vs
spawn-per-job, vector kernels on/off — and :func:`measure` times both
modes with the only timing methodology that is stable on a shared
machine: interleaved best-of-N wall clock.

The minimum over repeats estimates the noise floor (scheduler
interference and frequency scaling only ever *add* time), so ratios of
minima are comparable across commits on the same machine.  Absolute
times are NOT comparable across machines; the regression gate in CI
therefore compares each pin's slow/fast *speedup ratio* against its
committed baseline (``benchmarks/BENCH_<name>.json``), which divides
the machine out.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

from repro import fastpath
from repro.sim.runner import ExperimentScale, run_benchmark


def result_digest(result) -> str:
    """Canonical digest of a result payload, for bit-identity checks."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def grid_digest(results) -> str:
    """Digest of a whole grid: sha256 over its per-point
    :func:`result_digest`\\ s, joined in grid order."""
    joined = "".join(result_digest(result) for result in results)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


@dataclass
class BenchRun:
    """One timed run of a pinned workload in one mode."""

    wall_s: float
    events: int  #: retired trace records, or grid points on the sweep pin
    digest: str  #: result digest (the grid digest on the sweep pin)
    perf: Optional[dict]  #: SimulationResult.perf of this run, if any

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "wall_s": round(self.wall_s, 6),
            "events": self.events,
            "events_per_s": round(self.events_per_s, 3),
            "digest": self.digest,
            "perf": self.perf,
        }


@dataclass(frozen=True)
class Pin:
    """One pinned A/B yardstick.

    Attributes:
        name: the pin's committed baseline is
            ``benchmarks/BENCH_<name>.json``.
        config: the pinned configuration, emitted verbatim at the top
            level of the report.  Do not change a pin's workload
            casually: its baseline was measured against exactly it.
        modes: ``(fast, slow)`` report labels of the two modes.
        repeats: default best-of-N.
        run: ``run(fast)`` times the workload once in the fast (True)
            or slow (False) mode.
    """

    name: str
    config: Mapping[str, object]
    modes: Tuple[str, str]
    repeats: int
    run: Callable[[bool], BenchRun]


@dataclass
class PinReport:
    """Best-of-N measurement of one pin, both modes."""

    pin: Pin
    fast: BenchRun  #: best (minimum wall clock) fast-mode run
    slow: BenchRun  #: best slow-mode run
    repeats: int
    identical: bool  #: every run of both modes produced one digest

    @property
    def speedup(self) -> float:
        """slow/fast wall-clock ratio of the best runs (machine-free)."""
        return self.slow.wall_s / self.fast.wall_s if self.fast.wall_s else 0.0

    def to_dict(self) -> dict:
        fast_label, slow_label = self.pin.modes
        return {
            **self.pin.config,
            "repeats": self.repeats,
            "identical": self.identical,
            "speedup": round(self.speedup, 3),
            fast_label: self.fast.to_dict(),
            slow_label: self.slow.to_dict(),
        }


def measure(pin: Pin, repeats: int) -> PinReport:
    """Best-of-*repeats* measurement of *pin*, both modes.

    Interleaves fast and slow runs so slow machine-wide drift (thermal
    throttling, a background build) biases both modes alike instead of
    whichever mode happened to run last.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    fast_runs, slow_runs = [], []
    for _ in range(repeats):
        fast_runs.append(pin.run(True))
        slow_runs.append(pin.run(False))
    digests = {run.digest for run in fast_runs + slow_runs}
    return PinReport(
        pin=pin,
        fast=min(fast_runs, key=lambda run: run.wall_s),
        slow=min(slow_runs, key=lambda run: run.wall_s),
        repeats=repeats,
        identical=len(digests) == 1,
    )


def _scale_config(scale: ExperimentScale) -> dict:
    return {
        "factor": scale.factor,
        "cores": scale.cores,
        "records_per_core": scale.records_per_core,
        "warmup_per_core": scale.warmup_per_core,
    }


# ----------------------------------------------------------------------
# single_run: the pinned workload, fast path on vs off
# ----------------------------------------------------------------------

#: The pinned reference point — chosen because it exercises every
#: fast-path cache (BLEM compression, scrambling, the FR-FCFS candidate
#: cache) with a trace long enough that interpreter noise averages out
#: but short enough to run in a CI smoke job.
PINNED_BENCHMARK = "RAND"
PINNED_SYSTEM = "attache"
PINNED_SEED = 2018


def pinned_scale() -> ExperimentScale:
    """The pinned workload's scale.

    ``warmup_per_core=0``: warm-up records exercise the same code as
    timed ones, so they only dilute the measured per-record costs —
    the benchmark wants every simulated event on the clock.
    """
    return ExperimentScale(
        name="pin", factor=32, cores=4, records_per_core=1500,
        warmup_per_core=0,
    )


def _run_detailed(scale: ExperimentScale) -> BenchRun:
    """Time one detailed simulation of the pinned RAND/attache point."""
    start = time.perf_counter()
    result = run_benchmark(
        PINNED_BENCHMARK, PINNED_SYSTEM, scale=scale, seed=PINNED_SEED,
    )
    wall = time.perf_counter() - start
    return BenchRun(
        wall_s=wall,
        events=result.instructions,
        digest=result_digest(result),
        perf=result.perf,
    )


def _run_single(fast: bool) -> BenchRun:
    with fastpath.overridden(fast):
        return _run_detailed(pinned_scale())


SINGLE_RUN = Pin(
    name="single_run",
    config={
        "benchmark": PINNED_BENCHMARK,
        "system": PINNED_SYSTEM,
        "seed": PINNED_SEED,
        "scale": _scale_config(pinned_scale()),
    },
    modes=("fast", "slow"),
    repeats=3,
    run=_run_single,
)


# ----------------------------------------------------------------------
# sweep: end-to-end orchestrator throughput, warm pool vs spawn-per-job
# ----------------------------------------------------------------------

#: The pinned sweep grid.  Shaped like a real paper study — a handful of
#: benchmarks, a seed axis, the four systems plus an Attaché PaPR-size
#: sensitivity axis — so many grid points share each workload, which is
#: exactly the situation the warm pool's shared bank and memo caches
#: target.  Both modes run the same grid through the same orchestrator,
#: so the ratio isolates exactly what the warm pool buys.
PINNED_SWEEP_BENCHMARKS = ("mcf", "omnetpp")
PINNED_SWEEP_SEEDS = (7, 8)
PINNED_SWEEP_SYSTEMS = ("baseline", "metadata_cache", "ideal")
PINNED_SWEEP_PAPR_ENTRIES = (64, 128, 256, 512, 1024, 4096)


def pinned_sweep_scale() -> ExperimentScale:
    """The pinned sweep's per-point scale.

    Small points on purpose: sweep throughput is dominated by per-job
    fixed costs (process launch, workload regeneration, cold caches)
    exactly when points are cheap, which is the regime research sweeps
    with many grid points live in.
    """
    return ExperimentScale(
        name="pin-sweep", factor=64, cores=2, records_per_core=60,
        warmup_per_core=20,
    )


def pinned_sweep_specs():
    """The pinned sweep grid as orchestrator job specs."""
    from repro.core.copr import CoprConfig
    from repro.orchestrator.jobs import JobSpec

    scale = pinned_sweep_scale()
    specs = []
    for benchmark in PINNED_SWEEP_BENCHMARKS:
        for seed in PINNED_SWEEP_SEEDS:
            specs.extend(
                JobSpec(benchmark=benchmark, system=system, scale=scale,
                        seed=seed)
                for system in PINNED_SWEEP_SYSTEMS
            )
            specs.extend(
                JobSpec(
                    benchmark=benchmark, system="attache", scale=scale,
                    seed=seed,
                    parameters={
                        "copr_config": CoprConfig(papr_entries=entries)
                    },
                )
                for entries in PINNED_SWEEP_PAPR_ENTRIES
            )
    return specs


def run_sweep_once(pool: str, jobs: int = 1) -> BenchRun:
    """Run the pinned sweep once through the orchestrator."""
    from repro.orchestrator import Orchestrator

    specs = pinned_sweep_specs()
    start = time.perf_counter()
    report = Orchestrator(jobs=jobs, pool=pool).run(specs)
    wall = time.perf_counter() - start
    if not report.ok:
        failures = [o.error for o in report.failures]
        raise RuntimeError(f"pinned sweep failed under {pool}: {failures}")
    return BenchRun(
        wall_s=wall,
        events=len(specs),
        digest=grid_digest(report.results),
        perf=None,
    )


SWEEP = Pin(
    name="sweep",
    config={
        "benchmarks": list(PINNED_SWEEP_BENCHMARKS),
        "systems": list(PINNED_SWEEP_SYSTEMS),
        "seeds": list(PINNED_SWEEP_SEEDS),
        "papr_entries": list(PINNED_SWEEP_PAPR_ENTRIES),
        "scale": _scale_config(pinned_sweep_scale()),
    },
    modes=("warm", "spawn"),
    repeats=2,
    run=lambda fast: run_sweep_once(pool="warm" if fast else "spawn"),
)


# ----------------------------------------------------------------------
# functional: vector kernels vs the scalar event loop
# ----------------------------------------------------------------------

#: The pinned functional configuration — the Figs. 1/15/16
#: metadata-traffic shape (shared LLC feeding an lru metadata cache, no
#: COPR), sized so both passes finish in CI smoke time.  The only
#: variable between the modes is ``repro.kernels`` dispatch, so the
#: ratio isolates exactly what the batched data plane buys.
PINNED_FUNCTIONAL_BENCHMARK = "mix1"
PINNED_FUNCTIONAL_CORES = 4
PINNED_FUNCTIONAL_RECORDS = 20000
PINNED_FUNCTIONAL_SEED = 2018
PINNED_FUNCTIONAL_SCALE = 1 / 32
PINNED_FUNCTIONAL_LLC_BYTES = 256 * 1024
PINNED_FUNCTIONAL_LLC_WAYS = 8
PINNED_FUNCTIONAL_MDCACHE_BYTES = 32 * 1024
PINNED_FUNCTIONAL_MDCACHE_WAYS = 16


def _run_functional(fast: bool) -> BenchRun:
    from repro import kernels
    from repro.core.metadata_cache import MetadataCache
    from repro.sim.functional import run_functional

    with kernels.overridden(fast):
        metadata_cache = MetadataCache(
            capacity_bytes=PINNED_FUNCTIONAL_MDCACHE_BYTES,
            ways=PINNED_FUNCTIONAL_MDCACHE_WAYS,
            policy="lru",
        )
        start = time.perf_counter()
        result = run_functional(
            PINNED_FUNCTIONAL_BENCHMARK,
            cores=PINNED_FUNCTIONAL_CORES,
            records_per_core=PINNED_FUNCTIONAL_RECORDS,
            seed=PINNED_FUNCTIONAL_SEED,
            footprint_scale=PINNED_FUNCTIONAL_SCALE,
            llc_bytes=PINNED_FUNCTIONAL_LLC_BYTES,
            llc_ways=PINNED_FUNCTIONAL_LLC_WAYS,
            metadata_cache=metadata_cache,
        )
        wall = time.perf_counter() - start
    return BenchRun(
        wall_s=wall,
        events=PINNED_FUNCTIONAL_CORES * PINNED_FUNCTIONAL_RECORDS,
        digest=result_digest(result),
        perf=None,
    )


FUNCTIONAL = Pin(
    name="functional",
    config={
        "benchmark": PINNED_FUNCTIONAL_BENCHMARK,
        "cores": PINNED_FUNCTIONAL_CORES,
        "records_per_core": PINNED_FUNCTIONAL_RECORDS,
        "seed": PINNED_FUNCTIONAL_SEED,
        "footprint_scale": PINNED_FUNCTIONAL_SCALE,
        "llc_bytes": PINNED_FUNCTIONAL_LLC_BYTES,
        "llc_ways": PINNED_FUNCTIONAL_LLC_WAYS,
        "mdcache_bytes": PINNED_FUNCTIONAL_MDCACHE_BYTES,
        "mdcache_ways": PINNED_FUNCTIONAL_MDCACHE_WAYS,
    },
    modes=("fast", "slow"),
    repeats=3,
    run=_run_functional,
)


# ----------------------------------------------------------------------
# timing: vector warm-up/prewarm vs the scalar loops
# ----------------------------------------------------------------------

def pinned_timing_scale() -> ExperimentScale:
    """The pinned timing workload's scale.

    The detailed simulator on the same RAND/attache point as the
    single-run pin, but with a deep functional warm-up (the paper warms
    40 B instructions before timing 4 B; this pin leans further, 20:1).
    Unlike :func:`pinned_scale` (``warmup_per_core=0``), this pin puts
    most of its simulated records in the functional warm-up, the phase
    the vector plane replaces with array kernels (batched LLC probes,
    analytic stored state, COPR batch training, memo prewarm).
    """
    return ExperimentScale(
        name="pin-timing", factor=32, cores=4, records_per_core=600,
        warmup_per_core=12000,
    )


def _run_timing(fast: bool) -> BenchRun:
    # The fast path stays ON in both modes, so the ratio isolates
    # exactly what the vector timing plane buys on top of it.
    from repro import kernels

    with kernels.overridden(fast):
        return _run_detailed(pinned_timing_scale())


TIMING = Pin(
    name="timing",
    config={
        "benchmark": PINNED_BENCHMARK,
        "system": PINNED_SYSTEM,
        "seed": PINNED_SEED,
        "scale": _scale_config(pinned_timing_scale()),
    },
    modes=("fast", "slow"),
    repeats=3,
    run=_run_timing,
)


#: Every pin, in the order CI measures them.
PINS: Tuple[Pin, ...] = (SINGLE_RUN, SWEEP, FUNCTIONAL, TIMING)


__all__ = [
    "FUNCTIONAL",
    "PINNED_BENCHMARK",
    "PINNED_FUNCTIONAL_BENCHMARK",
    "PINNED_FUNCTIONAL_SEED",
    "PINNED_SEED",
    "PINNED_SYSTEM",
    "PINNED_SWEEP_BENCHMARKS",
    "PINNED_SWEEP_PAPR_ENTRIES",
    "PINNED_SWEEP_SEEDS",
    "PINNED_SWEEP_SYSTEMS",
    "PINS",
    "SINGLE_RUN",
    "SWEEP",
    "TIMING",
    "BenchRun",
    "Pin",
    "PinReport",
    "grid_digest",
    "measure",
    "pinned_scale",
    "pinned_sweep_scale",
    "pinned_sweep_specs",
    "pinned_timing_scale",
    "result_digest",
    "run_sweep_once",
]
