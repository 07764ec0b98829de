"""The four benchmark workloads: one pass each over a user-facing path.

Each workload has a ``prepare(seed, workdir)`` that imports what it
needs and builds its inputs from the seed (counted as set-up time), and
returns the timed ``execute()`` that runs one pass and reports:

* ``outputs``: ``[label, digest]`` per checked output — the
  :func:`repro.fastpath.bench.result_digest` of every simulated point,
  plus the sha256 of every regenerated table on ``figures``;
* ``failed``: labels of points that raised or that the orchestrator
  reported failed;
* ``segments``: ``[label, seconds]`` per timed part of the pass, in
  order (a point, or the whole pass on ``sweep``), so run.py can take
  medians per part across repetitions;
* ``sim_instructions``: simulated instructions retired in timed windows
  (the functional pass retires one memory instruction per record);
* ``records``: trace records processed, warm-up included;
* ``counts``: per-layer counts taken from public result fields;
* ``fidelity``: model outputs for the report (simulated, deterministic);
* ``orchestrator``: per-point accounting (``sweep`` only).

Entry points are looked up on their modules at call time, never bound
at prepare time, so the traced run's wrappers (layers.py) see the calls.
Why each workload exists is recorded in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
import traceback

#: The seed whose outputs are recorded in digests.json (the paper pin).
DEFAULT_SEED = 2018
SYSTEMS = ("baseline", "metadata_cache", "attache", "ideal")

DETAILED_BENCHMARK = "mix1"
DETAILED_RECORDS_PER_CORE = 600

FUNCTIONAL_BENCHMARKS = ("mix1", "mix2")
FUNCTIONAL_RECORDS_PER_CORE = 12000
FUNCTIONAL_CORES = 8

FIGURES_RECORDS_PER_CORE = 30

SWEEP_BENCHMARKS = ("mcf", "lbm", "pr.kron", "RAND")
SWEEP_SYSTEMS = ("baseline", "metadata_cache", "ideal")
SWEEP_PAPR_ENTRIES = (64, 256, 1024, 4096)
SWEEP_RECORDS_PER_CORE = 240

#: Fig. 12 geomean speedups over the baseline reported by the paper
#: (EXPERIMENTS.md).
PAPER_SPEEDUPS = {"attache": 1.153, "ideal": 1.17, "metadata_cache": 1.08}


class Counts:
    """Per-layer counts summed over the points of one pass."""

    def __init__(self) -> None:
        self.sums = dict.fromkeys((
            "bucket_hits", "bucket_lookups", "horizon_skips",
            "advance_calls", "row_hits", "row_accesses", "requests",
            "classify_hits", "classify_lookups", "keystream_hits",
            "keystream_lookups", "llc_misses", "llc_accesses",
        ), 0)
        self.rates = {"collision": [], "copr": [], "metadata": []}

    def _rate(self, key, value) -> None:
        if value is not None:
            self.rates[key].append(value)

    def add_result(self, result) -> None:
        sums = self.sums
        perf = result.perf or {}
        scheduler = perf.get("scheduler")
        if scheduler is not None:
            bucket = scheduler["bucket"]
            sums["bucket_hits"] += bucket["hits"]
            sums["bucket_lookups"] += bucket["hits"] + bucket["misses"]
            sums["horizon_skips"] += scheduler["horizon_skips"]
            sums["advance_calls"] += (
                scheduler["horizon_skips"] + scheduler["advances"]
            )
        for name in ("classify", "keystream"):
            memo = perf.get(name)
            if memo is not None:
                sums[f"{name}_hits"] += memo["hits"]
                sums[f"{name}_lookups"] += memo["hits"] + memo["misses"]
        rows = result.row_buffer_outcomes
        sums["row_hits"] += rows.get("hit", 0)
        sums["row_accesses"] += sum(rows.values())
        sums["requests"] += sum(result.memory_requests_by_kind.values())
        sums["llc_misses"] += result.llc_misses
        sums["llc_accesses"] += result.llc_accesses
        self._rate("collision", result.collision_rate)
        self._rate("copr", result.copr_accuracy)
        self._rate("metadata", result.metadata_hit_rate)

    def add_functional(self, run) -> None:
        self._rate("copr", run.copr_accuracy)
        self._rate("metadata", run.metadata_hit_rate)

    def metrics(self) -> dict:
        sums = self.sums

        def ratio(num, den):
            return sums[num] / sums[den] if sums[den] else 0.0

        def mean(key):
            values = self.rates[key]
            return sum(values) / len(values) if values else 0.0

        return {
            "dram.scheduler.bucket_hit_rate": ratio(
                "bucket_hits", "bucket_lookups"),
            "dram.scheduler.horizon_skip_ratio": ratio(
                "horizon_skips", "advance_calls"),
            "dram.row_hit_rate": ratio("row_hits", "row_accesses"),
            "dram.requests": sums["requests"],
            "compression.classify_memo_hit_rate": ratio(
                "classify_hits", "classify_lookups"),
            "scramble.keystream_memo_hit_rate": ratio(
                "keystream_hits", "keystream_lookups"),
            "core.blem.collision_rate": mean("collision"),
            "core.copr.accuracy": mean("copr"),
            "core.metadata_cache.hit_rate": mean("metadata"),
            "cpu.llc.miss_rate": ratio("llc_misses", "llc_accesses"),
        }


def _attempt(label, failed, call, segments=None):
    """Run one point; a raising point is recorded as failed, not fatal.

    With *segments*, the point's duration is appended to it.
    """
    start = time.perf_counter()
    try:
        return call()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failed.append(label)
        return None
    finally:
        if segments is not None:
            segments.append([label, time.perf_counter() - start])


def _scale_records(scale) -> int:
    return scale.cores * (scale.records_per_core + scale.effective_warmup)


# ----------------------------------------------------------------------
# detailed: the single-number path, every simulator layer
# ----------------------------------------------------------------------

def prepare_detailed(seed, workdir):
    from dataclasses import replace

    from repro.fastpath.bench import result_digest
    from repro.sim import runner

    scale = replace(runner.FAST_SCALE,
                    records_per_core=DETAILED_RECORDS_PER_CORE)

    def execute():
        outputs, failed, segments, results = [], [], [], {}
        counts = Counts()
        for system in SYSTEMS:
            label = f"{DETAILED_BENCHMARK}/{system}"
            result = _attempt(label, failed, lambda: runner.run_benchmark(
                DETAILED_BENCHMARK, system, scale=scale, seed=seed),
                segments)
            if result is not None:
                results[system] = result
                outputs.append([label, result_digest(result)])
                counts.add_result(result)
        fidelity = {f"ipc.{s}": r.ipc for s, r in results.items()}
        if "baseline" in results and "attache" in results:
            fidelity["attache_speedup"] = (
                results["baseline"].runtime_core_cycles
                / results["attache"].runtime_core_cycles
            )
        return {
            "outputs": outputs,
            "failed": failed,
            "segments": segments,
            "sim_instructions": sum(r.instructions for r in results.values()),
            "records": len(SYSTEMS) * _scale_records(scale),
            "counts": counts.metrics(),
            "fidelity": fidelity,
        }

    return execute


# ----------------------------------------------------------------------
# functional: trace generation, vector kernels and COPR; no DRAM
# ----------------------------------------------------------------------

def prepare_functional(seed, workdir):
    from repro.core.metadata_cache import MetadataCache
    from repro.fastpath.bench import result_digest
    from repro.sim import functional
    from repro.sim.runner import FAST_SCALE

    def structures(mode):
        """The LRU metadata cache or the COPR predictor a pass drives."""
        if mode == "lru":
            return {"metadata_cache": MetadataCache(
                capacity_bytes=FAST_SCALE.metadata_cache_bytes, policy="lru",
            )}
        return {"copr_config": FAST_SCALE.copr_config()}

    def execute():
        outputs, failed, segments = [], [], []
        counts = Counts()
        fidelity = {}
        for benchmark in FUNCTIONAL_BENCHMARKS:
            for mode in ("lru", "copr"):
                label = f"{benchmark}/{mode}"
                run = _attempt(label, failed, lambda: (
                    functional.run_functional(
                        benchmark, cores=FUNCTIONAL_CORES,
                        records_per_core=FUNCTIONAL_RECORDS_PER_CORE,
                        seed=seed, footprint_scale=FAST_SCALE.footprint_scale,
                        llc_bytes=FAST_SCALE.llc_bytes, **structures(mode))),
                    segments)
                if run is None:
                    continue
                outputs.append([label, result_digest(run)])
                counts.add_functional(run)
                if mode == "lru":
                    fidelity[f"mdcache_hit_rate.{benchmark}"] = (
                        run.metadata_hit_rate)
                else:
                    fidelity[f"copr_accuracy.{benchmark}"] = run.copr_accuracy
        records = (len(FUNCTIONAL_BENCHMARKS) * 2 * FUNCTIONAL_CORES
                   * FUNCTIONAL_RECORDS_PER_CORE)
        return {
            "outputs": outputs,
            "failed": failed,
            "segments": segments,
            "sim_instructions": records,
            "records": records,
            "counts": counts.metrics(),
            "fidelity": fidelity,
        }

    return execute


# ----------------------------------------------------------------------
# figures: a cold `repro figures` (Figs. 12-14, every profile x system)
# ----------------------------------------------------------------------

def prepare_figures(seed, workdir):
    import pathlib

    from repro.analysis import figures
    from repro.fastpath.bench import result_digest
    from repro.orchestrator import ResultCache
    from repro.sim.runner import ExperimentScale

    class RecordingCache(ResultCache):
        """The result cache regenerate() fills, noting each new point
        and when it arrived."""

        def __init__(self, root) -> None:
            super().__init__(root)
            self.stored = []
            self.stamps = []

        def put(self, key, result, meta=None):
            self.stored.append(result)
            self.stamps.append(time.perf_counter())
            return super().put(key, result, meta=meta)

    tiny = figures.figure_scale("tiny")
    scale = ExperimentScale(
        name="bench-figures", factor=tiny.factor, cores=tiny.cores,
        records_per_core=FIGURES_RECORDS_PER_CORE,
    )
    # regenerate() takes no seed argument: the figure pipeline reads its
    # seed from this module constant.
    figures._SEED = seed
    root = pathlib.Path(workdir)
    cache = RecordingCache(root / "cache")
    out_dir = root / "figures"

    def execute():
        failed = []
        start = time.perf_counter()
        _attempt("regenerate", failed,
                 lambda: figures.regenerate(cache, out_dir, scale))
        # One segment per simulated point (up to its cache put), then the
        # rendering after the last one.
        stamps = [start] + cache.stamps + [time.perf_counter()]
        labels = [f"{r.workload}/{r.system}" for r in cache.stored]
        segments = [[label, end - begin] for label, begin, end
                    in zip(labels + ["render"], stamps, stamps[1:])]
        outputs, counts = [], Counts()
        runtimes = {}
        for label, result in zip(labels, cache.stored):
            outputs.append([label, result_digest(result)])
            counts.add_result(result)
            runtimes.setdefault(result.workload, {})[result.system] = (
                result.runtime_core_cycles)
        for table in sorted(out_dir.glob("*.txt")):
            outputs.append([f"table:{table.stem}", hashlib.sha256(
                table.read_bytes()).hexdigest()])
        fidelity = {}
        for system in ("attache", "ideal", "metadata_cache"):
            ratios = [r["baseline"] / r[system] for r in runtimes.values()
                      if "baseline" in r and system in r]
            if ratios:
                fidelity[f"geomean_speedup.{system}"] = math.exp(
                    sum(math.log(x) for x in ratios) / len(ratios))
                fidelity[f"paper_speedup.{system}"] = PAPER_SPEEDUPS[system]
        return {
            "outputs": outputs,
            "failed": failed,
            "segments": segments,
            "sim_instructions": sum(r.instructions for r in cache.stored),
            "records": len(cache.stored) * _scale_records(scale),
            "counts": counts.metrics(),
            "fidelity": fidelity,
        }

    return execute


# ----------------------------------------------------------------------
# sweep: Orchestrator.run, warm pool, PaPR-sensitivity grid
# ----------------------------------------------------------------------

def prepare_sweep(seed, workdir):
    import pathlib

    from repro.core.copr import CoprConfig
    from repro.fastpath.bench import result_digest
    from repro.orchestrator import JobSpec, Orchestrator, ResultCache
    from repro.sim.runner import ExperimentScale

    scale = ExperimentScale(
        name="bench-sweep", factor=64, cores=2,
        records_per_core=SWEEP_RECORDS_PER_CORE,
        warmup_per_core=SWEEP_RECORDS_PER_CORE // 3,
    )
    specs, labels = [], []
    for benchmark in SWEEP_BENCHMARKS:
        for point_seed in (seed, seed + 1):
            for system in SWEEP_SYSTEMS:
                specs.append(JobSpec(benchmark=benchmark, system=system,
                                     scale=scale, seed=point_seed))
                labels.append(f"{benchmark}/{system}/{point_seed}")
            for entries in SWEEP_PAPR_ENTRIES:
                specs.append(JobSpec(
                    benchmark=benchmark, system="attache", scale=scale,
                    seed=point_seed,
                    parameters={
                        "copr_config": CoprConfig(papr_entries=entries)},
                ))
                labels.append(f"{benchmark}/attache/{point_seed}"
                              f"/papr={entries}")
    root = pathlib.Path(workdir)
    workers = len(os.sched_getaffinity(0))
    orchestrator = Orchestrator(
        jobs=workers, cache=ResultCache(root / "cache"), pool="warm",
    )

    def execute():
        start = time.perf_counter()
        report = orchestrator.run(specs, run_dir=root / "run")
        wall = time.perf_counter() - start
        outputs, failed, results = [], [], []
        counts = Counts()
        for label, outcome in zip(labels, report.outcomes):
            if outcome.status == "failed" or outcome.result is None:
                failed.append(label)
                continue
            results.append(outcome.result)
            outputs.append([label, result_digest(outcome.result)])
            counts.add_result(outcome.result)
        return {
            "outputs": outputs,
            "failed": failed,
            "segments": [["sweep", wall]],
            "sim_instructions": sum(r.instructions for r in results),
            "records": len(results) * _scale_records(scale),
            "counts": counts.metrics(),
            "fidelity": {},
            "orchestrator": {
                "wall_s": wall,
                "workers": workers,
                "worker_s": [o.wall_s for o in report.outcomes],
                "attempts": [o.attempts for o in report.outcomes],
            },
        }

    return execute


WORKLOADS = {
    "detailed": prepare_detailed,
    "functional": prepare_functional,
    "figures": prepare_figures,
    "sweep": prepare_sweep,
}
