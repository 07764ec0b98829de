"""Shared infrastructure for the paper-figure benchmarks.

Every ``benchmarks/test_*.py`` regenerates one table or figure of the
paper.  Full-timing figures (12/13/14/17) share one sweep of simulation
results through the session-scoped ``results_cache`` so the expensive
runs happen once.  Each bench prints its table and also writes it to
``benchmarks/out/<name>.txt`` so results survive pytest's capture.

Scale: benches default to the ``fast`` preset (capacities and footprints
scaled down 32x together — see DESIGN.md section 6 and
``repro.sim.runner.ExperimentScale``).  Set ``REPRO_BENCH_SCALE=tiny``
for smoke runs or ``REPRO_BENCH_RECORDS`` to change trace length.  The
presets are :func:`repro.analysis.figures.figure_scale`'s.

Caching: set ``REPRO_BENCH_CACHE_DIR=<dir>`` to back the in-memory
results cache with the orchestrator's content-addressed on-disk cache
(docs/ORCHESTRATOR.md).  Repeat ``pytest benchmarks/`` invocations then
reuse every previously simulated (workload, system, config, seed) point
instead of re-simulating it, which collapses the suite's wall-clock.
Points are keyed by :meth:`repro.orchestrator.JobSpec.key`, the key
``repro figures`` and ``repro sweep`` use, so the three share entries.
Keys include a hash of the ``repro`` sources, so editing the simulator
invalidates stale entries automatically.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from typing import Dict, List, Optional

import pytest

from repro.analysis.figures import figure_scale
from repro.core.blem import BlemConfig
from repro.core.copr import CoprConfig
from repro.orchestrator import JobSpec, ResultCache, execute_job
from repro.sim.runner import ExperimentScale
from repro.sim.simulator import SimulationResult
from repro.workloads.profiles import all_benchmark_names

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Figure order for per-benchmark tables.
ALL_WORKLOADS = all_benchmark_names()
TIMING_SYSTEMS = ("baseline", "metadata_cache", "attache", "ideal")


def bench_scale() -> ExperimentScale:
    """The simulation scale used by the timing benches."""
    scale = figure_scale(os.environ.get("REPRO_BENCH_SCALE", "fast"))
    records = int(os.environ.get("REPRO_BENCH_RECORDS", "0"))
    if records:
        return dataclasses.replace(scale, records_per_core=records)
    return scale


def functional_workload_kwargs() -> Dict[str, object]:
    """Workload sizing for the functional (timing-free) benches."""
    scale = bench_scale()
    return dict(
        cores=scale.cores,
        records_per_core=max(4 * scale.records_per_core, 6000),
        seed=2018,
        footprint_scale=scale.footprint_scale,
        llc_bytes=scale.llc_bytes,
    )


class ResultsCache:
    """Memoises full-timing simulation results across bench modules.

    Always memoises in memory; when ``REPRO_BENCH_CACHE_DIR`` is set it
    also reads/writes the orchestrator's content-addressed on-disk cache
    so results survive across pytest sessions and CI runs.
    """

    def __init__(self) -> None:
        self._results: Dict[str, SimulationResult] = {}
        cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR")
        self._disk = ResultCache(cache_dir) if cache_dir else None

    def get(
        self,
        workload: str,
        system: str,
        copr_config: Optional[CoprConfig] = None,
        blem_config: BlemConfig = BlemConfig(),
        seed: int = 2018,
    ) -> SimulationResult:
        # Default configs stay out of the parameters, so a default point
        # has the same key as in `repro figures` and `repro sweep`.
        parameters = {}
        if copr_config is not None:
            parameters["copr_config"] = copr_config
        if blem_config != BlemConfig():
            parameters["blem_config"] = blem_config
        job = JobSpec(benchmark=workload, system=system, seed=seed,
                      scale=bench_scale(), parameters=parameters)
        key = job.key()
        if key not in self._results:
            self._results[key] = self._simulate_or_load(job, key)
        return self._results[key]

    def _simulate_or_load(self, job: JobSpec, key: str) -> SimulationResult:
        if self._disk is not None:
            cached = self._disk.get(key)
            if cached is not None:
                return cached
        result = execute_job(job)
        if self._disk is not None:
            self._disk.put(key, result, meta={"job": job.describe()})
        return result

    def sweep(
        self,
        workloads: List[str],
        systems: List[str],
        **kwargs,
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """results[workload][system] for the full cross product."""
        return {
            workload: {
                system: self.get(workload, system, **kwargs)
                for system in systems
            }
            for workload in workloads
        }


@pytest.fixture(scope="session")
def results_cache() -> ResultsCache:
    return ResultsCache()


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def publish(report_dir: pathlib.Path, name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/out/."""
    print()
    print(table)
    (report_dir / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
