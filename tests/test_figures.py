"""Tests for incremental figure regeneration (``repro.analysis.figures``)."""

import pytest

from repro.analysis import figures
from repro.orchestrator import JobSpec, ResultCache, execute_job
from repro.sim.runner import ExperimentScale
from repro.workloads.profiles import all_benchmark_names

FIGURE = "fig14_bandwidth_latency"
SCALE = ExperimentScale(name="test-figures", factor=64, cores=2,
                        records_per_core=30)


@pytest.fixture
def simulated(monkeypatch):
    """Every (benchmark, system) point regenerate() simulates."""
    points = []

    def counting(job):
        points.append((job.benchmark, job.system))
        return execute_job(job)

    monkeypatch.setattr(figures, "execute_job", counting)
    return points


def _actions(outcome):
    return [(status.spec.name, action) for status, action in outcome]


def test_second_regenerate_is_fresh_and_simulates_nothing(
    tmp_path, simulated
):
    cache = ResultCache(tmp_path / "cache")
    out_dir = tmp_path / "figures"

    first = figures.regenerate(cache, out_dir, SCALE, only=[FIGURE])
    assert _actions(first) == [(FIGURE, "rebuilt")]
    assert len(simulated) == 2 * len(all_benchmark_names())
    table = (out_dir / f"{FIGURE}.txt").read_text(encoding="utf-8")

    simulated.clear()
    second = figures.regenerate(cache, out_dir, SCALE, only=[FIGURE])
    assert _actions(second) == [(FIGURE, "fresh")]
    assert simulated == []
    assert (out_dir / f"{FIGURE}.txt").read_text(encoding="utf-8") == table


def test_points_cached_under_job_spec_keys_are_reused(tmp_path, simulated):
    # A cache filled by anything that keys points with JobSpec.key() —
    # repro sweep, the benches — serves a cold regenerate completely.
    cache = ResultCache(tmp_path / "cache")
    for benchmark in all_benchmark_names():
        for system in ("baseline", "attache"):
            job = JobSpec(benchmark=benchmark, system=system,
                          seed=figures._SEED, scale=SCALE)
            cache.put(job.key(), execute_job(job))

    outcome = figures.regenerate(cache, tmp_path / "figures", SCALE,
                                 only=[FIGURE])
    assert _actions(outcome) == [(FIGURE, "rebuilt")]
    assert simulated == []
