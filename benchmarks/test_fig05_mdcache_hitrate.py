"""Figure 5 — metadata-cache hit-rate vs capacity.

The paper sweeps the metadata-cache size and reports that even an
impractically large 1 MB cache only reaches a 77 % average hit rate.
Capacities here are scaled with the rest of the system (DESIGN.md §6);
the 1x point corresponds to the paper's 1 MB.
"""

from conftest import bench_scale, functional_workload_kwargs, publish

from repro.analysis import format_table
from repro.core.controllers import DEFAULT_METADATA_BASE
from repro.core.metadata_cache import MetadataCache
from repro.sim import run_functional
from repro.workloads.profiles import all_benchmark_names

WORKLOADS = all_benchmark_names(include_mixes=False)
#: Capacity multipliers relative to the paper's 1 MB design point.
SIZE_POINTS = (0.0625, 0.25, 1.0)


def test_fig05_hit_rate_vs_capacity(benchmark, report_dir):
    kwargs = functional_workload_kwargs()
    scale = bench_scale()

    def collect():
        # Workload-major: consecutive passes share one workload's trace
        # and LLC event stream.  Each size's rates still sum in
        # workload order.
        rates = {multiplier: [] for multiplier in SIZE_POINTS}
        for name in WORKLOADS:
            for multiplier in SIZE_POINTS:
                cache = MetadataCache(
                    capacity_bytes=max(
                        4096, int(scale.metadata_cache_bytes * multiplier)
                    ),
                    metadata_base=DEFAULT_METADATA_BASE,
                )
                run = run_functional(name, metadata_cache=cache, **kwargs)
                rates[multiplier].append(run.metadata_hit_rate)
        return {
            multiplier: 100.0 * sum(values) / len(values)
            for multiplier, values in rates.items()
        }

    by_size = benchmark.pedantic(collect, rounds=1, iterations=1)

    rates = [by_size[m] for m in SIZE_POINTS]
    # Hit rate grows with capacity but stays well short of 100 %.
    assert rates == sorted(rates)
    assert rates[-1] - rates[0] > 3.0
    # Paper: ~77 % at the 1 MB point; allow a generous band for the
    # synthetic workloads.
    assert 55.0 < rates[-1] < 95.0

    rows = [
        [f"{m:g}x (paper {int(1024 * m)} KB)", by_size[m]]
        for m in SIZE_POINTS
    ]
    table = format_table(
        ["metadata-cache capacity", "mean hit rate %"],
        rows,
        title="Figure 5: Metadata-cache hit rate vs capacity "
              "(suite average, LRU)",
        float_format="{:.1f}",
    )
    publish(report_dir, "fig05_mdcache_hitrate", table)
