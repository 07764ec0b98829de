"""Figure 16 — metadata-cache hit rate under LRU, DRRIP and SHiP.

The paper's point: the metadata cache already enjoys a high hit rate
under plain LRU (77 %), so state-of-the-art replacement buys only ~2 %
— replacement policy is not the fix for metadata overheads.
"""

from conftest import bench_scale, functional_workload_kwargs, publish

from repro.analysis import format_table
from repro.core.controllers import DEFAULT_METADATA_BASE
from repro.core.metadata_cache import MetadataCache
from repro.sim import run_functional
from repro.workloads.profiles import all_benchmark_names

WORKLOADS = all_benchmark_names(include_mixes=False)
POLICIES = ("lru", "drrip", "ship")


def test_fig16_replacement_policies(benchmark, report_dir):
    kwargs = functional_workload_kwargs()
    scale = bench_scale()

    def collect():
        # Workload-major: consecutive passes share one workload's trace
        # and LLC event stream.  Each policy's rates still sum in
        # workload order.
        rates = {policy: [] for policy in POLICIES}
        for name in WORKLOADS:
            for policy in POLICIES:
                cache = MetadataCache(
                    capacity_bytes=scale.metadata_cache_bytes,
                    policy=policy,
                    metadata_base=DEFAULT_METADATA_BASE,
                )
                run = run_functional(name, metadata_cache=cache, **kwargs)
                rates[policy].append(run.metadata_hit_rate)
        return {
            policy: 100.0 * sum(values) / len(values)
            for policy, values in rates.items()
        }

    means = benchmark.pedantic(collect, rounds=1, iterations=1)

    # LRU is already high; fancier policies move the needle only a
    # little in either direction (paper: +2 %).
    assert means["lru"] > 55.0
    for policy in ("drrip", "ship"):
        assert abs(means[policy] - means["lru"]) < 8.0

    rows = [[policy.upper(), means[policy]] for policy in POLICIES]
    table = format_table(
        ["replacement policy", "mean hit rate %"],
        rows,
        title="Figure 16: Metadata-cache hit rate by replacement policy",
        float_format="{:.1f}",
    )
    publish(report_dir, "fig16_replacement", table)
