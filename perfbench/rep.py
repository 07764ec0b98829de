"""One repetition of one workload, in a fresh interpreter.

Run by run.py as ``python3 perfbench/rep.py --workload W --seed N
--trace 0|1 --workdir DIR``, with ``PERFBENCH_T0`` set to the parent's
``time.monotonic()`` just before the spawn (CLOCK_MONOTONIC is
system-wide, so the two processes share the clock).  Prints one JSON
object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (path set up above)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    execute = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])
    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()
    start = time.perf_counter()
    report = execute()
    report["wall_s"] = time.perf_counter() - start
    report["setup_s"] = setup_s
    if tracer is not None:
        report["layers"] = layers.layer_metrics(tracer, report["wall_s"])
    # ru_maxrss is in KiB on Linux; children = the largest reaped worker.
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report["peak_rss_mb"] = peak_kib / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    main()
