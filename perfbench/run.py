"""Repository benchmark: end-to-end and per-layer metrics of four paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload detailed --seed 2018 \
        --seconds 20 --trace 0

Workloads: ``detailed`` (run_benchmark), ``functional``
(run_functional), ``figures`` (a cold analysis.figures.regenerate) and
``sweep`` (Orchestrator.run on the warm pool); see README.md.

Every repetition runs in a fresh interpreter (rep.py), so process-global
memos start cold as they do for a user's ``repro`` call.  Repetitions
repeat until ``--seconds`` is used up, at least three of them, and each
metric is the median over repetitions (for ``wall_s``, per point and
summed).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics plus the tracing overhead.
Every output is checked by digest: against digests.json for the default
seed, otherwise against the first repetition.  Human-readable report
lines go first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_REPS = 3
#: Wall-clock budget for the whole run; the benchmark must exit well
#: inside three minutes even when a repetition runs long.
HARD_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_instr_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Units of the per-layer metrics other than the per-layer self-time,
#: calls and share triples.
LAYER_UNITS = {
    "dram.scheduler.bucket_hit_rate": "ratio",
    "dram.scheduler.horizon_skip_ratio": "ratio",
    "dram.row_hit_rate": "ratio",
    "dram.requests": "count",
    "compression.classify_memo_hit_rate": "ratio",
    "scramble.keystream_memo_hit_rate": "ratio",
    "core.blem.collision_rate": "ratio",
    "core.copr.accuracy": "ratio",
    "core.metadata_cache.hit_rate": "ratio",
    "cpu.llc.miss_rate": "ratio",
    "orchestrator.overhead_ms_per_point": "ms",
    "orchestrator.point_p50_s": "s",
    "orchestrator.point_tail_s": "s",
    "orchestrator.point_tail_pct": "%",
    "orchestrator.point_samples": "count",
    "orchestrator.attempts_per_point": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.covered_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "self_ns": "ns/call", "calls": "count",
            "share": "ratio"}[suffix]


def run_rep(workload, seed, trace, workdir, deadline):
    """One repetition in a fresh interpreter; returns its report dict."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a repetition")
    # A stale directory (a killed earlier run with the same pid) would
    # hand the pass a warm result cache.
    shutil.rmtree(workdir, ignore_errors=True)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(tmp)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--workdir", str(workdir)]
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=env, timeout=remaining,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition exceeded the time budget")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} repetition exited with code {proc.returncode}")
    return json.loads(lines[-1])


def load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    try:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"{DIGESTS.name} is missing")
    if workload not in recorded:
        raise BenchError(f"{DIGESTS.name} has no digests for {workload}")
    return recorded[workload]


def check_outputs(rep, reference):
    """(attempted, bad labels) of one repetition against *reference*."""
    got = dict(rep["outputs"])
    bad = set(rep["failed"])
    bad.update(label for label, digest in reference.items()
               if got.get(label) != digest)
    bad.update(label for label in got if label not in reference)
    return max(len(reference), len(got) + len(rep["failed"])), bad


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99, 95, 90, 80, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if rank and n - rank >= 10:
            return ordered[rank - 1], pct
    return (ordered[-1], 100) if ordered else (0.0, 0)


def orchestrator_metrics(reps):
    """Per-point orchestration accounting pooled over *reps* (sweep)."""
    stats = [rep["orchestrator"] for rep in reps if "orchestrator" in rep]
    if not stats:
        return {name: 0.0 for name in LAYER_UNITS
                if name.startswith("orchestrator.")}
    worker_s = [s for st in stats for s in st["worker_s"]]
    attempts = [a for st in stats for a in st["attempts"]]
    overheads = [
        (st["wall_s"] * st["workers"] - sum(st["worker_s"]))
        / len(st["worker_s"]) * 1e3
        for st in stats
    ]
    tail_s, tail_pct = tail(worker_s)
    return {
        "orchestrator.overhead_ms_per_point": statistics.median(overheads),
        "orchestrator.point_p50_s": statistics.median(worker_s),
        "orchestrator.point_tail_s": tail_s,
        "orchestrator.point_tail_pct": tail_pct,
        "orchestrator.point_samples": len(worker_s),
        "orchestrator.attempts_per_point": sum(attempts) / len(attempts),
    }


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def pass_seconds(reps):
    """Seconds of one pass: per-segment medians over *reps*, summed.

    Host noise on a shared machine comes in bursts of a few seconds that
    slow whatever runs during them.  A median per segment (one point)
    keeps a burst that hits part of one repetition out of the result.
    Falls back to the median of whole passes when the repetitions'
    segments differ (a point failed in one of them).
    """
    layouts = {tuple(label for label, __ in rep["segments"]) for rep in reps}
    if len(layouts) != 1:
        return median_of(reps, "wall_s")
    columns = zip(*(rep["segments"] for rep in reps))
    return sum(statistics.median(seconds for __, seconds in column)
               for column in columns)


def end_to_end(reps):
    wall = pass_seconds(reps)
    return {
        "setup_s": median_of(reps, "setup_s"),
        "wall_s": wall,
        "sim_instr_per_s": median_of(reps, "sim_instructions") / wall,
        "events_per_s": median_of(reps, "records") / wall,
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
    }


def per_layer(untraced, traced):
    layer_names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(rep["layers"][name] for rep in traced)
               for name in layer_names}
    metrics.update(traced[0]["counts"])
    metrics.update(orchestrator_metrics(untraced))
    plain = median_of(untraced, "wall_s")
    with_trace = median_of(traced, "wall_s")
    metrics["trace.untraced_wall_s"] = plain
    metrics["trace.traced_wall_s"] = with_trace
    metrics["trace.overhead_frac"] = with_trace / plain - 1.0
    return metrics


def measure(args):
    deadline = time.monotonic() + HARD_LIMIT_S
    start = time.monotonic()
    workdir = WORK_ROOT / str(os.getpid())
    untraced, traced, durations = [], [], []
    try:
        while True:
            began = time.monotonic()
            untraced.append(run_rep(args.workload, args.seed, 0,
                                    workdir / f"rep{len(durations)}",
                                    deadline))
            if args.trace:
                traced.append(run_rep(args.workload, args.seed, 1,
                                      workdir / f"rep{len(durations)}t",
                                      deadline))
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - start
            enough = 1 if args.trace else MIN_REPS
            if (len(durations) >= enough
                    and elapsed + statistics.median(durations)
                    > args.seconds):
                break
            if elapsed + max(durations) > HARD_LIMIT_S - 5:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="write this run's output digests to digests.json (only "
             "after a deliberate model change; needs the default seed)")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program sources under {ROOT / 'src'}")
        if args.record_digests and args.seed != DEFAULT_SEED:
            raise BenchError("--record-digests needs the default seed")
        reference = (None if args.record_digests
                     else load_reference(args.workload, args.seed))
        untraced, traced = measure(args)
        if not untraced[0]["outputs"] and not untraced[0]["failed"]:
            raise BenchError(f"{args.workload} produced no outputs")
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1

    if args.record_digests:
        recorded = (json.loads(DIGESTS.read_text(encoding="utf-8"))
                    if DIGESTS.exists() else {})
        recorded[args.workload] = dict(untraced[0]["outputs"])
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    source = (f"{DIGESTS.name} (seed {args.seed})" if reference is not None
              else "the first repetition")
    if reference is None:
        reference = dict(untraced[0]["outputs"])
    attempted, failed = 0, 0
    for rep in untraced + traced:
        count, bad = check_outputs(rep, reference)
        attempted += count
        failed += len(bad)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(untraced)} untraced"
          + (f" + {len(traced)} traced" if traced else ""))
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<44} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} outputs; digests checked against "
          f"{source})")
    fidelity = untraced[0]["fidelity"]
    if fidelity:
        print("  model fidelity (simulated, deterministic; not a "
              "regression metric):")
        for name, value in fidelity.items():
            print(f"    {name:<42} {value:.6f}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
