"""Benchmark of halfline-bethe, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  With
--trace 0 the run measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it spends half of --seconds untraced and half with span tracing
installed, and reports the per-layer metrics.  Every result is checked.
The last line of stdout is the result object; the line before it and
.perfbench_out/result-<workload>-seed<N>-trace<T>.json hold the run's
provenance.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
GROUP_REPEATS = 3
# One BLAS thread, set before numpy is first imported; children inherit it.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {key: os.environ.get(key) for key in THREAD_ENV},
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
    }


def timed_phase(workload, seed, seconds, loop, checks) -> float:
    """Run the workload's closed loop for about `seconds`, or the fixed work
    they set, and scale its times; returns wall time."""
    start = time.perf_counter()
    workload.run(seed, loop, checks, seconds)
    loop.finish()
    return time.perf_counter() - start


def group_layers(n: int) -> dict:
    """Cold costs of the process-wide group caches: a fresh WeylGroup(n),
    its right tables for every generator, and a fresh regular representation
    with its tables (medians over GROUP_REPEATS)."""
    from halfline_bethe.representations import RegularRep
    from halfline_bethe.weyl_group import WeylGroup, generator_letters, letter_element

    enumerate_s, tables_s, regular_s = [], [], []
    letters = generator_letters(n)
    for _ in range(GROUP_REPEATS):
        t0 = time.process_time()
        group = WeylGroup(n)
        t1 = time.process_time()
        for letter in letters:
            group.right_table(letter_element(letter, n))
        t2 = time.process_time()
        rep = RegularRep(WeylGroup(n))
        for letter in letters:
            rep.table(letter)
        t3 = time.process_time()
        enumerate_s.append(t1 - t0)
        tables_s.append(t2 - t1)
        regular_s.append(t3 - t2)
    return {
        "weyl_group.enumerate_ms": statistics.median(enumerate_s) * 1e3,
        "weyl_group.right_table_ms": statistics.median(tables_s) * 1e3,
        "representations.regular_rep_ms": statistics.median(regular_s) * 1e3,
    }


def end_to_end(workload, args, checks, details) -> dict:
    import stats
    import workloads as wl

    setup_raw, setup = zip(*(wl.measure_setup(workload) for _ in range(SETUP_REPEATS)))
    wl.warm(workload)
    loop = wl.JobLoop(speed_exponent=workload.speed_exponent)
    elapsed = timed_phase(workload, args.seed, args.seconds, loop, checks)
    latencies = loop.latencies
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-readme" else resource.RUSAGE_SELF
    tail = stats.tail(latencies)
    raw_tail = stats.tail(loop.raw_latencies)
    details.update(
        setup_samples_s=setup,
        setup_samples_raw_s=setup_raw,
        jobs=len(latencies),
        elapsed_s=elapsed,
        busy_cpu_s=loop.busy,
        busy_raw_cpu_s=loop.raw_busy,
        jobs_per_wall_s=len(latencies) / elapsed,
        job_ms_p50_raw=statistics.median(loop.raw_latencies) * 1e3,
        job_ms_tail_raw=(raw_tail[0] if raw_tail else max(loop.raw_latencies)) * 1e3,
        speed_samples=len(loop.speed_samples),
        speed_sample_ms_median=statistics.median(loop.speed_samples) * 1e3,
        tail_percentile=tail[1] if tail else None,
        tail_rule_met=tail is not None,
    )
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": loop.jobs_per_s,
        "job_ms.p50": statistics.median(latencies) * 1e3,
        # Below 22 jobs no percentile above the median leaves ten jobs
        # beyond it; the maximum is reported and tail_rule_met says so.
        "job_ms.tail": (tail[0] if tail else max(latencies)) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(workload, args, checks, details) -> dict:
    import tracing
    import workloads as wl

    wl.warm(workload)
    half = args.seconds / 2
    plain = wl.JobLoop(speed_exponent=workload.speed_exponent)
    timed_phase(workload, args.seed, half, plain, checks)

    tracer = tracing.Tracer()
    traced = wl.JobLoop(tracer, workload.speed_exponent)
    tracer.install()
    try:
        timed_phase(workload, args.seed, half, traced, checks)
    finally:
        tracer.uninstall()

    census = tracing.Tracer()
    census_loop = wl.JobLoop(census)
    census.install()
    try:
        wl.census(args.seed, census_loop, checks)
    finally:
        census.uninstall()

    values, filled = tracing.layer_metrics(tracer, len(traced.latencies),
                                           census, len(census_loop.raw_latencies))
    values.update(group_layers(workload.n))
    values["trace.overhead_frac"] = plain.jobs_per_s / traced.jobs_per_s - 1.0

    wl.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    tracer.save(wl.OUT_DIR / f"spans-{stem}.npz")
    census.save(wl.OUT_DIR / f"spans-census-{stem}.npz")
    details.update(
        jobs_untraced=len(plain.latencies),
        jobs_traced=len(traced.latencies),
        jobs_per_s_untraced=plain.jobs_per_s,
        jobs_per_s_traced=traced.jobs_per_s,
        spans=len(tracer),
        census_spans=len(census),
        census_filled=filled,
    )
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "halfline_bethe" / "__init__.py").is_file():
        print(f"error: no halfline_bethe package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))

    import stats
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    checks = stats.Checks()
    details = provenance(args)
    if args.trace:
        values = per_layer(workload, args, checks, details)
    else:
        values = end_to_end(workload, args, checks, details)
    checks.require_any()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json")
    details["checks"] = checks.summary()
    details["metrics"] = values

    wl.OUT_DIR.mkdir(exist_ok=True)
    result_file = wl.OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps({"provenance": details}))
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
