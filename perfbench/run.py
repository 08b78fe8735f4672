"""Coconut benchmark: one workload, one run, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds over the
same inputs and reports the per-layer metrics, including the tracing
overhead.  Human-readable figures go to standard output first; the last
line is ``{"correct", "attempted", "failed", "metrics"}``.  Everything
the run writes stays under ``.perfbench_work/`` in the repository root,
and the span trace of a traced run is kept there.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DRIVER_MEMORY = "2g"


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_spark(work: Path):
    """Local Spark with the test suite's settings, on at most nproc cores."""
    cores = len(os.sched_getaffinity(0))
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(tmp))}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def run_rounds(wl, tracer, seconds: float, trace: bool) -> tuple[list[float], list[bool]]:
    """Closed loop of rounds until ``seconds`` have passed.

    Untraced, round ``r`` uses input ``r``.  Traced, rounds come in pairs
    on one input, one traced and one not, alternating which goes first;
    the loop runs at least ``2 * wl.trace_rounds`` rounds so that the
    per-layer counts always cover the same traced rounds.
    """
    walls, traced = [], []
    min_rounds = 2 * wl.trace_rounds if trace else 1
    t_end = time.perf_counter() + seconds
    r = 0
    while r < min_rounds or time.perf_counter() < t_end or (trace and r % 2):
        i = r // 2 if trace else r
        on = trace and (r % 2) != (i % 2)
        tracer.round = r
        if on:
            tracer.install()
        t0 = time.perf_counter()
        try:
            wl.run_round(r, i)
        finally:
            walls.append(time.perf_counter() - t0)
            if on:
                tracer.uninstall()
        traced.append(on)
        r += 1
    return walls, traced


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)

    import report
    from spans import Tracer
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work"
    t_setup = time.perf_counter()
    spark = start_spark(work)
    tracer = Tracer(spark.sparkContext)
    wl = WORKLOADS[args.workload](spark, args.seed, work / "indexes", tracer)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t_setup
        walls, traced = run_rounds(wl, tracer, args.seconds, bool(args.trace))
        if args.trace:
            tracer.resolve_jobs()
            tracer.dump(work / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        wl.close()
        stop_spark(spark)
        shutil.rmtree(work / "tmp", ignore_errors=True)

    if args.trace:
        on = [w for w, t in zip(walls, traced) if t]
        off = [w for w, t in zip(walls, traced) if not t]
        overhead = statistics.fmean(on) / statistics.fmean(off) - 1.0
        first = [r for r, t in enumerate(traced) if t][: wl.trace_rounds]
        values = report.per_layer(tracer.spans, wl.events, first, overhead)
        units = report.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "round_s": statistics.median(walls),
            "index_bytes_per_series": wl.index_bytes_per_series,
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {k: v[0] for k, v in report.END_TO_END.items()}
        print(f"# {args.workload} seed={args.seed}: {len(walls)} rounds, "
              f"{wl.tally.attempted} operations checked")
        for name, value in report.op_summary(wl.events, wl.tally).items():
            print(f"{name} = {value}")
    for name in units:
        print(f"{name} = {values[name]} {units[name]}")
    for reason in wl.tally.reasons:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": wl.tally.failed == 0,
        "attempted": wl.tally.attempted,
        "failed": wl.tally.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
