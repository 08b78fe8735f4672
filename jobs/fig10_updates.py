"""spark-submit entrypoint reproducing Figure 10 (updates + complete
workloads on the real-dataset substitutes).

Usage: spark-submit jobs/fig10_updates.py [n_series]
"""
import sys

sys.path.insert(0, ".")

from jobs._common import get_spark, workdir  # noqa: E402
from repro.experiments.fig10_updates import (  # noqa: E402
    complete_workload,
    updates_workload,
)
from repro.experiments.harness import format_rows  # noqa: E402


def main(n_series: int = 2000) -> None:
    spark = get_spark("fig10")
    wd = workdir()
    rows = updates_workload(
        spark, total_series=n_series, batch_sizes=(n_series // 20, n_series // 4),
        length=128, w=8, bits=8, leaf_capacity=100, workdir=wd,
    )
    print(format_rows(rows, ["system", "batch", "n_batches", "sim_s", "wall_s"],
                      "\n== Fig 10a: interleaved updates & queries =="))
    for kind, label in (("astro", "10b astronomy-like"), ("seismic", "10c seismic-like")):
        rows = complete_workload(
            spark, kind=kind, n_series=n_series, n_queries=20, length=128,
            w=8, bits=8, leaf_capacity=100, mem_fracs=(1.0, 0.05), workdir=wd,
        )
        print(format_rows(
            rows,
            ["system", "mem_frac", "build_sim_s", "query_sim_s", "total_sim_s",
             "index_bytes", "avg_visited"],
            f"\n== Fig {label}: complete workload ==",
        ))
    spark.stop()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
