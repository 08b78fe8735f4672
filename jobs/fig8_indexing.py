"""spark-submit entrypoint reproducing Figure 8 (indexing).

Usage: spark-submit jobs/fig8_indexing.py [n_series]
Prints panels 8a–8f as fixed-width tables (recorded in EXPERIMENTS.md).
"""
import sys

sys.path.insert(0, ".")

from jobs._common import get_spark, workdir  # noqa: E402
from repro.experiments.fig8_indexing import (  # noqa: E402
    construction_vs_datasize,
    construction_vs_length,
    construction_vs_memory,
)
from repro.experiments.harness import (  # noqa: E402
    MATERIALIZED_SYSTEMS,
    SECONDARY_SYSTEMS,
    format_rows,
)

BUILD_COLS = ["system", "mem_frac", "sim_s", "wall_s", "rand_ios", "seq_blocks"]
SPACE_COLS = ["system", "n_leaves", "fill", "index_bytes", "space_ratio"]


def main(n_series: int = 4000) -> None:
    spark = get_spark("fig8")
    wd = workdir()
    common = dict(n_series=n_series, length=128, w=8, bits=8, leaf_capacity=100, workdir=wd)

    rows_a = construction_vs_memory(spark, systems=MATERIALIZED_SYSTEMS, **common)
    print(format_rows(rows_a, BUILD_COLS, "\n== Fig 8a: materialized construction vs memory =="))
    rows_b = construction_vs_memory(spark, systems=SECONDARY_SYSTEMS, **common)
    print(format_rows(rows_b, BUILD_COLS, "\n== Fig 8b: non-materialized construction vs memory =="))
    # Space does not depend on memory: 8c is the 8a+8b builds at one mem_frac.
    first = rows_a[0]["mem_frac"]
    rows = [r for r in rows_a + rows_b if r["mem_frac"] == first]
    print(format_rows(rows, SPACE_COLS, "\n== Fig 8c: space overhead =="))
    rows = construction_vs_datasize(
        spark, systems=["CTreeFull", "ADSFull", "CTree", "ADS+"],
        sizes=(n_series // 4, n_series // 2, n_series), memory_series=n_series // 10,
        length=128, w=8, bits=8, leaf_capacity=100, workdir=wd,
    )
    print(format_rows(rows, ["system", "n_series", "sim_s", "rand_ios"],
                      "\n== Fig 8d/8e: construction vs data size (fixed memory) =="))
    rows = construction_vs_length(
        spark, systems=["CTreeFull", "ADSFull", "CTree", "ADS+"],
        lengths=(64, 128, 256), total_points=n_series * 128,
        w=8, bits=8, leaf_capacity=100, workdir=wd,
    )
    print(format_rows(rows, ["system", "length", "n_series", "sim_s"],
                      "\n== Fig 8f: construction vs series length (fixed volume) =="))
    spark.stop()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4000)
