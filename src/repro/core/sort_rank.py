"""Distributed global sort with dense global ranks.

This is the external sort at the heart of Algorithms 2 and 3, expressed
in Spark: ``repartitionByRange`` (sample → range-partition ≈ the
partitioning phase) followed by ``sortWithinPartitions`` (per-partition
sort ≈ sorted runs) yields a globally sorted DataFrame; partition range
boundaries make the merge phase implicit.  Global ranks are then
assigned with the standard two-pass idiom — per-partition counts →
cumulative offsets → ``mapInPandas`` adding ``offset + local position``
— instead of a ``row_number`` window over an unpartitioned ordering,
which would funnel all rows through one task.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark import TaskContext
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def global_sort_with_rank(df: DataFrame, key: str) -> DataFrame:
    """Sort ``df`` globally by (``key``, ``id``) and add a dense ``rank``.

    Returns a *persisted* DataFrame (already materialized, so the sampled
    range boundaries and partition-local ranks are frozen); the caller
    should ``unpersist()`` it when done.  Ranks are 0..N-1 with no gaps.
    The sort runs in one range partition per core (at least two).
    """
    num_partitions = max(2, df.sparkSession.sparkContext.defaultParallelism)
    ordered = (
        df.repartitionByRange(num_partitions, F.col(key), F.col("id"))
        .sortWithinPartitions(key, "id")
        .persist()
    )
    counts = {
        r["pid"]: r["cnt"]
        for r in ordered.withColumn("pid", F.spark_partition_id())
        .groupBy("pid")
        .agg(F.count("*").alias("cnt"))
        .collect()
    }
    offsets, acc = {}, 0
    for pid in range(ordered.rdd.getNumPartitions()):
        offsets[pid] = acc
        acc += counts.get(pid, 0)

    # Build a fresh StructType — StructType.add mutates in place, and the
    # DataFrame caches its schema object, so extending it directly would
    # corrupt ``ordered``'s own column list.
    from pyspark.sql.types import LongType, StructField, StructType

    out_schema = StructType(ordered.schema.fields + [StructField("rank", LongType())])

    def add_rank(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pid = TaskContext.get().partitionId()
        base = offsets[pid]
        for pdf in batches:
            pdf = pdf.copy()
            pdf["rank"] = range(base, base + len(pdf))
            base += len(pdf)
            yield pdf

    ranked = ordered.mapInPandas(add_rank, schema=out_schema).persist()
    ranked.count()  # freeze ranks before anything downstream re-evaluates
    ordered.unpersist()
    return ranked
