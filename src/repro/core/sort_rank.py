"""Distributed global sort with dense global ranks.

This is the external sort at the heart of Algorithms 2 and 3, expressed
in Spark: ``repartitionByRange`` (sample → range-partition ≈ the
partitioning phase) followed by ``sortWithinPartitions`` (per-partition
sort ≈ sorted runs) yields a globally sorted DataFrame; partition range
boundaries make the merge phase implicit (TeraSort-style sampled range
partitioning).

The input is persisted first, so the range sampler's scan fills the
cache and the shuffle reads it back: the input's producer (the
summarizer) runs once.  The sorted partitions are persisted too, and
one job over a ``spark_partition_id()`` projection both materializes
them and counts each partition.  A global rank is then a lazy JVM
column, ``offset[partition] + position in partition``, read straight off
the persisted sorted partitions by whatever consumes them (the leaf
write) — no extra pass, no ``row_number`` window
funnelling all rows through one task.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: ``monotonically_increasing_id()`` is ``partition << 33 | position``.
_POSITION_MASK = (1 << 33) - 1


def global_sort_with_rank(df: DataFrame, key: str) -> tuple[DataFrame, Callable[[], object]]:
    """Sort ``df`` globally by (``key``, ``id``) and add a dense ``rank``.

    Returns the sorted frame with its ``rank`` column and the function
    that releases it.  Sampling, shuffle and the per-partition count run
    here, over ``df`` persisted for the call and unpersisted before it
    returns; the sorted partitions stay persisted until the release, and
    every action on the frame reads its ranks off them.  Ranks are
    0..N-1 with no gaps, in (``key``, ``id``) order within and across
    partitions.  A partition recomputed after eviction would be sorted
    the same way, and a reader that needs ranks 0..N-1 in file order
    (``CoconutIndex.load_summaries``) checks them.  The sort runs in one
    range partition per core (at least two).
    """
    num_partitions = max(2, df.sparkSession.sparkContext.defaultParallelism)
    source = df.persist()
    ordered = (
        source.repartitionByRange(num_partitions, F.col(key), F.col("id"))
        .sortWithinPartitions(key, "id")
        .persist()
    )
    pid = F.spark_partition_id()
    counts = ordered.select(pid).rdd.map(itemgetter(0)).countByValue()
    source.unpersist()

    offsets, acc = [], 0
    for p in range(max(counts, default=0) + 1):
        offsets.append(acc)
        acc += counts.get(p, 0)
    position = F.monotonically_increasing_id().bitwiseAND(F.lit(_POSITION_MASK))
    rank = F.array(*map(F.lit, offsets))[pid] + position
    return ordered.withColumn("rank", rank), ordered.unpersist
