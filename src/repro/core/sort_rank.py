"""Distributed global sort; a record's rank is its position in the output.

This is the external sort at the heart of Algorithms 2 and 3, expressed
in Spark: ``repartitionByRange`` (sample → range-partition ≈ the
partitioning phase) followed by ``sortWithinPartitions`` (per-partition
sort ≈ sorted runs) yields a globally sorted DataFrame; partition range
boundaries make the merge phase implicit (TeraSort-style sampled range
partitioning).

The input is persisted first, so the range sampler's scan fills the
cache and the shuffle reads it back: the input's producer (the
summarizer) runs once.  No rank column is computed: written without
``partitionBy``, the sorted frame's part files, in name order, hold the
records in (key, ``seq``) order, the paper's (invSAX, offset), and a
record's rank is its row position in them.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame


def wave_partitions(df: DataFrame) -> int:
    """One partition per core, at least two: the partition count at
    which a stage runs as a single wave of tasks."""
    return max(2, df.sparkSession.sparkContext.defaultParallelism)


def global_sort_with_rank(df: DataFrame, key: str) -> tuple[DataFrame, Callable[[], object]]:
    """Sort ``df`` globally by (``key``, ``seq``), its input position.

    Returns the sorted frame, with ``df``'s columns, and the function
    that releases ``df``, which stays persisted for the call's consumer:
    sampling and shuffle run lazily, in the consumer's action (the leaf
    write), and both read the cache.  Once written, the frame's part
    files, in name order, hold ranks 0..N-1 — row ``i`` is rank ``i`` —
    and a reader that relies on that (``CoconutIndex.load_summaries``)
    checks the key order.  The sort runs in one range partition per core
    (at least two).
    """
    source = df.persist()
    ordered = source.repartitionByRange(wave_partitions(df), key, "seq").sortWithinPartitions(key, "seq")
    return ordered, source.unpersist
