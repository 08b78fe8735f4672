"""Coconut-Tree: bottom-up bulk-loading of a balanced index (Algorithm 3).

Pipeline (the paper's lines map directly onto Spark stages):

1. lines 2–8   — one scan of the raw series computing (invSAX, position):
   the ``mapInArrow`` summarization pass.  For a secondary index the
   same scan writes the raw file, the paper's flat binary series file,
   in the input's order, so a series' position is its row there.
2. lines 9–12  — external sort by (invSAX, input position):
   ``repartitionByRange`` + ``sortWithinPartitions``
   (``repro.core.sort_rank``), run as the leaves are written.
3. line 13     — UB-tree-style bulk load on the sorted stream: the
   sorted records (``id, zkey[, series]``) are written as one Parquet
   file, in which a record's rank is its position, and the directory
   (internal levels) is built from its keys on the driver.
   With the data sorted, median-based splitting of a leaf level simply
   starts a leaf at every ``leaf_capacity``-th rank — every leaf (except
   the last) is exactly full, the tree over the leaf ranges is balanced
   by construction.

``materialized=True`` is Coconut-Tree-Full (series stored in the
leaves); otherwise the leaves hold ids and the raw file holds the
series.  ``merge_batch`` is the bulk-update path of Fig 10a (§4.3): it
collects only the batch, keys and sorts it in driver memory, with the
summarizer's key function and no Spark stage, and stream-merges it into
the old sorted run, which is read once and never re-summarized or
re-sorted; it is charged as that streaming merge.
"""
from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Callable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.coconut_common import (
    CoconutIndex,
    RawFile,
    RawWriter,
    as_matrix,
    check_unique_ids,
    directory_from_summaries,
    merge_index_files,
    write_index_files,
)
from repro.core.sort_rank import global_sort_with_rank, wave_partitions
from repro.core.zorder import zkeys
from repro.storage.disk_model import CPU_SORT_ITEM_S, DiskConfig, DiskModel, external_sort_cost


def summarize_series(
    series_df: DataFrame, w: int, bits: int, length: int, *, raw: str | None
) -> tuple[DataFrame, Callable[[], None]]:
    """(id, series) -> (id, zkey, seq[, series]): Algorithm 3 lines 2–8.

    The one summarization pass of both Coconut variants: a single scan of
    the raw data computing each series' invSAX key, a fixed-width
    ``binary`` value that also encodes its SAX word.  With ``raw=None``
    (a materialized index) the series stay in the output, for the
    leaves; otherwise this scan writes them to the raw file in the
    directory ``raw`` (emptied now, on the driver), in ``series_df``'s
    partition order, so a series' raw position is its row in that order.

    The input is coalesced to one partition per core
    (:func:`wave_partitions`), so the Python tasks, each with a fixed
    start-up cost far above its summarizing work at these sizes, run as
    a single wave.  Rows are first numbered, as ``seq`` (the sort's
    offset), by ``monotonically_increasing_id``: consecutive within a
    partition, rising across partitions.  A task gets whole input
    partitions, but one Arrow batch may hold two, so each run of
    consecutive numbers is one raw part.  (``spark_partition_id`` would
    not do: over a frame made from driver-side data, Spark evaluates it
    on the driver, as 0.)

    A series that is null or not ``length`` long is counted and
    dropped.  Returns the summaries and a check to call once they have
    been computed: it raises ``ValueError`` if any series was dropped.
    """
    schema = "id long, zkey binary, seq long"
    if raw is None:
        schema += ", series array<double>"
    else:
        shutil.rmtree(raw, ignore_errors=True)
        os.makedirs(raw)
    dropped = series_df.sparkSession.sparkContext.accumulator(0)

    def compute(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        with RawWriter(raw) if raw is not None else nullcontext() as out:
            for rb in batches:
                ok = pc.fill_null(pc.list_value_length(rb.column("series")), -1).to_numpy() == length
                if not ok.all():
                    dropped.add(int((~ok).sum()))
                    rb = rb.filter(pa.array(ok))
                if len(rb) == 0:
                    continue
                mat = as_matrix(rb.column("series"), length)
                zkey = pa.array(zkeys(mat, w, bits), pa.binary())
                cols = {"id": rb.column("id"), "zkey": zkey, "seq": rb.column("seq")}
                if out is None:
                    cols["series"] = rb.column("series")
                else:
                    ids, seq = rb.column("id").to_numpy(), rb.column("seq").to_numpy()
                    cuts = [0, *(np.flatnonzero(np.diff(seq) != 1) + 1), len(seq)]
                    for lo, hi in zip(cuts, cuts[1:]):
                        out.append(int(seq[lo]), ids[lo:hi], mat[lo:hi])
                yield pa.record_batch(cols)

    def check() -> None:
        if dropped.value:
            raise ValueError(
                f"{dropped.value} series are null or not of length {length}, "
                "the first series' length"
            )

    summaries = (
        series_df.select("id", "series", F.monotonically_increasing_id().alias("seq"))
        .coalesce(wave_partitions(series_df))
        .mapInArrow(compute, schema=schema)
    )
    return summaries, check


def _series_length(series_df: DataFrame, w: int) -> int:
    """Length of the first series.  An index over no series, one whose
    first series is null or empty, or one whose ``w`` segments do not
    divide the length, is an error on the driver."""
    first = series_df.select(F.size("series").alias("n")).first()
    if first is None:
        raise ValueError("cannot build an index over an empty series DataFrame")
    if first["n"] is None or first["n"] <= 0:  # size(null): null, or -1 in legacy mode
        raise ValueError("the first series is null or empty, so it gives no series length")
    n = int(first["n"])
    if n % w:
        raise ValueError(f"segment count w={w} must divide series length n={n}")
    return n


def charge_tree_build(
    disk: DiskModel, n: int, *, materialized: bool
) -> None:
    """Disk-access-model cost of Algorithm 3 (§3.1 analysis, O(N/B)).

    Sequential scan of the raw file; external sort of the sort payload
    (raw series for the Full variant — the paper observes this dominates
    CTreeFull — or just summaries otherwise); sequential write of the
    leaf level.
    """
    c = disk.config
    disk.seq_read(c.blocks(n, series=True))  # summarization scan
    disk.cpu_summarize(n)
    disk.cpu_sort(n)
    external_sort_cost(
        disk, n, c.records_per_block(series=materialized), c.memory_records(series=materialized)
    )
    disk.seq_write(c.blocks(n, series=materialized))  # leaf level


def _median_leaf_starts(leaf_capacity: int):
    """A leaf starts at every ``leaf_capacity``-th rank: median splits
    of a sorted run, so every leaf but the last is full."""
    return lambda zkey: np.arange(0, len(zkey), leaf_capacity)


def build_coconut_tree(
    spark: SparkSession,
    series_df: DataFrame,
    *,
    path: str,
    w: int = 8,
    bits: int = 4,
    leaf_capacity: int = 100,
    materialized: bool = False,
    disk_config: DiskConfig | None = None,
) -> CoconutIndex:
    """Bulk-load a Coconut-Tree index over ``series_df`` (id, series).  A
    secondary index finds series by id, so a repeated id is a
    ``ValueError``; a materialized one finds them by rank."""
    cfg = disk_config or DiskConfig()
    disk = DiskModel(config=cfg)
    t0 = time.perf_counter()
    length = _series_length(series_df, w)

    summaries, check_lengths = summarize_series(
        series_df, w, bits, length, raw=None if materialized else f"{path}/raw"
    )
    ordered, release = global_sort_with_rank(summaries, "zkey")
    try:
        write_index_files(
            ordered, path=path, materialized=materialized, block_series=cfg.block_series
        )
    finally:
        release()
    check_lengths()
    # Loading a secondary index's raw-file ids checks that they are unique.
    raw = None if materialized else RawFile.load(f"{path}/raw", length)
    directory, row_groups = directory_from_summaries(
        f"{path}/leaves", _median_leaf_starts(leaf_capacity)
    )
    n = int(directory["count"].sum())
    charge_tree_build(disk, n, materialized=materialized)

    return CoconutIndex(
        path=path,
        w=w,
        bits=bits,
        length=length,
        leaf_capacity=leaf_capacity,
        materialized=materialized,
        n_series=n,
        directory=directory,
        row_groups=row_groups,
        build_disk=disk,
        disk_config=cfg,
        build_wall_s=time.perf_counter() - t0,
        raw=raw,
    )


def merge_batch(index: CoconutIndex, batch_df: DataFrame, *, path: str) -> CoconutIndex:
    """Bulk-update (Fig 10a; the LSM-flavored path the paper motivates):
    merge the batch ``batch_df`` (id, series) into ``index`` as a new
    index at ``path``, and close ``index``.

    The batch is collected to the driver, the paper's in-memory batch
    buffer, in the merge's one Spark job, and keyed there by
    :func:`zkeys`, the key function :func:`summarize_series` applies.
    :func:`merge_index_files` sorts it by ``zkey``, streams the old
    sorted run from the leaf file and merges the two, so the merged file
    holds the records a rebuild over old plus batch would, in the same
    order.  A batch with a series that is null
    or not ``index.length`` long is a ``ValueError``, raised before
    anything is written; so is, for a secondary index, a batch id that
    repeats or that the index already holds.

    The sim cost charged is that streaming merge: summarize the batch,
    sort it, then stream old index + new run in and the merged run out.
    Contrast with ADS top-down inserts, which pay a random I/O per
    touched leaf.
    """
    t0 = time.perf_counter()
    batch = batch_df.select("id", "series").toArrow()
    series = batch.column("series")
    lengths = pc.fill_null(pc.list_value_length(series), -1).to_numpy()
    bad = lengths != index.length
    if bad.any():
        raise ValueError(
            f"{bad.sum()} batch series are not of length {index.length}, the index's "
            f"(batch lengths {lengths.min()}..{lengths.max()}, -1 for a null series)"
        )
    if not index.materialized:
        check_unique_ids(
            np.concatenate([index.raw_file().id, batch.column("id").to_numpy()]),
            "the index merged with the batch",
        )
    mat = as_matrix(series, index.length)
    batch = batch.append_column("zkey", pa.array(zkeys(mat, index.w, index.bits), pa.binary()))
    merge_index_files(
        index.path, batch, mat, path, materialized=index.materialized,
        block_series=index.disk_config.block_series,
    )
    directory, row_groups = directory_from_summaries(
        f"{path}/leaves", _median_leaf_starts(index.leaf_capacity)
    )
    # The merge cost: the batch is scanned+sorted, the old run is
    # streamed in, the merged run streamed out — no random I/O.
    n_old = index.n_series
    b = int(directory["count"].sum()) - n_old
    c, mat = index.disk_config, index.materialized
    disk = DiskModel(config=c)
    disk.seq_read(c.blocks(b, series=True))                   # scan batch
    external_sort_cost(disk, b, c.records_per_block(series=mat), c.memory_records(series=mat))
    disk.seq_read(c.blocks(n_old, series=mat))                # stream old run
    disk.seq_write(c.blocks(n_old + b, series=mat))           # write merged
    disk.cpu_summarize(b)
    disk.cpu_sort(b)
    disk.charge_cpu((n_old + b) * CPU_SORT_ITEM_S)            # merge pass
    index.close()
    return replace(
        index, path=path, n_series=n_old + b, directory=directory, row_groups=row_groups,
        build_disk=disk, build_wall_s=time.perf_counter() - t0,
    )
