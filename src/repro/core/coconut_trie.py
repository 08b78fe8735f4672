"""Coconut-Trie: bottom-up bulk-loading of a prefix-split index (Algorithm 2).

Like Coconut-Tree, the build starts by summarizing and externally
sorting by invSAX.  But leaves are constrained to *prefix boundaries* of
the z-order key (= common iSAX prefixes across all segments, §4.2):
within each root subtree we split recursively on the next interleaved
bit until a group fits the leaf capacity.  Stopping at the shallowest
fitting depth is exactly the fixpoint of the paper's ``insertBottomUp``
+ ``CompactSubtree`` (build at full resolution, then merge sibling
leaves while they fit): both yield the minimal prefix partition.

Because groups can only merge at prefix boundaries, leaves end up
sparse (paper: ~10% full) — the contrast Coconut-Tree removes.  The
split is one driver-side pass over the sorted keys, read back from the
leaf file as the directory is built: splitting is forced down to the
first level (1 bit/segment), so no leaf spans two root subtrees — the
subtrees Algorithm 2 processes one at a time.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.coconut_common import (
    CoconutIndex,
    RawFile,
    directory_from_summaries,
    write_index_files,
)
from repro.core.coconut_tree import _series_length, summarize_series
from repro.core.sort_rank import global_sort_with_rank
from repro.core.zorder import first64
from repro.storage.disk_model import CPU_INSERT_ITEM_S, DiskConfig, DiskModel, external_sort_cost

#: Prefix depth beyond which a group becomes an (oversized) leaf — 62
#: interleaved bits is far deeper than any real split needs and keeps
#: prefixes in int64 range.
MAX_DEPTH = 62


def prefix_leaf_starts(
    keys64: np.ndarray, *, start_depth: int, capacity: int, max_depth: int = MAX_DEPTH
) -> np.ndarray:
    """Split a *sorted* array of 64-bit key prefixes into prefix leaves.

    Returns the index of every leaf's first key, ascending.  A group
    splits on its next interleaved bit until it is ``start_depth`` bits
    deep (the root subtrees) and fits ``capacity`` — or ``max_depth``,
    normally the number of real, non-padding key bits, is reached, at
    which point all keys are identical and the leaf is oversized; this
    is median-free, boundary-constrained splitting.
    """
    max_depth = min(max_depth, MAX_DEPTH)
    starts = []
    stack = [(0, len(keys64), 0, 0)] if len(keys64) else []
    while stack:
        lo, hi, depth, prefix = stack.pop()
        if depth >= start_depth and (hi - lo <= capacity or depth >= max_depth):
            starts.append(lo)
            continue
        # First key whose bit at position ``depth`` is 1 — the range is
        # sorted, so the 0-child precedes the 1-child contiguously.  The
        # 0-child is pushed last, so leaves pop in key order.
        boundary = (2 * prefix + 1) << (64 - depth - 1)
        split = lo + int(np.searchsorted(keys64[lo:hi], boundary, side="left"))
        if split < hi:
            stack.append((split, hi, depth + 1, 2 * prefix + 1))
        if split > lo:
            stack.append((lo, split, depth + 1, 2 * prefix))
    return np.asarray(starts, dtype=np.int64)


def charge_trie_build(disk: DiskModel, n: int, n_leaves: int, leaf_capacity: int, *, materialized: bool) -> None:
    """Disk-access-model cost of Algorithm 2.

    Both variants sort only the summaries.  The Full variant then pays
    the paper's "last pass": gathering raw series by offset into the
    sorted leaves — random reads once the raw file exceeds memory
    (Fig 8a: CTrieFull degrades steeply as memory shrinks).  Compaction
    adds two streaming passes over the summaries.  Leaves are allocated
    at full capacity, so sparse leaves inflate the final write.
    """
    c = disk.config
    sum_blocks = c.blocks(n, series=False)
    disk.seq_read(c.blocks(n, series=True))  # summarization scan
    disk.cpu_summarize(n)
    disk.cpu_sort(n)
    # CompactSubtree: repeated sibling-merge sweeps over the leaf level
    # (the paper: CTrie "spends a significant time in compacting").
    disk.charge_cpu(3 * n * CPU_INSERT_ITEM_S)
    external_sort_cost(disk, n, c.records_per_block(series=False), c.memory_records(series=False))
    disk.seq_read(sum_blocks)  # compaction pass over summaries
    disk.seq_write(sum_blocks)
    if materialized:
        disk.rand_read(max(0, n - c.memory_series))  # fetch raw series into sorted leaves
    disk.seq_write(n_leaves * c.blocks(leaf_capacity, series=materialized))


def build_coconut_trie(
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
    """Bulk-load a Coconut-Trie index over ``series_df`` (id, series).  A
    secondary index finds series by id, so a repeated id is a
    ``ValueError``; a materialized one finds them by rank."""
    cfg = disk_config or DiskConfig()
    disk = DiskModel(config=cfg)
    t0 = time.perf_counter()
    length = _series_length(series_df, w)
    capacity = leaf_capacity
    start_depth = w  # first trie level: 1 bit from each of the w segments

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
        f"{path}/leaves",
        lambda zkey: prefix_leaf_starts(
            first64(zkey.to_pylist()), start_depth=start_depth, capacity=capacity,
            max_depth=min(w * bits, MAX_DEPTH),
        ),
    )
    n = int(directory["count"].sum())
    charge_trie_build(disk, n, len(directory), capacity, materialized=materialized)

    return CoconutIndex(
        path=path,
        w=w,
        bits=bits,
        length=length,
        leaf_capacity=capacity,
        materialized=materialized,
        n_series=n,
        directory=directory,
        row_groups=row_groups,
        build_disk=disk,
        disk_config=cfg,
        build_wall_s=time.perf_counter() - t0,
        raw=raw,
    )
