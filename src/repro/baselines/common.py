"""Shared plumbing for the baseline indexes.

The baselines the paper compares against (iSAX 2.0/ADS, DSTree, R-tree,
Vertical) are *top-down insertion* or *multi-pass* algorithms — inherently
sequential driver-side loops.  They run over numpy arrays collected from
the Spark DataFrames (the datasets at our scale fit the driver easily)
and charge all their block traffic to the same
:class:`repro.storage.disk_model.DiskModel` as the Coconut indexes, so
construction/query comparisons are made in the same cost model the
paper's own analysis uses (§3).  ADS's exact search uses the Coconut
SIMS scan itself, :func:`repro.core.query.sims_scan`; the R-tree and
DSTree share :func:`best_first_search` over PAA-box leaf bounds.

A leaf index here has ``ids``, ``series``, ``w``, ``length``,
``leaf_capacity``, ``materialized``, ``disk_config`` and
:class:`~repro.storage.disk_model.LeafStats`' ``leaf_blocks``.
"""
from __future__ import annotations

import heapq
import time

import numpy as np
from pyspark.sql import DataFrame

from repro.core.distance import euclidean
from repro.core.paa import paa
from repro.core.query import SearchResult
from repro.storage.disk_model import DiskModel


def collect_series(series_df: DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Collect (ids, series matrix) ordered by id — the 'raw file' order."""
    pdf = series_df.select("id", "series").toPandas().sort_values("id")
    return pdf["id"].to_numpy(), np.stack(pdf["series"].to_numpy())


def leaf_true_distances(
    rows: np.ndarray, series: np.ndarray, ids: np.ndarray, query: np.ndarray
) -> tuple[int, float]:
    """Best (id, distance) among ``rows`` (indexes into the collection)."""
    d = euclidean(series[rows], query)
    k = int(np.argmin(d))
    return int(ids[rows[k]]), float(d[k])


def paa_box_mindist(
    q_paa: np.ndarray, lo: np.ndarray, hi: np.ndarray, length: int
) -> np.ndarray:
    """sqrt(n/w)·L2 gap from the query's PAA point to each box
    ``[lo[k], hi[k]]`` of segment means — a valid lower bound on ED for
    every series whose PAA lies in the box (PAA containment bound)."""
    gap = np.maximum(lo - q_paa, 0) + np.maximum(q_paa - hi, 0)
    return np.sqrt((length / q_paa.shape[-1]) * np.sum(gap**2, axis=1))


def read_leaf(index, rows: np.ndarray, query: np.ndarray, disk: DiskModel) -> tuple[int, float]:
    """Best (id, distance) in the leaf of ``rows``, charged as one random
    leaf read plus, for a secondary index, one random raw fetch per
    resident series."""
    disk.rand_read(index.leaf_blocks(index.leaf_capacity))
    if not index.materialized:
        disk.rand_read(len(rows))
    return leaf_true_distances(rows, index.series, index.ids, query)


def leaf_search(index, query: np.ndarray, rows: np.ndarray, t0: float) -> SearchResult:
    """Approximate answer: the best series of the one leaf ``rows``."""
    disk = DiskModel(config=index.disk_config)
    bid, bdist = read_leaf(index, rows, query, disk)
    return SearchResult(
        id=bid, distance=bdist, leaves_visited=1, visited_records=len(rows),
        approx_distance=bdist, disk=disk, wall_s=time.perf_counter() - t0,
    )


def best_first_search(
    index, query: np.ndarray, leaves: list[np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> SearchResult:
    """Exact NN: seeded by ``index.approximate``, visit the leaves (row
    arrays, with PAA boxes ``lo``/``hi``) in order of their lower bound
    until it reaches the best-so-far, refining it per leaf."""
    t0 = time.perf_counter()
    approx = index.approximate(query)
    disk = DiskModel(config=index.disk_config)
    disk.merge(approx.disk)
    md = paa_box_mindist(paa(query, index.w), lo, hi, index.length)
    heap = [(float(md[i]), i) for i in range(len(leaves))]
    heapq.heapify(heap)
    bsf, bid = approx.distance, approx.id
    visited, leaves_visited = 0, 0
    while heap:
        lb, k = heapq.heappop(heap)
        if lb >= bsf:
            break
        leaves_visited += 1
        visited += len(leaves[k])
        cid, cdist = read_leaf(index, leaves[k], query, disk)
        if cdist < bsf:
            bsf, bid = cdist, cid
    return SearchResult(
        id=bid, distance=bsf, leaves_visited=leaves_visited,
        visited_records=visited, approx_distance=approx.distance,
        disk=disk, wall_s=time.perf_counter() - t0,
    )


__all__ = [
    "best_first_search", "collect_series", "leaf_search", "leaf_true_distances",
    "paa_box_mindist", "read_leaf",
]
