"""Simplified DSTree baseline [56].

DSTree is a data-adaptive segmentation tree built by top-down
insertion: a node that overflows picks the segment statistic (here the
segment *mean*, the EAPCA first moment) that best separates its
residents and splits at the median of that statistic.  The paper's key
observation (§5.1, Fig 8a) is its construction cost: every split must
*re-read the node's raw series* to compute the refined statistics —
"multiple iterations ... over the raw data during splits" — which at
scale pushed it past 24 hours.  We charge exactly that: a random read
of the node's pages per split, on top of buffered top-down insertion.

The node lower bound uses per-segment mean intervals: with segment
length ``l``, ED² ≥ Σ_seg l · gap(q_mean_seg, [min_mean, max_mean])²
(the PAA containment bound), so exact best-first search is admissible.
DSTree is always materialized (series in leaves), as in the paper.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.common import best_first_search, leaf_search
from repro.core.paa import paa
from repro.core.query import SearchResult
from repro.storage.disk_model import DiskConfig, DiskModel, LeafStats, LRUPageBuffer

_uid = itertools.count()


@dataclass
class _Node:
    rows: list[int] = field(default_factory=list)
    split_seg: int = -1
    split_val: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    uid: int = field(default_factory=lambda: next(_uid))

    @property
    def is_leaf(self) -> bool:
        return self.split_seg < 0


class DSTreeIndex(LeafStats):
    """Simplified DSTree: adaptive mean-split tree, top-down insertion."""

    materialized = True

    def __init__(
        self,
        ids: np.ndarray,
        series: np.ndarray,
        *,
        w: int = 8,
        leaf_capacity: int = 100,
        disk_config: DiskConfig | None = None,
    ):
        t0 = time.perf_counter()
        self.ids, self.series = ids, series
        self.w = w
        self.leaf_capacity = leaf_capacity
        self.disk_config = disk_config or DiskConfig()
        self.n_series, self.length = series.shape
        self.paa = paa(series, w)  # segment means = EAPCA first moments
        self.build_disk = DiskModel(config=self.disk_config)
        c = self.disk_config
        self.build_disk.seq_read(c.blocks(self.n_series, series=True))
        self.build_disk.cpu_summarize(self.n_series)
        self.build_disk.cpu_insert(self.n_series)
        self._buffer = LRUPageBuffer(self.build_disk, c.memory_series, leaf_capacity)
        self.root = _Node()
        for i in range(self.n_series):
            self._insert(i)
        self._buffer.flush()
        self.build_wall_s = time.perf_counter() - t0

    def _insert(self, row: int) -> None:
        node = self.root
        while not node.is_leaf:
            v = self.paa[row, node.split_seg]
            node = node.left if v <= node.split_val else node.right
        node.rows.append(row)
        self._buffer.touch(
            node.uid, dirty=True, new=len(node.rows) == 1, size=len(node.rows)
        )
        if len(node.rows) > self.leaf_capacity:
            self._split(node)

    def _split(self, node: _Node) -> None:
        rows = np.array(node.rows)
        # Splitting requires the refined per-segment statistics of the
        # resident raw series: DSTree re-reads the node from disk.
        self.build_disk.rand_read(self.disk_config.blocks(len(rows), series=True))
        means = self.paa[rows]  # (m, w)
        spreads = means.std(axis=0)
        j = int(np.argmax(spreads))
        if spreads[j] <= 0:
            return  # all residents identical in every segment: oversized leaf
        thresh = float(np.median(means[:, j]))
        mask = means[:, j] <= thresh
        if mask.all() or not mask.any():
            return
        self._buffer.drop(node.uid)
        node.split_seg, node.split_val = j, thresh
        node.left = _Node(rows=list(rows[mask]))
        node.right = _Node(rows=list(rows[~mask]))
        node.rows = []
        self._buffer.touch(node.left.uid, dirty=True, new=True, size=len(node.left.rows))
        self._buffer.touch(node.right.uid, dirty=True, new=True, size=len(node.right.rows))
        for child in (node.left, node.right):
            if len(child.rows) > self.leaf_capacity:
                self._split(child)

    # -- stats -------------------------------------------------------------
    def _leaves(self) -> list[_Node]:
        out, stack = [], [self.root]
        while stack:
            nd = stack.pop()
            if nd.is_leaf:
                out.append(nd)
            else:
                stack.extend([nd.left, nd.right])
        return out

    @property
    def n_leaves(self) -> int:
        return len(self._leaves())

    # -- queries -----------------------------------------------------------
    def approximate(self, query: np.ndarray) -> SearchResult:
        t0 = time.perf_counter()
        qp = paa(query, self.w)
        node = self.root
        while not node.is_leaf:
            node = node.left if qp[node.split_seg] <= node.split_val else node.right
        return leaf_search(self, query, np.array(node.rows, dtype=np.int64), t0)

    def exact(self, query: np.ndarray) -> SearchResult:
        """Best-first NN over the leaves' segment-mean boxes."""
        leaves = [np.array(l.rows, dtype=np.int64) for l in self._leaves()]
        lo = np.stack([self.paa[rows].min(axis=0) for rows in leaves])
        hi = np.stack([self.paa[rows].max(axis=0) for rows in leaves])
        return best_first_search(self, query, leaves, lo, hi)
