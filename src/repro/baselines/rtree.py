"""R-tree baseline bulk-loaded with STR over PAA points.

The paper's R-tree [14] indexes each series' PAA summarization as a
point in ``w`` dimensions, bulk-loaded with Sort-Tile-Recursive [24]:
sort on dimension 0 into ~P^(1/D) slabs, recurse within each slab on
the remaining dimensions.  The paper charges this O(N·D) I/Os — one
sorting pass per dimension over the payload — which is what makes it
slower to build than Coconut's single-sort O(N) (§5.1).

``materialized=True`` stores series in the leaves (R-tree); otherwise
leaves hold positions (R-tree+).  NN queries use best-first search over
leaf MBRs with the PAA-space lower bound sqrt(n/w)·dist(q_paa, MBR).
"""
from __future__ import annotations

import heapq
import time

import numpy as np

from repro.baselines.common import leaf_true_distances
from repro.core.paa import paa
from repro.core.query import SearchResult
from repro.storage.disk_model import DiskConfig, DiskModel, external_sort_cost


def str_pack(points: np.ndarray, leaf_capacity: int) -> list[np.ndarray]:
    """Sort-Tile-Recursive packing: row-index groups of ≤ leaf_capacity.

    Recursively slices the point set into vertical slabs on each
    dimension in turn, so leaves tile the space.
    """
    m, d = points.shape

    def rec(rows: np.ndarray, dim: int) -> list[np.ndarray]:
        if len(rows) <= leaf_capacity:
            return [rows]
        if dim >= d - 1:
            order = rows[np.argsort(points[rows, dim], kind="stable")]
            return [
                order[i : i + leaf_capacity]
                for i in range(0, len(order), leaf_capacity)
            ]
        n_leaves = -(-len(rows) // leaf_capacity)
        n_slabs = max(1, int(np.ceil(n_leaves ** (1.0 / (d - dim)))))
        slab_size = -(-len(rows) // n_slabs)
        order = rows[np.argsort(points[rows, dim], kind="stable")]
        out: list[np.ndarray] = []
        for i in range(0, len(order), slab_size):
            out.extend(rec(order[i : i + slab_size], dim + 1))
        return out

    return rec(np.arange(m), 0)


class RTreeIndex:
    """STR bulk-loaded R-tree over PAA points with a flat leaf directory."""

    def __init__(
        self,
        ids: np.ndarray,
        series: np.ndarray,
        *,
        w: int = 8,
        leaf_capacity: int = 100,
        materialized: bool = False,
        disk_config: DiskConfig | None = None,
        name: str | None = None,
    ):
        t0 = time.perf_counter()
        self.ids, self.series = ids, series
        self.w = w
        self.leaf_capacity = leaf_capacity
        self.materialized = materialized
        self.disk_config = disk_config or DiskConfig()
        self.name = name or ("R-tree" if materialized else "R-tree+")
        self.n, self.length = series.shape
        self.paa = paa(series, w)
        self.leaves = str_pack(self.paa, leaf_capacity)
        self.mbr_lo = np.stack([self.paa[rows].min(axis=0) for rows in self.leaves])
        self.mbr_hi = np.stack([self.paa[rows].max(axis=0) for rows in self.leaves])
        self.build_disk = DiskModel(config=self.disk_config)
        self._charge_build()
        self.build_wall_s = time.perf_counter() - t0

    def _charge_build(self) -> None:
        """O(N·D): one external-sort pass of the payload per dimension."""
        c = self.disk_config
        disk = self.build_disk
        disk.seq_read(max(1, -(-self.n // c.block_series)))  # summarization pass
        disk.cpu_summarize(self.n)
        if self.materialized:
            per_block, mem = c.block_series, c.memory_series
        else:
            per_block, mem = c.summaries_per_block, c.memory_summaries
        for _ in range(self.w):
            # STR re-sorts the payload once per dimension level; each pass
            # streams the data out and back in even when partially cached.
            external_sort_cost(disk, self.n, per_block, mem)
            disk.cpu_sort(self.n)
            if self.n > mem:
                disk.seq_read(max(1, -(-self.n // per_block)))
                disk.seq_write(max(1, -(-self.n // per_block)))
        disk.seq_write(self.n_leaves * self._leaf_blocks())

    # -- stats -------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def fill_factor(self) -> float:
        return self.n / (self.n_leaves * self.leaf_capacity)

    @property
    def record_bytes(self) -> int:
        c = self.disk_config
        return c.series_bytes if self.materialized else c.summary_bytes

    @property
    def index_bytes(self) -> int:
        return self.n_leaves * self.leaf_capacity * self.record_bytes

    def _leaf_blocks(self) -> int:
        c = self.disk_config
        per_block = c.block_series if self.materialized else c.summaries_per_block
        return max(1, -(-self.leaf_capacity // per_block))

    # -- queries -----------------------------------------------------------
    def _mbr_mindist(self, q_paa: np.ndarray) -> np.ndarray:
        """sqrt(n/w)·L2 gap from the query's PAA point to each leaf MBR —
        a valid lower bound on ED (PAA containment bound)."""
        gap = np.maximum(self.mbr_lo - q_paa, 0) + np.maximum(q_paa - self.mbr_hi, 0)
        return np.sqrt((self.length / self.w) * np.sum(gap**2, axis=1))

    def approximate(self, query: np.ndarray) -> SearchResult:
        t0 = time.perf_counter()
        disk = DiskModel(config=self.disk_config)
        qp = paa(query, self.w)
        k = int(np.argmin(self._mbr_mindist(qp)))
        disk.rand_read(self._leaf_blocks())
        rows = self.leaves[k]
        if not self.materialized:
            disk.rand_read(len(rows))
        bid, bdist = leaf_true_distances(rows, self.series, self.ids, query)
        return SearchResult(
            id=bid, distance=bdist, leaves_visited=1, visited_records=len(rows),
            approx_distance=bdist, disk=disk, wall_s=time.perf_counter() - t0,
        )

    def exact(self, query: np.ndarray) -> SearchResult:
        """Best-first NN over leaf MBRs, refining the bsf per leaf."""
        t0 = time.perf_counter()
        approx = self.approximate(query)
        disk = DiskModel(config=self.disk_config)
        disk.merge(approx.disk)
        qp = paa(query, self.w)
        md = self._mbr_mindist(qp)
        heap = [(float(md[i]), i) for i in range(self.n_leaves)]
        heapq.heapify(heap)
        bsf, bid = approx.distance, approx.id
        visited, leaves_visited = 0, 0
        while heap:
            lb, k = heapq.heappop(heap)
            if lb >= bsf:
                break
            leaves_visited += 1
            disk.rand_read(self._leaf_blocks())
            rows = self.leaves[k]
            visited += len(rows)
            if not self.materialized:
                disk.rand_read(len(rows))
            cid, cdist = leaf_true_distances(rows, self.series, self.ids, query)
            if cdist < bsf:
                bsf, bid = cdist, cid
        return SearchResult(
            id=bid, distance=bsf, leaves_visited=leaves_visited,
            visited_records=visited, approx_distance=approx.distance,
            disk=disk, wall_s=time.perf_counter() - t0,
        )
