"""R-tree baseline bulk-loaded with STR over PAA points.

The paper's R-tree [14] indexes each series' PAA summarization as a
point in ``w`` dimensions, bulk-loaded with Sort-Tile-Recursive [24]:
sort on dimension 0 into ~P^(1/D) slabs, recurse within each slab on
the remaining dimensions.  The paper charges this O(N·D) I/Os — one
sorting pass per dimension over the payload — which is what makes it
slower to build than Coconut's single-sort O(N) (§5.1).

``materialized=True`` stores series in the leaves (R-tree); otherwise
leaves hold positions (R-tree+).  NN queries use best-first search over
leaf MBRs with the PAA-space lower bound sqrt(n/w)·dist(q_paa, MBR)
(:func:`repro.baselines.common.best_first_search`).
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.common import best_first_search, leaf_search, paa_box_mindist
from repro.core.paa import paa
from repro.core.query import SearchResult
from repro.storage.disk_model import DiskConfig, DiskModel, LeafStats, external_sort_cost


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


class RTreeIndex(LeafStats):
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
    ):
        t0 = time.perf_counter()
        self.ids, self.series = ids, series
        self.w = w
        self.leaf_capacity = leaf_capacity
        self.materialized = materialized
        self.disk_config = disk_config or DiskConfig()
        self.n_series, self.length = series.shape
        self.paa = paa(series, w)
        self.leaves = str_pack(self.paa, leaf_capacity)
        self.mbr_lo = np.stack([self.paa[rows].min(axis=0) for rows in self.leaves])
        self.mbr_hi = np.stack([self.paa[rows].max(axis=0) for rows in self.leaves])
        self.build_disk = DiskModel(config=self.disk_config)
        self._charge_build()
        self.build_wall_s = time.perf_counter() - t0

    def _charge_build(self) -> None:
        """O(N·D): one external-sort pass of the payload per dimension."""
        c, n, mat = self.disk_config, self.n_series, self.materialized
        disk = self.build_disk
        disk.seq_read(c.blocks(n, series=True))  # summarization pass
        disk.cpu_summarize(n)
        per_block, mem = c.records_per_block(series=mat), c.memory_records(series=mat)
        for _ in range(self.w):
            # STR re-sorts the payload once per dimension level; each pass
            # streams the data out and back in even when partially cached.
            external_sort_cost(disk, n, per_block, mem)
            disk.cpu_sort(n)
            if n > mem:
                disk.seq_read(c.blocks(n, series=mat))
                disk.seq_write(c.blocks(n, series=mat))
        disk.seq_write(self.n_leaves * self.leaf_blocks(self.leaf_capacity))

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    # -- queries -----------------------------------------------------------
    def approximate(self, query: np.ndarray) -> SearchResult:
        """The leaf whose MBR is nearest the query's PAA point."""
        t0 = time.perf_counter()
        md = paa_box_mindist(paa(query, self.w), self.mbr_lo, self.mbr_hi, self.length)
        return leaf_search(self, query, self.leaves[int(np.argmin(md))], t0)

    def exact(self, query: np.ndarray) -> SearchResult:
        """Best-first NN over leaf MBRs, refining the bsf per leaf."""
        return best_first_search(self, query, self.leaves, self.mbr_lo, self.mbr_hi)
