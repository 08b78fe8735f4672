"""Vertical baseline [18]: DHWT coefficients stored level-wise.

Vertical indexes series by their orthonormal Discrete Haar Wavelet
Transform, stored *column-wise, one resolution level at a time*, and
answers queries with a stepwise sequential scan: accumulate per-series
partial squared distances level by level (each partial sum is a valid
lower bound by Parseval), prune candidates whose bound exceeds the
best-so-far, and refine the bsf by materializing the most promising
candidate after each level.  Construction proceeds stepwise as well —
one pass per resolution level — which is why the paper finds it slower
to build than Coconut in all settings (Fig 8a).
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.distance import euclidean
from repro.core.query import SearchResult
from repro.storage.disk_model import DiskConfig, DiskModel


def dhwt(x: np.ndarray) -> np.ndarray:
    """Orthonormal fast Haar transform along the last axis.

    Output ordering is coarse→fine: [approx, level-1 details (1),
    level-2 details (2), ..., level-k details (n/2)].  Parseval holds:
    ||dhwt(a) - dhwt(b)|| == ||a - b||, so prefixes of the coefficient
    vector give monotonically tightening ED lower bounds.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[-1]
    if n & (n - 1):
        pad = 1 << (n - 1).bit_length()
        x = np.concatenate([x, np.zeros((*x.shape[:-1], pad - n))], axis=-1)
        n = pad
    details: list[np.ndarray] = []
    cur = x
    while cur.shape[-1] > 1:
        even, odd = cur[..., 0::2], cur[..., 1::2]
        details.append((even - odd) / np.sqrt(2))
        cur = (even + odd) / np.sqrt(2)
    out = [cur] + details[::-1]
    return np.concatenate(out, axis=-1)


def level_slices(n: int) -> list[slice]:
    """Coefficient ranges per resolution level for length-``n`` series."""
    if n & (n - 1):
        n = 1 << (n - 1).bit_length()
    slices = [slice(0, 1)]
    start, size = 1, 1
    while start < n:
        slices.append(slice(start, start + size))
        start += size
        size *= 2
    return slices


class VerticalIndex:
    """Level-wise DHWT store with stepwise-scan exact NN."""

    n_leaves = 0
    fill_factor = 1.0

    def __init__(
        self,
        ids: np.ndarray,
        series: np.ndarray,
        *,
        disk_config: DiskConfig | None = None,
    ):
        t0 = time.perf_counter()
        self.ids, self.series = ids, series
        self.disk_config = disk_config or DiskConfig()
        self.n, self.length = series.shape
        self.coeffs = dhwt(series)
        self.slices = level_slices(self.length)
        self.build_disk = DiskModel(config=self.disk_config)
        c = self.disk_config
        raw_blocks = c.blocks(self.n, series=True)
        # Stepwise construction: one pass over the raw data per level,
        # each writing that level's coefficient column.
        for sl in self.slices:
            self.build_disk.seq_read(raw_blocks)
            self.build_disk.cpu_summarize(self.n)
            frac = (sl.stop - sl.start) / self.coeffs.shape[1]
            self.build_disk.seq_write(max(1, int(np.ceil(raw_blocks * frac))))
        self.build_wall_s = time.perf_counter() - t0

    @property
    def index_bytes(self) -> int:
        # Coefficient store is the same volume as the raw data.
        return self.n * self.disk_config.series_bytes

    def _stepwise(
        self, query: np.ndarray, *, max_levels: int | None, disk: DiskModel
    ) -> tuple[int, float, int, np.ndarray]:
        """Shared stepwise scan; returns (bsf_id, bsf, visited, partial²)."""
        qc = dhwt(query)[0]
        c = self.disk_config
        partial = np.zeros(self.n)
        alive = np.ones(self.n, dtype=bool)
        bsf, bid = np.inf, -1
        visited = 0
        levels = self.slices[:max_levels] if max_levels else self.slices
        for sl in levels:
            # Read this level's column for surviving candidates only.
            frac = (sl.stop - sl.start) / self.coeffs.shape[1]
            blocks = max(1, int(np.ceil(alive.sum() / c.block_series * frac)))
            disk.seq_read(blocks)
            diff = self.coeffs[:, sl] - qc[sl]
            partial += np.where(alive, np.sum(diff**2, axis=1), 0.0)
            # Refine the bsf with the most promising survivor.
            cand = int(np.argmin(np.where(alive, partial, np.inf)))
            if alive[cand]:
                disk.rand_read(1)
                visited += 1
                d = float(euclidean(self.series[cand], query))
                if d < bsf:
                    bsf, bid = d, int(self.ids[cand])
            alive &= np.sqrt(partial) < bsf
            if not alive.any():
                break
        return bid, bsf, visited, partial

    def approximate(self, query: np.ndarray) -> SearchResult:
        t0 = time.perf_counter()
        disk = DiskModel(config=self.disk_config)
        bid, bsf, visited, _ = self._stepwise(query, max_levels=3, disk=disk)
        return SearchResult(
            id=bid, distance=bsf, visited_records=visited,
            approx_distance=bsf, disk=disk, wall_s=time.perf_counter() - t0,
        )

    def exact(self, query: np.ndarray) -> SearchResult:
        t0 = time.perf_counter()
        disk = DiskModel(config=self.disk_config)
        bid, bsf, visited, partial = self._stepwise(query, max_levels=None, disk=disk)
        # All levels consumed: partial² is now the exact squared ED, so
        # any survivor strictly below the bsf is the answer.
        final = np.sqrt(partial)
        k = int(np.argmin(final))
        if final[k] < bsf:
            disk.rand_read(1)
            visited += 1
            bsf, bid = float(final[k]), int(self.ids[k])
        return SearchResult(
            id=bid, distance=bsf, visited_records=visited,
            approx_distance=float("nan"), disk=disk,
            wall_s=time.perf_counter() - t0,
        )
