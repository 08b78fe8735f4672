"""iSAX 2.0-style top-down index — the ADS family baseline.

This is the state of the art the paper compares against (§2, §3):

- multi-resolution iSAX tree: the first level has one child per
  combination of the *first bit* of every segment; below that, a node
  that overflows splits binary on the next unprefixed bit of the segment
  that divides its residents most evenly (iSAX 2.0 split policy [7]).
- construction is top-down insertion with main-memory buffering; each
  leaf touch that misses the buffer is a random I/O, splits re-read and
  re-write leaves, and the resulting leaves are non-contiguous on disk —
  the O(N) random-I/O behaviour of §3.1, modeled via
  :class:`LRUPageBuffer`.
- ``materialized=True`` is **ADSFull** (series live in the leaves, two
  passes over the raw file); ``materialized=False`` is **ADS+** (leaves
  hold positions; raw series fetched on demand at query time).

Queries: approximate search descends to the query's leaf (random I/O
per level-crossing miss, random leaf read); exact search is SIMS [62]
seeded by the approximate answer, walking the raw file in position
order with the same scan as Coconut's (:func:`repro.core.query.sims_scan`)
— only the bsf quality and leaf contiguity differ, which is precisely
the paper's point (Fig 9d–f).
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.common import leaf_search
from repro.core.mindist import mindist_paa_sax
from repro.core.paa import paa
from repro.core.query import SearchResult, sims_scan
from repro.core.sax import breakpoints, sax, symbols_from_paa
from repro.storage.disk_model import CPU_SORT_ITEM_S, DiskConfig, DiskModel, LeafStats, LRUPageBuffer


def node_mindist(
    q_paa: np.ndarray,
    prefix: tuple[int, ...],
    bits_used: tuple[int, ...],
    bits: int,
    n: int,
) -> float:
    """Lower bound from a node's per-segment prefix regions.

    A prefix ``p`` of ``k`` bits covers full-cardinality symbols
    ``[p << (bits-k), ((p+1) << (bits-k)) - 1]``; the gap is measured to
    the covered region's outer edges.
    """
    w = len(prefix)
    bp = breakpoints(bits)
    ext = np.concatenate(([-np.inf], bp, [np.inf]))
    total = 0.0
    for j in range(w):
        k = bits_used[j]
        lo_sym = prefix[j] << (bits - k)
        hi_sym = ((prefix[j] + 1) << (bits - k)) - 1
        lo, hi = ext[lo_sym], ext[hi_sym + 1]
        v = q_paa[j]
        gap = lo - v if v < lo else (v - hi if v > hi else 0.0)
        total += gap * gap
    return float(np.sqrt((n / w) * total))


_uid = itertools.count()  # stable buffer keys (id() can be reused after GC)


@dataclass
class _Leaf:
    prefix: tuple[int, ...]
    bits_used: tuple[int, ...]
    rows: list[int] = field(default_factory=list)
    uid: int = field(default_factory=lambda: next(_uid))


@dataclass
class _Internal:
    prefix: tuple[int, ...]
    bits_used: tuple[int, ...]
    split_seg: int
    children: dict  # bit value (0/1) -> node


class ISaxIndex(LeafStats):
    """Top-down iSAX 2.0 / ADS index over a series collection."""

    def __init__(
        self,
        ids: np.ndarray,
        series: np.ndarray,
        *,
        w: int = 8,
        bits: int = 4,
        leaf_capacity: int = 100,
        materialized: bool = False,
        disk_config: DiskConfig | None = None,
    ):
        self.ids = ids
        self.series = series
        self.w, self.bits = w, bits
        self.leaf_capacity = leaf_capacity
        self.materialized = materialized
        self.disk_config = disk_config or DiskConfig()
        self.build_disk = DiskModel(config=self.disk_config)
        self.n_series, self.length = series.shape
        self._build()

    # -- construction ------------------------------------------------------
    def _occupied(self, rows: int) -> int:
        """Size of a leaf holding ``rows`` records, in
        raw-series-equivalents (what the buffer pool counts)."""
        return self.disk_config.series_equivalents(rows, series=self.materialized)

    def _build(self) -> None:
        t0 = time.perf_counter()
        c = self.disk_config
        disk = self.build_disk
        disk.seq_read(c.blocks(self.n_series, series=True))  # summarization pass
        disk.cpu_summarize(self.n_series)
        disk.cpu_insert(self.n_series)
        self.sax = sax(self.series, self.w, self.bits)
        # Pages are allocated at full capacity.
        self._buffer = LRUPageBuffer(disk, c.memory_series, self._occupied(self.leaf_capacity))
        self.root: dict[tuple[int, ...], object] = {}
        for i in range(self.n_series):
            self._insert(i)
        self._buffer.flush()
        if self.materialized:
            # ADSFull's second pass over the raw file to place series.
            disk.seq_read(c.blocks(self.n_series, series=True))
        self.build_wall_s = time.perf_counter() - t0

    def _first_key(self, sym: np.ndarray) -> tuple[int, ...]:
        return tuple(int(s) >> (self.bits - 1) for s in sym)

    def _insert(self, row: int) -> None:
        sym = self.sax[row]
        key = self._first_key(sym)
        node = self.root.get(key)
        if node is None:
            node = _Leaf(prefix=key, bits_used=tuple([1] * self.w))
            self.root[key] = node
            self._buffer.touch(node.uid, dirty=True, new=True, size=1)
        parent, pkey = None, None
        while isinstance(node, _Internal):
            b = (int(sym[node.split_seg]) >> (
                self.bits - node.bits_used[node.split_seg] - 1)) & 1
            parent, pkey = node, b
            node = node.children[b]
        node.rows.append(row)
        self._buffer.touch(node.uid, dirty=True, size=self._occupied(len(node.rows)))
        if len(node.rows) > self.leaf_capacity:
            self._split(node, parent, pkey, key)

    def _split(self, leaf: _Leaf, parent, pkey, root_key) -> None:
        """iSAX 2.0 split: pick the segment whose next bit divides the
        residents most evenly; re-read the old leaf and write two new
        non-contiguous leaves (random I/O)."""
        rows = np.array(leaf.rows)
        best_seg, best_balance, best_bits = -1, -1.0, None
        for j in range(self.w):
            k = leaf.bits_used[j]
            if k >= self.bits:
                continue
            bvals = (self.sax[rows, j] >> (self.bits - k - 1)) & 1
            frac = bvals.mean()
            balance = 1.0 - abs(frac - 0.5) * 2  # 1 = even, 0 = degenerate
            if balance > best_balance:
                best_seg, best_balance, best_bits = j, balance, bvals
        if best_seg < 0:
            return  # cannot split further: oversized leaf at max resolution
        self._buffer.touch(leaf.uid, dirty=False, size=self._occupied(len(leaf.rows)))
        self._buffer.drop(leaf.uid)
        j, k = best_seg, leaf.bits_used[best_seg]
        children = {}
        for b in (0, 1):
            cprefix = list(leaf.prefix)
            cprefix[j] = (leaf.prefix[j] << 1) | b
            cbits = list(leaf.bits_used)
            cbits[j] = k + 1
            child = _Leaf(prefix=tuple(cprefix), bits_used=tuple(cbits),
                          rows=list(rows[best_bits == b]))
            children[b] = child
            self._buffer.touch(
                child.uid, dirty=True, new=True, size=self._occupied(len(child.rows))
            )
        internal = _Internal(
            prefix=leaf.prefix, bits_used=leaf.bits_used, split_seg=j,
            children=children,
        )
        if parent is None:
            self.root[root_key] = internal
        else:
            parent.children[pkey] = internal
        for b in (0, 1):
            child = children[b]
            if len(child.rows) > self.leaf_capacity:
                self._split(child, internal, b, root_key)

    # -- stats (Fig 8c) ----------------------------------------------------
    def _leaves(self) -> list[_Leaf]:
        out: list[_Leaf] = []
        stack = list(self.root.values())
        while stack:
            nd = stack.pop()
            if isinstance(nd, _Internal):
                stack.extend(nd.children.values())
            else:
                out.append(nd)
        return out

    @property
    def n_leaves(self) -> int:
        return len(self._leaves())

    # -- queries -----------------------------------------------------------
    def _descend(self, q_paa: np.ndarray, q_sax: np.ndarray) -> _Leaf:
        key = self._first_key(q_sax)
        node = self.root.get(key)
        if node is None:
            # No subtree matches the query's first bits: fall back to the
            # minimum-mindist first-level child (standard iSAX behaviour).
            node = min(
                self.root.values(),
                key=lambda nd: node_mindist(
                    q_paa, nd.prefix, nd.bits_used, self.bits, self.length
                ),
            )
        while isinstance(node, _Internal):
            b = (int(q_sax[node.split_seg]) >> (
                self.bits - node.bits_used[node.split_seg] - 1)) & 1
            node = node.children[b]
        return node

    def approximate(self, query: np.ndarray) -> SearchResult:
        """The query's leaf, non-contiguous on disk: a random read."""
        t0 = time.perf_counter()
        qp = paa(query, self.w)
        leaf = self._descend(qp, symbols_from_paa(qp, self.bits))
        result = leaf_search(self, query, np.array(leaf.rows, dtype=np.int64), t0)
        if not self.materialized:
            # ADS+ materializes the visited leaf on the fly: the resident
            # raw series are fetched (charged by the leaf read), and the
            # refined leaf is written back.
            result.disk.rand_write(self.leaf_blocks(self.leaf_capacity))
        return result

    def exact(self, query: np.ndarray) -> SearchResult:
        t0 = time.perf_counter()
        approx = self.approximate(query)
        disk = DiskModel(config=self.disk_config)
        disk.merge(approx.disk)
        qp = paa(query, self.w)
        disk.charge_cpu(self.n_series * CPU_SORT_ITEM_S)
        md = mindist_paa_sax(qp, self.sax, self.length, self.bits)
        bid, bdist, visited = sims_scan(
            query, md, self.series, self.ids, np.arange(self.n_series),
            approx.distance, approx.id, disk, self.disk_config.block_series,
        )
        return SearchResult(
            id=bid, distance=bdist, leaves_visited=1, visited_records=visited,
            approx_distance=approx.distance, disk=disk,
            wall_s=time.perf_counter() - t0,
        )

    # -- updates (Fig 10a) -------------------------------------------------
    def insert_batch(self, ids: np.ndarray, series: np.ndarray) -> None:
        """Top-down insertion of new series (each pays buffered leaf I/O)."""
        start = self.n_series
        self.ids = np.concatenate([self.ids, ids])
        self.series = np.vstack([self.series, series])
        self.sax = np.vstack([self.sax, sax(series, self.w, self.bits)])
        self.n_series = len(self.ids)
        self.build_disk.seq_read(self.disk_config.blocks(len(ids), series=True))
        self.build_disk.cpu_summarize(len(ids))
        self.build_disk.cpu_insert(len(ids))
        for i in range(start, self.n_series):
            self._insert(i)
