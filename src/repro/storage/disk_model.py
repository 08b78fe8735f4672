"""Disk access model substrate (Aggarwal & Vitter [4], paper §3).

The paper analyzes every algorithm by the number of disk blocks moved
between a main memory holding ``M`` series and a disk with blocks of
``B`` series, and its experiments vary physical RAM on a RAID-0 HDD
array.  We cannot vary physical RAM, so every index in this repo charges
its block traffic to a :class:`DiskModel` and we report *simulated*
time alongside wall-clock.  This is the substrate that makes the memory
axis of Figures 8 and 10 reproducible on a single container.

:class:`DiskConfig` is the one place that knows record geometry: how
many series or summaries fill a block or memory, and so how many blocks
``n`` of them take.  :class:`LeafStats` derives every index's leaf
statistics from it.

Random and sequential I/Os are tracked separately: a random I/O pays a
seek, a sequential run pays bandwidth only.  Simulated time =
``seeks * SEEK_S + bytes / BANDWIDTH_BPS``, with HDD-like constants (5 ms
seek, 150 MB/s — the shape, not the brand, matters).
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

SEEK_S = 0.005
BANDWIDTH_BPS = 150e6
# CPU calibration. Without a CPU term every ample-memory build would cost
# ~0 simulated seconds and the paper's high-memory regime (where ADS+
# slightly beats CTree by skipping the sort, Fig 8b) could not appear.
CPU_SUMMARIZE_ITEM_S = 1e-6   # PAA + SAX + z-key per series
CPU_SORT_ITEM_S = 2e-7        # per item per log2 level of a sort
CPU_INSERT_ITEM_S = 2e-6      # tree descend + buffered append


@dataclass
class DiskConfig:
    """Geometry parameters, in units of *series* where noted."""

    block_series: int = 32          # B: series per disk block (2 KB series, 64 KB block)
    memory_series: int = 1_000_000  # M: series that fit in main memory
    series_bytes: int = 2048        # raw bytes of one series (256 float64)
    summary_bytes: int = 24         # invSAX/SAX key (16 B) + offset (8 B)

    @property
    def block_bytes(self) -> int:
        return self.block_series * self.series_bytes

    @property
    def summaries_per_block(self) -> int:
        return max(1, self.block_bytes // self.summary_bytes)

    @property
    def memory_summaries(self) -> int:
        """Summaries that fit in the memory of ``memory_series`` series."""
        return max(1, self.memory_series * self.series_bytes // self.summary_bytes)

    # -- record geometry ---------------------------------------------------
    # A record is a series (``series=True``: a raw file, or the leaves of
    # a materialized index) or a summary (a secondary index's leaves).
    # Every index sizes its charges through these methods.
    def records_per_block(self, *, series: bool) -> int:
        """B in records."""
        return self.block_series if series else self.summaries_per_block

    def memory_records(self, *, series: bool) -> int:
        """M in records."""
        return self.memory_series if series else self.memory_summaries

    def record_bytes(self, *, series: bool) -> int:
        return self.series_bytes if series else self.summary_bytes

    def blocks(self, n: int, *, series: bool) -> int:
        """Disk blocks that ``n`` records fill: at least one."""
        return max(1, -(-n // self.records_per_block(series=series)))

    def series_equivalents(self, n: int, *, series: bool) -> int:
        """Size of ``n`` records in series, at least one: what a buffer
        pool of ``memory_series`` series counts them as."""
        return max(1, -(-n * self.record_bytes(series=series) // self.series_bytes))


class LeafStats:
    """Fig 8c statistics of an index whose leaves hold ``leaf_capacity``
    records each, from its ``n_series``, ``n_leaves``, ``leaf_capacity``,
    ``materialized`` (leaves hold series, not summaries) and
    ``disk_config``."""

    @property
    def fill_factor(self) -> float:
        """Mean leaf occupancy relative to capacity (paper: ~0.97 for
        median splits, ~0.10 for prefix splits)."""
        return self.n_series / (self.n_leaves * self.leaf_capacity)

    @property
    def index_bytes(self) -> int:
        """Modeled on-disk footprint: leaves are allocated at full
        capacity (free space in sparse leaves is the paper's space
        amplification)."""
        return self.n_leaves * self.leaf_capacity * self.disk_config.record_bytes(
            series=self.materialized
        )

    def leaf_blocks(self, count: int) -> int:
        """Disk blocks occupied by ``count`` leaf records."""
        return self.disk_config.blocks(count, series=self.materialized)


@dataclass
class DiskModel:
    """Mutable I/O accountant shared by an index build / query run."""

    config: DiskConfig = field(default_factory=DiskConfig)
    random_reads: int = 0
    random_writes: int = 0
    seq_read_blocks: int = 0
    seq_write_blocks: int = 0
    seq_runs: int = 0
    cpu_s: float = 0.0

    # -- charging ----------------------------------------------------------
    def charge_cpu(self, seconds: float) -> None:
        """Pure-CPU work (summarization, sort comparisons, inserts)."""
        self.cpu_s += seconds

    def cpu_summarize(self, n_items: int) -> None:
        self.cpu_s += n_items * CPU_SUMMARIZE_ITEM_S

    def cpu_sort(self, n_items: int) -> None:
        """Comparison-sort CPU: n · log2(n) · per-item rate."""
        import math

        if n_items > 1:
            self.cpu_s += n_items * math.log2(n_items) * CPU_SORT_ITEM_S

    def cpu_insert(self, n_items: int) -> None:
        self.cpu_s += n_items * CPU_INSERT_ITEM_S

    def rand_read(self, blocks: int = 1) -> None:
        """``blocks`` independent random block reads (each pays a seek)."""
        self.random_reads += blocks

    def rand_write(self, blocks: int = 1) -> None:
        self.random_writes += blocks

    def seq_read(self, blocks: int) -> None:
        """One sequential run of ``blocks`` blocks (one seek, then stream)."""
        if blocks > 0:
            self.seq_read_blocks += blocks
            self.seq_runs += 1

    def seq_write(self, blocks: int) -> None:
        if blocks > 0:
            self.seq_write_blocks += blocks
            self.seq_runs += 1

    # -- derived -----------------------------------------------------------
    @property
    def total_seeks(self) -> int:
        return self.random_reads + self.random_writes + self.seq_runs

    @property
    def total_blocks(self) -> int:
        return (
            self.random_reads
            + self.random_writes
            + self.seq_read_blocks
            + self.seq_write_blocks
        )

    def seconds(self) -> float:
        """Simulated elapsed time under the cost constants."""
        return (
            self.total_seeks * SEEK_S
            + self.total_blocks * self.config.block_bytes / BANDWIDTH_BPS
            + self.cpu_s
        )

    def merge(self, other: "DiskModel") -> None:
        """Fold another accountant's traffic into this one."""
        self.random_reads += other.random_reads
        self.random_writes += other.random_writes
        self.seq_read_blocks += other.seq_read_blocks
        self.seq_write_blocks += other.seq_write_blocks
        self.seq_runs += other.seq_runs
        self.cpu_s += other.cpu_s

    def snapshot(self) -> dict:
        return {
            "random_reads": self.random_reads,
            "random_writes": self.random_writes,
            "seq_read_blocks": self.seq_read_blocks,
            "seq_write_blocks": self.seq_write_blocks,
            "seq_runs": self.seq_runs,
            "cpu_s": self.cpu_s,
            "seconds": self.seconds(),
        }


class LRUPageBuffer:
    """A size-aware LRU buffer of index pages, capacity in series.

    Top-down indexes (iSAX 2.0 / ADS / DSTree) use it to model leaf
    caching: a touch of a cached page is free; a miss of an existing
    page charges a random read; evicting a dirty page charges a random
    write.  Cached pages occupy their *occupied* size (resident series),
    not their allocated capacity — matching how a real buffer pool holds
    sparse leaves.  This mechanism is why buffering helps only while M
    is large relative to N (§3.1): once resident data exceeds M,
    top-down insertion degrades toward 2 random I/Os per insert.
    """

    def __init__(self, disk: DiskModel, capacity_series: int, page_series: int):
        """``page_series``: size charged per miss/eviction transfer, in
        series-equivalents (a leaf page)."""
        if page_series <= 0:
            raise ValueError("page_series must be positive")
        self.disk = disk
        self.capacity_series = max(1, capacity_series)
        self.page_series = page_series
        self._pages: OrderedDict[object, bool] = OrderedDict()  # key -> dirty
        self._sizes: dict[object, int] = {}
        self._resident = 0
        self.hits = 0
        self.misses = 0

    def _blocks(self, size: int) -> int:
        return self.disk.config.blocks(size, series=True)

    def touch(
        self, key: object, *, dirty: bool, new: bool = False, size: int | None = None
    ) -> None:
        """Access page ``key`` (current occupied ``size`` in series)."""
        size = self.page_series if size is None else max(1, size)
        if key in self._pages:
            self.hits += 1
            self._pages[key] = self._pages[key] or dirty
            self._resident += size - self._sizes[key]
            self._sizes[key] = size
            self._pages.move_to_end(key)
            self._evict()
            return
        self.misses += 1
        if not new:
            self.disk.rand_read(self._blocks(size))
        self._pages[key] = dirty
        self._sizes[key] = size
        self._resident += size
        self._pages.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        while self._resident > self.capacity_series and len(self._pages) > 1:
            key, was_dirty = self._pages.popitem(last=False)
            self._resident -= self._sizes.pop(key)
            if was_dirty:
                self.disk.rand_write(self._blocks(self.page_series))

    def drop(self, key: object) -> None:
        """Discard a page without write-back (e.g. after a split rewrote it)."""
        if key in self._pages:
            self._pages.pop(key)
            self._resident -= self._sizes.pop(key)

    def flush(self) -> None:
        """Write back every dirty page at end of construction.

        The final flush streams the still-buffered pages out in one pass
        (they are all in memory, so the writer can order them).
        """
        self.disk.seq_write(
            sum(self._blocks(self._sizes[k]) for k, d in self._pages.items() if d)
        )
        for key in self._pages:
            self._pages[key] = False


def external_sort_cost(
    disk: DiskModel, n_items: int, items_per_block: int, memory_items: int
) -> None:
    """Charge the I/O of an external merge sort of ``n_items``.

    If everything fits in memory only the input scan is charged (the
    paper notes the non-materialized Coconut variants usually sort
    summaries fully in memory).  Otherwise: write sorted runs, then
    merge passes — each pass streams the data out and back in.  With
    M > sqrt(N) (footnote 7) a single merge pass suffices.
    """
    blocks = -(-n_items // items_per_block)
    if n_items <= memory_items:
        return  # in-memory sort: caller already charged the input scan
    disk.seq_write(blocks)  # partition phase: flush sorted runs
    n_runs = -(-n_items // max(1, memory_items))
    fan_in = max(2, memory_items // items_per_block)
    while n_runs > 1:  # merge phase(s)
        disk.seq_read(blocks)
        disk.seq_write(blocks)
        n_runs = -(-n_runs // fan_in)
