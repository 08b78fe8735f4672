"""Unit tests for the disk access model substrate."""
import pytest

from repro.storage.disk_model import (
    BANDWIDTH_BPS,
    CPU_SORT_ITEM_S,
    SEEK_S,
    DiskConfig,
    DiskModel,
    LRUPageBuffer,
    external_sort_cost,
)


def cfg(**kw):
    base = dict(block_series=4, memory_series=16, series_bytes=64, summary_bytes=8)
    base.update(kw)
    return DiskConfig(**base)


class TestDiskModel:
    def test_random_io_pays_seek_each(self):
        d = DiskModel(config=cfg())
        d.rand_read(10)
        assert d.total_seeks == 10

    def test_sequential_run_pays_one_seek(self):
        d = DiskModel(config=cfg())
        d.seq_read(100)
        assert d.total_seeks == 1
        assert d.seq_read_blocks == 100

    def test_seconds_formula(self):
        c = cfg()
        d = DiskModel(config=c)
        d.rand_read(2)
        d.seq_write(10)
        expected = 3 * SEEK_S + 12 * c.block_bytes / BANDWIDTH_BPS
        assert d.seconds() == pytest.approx(expected)

    def test_cpu_included_in_seconds(self):
        d = DiskModel(config=cfg())
        d.charge_cpu(1.5)
        assert d.seconds() == pytest.approx(1.5)

    def test_cpu_sort_nlogn(self):
        d = DiskModel(config=cfg())
        d.cpu_sort(1024)
        assert d.cpu_s == pytest.approx(1024 * 10 * CPU_SORT_ITEM_S)

    def test_merge_accumulates(self):
        a, b = DiskModel(config=cfg()), DiskModel(config=cfg())
        a.rand_read(3)
        b.seq_write(5)
        b.charge_cpu(0.1)
        a.merge(b)
        assert a.random_reads == 3 and a.seq_write_blocks == 5
        assert a.cpu_s == pytest.approx(0.1)

    def test_zero_block_runs_ignored(self):
        d = DiskModel(config=cfg())
        d.seq_read(0)
        assert d.total_seeks == 0

    def test_snapshot_keys(self):
        snap = DiskModel(config=cfg()).snapshot()
        assert {"random_reads", "seq_read_blocks", "cpu_s", "seconds"} <= set(snap)

    def test_summaries_per_block(self):
        c = cfg()
        assert c.summaries_per_block == c.block_bytes // c.summary_bytes


class TestRecordGeometry:
    def test_series_and_summary_records(self):
        c = cfg()  # 4 series of 64 B per block: 32 summaries of 8 B
        assert c.records_per_block(series=True) == 4
        assert c.records_per_block(series=False) == 32
        assert c.memory_records(series=True) == 16
        assert c.memory_records(series=False) == 128
        assert (c.record_bytes(series=True), c.record_bytes(series=False)) == (64, 8)

    def test_blocks_round_up_to_at_least_one(self):
        c = cfg()
        assert [c.blocks(n, series=True) for n in (0, 1, 4, 5)] == [1, 1, 1, 2]
        assert [c.blocks(n, series=False) for n in (32, 33)] == [1, 2]

    def test_series_equivalents(self):
        c = cfg()
        assert [c.series_equivalents(n, series=True) for n in (0, 3)] == [1, 3]
        assert [c.series_equivalents(n, series=False) for n in (8, 9)] == [1, 2]


class TestLRUPageBuffer:
    def test_new_page_costs_nothing(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 100, 4)
        buf.touch("a", dirty=True, new=True, size=1)
        assert d.total_seeks == 0

    def test_hit_is_free(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 100, 4)
        buf.touch("a", dirty=True, new=True, size=1)
        buf.touch("a", dirty=True, size=2)
        assert d.total_seeks == 0 and buf.hits == 1

    def test_miss_charges_random_read(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 100, 4)
        buf.touch("a", dirty=False, size=1)  # existing page, not cached
        assert d.random_reads == 1

    def test_dirty_eviction_charges_write(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 2, 4)  # capacity 2 series
        buf.touch("a", dirty=True, new=True, size=2)
        buf.touch("b", dirty=True, new=True, size=2)  # evicts a (dirty)
        assert d.random_writes == 1

    def test_clean_eviction_free(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 2, 4)
        buf.touch("a", dirty=False, new=True, size=2)
        buf.touch("b", dirty=False, new=True, size=2)
        assert d.random_writes == 0

    def test_lru_order(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 4, 4)
        buf.touch("a", dirty=True, new=True, size=2)
        buf.touch("b", dirty=True, new=True, size=2)
        buf.touch("a", dirty=True, size=2)       # refresh a
        buf.touch("c", dirty=True, new=True, size=2)  # evicts b, not a
        buf.touch("a", dirty=False, size=2)      # still a hit
        assert buf.misses == 3 and buf.hits == 2

    def test_flush_sequential(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 100, 4)
        for k in range(5):
            buf.touch(k, dirty=True, new=True, size=4)
        buf.flush()
        assert d.seq_write_blocks == 5 and d.random_writes == 0

    def test_double_flush_idempotent(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 100, 4)
        buf.touch("a", dirty=True, new=True, size=4)
        buf.flush()
        before = d.snapshot()
        buf.flush()
        assert d.snapshot() == before

    def test_drop_removes_without_writeback(self):
        d = DiskModel(config=cfg())
        buf = LRUPageBuffer(d, 100, 4)
        buf.touch("a", dirty=True, new=True, size=4)
        buf.drop("a")
        buf.flush()
        assert d.random_writes == 0 and d.seq_write_blocks == 0


class TestExternalSortCost:
    def test_in_memory_is_free(self):
        d = DiskModel(config=cfg())
        external_sort_cost(d, 10, 4, 100)
        assert d.total_blocks == 0

    def test_one_merge_pass(self):
        d = DiskModel(config=cfg())
        external_sort_cost(d, 100, 4, 50)  # 2 runs, fan-in 12 -> 1 merge
        blocks = 25
        assert d.seq_write_blocks == 2 * blocks  # runs + merged output
        assert d.seq_read_blocks == blocks

    def test_cost_grows_when_memory_shrinks(self):
        lo, hi = DiskModel(config=cfg()), DiskModel(config=cfg())
        external_sort_cost(hi, 1000, 4, 500)
        external_sort_cost(lo, 1000, 4, 10)
        assert lo.total_blocks >= hi.total_blocks
