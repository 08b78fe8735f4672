"""Unit + integration tests for the Coconut-Tree bulk loader."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core.zorder import zkeys
from tests.conftest import (
    CAPACITY,
    LENGTH,
    N_SERIES,
    assert_leaves_tile_ranks,
    read_in_file_order,
    read_raw,
)
from tests.ground_truth import assert_equivalent, leaf_of


class TestStructure:
    def test_all_series_indexed(self, spark, ctree):
        assert ctree.n_series == N_SERIES
        assert spark.read.parquet(f"{ctree.path}/leaves").count() == N_SERIES

    def test_leaves_are_balanced_median_splits(self, ctree):
        """Every leaf except the last is exactly full — the UB-tree bulk
        load packs densely (paper: ~97% utilization)."""
        counts = ctree.directory["count"].to_list()  # in file order
        assert all(c == CAPACITY for c in counts[:-1])
        assert 0 < counts[-1] <= CAPACITY

    def test_fill_factor_high(self, ctree):
        assert ctree.fill_factor > 0.75

    def test_leaf_key_ranges_disjoint_and_ordered(self, ctree):
        d = ctree.directory
        assert list(d["min_zkey"]) == sorted(d["min_zkey"])
        for i in range(len(d) - 1):
            assert d.iloc[i]["max_zkey"] <= d.iloc[i + 1]["min_zkey"]

    def test_ranks_contiguous_within_leaf(self, ctree):
        assert_leaves_tile_ranks(ctree.directory, N_SERIES)

    def test_zkeys_match_recomputation(self, spark, ctree, walk_mat):
        leaves = spark.read.parquet(f"{ctree.path}/leaves")
        pdf = leaves.select("id", "zkey").toPandas().sort_values("id")
        expected = zkeys(walk_mat, ctree.w, ctree.bits)
        assert list(pdf["zkey"]) == expected

    def test_file_order_is_key_order(self, ctree):
        pdf = read_in_file_order(f"{ctree.path}/leaves", ["zkey"])
        assert list(pdf["zkey"]) == sorted(pdf["zkey"])

    @pytest.mark.parametrize("name", ["ctree", "ctrie", "ctree_full"])
    def test_directory_against_oracle(self, name, request, spark):
        """The leaf directory equals a DuckDB GROUP BY over the leaf file
        (key ranges compared as hex: collected binary values are
        unhashable).  A tree leaf starts at every capacity-th rank; a
        trie record's leaf is the directory leaf starting at or before
        its rank."""
        index = request.getfixturevalue(name)
        d = index.directory
        got = pd.DataFrame({
            "leaf_id": d["leaf_id"],
            "min_zkey": [bytes(z).hex().upper() for z in d["min_zkey"]],
            "max_zkey": [bytes(z).hex().upper() for z in d["max_zkey"]],
            "cnt": d["count"],
        })
        pdf = read_in_file_order(f"{index.path}/leaves", ["zkey"])
        pdf["leaf"] = leaf_of(d["leaf_id"].to_numpy(), pdf["rank"].to_numpy())
        leaf = "leaf" if name == "ctrie" else f"rank - rank % {CAPACITY}"
        assert_equivalent(
            spark.createDataFrame(got),
            f"SELECT {leaf} AS leaf_id, hex(min(zkey)) AS min_zkey, "
            f"hex(max(zkey)) AS max_zkey, count(*) AS cnt FROM s GROUP BY {leaf}",
            s=pdf,
        )

    def test_directory_matches_index_attribute(self, ctree):
        d = ctree.directory
        assert d["count"].sum() == N_SERIES
        assert ctree.n_leaves == len(d)


class TestPersistedLayout:
    def test_leaf_file_holds_every_series(self, ctree, spark):
        df = spark.read.parquet(f"{ctree.path}/leaves")
        assert df.count() == N_SERIES

    def test_leaf_record_and_directory_columns(self, ctree, spark):
        """A leaf record is (id, zkey): neither its rank (its position in
        the file) nor leaf boundaries are stored in it.  The directory
        holds each leaf's id (its first rank), key range and count."""
        df = spark.read.parquet(f"{ctree.path}/leaves")
        assert sorted(df.columns) == ["id", "zkey"]
        assert dict(df.dtypes)["zkey"] == "binary"
        assert list(ctree.directory.columns) == [
            "leaf_id", "min_zkey", "max_zkey", "count"
        ]

    @pytest.mark.parametrize("name", ["ctree", "ctrie", "ctree_full"])
    def test_summaries_decode_to_sax(self, name, request, walk_mat):
        """The in-memory SAX words, decoded from the leaf keys, are the
        numpy SAX words of the series in rank order."""
        from repro.core.sax import sax

        index = request.getfixturevalue(name)
        ids = read_in_file_order(f"{index.path}/leaves", ["id"])["id"].to_numpy()
        summaries = index.load_summaries()
        assert np.array_equal(summaries.id, ids)
        assert np.array_equal(summaries.sax, sax(walk_mat, index.w, index.bits)[ids])

    def test_secondary_has_raw_file(self, ctree, walk_df):
        """The raw file is the paper's flat binary series file: the N
        input series, byte for byte, in the input's partition order, and
        no Parquet file."""
        import os

        rows = [r for part in walk_df.rdd.glom().collect() for r in part]
        ids, mat = read_raw(f"{ctree.path}/raw", LENGTH)
        assert len(ids) == len(rows) == N_SERIES
        assert ids.tolist() == [r["id"] for r in rows]
        assert mat.tobytes() == np.array([r["series"] for r in rows], dtype="<f8").tobytes()
        assert all(f.endswith((".id", ".series")) for f in os.listdir(f"{ctree.path}/raw"))

    def test_secondary_leaves_hold_no_series(self, ctree, spark):
        df = spark.read.parquet(f"{ctree.path}/leaves")
        assert "series" not in df.columns

    def test_materialized_leaves_hold_series(self, ctree_full, spark):
        df = spark.read.parquet(f"{ctree_full.path}/leaves")
        assert sorted(df.columns) == ["id", "series", "zkey"]

    def test_read_leaves_returns_only_that_leaf(self, ctree):
        lid = int(ctree.directory.iloc[0]["leaf_id"])
        t = ctree.read_leaves([lid])
        assert isinstance(t, pa.Table)
        assert t.num_rows == int(ctree.directory.iloc[0]["count"])
        ids = read_in_file_order(f"{ctree.path}/leaves", ["id"])["id"]
        assert t.column("id").to_pylist() == list(ids[lid : lid + t.num_rows])

    @pytest.mark.parametrize("name", ["ctree", "ctrie", "ctree_full"])
    def test_leaf_level_is_one_rank_ordered_file(self, name, request):
        """No per-leaf subdirectories: the part files, in name order, hold
        every record in (zkey, input position) order, which is (zkey, id)
        order here, as the ids ascend in input order; so a record's
        position is its rank."""
        import os

        index = request.getfixturevalue(name)
        leaves = f"{index.path}/leaves"
        entries = sorted(os.listdir(leaves))
        assert not any(e.startswith("leaf_id=") for e in entries)
        parts = [e for e in entries if e.endswith(".parquet")]
        assert all(os.path.isfile(f"{leaves}/{e}") for e in parts)
        pdf = read_in_file_order(leaves, ["zkey", "id"])
        assert len(pdf) == N_SERIES
        records = list(zip(pdf["zkey"], pdf["id"]))
        assert records == sorted(records)

    def test_load_summaries_rejects_out_of_order_files(self, ctree, tmp_path):
        """Two part files swapped by name: the keys read in name order are
        not in z-key order, so their positions are not their ranks, and
        loading the summaries fails loudly."""
        import dataclasses
        import os
        import shutil

        leaves = tmp_path / "leaves"
        shutil.copytree(f"{ctree.path}/leaves", leaves)
        parts = sorted(p for p in os.listdir(leaves) if p.endswith(".parquet"))
        assert len(parts) >= 2
        a, b = leaves / parts[0], leaves / parts[-1]
        a.rename(tmp_path / "swap")
        b.rename(a)
        (tmp_path / "swap").rename(b)
        swapped = dataclasses.replace(ctree, path=str(tmp_path), summaries=None)
        with pytest.raises(ValueError, match="ranks"):
            swapped.load_summaries()

    def test_raw_file_rejects_a_short_series_part(self, ctree, tmp_path):
        """A raw part whose series file is one series short of its ids:
        loading the raw file fails loudly, before any position is read."""
        import dataclasses
        import os
        import shutil

        from repro.core.coconut_common import RAW_SERIES, raw_parts

        shutil.copytree(f"{ctree.path}/raw", tmp_path / "raw")
        series = raw_parts(str(tmp_path / "raw"))[0] + RAW_SERIES
        os.truncate(series, os.path.getsize(series) - ctree.length * 8)
        short = dataclasses.replace(ctree, path=str(tmp_path), summaries=None, raw=None)
        with pytest.raises(ValueError, match="does not hold"):
            short.raw_file()

    def test_fetch_raw_by_id(self, ctree, walk_mat):
        """Series are fetched by the raw-file positions of their ids, as
        one array in the order asked."""
        got = ctree.fetch_raw(ctree.raw_file().positions([7, 0, 5]))
        assert got.shape == (3, LENGTH) and len(got) == 3
        assert np.array_equal(got, walk_mat[[7, 0, 5]])

    @pytest.mark.parametrize("name", ["ctree", "ctree_full", "ctrie", "merged_index"])
    def test_series_files_in_block_row_groups(self, name, request):
        """A materialized index's leaves are written in row groups of at
        most B series, one modeled disk block each.  A secondary index's
        raw file, merged or not, is flat: N rows of ``length`` float64
        values and N int64 ids, and no other byte."""
        import os

        from repro.core.coconut_common import read_with_row_groups

        index = request.getfixturevalue(name)
        if index.materialized:
            t, groups = read_with_row_groups(f"{index.path}/leaves", ["id"])
            assert groups.rows.sum() == len(t) == index.n_series
            assert groups.rows.max() <= index.disk_config.block_series
            return
        raw = f"{index.path}/raw"
        size = {".series": 0, ".id": 0}
        for f in os.listdir(raw):
            size[os.path.splitext(f)[1]] += os.path.getsize(os.path.join(raw, f))
        assert size == {".series": index.n_series * index.length * 8, ".id": index.n_series * 8}

    def test_fetch_reads_only_the_row_groups_holding_positions(self, ctree, walk_mat, monkeypatch):
        """A fetch reads exactly the B-series blocks of the raw file (its
        row groups: B rows each) that hold the positions, one read per
        contiguous run of them, split where the run crosses from one part
        file into the next, and nothing else."""
        import os

        raw, B = f"{ctree.path}/raw", ctree.disk_config.block_series
        pos = [5, 6, 37, 200, N_SERIES - 1, 38]
        stems = sorted(f[: -len(".id")] for f in os.listdir(raw) if f.endswith(".id"))
        counts = [os.path.getsize(f"{raw}/{s}.id") // 8 for s in stems]
        starts = np.cumsum([0, *counts])
        blocks = np.unique(np.asarray(pos) // B)
        want = []
        for run in np.split(blocks, np.flatnonzero(np.diff(blocks) != 1) + 1):
            lo, hi = run[0] * B, min((run[-1] + 1) * B, N_SERIES)
            for s, a, b in zip(stems, starts, starts[1:]):
                if max(lo, a) < min(hi, b):
                    want.append((f"{raw}/{s}.series", int(max(lo, a) - a) * LENGTH * 8,
                                 int(min(hi, b) - max(lo, a)) * LENGTH * 8))
        opened, read = {}, []
        real_open, real_preadv = os.open, os.preadv

        def spy_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            opened[fd] = str(path)
            return fd

        def spy_preadv(fd, buffers, offset, *args):
            n = real_preadv(fd, buffers, offset, *args)
            read.append((opened[fd], offset, n))
            return n

        ctree.close()  # no part file open yet
        ctree.raw_file()  # the positions are resident before the fetch
        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "preadv", spy_preadv)
        try:
            got = ctree.fetch_raw(pos)
        finally:
            monkeypatch.undo()
            ctree.close()  # drop the spied descriptors
        assert np.array_equal(got, walk_mat[pos])
        assert sorted(read) == sorted(want) and 0 < len(want) < len(pos)

    def test_materialized_series_roundtrip(self, ctree_full, walk_mat):
        lid = int(ctree_full.directory.iloc[0]["leaf_id"])
        t = ctree_full.read_leaves([lid])
        assert t.num_rows == int(ctree_full.directory.iloc[0]["count"])
        for i, series in zip(t.column("id").to_pylist(), t.column("series").to_pylist()):
            assert np.allclose(np.asarray(series), walk_mat[i])


class TestRawFileTake:
    """``RawFile.take`` over a raw file of parts of 5, 0, 7 and 3 series,
    in blocks of B=4: block 1 runs from the first part across the empty
    one into the third, and block 3, the last, is short."""

    B, L = 4, 3

    @pytest.fixture
    def raw(self, tmp_path):
        from repro.core.coconut_common import RawFile, RawWriter

        series = np.arange(15 * self.L, dtype=np.float64).reshape(15, self.L)
        ids = 100 + np.arange(15)
        with RawWriter(str(tmp_path)) as out:
            for first, lo, hi in ((0, 0, 5), (10, 5, 5), (20, 5, 12), (40, 12, 15)):
                out.append(first, ids[lo:hi], series[lo:hi])
        raw = RawFile.load(str(tmp_path), self.L)
        yield raw, series
        raw.close()

    @pytest.mark.parametrize("pos, reads", [
        ([], []),
        ([3, 6], [(0, 0, 5), (2, 0, 3)]),                 # one run across two parts
        ([13], [(3, 0, 3)]),                              # the short last block
        ([14, 0, 14, 9, 3, 0], [(0, 0, 4), (2, 3, 4), (3, 0, 3)]),
    ], ids=["empty", "across_parts", "last_block", "unsorted_repeated"])
    def test_rows_in_order_asked_one_read_per_run_and_part(self, raw, monkeypatch, pos, reads):
        """The rows come back in the order asked, repeats included, from
        one ``preadv`` per contiguous run of blocks and part file it
        spans, given as (part, first row, rows); no position, no read."""
        import os

        raw, series = raw
        real, calls = os.preadv, []

        def spy(fd, buffers, offset, *args):
            n = real(fd, buffers, offset, *args)
            calls.append((fd, offset, n))
            return n

        monkeypatch.setattr(os, "preadv", spy)
        got = raw.take(np.asarray(pos, dtype=np.int64), self.B)
        part = {fd: j for j, fd in raw.fds.items()}
        row = self.L * 8
        assert [(part[fd], offset // row, n // row) for fd, offset, n in calls] == reads
        assert got.shape == (len(pos), self.L) and got.dtype == np.float64
        assert np.array_equal(got, series[pos])

    @pytest.mark.parametrize("pos", [[15], [-1], [0, 15]])
    def test_positions_outside_the_file_raise(self, raw, pos):
        with pytest.raises(IndexError):
            raw[0].take(np.asarray(pos), self.B)


class TestConstructionCost:
    def test_no_random_io(self, ctree, ctree_full):
        """Bulk loading is all-sequential (the paper's core claim)."""
        for idx in (ctree, ctree_full):
            assert idx.build_disk.random_reads == 0
            assert idx.build_disk.random_writes == 0

    def test_materialized_costs_more_than_secondary(self, ctree, ctree_full):
        assert ctree_full.build_disk.seconds() > ctree.build_disk.seconds()

    def test_index_bytes_formula(self, ctree):
        assert ctree.index_bytes == ctree.n_leaves * CAPACITY * 24

    def test_cost_scales_with_memory(self, spark, walk_df):
        """Shrinking M adds external-sort passes for the Full variant."""
        import shutil
        import tempfile

        from repro.core.coconut_tree import build_coconut_tree
        from repro.storage.disk_model import DiskConfig

        secs = []
        for mem in (10_000, 40):
            cfg = DiskConfig(block_series=32, memory_series=mem, series_bytes=512)
            p = tempfile.mkdtemp()
            idx = build_coconut_tree(
                spark, walk_df, path=p, w=8, bits=4, leaf_capacity=50,
                materialized=True, disk_config=cfg,
            )
            secs.append(idx.build_disk.seconds())
            idx.close()
            shutil.rmtree(p, ignore_errors=True)
        assert secs[1] > secs[0]


class TestEdgeInputs:
    def test_empty_input_raises(self, spark, tmp_path):
        from repro.core.coconut_tree import build_coconut_tree

        empty = spark.createDataFrame([], "id long, series array<double>")
        with pytest.raises(ValueError, match="empty"):
            build_coconut_tree(spark, empty, path=str(tmp_path / "empty"))

    def test_w_not_dividing_length_raises(self, spark, walk_df, tmp_path):
        """Caught on the driver, before the sort job or any file write."""
        from repro.core.coconut_tree import build_coconut_tree

        with pytest.raises(ValueError, match="must divide"):
            build_coconut_tree(spark, walk_df, path=str(tmp_path / "w7"), w=7)
        assert not (tmp_path / "w7").exists()

    def test_rebuild_leaves_no_stale_raw_parts(self, spark, walk_df, queries, tmp_path):
        """A secondary build into the path of an earlier one replaces its
        raw file: 400 series in 8 parts, then 200 in 4, hold 200 series,
        and exact answers are the brute-force ones."""
        from repro.core.coconut_tree import build_coconut_tree
        from repro.core.query import exact_search
        from repro.synth_data import series_collection, series_matrix
        from tests.ground_truth import exact_nn_numpy

        path = str(tmp_path / "idx")
        kw = dict(w=8, bits=4, leaf_capacity=CAPACITY, materialized=False)
        build_coconut_tree(spark, walk_df, path=path, **kw).close()
        small = series_collection(spark, n_series=200, length=LENGTH, seed=3, partitions=4)
        mat = series_matrix(n_series=200, length=LENGTH, seed=3)
        idx = build_coconut_tree(spark, small, path=path, **kw)
        ids, raw = read_raw(f"{path}/raw", LENGTH)
        assert ids.tolist() == list(range(200)) and np.array_equal(raw, mat)
        for q in queries:
            gid, gd = exact_nn_numpy(np.arange(200), mat, q)
            got = exact_search(idx, q)
            assert (got.id, got.distance) == (gid, pytest.approx(gd))
        idx.close()


class TestLeafCapacityVariants:
    @pytest.mark.parametrize("capacity", [10, 100])
    def test_capacity_controls_leaf_count(self, spark, walk_df, tmp_path, capacity):
        from repro.core.coconut_tree import build_coconut_tree

        idx = build_coconut_tree(
            spark, walk_df, path=str(tmp_path / f"c{capacity}"), w=8, bits=4,
            leaf_capacity=capacity, materialized=False,
        )
        assert idx.n_leaves == -(-N_SERIES // capacity)
        idx.close()
