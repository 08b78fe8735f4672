"""Tests for Coconut-Tree bulk updates (merge_batch, Fig 10a substrate)."""
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from repro.core import coconut_common, coconut_tree
from repro.core.coconut_tree import build_coconut_tree, merge_batch
from repro.core.query import exact_search
from repro.storage.disk_model import DiskConfig
from repro.synth_data import query_workload, series_collection, series_matrix
from tests.conftest import jobs_under_group, read_in_file_order, read_raw
from tests.ground_truth import exact_nn_numpy

LENGTH, KW = 64, dict(w=8, bits=4, leaf_capacity=20)
OLD_ID0 = 1000  # old series' first id; batches take ids below and above
CHUNK = 16  # records the merge streams at a time, so parts span chunks


def _frame(spark, ids, mat):
    return spark.createDataFrame(
        pd.DataFrame({"id": np.asarray(ids, dtype=np.int64), "series": list(mat)}),
        "id long, series array<double>",
    )


def _spread_with_empty_parts(leaves: str) -> None:
    """Rename the leaf file's part files to odd numbers, in name order,
    and put an empty part file before, between and after them: a leaf
    file whose part files, in name order, still hold ranks 0..N-1."""
    parts = sorted(f for f in os.listdir(leaves) if f.endswith(".parquet"))
    schema = pq.read_schema(os.path.join(leaves, parts[0]))
    for i, f in enumerate(parts):
        os.rename(os.path.join(leaves, f), os.path.join(leaves, f"part-{2 * i + 1:05d}.parquet"))
    for i in range(len(parts) + 1):
        pq.write_table(schema.empty_table(), os.path.join(leaves, f"part-{2 * i:05d}.parquet"))


class TestMergeBatch:
    def test_count_grows(self, merged_index):
        assert merged_index.n_series == 210

    def test_still_sorted(self, merged_index):
        pdf = read_in_file_order(f"{merged_index.path}/leaves", ["zkey"])
        assert list(pdf["zkey"]) == sorted(pdf["zkey"])

    def test_still_balanced(self, merged_index):
        counts = merged_index.directory["count"].to_list()  # in file order
        assert all(c == 40 for c in counts[:-1])

    def test_exact_search_correct_after_merge(self, merged_index):
        full = np.vstack([
            series_matrix(n_series=150, length=64, seed=21),
            series_matrix(n_series=60, length=64, seed=21, id_offset=150),
        ])
        for q in query_workload(n_queries=3, length=64):
            gid, gd = exact_nn_numpy(np.arange(210), full, q)
            assert exact_search(merged_index, q).distance == pytest.approx(gd)

    def test_merge_cost_is_sequential(self, merged_index):
        assert merged_index.build_disk.random_reads == 0
        assert merged_index.build_disk.random_writes == 0

    def test_merge_cost_scales_with_total(self, spark, tmp_path):
        """Merging into a bigger index streams more blocks — the reason
        fragmented updates favour ADS in Fig 10a."""
        cfg = DiskConfig(block_series=4, memory_series=10, series_bytes=512)
        costs = []
        for n_base in (100, 300):
            base = series_collection(spark, n_series=n_base, length=64, seed=31)
            idx = build_coconut_tree(
                spark, base, path=str(tmp_path / f"b{n_base}"), w=8, bits=4,
                leaf_capacity=40, materialized=False, disk_config=cfg,
            )
            batch = series_collection(spark, n_series=20, length=64, seed=31, id_offset=n_base)
            merged = merge_batch(idx, batch, path=str(tmp_path / f"m{n_base}"))
            costs.append(merged.build_disk.seconds())
            merged.close()
        assert costs[1] > costs[0]


class TestMergeEqualsRebuild:
    """A merged index holds what a fresh build over the old series plus
    the batch holds: the same records, in the same order, under the same
    directory; a secondary index's raw file is the old one followed by
    the batch."""

    CASES = ("boundary_copies", "empty_batch", "empty_old_parts")

    @pytest.mark.parametrize("materialized", [False, True], ids=["secondary", "materialized"])
    @pytest.mark.parametrize("case", CASES)
    def test_merge_equals_rebuild(self, spark, tmp_path, monkeypatch, case, materialized):
        monkeypatch.setattr(coconut_common, "MERGE_CHUNK_ROWS", CHUNK)
        n_old = 3 if case == "empty_old_parts" else 150
        old_mat = series_matrix(n_series=n_old, length=LENGTH, seed=41)
        old_ids = OLD_ID0 + np.arange(n_old)
        old_df = _frame(spark, old_ids, old_mat)
        old = build_coconut_tree(
            spark, old_df, path=str(tmp_path / "old"), materialized=materialized, **KW
        )
        leaves = f"{old.path}/leaves"
        if case == "boundary_copies":
            # Copies, under new ids, of the first and last series of each
            # old part file and of each chunk the merge streams: equal
            # z-keys on both sides of every part and chunk boundary.  A
            # first series' copy has a lower id than it, a last series'
            # copy a higher one; each copy, a batch record, follows its
            # original all the same.
            firsts, lasts = [], []
            for f in sorted(x for x in os.listdir(leaves) if x.endswith(".parquet")):
                part_ids = pq.read_table(os.path.join(leaves, f), columns=["id"]).column(0).to_numpy()
                starts = np.arange(0, len(part_ids), CHUNK)
                firsts += part_ids[starts].tolist()
                lasts += part_ids[np.append(starts[1:], len(part_ids)) - 1].tolist()
            assert len(firsts) > 4, "the old leaf file needs part and chunk boundaries"
            batch_ids = np.concatenate([np.arange(len(firsts)), 2 * OLD_ID0 + np.arange(len(lasts))])
            batch_mat = old_mat[np.asarray(firsts + lasts) - OLD_ID0]
        elif case == "empty_batch":
            batch_ids, batch_mat = np.arange(0), np.empty((0, LENGTH))
        else:
            _spread_with_empty_parts(leaves)
            batch_ids = np.arange(40)
            batch_mat = series_matrix(n_series=40, length=LENGTH, seed=41, id_offset=n_old)
        batch_df = _frame(spark, batch_ids, batch_mat)
        old_raw = None if materialized else read_raw(f"{old.path}/raw", LENGTH)

        merged = merge_batch(old, batch_df, path=str(tmp_path / "merged"))
        rebuilt = build_coconut_tree(
            spark, old_df.unionByName(batch_df), path=str(tmp_path / "rebuilt"),
            materialized=materialized, **KW,
        )
        got = read_in_file_order(f"{merged.path}/leaves")
        want = read_in_file_order(f"{rebuilt.path}/leaves")
        assert list(got.columns) == list(want.columns)
        assert got["id"].tolist() == want["id"].tolist()
        assert got["zkey"].tolist() == want["zkey"].tolist()
        if materialized:
            assert np.array_equal(np.stack(got["series"]), np.stack(want["series"]))
        else:
            raw_ids, raw_series = read_raw(f"{merged.path}/raw", LENGTH)
            assert raw_ids.tolist() == old_raw[0].tolist() + batch_ids.tolist()
            assert np.array_equal(raw_series, np.vstack([old_raw[1], batch_mat]))
        assert merged.n_series == rebuilt.n_series == n_old + len(batch_ids)
        pd.testing.assert_frame_equal(merged.directory, rebuilt.directory)
        merged.load_summaries()  # the file holds ranks 0..N-1 in file order
        merged.close()
        rebuilt.close()


class TestTiesInInputOrder:
    @pytest.mark.parametrize("materialized", [False, True], ids=["secondary", "materialized"])
    def test_copies_in_input_order_old_before_batch(self, spark, tmp_path, monkeypatch, materialized):
        """Copies of one series, after 60 walks, whose ids descend in input
        order, across leaf and merge-chunk boundaries; then a batch of more
        copies with lower ids.  Equal keys are ordered by input position,
        the paper's offset, not by id: the leaf file lists the copies in
        input order, old before batch, as a rebuild over both does."""
        monkeypatch.setattr(coconut_common, "MERGE_CHUNK_ROWS", CHUNK)
        walks = series_matrix(n_series=61, length=LENGTH, seed=71)
        n_old, n_batch = 3 * KW["leaf_capacity"] + 5, 25
        old_copies = OLD_ID0 + 100 + n_old - np.arange(n_old)   # descending
        batch_copies = n_batch - np.arange(n_batch)              # below every old id
        old_df = _frame(
            spark, np.concatenate([OLD_ID0 + np.arange(60), old_copies]),
            np.vstack([walks[:60], np.tile(walks[60], (n_old, 1))]),
        )
        batch_df = _frame(spark, batch_copies, np.tile(walks[60], (n_batch, 1)))
        old = build_coconut_tree(
            spark, old_df, path=str(tmp_path / "old"), materialized=materialized, **KW
        )
        merged = merge_batch(old, batch_df, path=str(tmp_path / "merged"))
        rebuilt = build_coconut_tree(
            spark, old_df.unionByName(batch_df), path=str(tmp_path / "rebuilt"),
            materialized=materialized, **KW,
        )
        got = read_in_file_order(f"{merged.path}/leaves", ["id", "zkey"])
        want = read_in_file_order(f"{rebuilt.path}/leaves", ["id", "zkey"])
        copies = [*old_copies, *batch_copies]
        assert got.loc[got["id"].isin(copies), "id"].tolist() == copies
        assert got["id"].tolist() == want["id"].tolist()
        assert got["zkey"].tolist() == want["zkey"].tolist()
        merged.close()
        rebuilt.close()


class TestIdsAreNotPositions:
    def test_shuffled_ids_then_batch_below(self, spark, tmp_path):
        """A secondary CTree over shuffled ids with gaps, then a merged
        batch whose ids sort below every old one: the raw file's
        positions follow neither the ids nor their order, and series are
        still found by id."""
        rng = np.random.default_rng(5)
        old_mat = series_matrix(n_series=120, length=LENGTH, seed=61)
        old_ids = OLD_ID0 + 3 * rng.permutation(120)
        batch_mat = series_matrix(n_series=30, length=LENGTH, seed=61, id_offset=120)
        batch_ids = 2 * rng.permutation(30)
        old = build_coconut_tree(
            spark, _frame(spark, old_ids, old_mat), path=str(tmp_path / "old"), **KW
        )
        merged = merge_batch(old, _frame(spark, batch_ids, batch_mat), path=str(tmp_path / "m"))
        ids, mat = np.concatenate([old_ids, batch_ids]), np.vstack([old_mat, batch_mat])
        raw = merged.raw_file()
        assert sorted(raw.id) == sorted(ids) and (raw.id[-30:] == batch_ids).all()
        pick = rng.permutation(len(ids))[:40]
        assert np.array_equal(merged.fetch_raw(raw.positions(ids[pick])), mat[pick])
        for q in query_workload(n_queries=4, length=LENGTH):
            gid, gd = exact_nn_numpy(ids, mat, q)
            got = exact_search(merged, q)
            assert (got.id, got.distance) == (gid, pytest.approx(gd))
        with pytest.raises(KeyError):
            raw.positions([OLD_ID0 + 1])  # a gap in the old ids
        merged.close()


class TestMergeInput:
    def test_merge_starts_one_spark_job(self, spark, tmp_path, monkeypatch):
        """The one Spark job collects the batch, which is keyed on the
        driver, not by the Spark summarizer; the old run is streamed
        from its file, not through Spark."""
        old = build_coconut_tree(
            spark, series_collection(spark, n_series=200, length=LENGTH, seed=51),
            path=str(tmp_path / "old"), materialized=True, **KW,
        )
        batch = series_collection(spark, n_series=50, length=LENGTH, seed=51, id_offset=200)

        def no_summarizer(*args, **kwargs):
            raise AssertionError("merge_batch called summarize_series")

        monkeypatch.setattr(coconut_tree, "summarize_series", no_summarizer)
        out = []
        jobs = jobs_under_group(spark, "merge-batch", lambda: out.append(
            merge_batch(old, batch, path=str(tmp_path / "merged"))
        ))
        assert out[0].n_series == 250
        assert len(jobs) <= 1
        out[0].close()

    @pytest.mark.parametrize(
        "lengths", [(32,), (LENGTH, 32), (LENGTH, None)], ids=["short", "mixed", "null"]
    )
    def test_wrong_length_batch_raises_on_driver(self, spark, tmp_path, merged_index, lengths):
        """A batch with a series that is null or not the index's length
        is a ``ValueError`` from ``merge_batch`` itself, not a worker
        failure, and nothing is written."""
        rows = [None if n is None else np.zeros(n) for n in (lengths * 6)[:6]]
        batch = spark.createDataFrame(
            pd.DataFrame({"id": 1000 + np.arange(6), "series": rows}),
            "id long, series array<double>",
        )
        with pytest.raises(ValueError, match="length 64"):
            merge_batch(merged_index, batch, path=str(tmp_path / "bad"))
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("batch_ids", [[1000, 1001, 1000], [1000, 5]], ids=["repeats", "old_id"])
    def test_repeated_id_batch_raises_before_writing(self, spark, tmp_path, merged_index, batch_ids):
        """Into a secondary index, a batch whose ids repeat, or name a
        series the index holds, is a ``ValueError``, and nothing is
        written: the merged raw file could find only one of them."""
        batch = _frame(spark, batch_ids, series_matrix(n_series=len(batch_ids), length=LENGTH, seed=3))
        with pytest.raises(ValueError, match="more than once"):
            merge_batch(merged_index, batch, path=str(tmp_path / "bad"))
        assert not (tmp_path / "bad").exists()

    def test_materialized_merge_keeps_repeated_ids(self, spark, tmp_path):
        """A materialized index finds series by rank, so repeated ids,
        within the batch and with the index, are kept."""
        old_mat = series_matrix(n_series=60, length=LENGTH, seed=13)
        old = build_coconut_tree(
            spark, _frame(spark, np.arange(60), old_mat), path=str(tmp_path / "old"),
            materialized=True, **KW,
        )
        batch_mat = series_matrix(n_series=3, length=LENGTH, seed=14)
        merged = merge_batch(old, _frame(spark, [7, 7, 70], batch_mat), path=str(tmp_path / "m"))
        ids = np.concatenate([np.arange(60), [7, 7, 70]])
        mat = np.vstack([old_mat, batch_mat])
        assert merged.n_series == 63
        for q in query_workload(n_queries=3, length=LENGTH):
            _, gd = exact_nn_numpy(ids, mat, q)
            assert exact_search(merged, q).distance == pytest.approx(gd)
        merged.close()
