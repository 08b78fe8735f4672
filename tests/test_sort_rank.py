"""Unit tests for the distributed global sort; a rank is a position in
the written file.  Frames carry ``seq``, each row's input position, which
the sort orders equal keys by."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.sort_rank import global_sort_with_rank
from tests.conftest import jobs_under_group, persisted_rdds, read_in_file_order
from tests.ground_truth import assert_equivalent


def _df(spark, n=200, seed=0):
    """``n`` rows over 64 distinct keys, so most keys repeat; ``seq``
    is a permutation, so input order is not id order."""
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame({
        "id": np.arange(n),
        "key": [f"{v:08x}" for v in g.integers(0, 64, n)],
        "seq": g.permutation(n),
    })
    return spark.createDataFrame(pdf), pdf


def _written(out, release, path) -> pd.DataFrame:
    """Write the sorted frame as the builders write the leaves, release
    it, and read the file back in part-file order: a record's rank is
    its row position."""
    out.write.parquet(str(path))
    release()
    return read_in_file_order(str(path))


class TestGlobalSortWithRank:
    def test_ranks_are_dense(self, spark, tmp_path):
        """The file holds every record once, so positions 0..N-1 name
        each record exactly once."""
        df, _ = _df(spark)
        got = _written(*global_sort_with_rank(df, "key"), tmp_path / "out")
        assert sorted(got["id"]) == list(range(200))

    def test_rank_order_matches_key_order(self, spark, tmp_path):
        df, pdf = _df(spark, seed=1)
        got = _written(*global_sort_with_rank(df, "key"), tmp_path / "out")
        assert list(got["key"]) == sorted(pdf["key"])

    def test_matches_sql_row_number_oracle(self, spark, tmp_path):
        df, pdf = _df(spark, seed=2)
        got = _written(*global_sort_with_rank(df, "key"), tmp_path / "out")
        assert_equivalent(
            spark.createDataFrame(got[["id", "key", "rank"]]),
            "SELECT id, key, row_number() OVER (ORDER BY key, seq) - 1 AS rank FROM t",
            t=pdf,
        )

    def test_duplicate_keys_in_input_order(self, spark, tmp_path):
        """Equal keys are ordered by ``seq``, the paper's offset, not by id."""
        pdf = pd.DataFrame({"id": [3, 1, 2, 0], "key": ["a"] * 4, "seq": [2, 0, 3, 1]})
        out, release = global_sort_with_rank(spark.createDataFrame(pdf), "key")
        assert list(_written(out, release, tmp_path / "out")["id"]) == [1, 0, 3, 2]

    def test_input_evaluated_once(self, spark, tmp_path):
        """The input is persisted before the range sampler scans it, so
        the shuffle reads the cache: each input row is produced once
        through the write."""
        df, _ = _df(spark, n=300, seed=6)
        produced = spark.sparkContext.accumulator(0)

        def count_rows(batches):
            for pdf in batches:
                produced.add(len(pdf))
                yield pdf

        out, release = global_sort_with_rank(df.mapInPandas(count_rows, df.schema), "key")
        assert len(_written(out, release, tmp_path / "out")) == 300
        assert produced.value == 300

    def test_release_drops_every_cache(self, spark, tmp_path):
        """Only the input stays persisted, until the release."""
        df, _ = _df(spark)
        before = persisted_rdds(spark)
        out, release = global_sort_with_rank(df, "key")
        out.write.parquet(str(tmp_path / "out"))
        assert persisted_rdds(spark) == before + 1
        release()
        assert persisted_rdds(spark) == before

    def test_schema_keeps_all_columns(self, spark):
        df, _ = _df(spark)
        out, release = global_sort_with_rank(df, "key")
        assert set(out.columns) == {"id", "key", "seq"}
        release()

    def test_small_input_fewer_rows_than_partitions(self, spark, tmp_path):
        """Two rows over one range partition per core (at least two)."""
        pdf = pd.DataFrame({"id": [0, 1], "key": ["b", "a"], "seq": [0, 1]})
        out, release = global_sort_with_rank(spark.createDataFrame(pdf), "key")
        assert list(_written(out, release, tmp_path / "out")["id"]) == [1, 0]

    def test_does_not_mutate_input_schema(self, spark):
        df, _ = _df(spark)
        before = [f.name for f in df.schema.fields]
        _, release = global_sort_with_rank(df, "key")
        assert [f.name for f in df.schema.fields] == before
        release()

    def test_partitions_are_range_disjoint(self, spark):
        """Max key of partition p < min key of partition p+1 (the merge
        phase of the external sort is implicit in range partitioning)."""
        df, _ = _df(spark, n=500, seed=4)
        out, release = global_sort_with_rank(df, "key")
        pid = out.withColumn("pid", F.spark_partition_id())
        stats = (
            pid.groupBy("pid")
            .agg(F.min("key").alias("lo"), F.max("key").alias("hi"))
            .toPandas()
            .sort_values("lo")
        )
        his = list(stats["hi"])
        los = list(stats["lo"])
        for i in range(len(stats) - 1):
            assert his[i] <= los[i + 1]
        release()


class TestBuildJobs:
    """What a build costs in Spark jobs, and that it leaves no cache
    behind (a leaked one would grow across repeated builds unseen)."""

    @pytest.mark.parametrize("materialized", [False, True], ids=["secondary", "materialized"])
    @pytest.mark.parametrize("variant,n_jobs", [("tree", 5), ("trie", 5)])
    def test_build_jobs_bounded_and_caches_released(
        self, spark, tmp_path, variant, n_jobs, materialized
    ):
        """Every build starts the same jobs: a secondary index's raw file
        is written by the summarization scan, so it adds none."""
        from repro.core.coconut_tree import build_coconut_tree
        from repro.core.coconut_trie import build_coconut_trie
        from repro.synth_data import series_collection

        builder = {"tree": build_coconut_tree, "trie": build_coconut_trie}[variant]
        df = series_collection(spark, n_series=2000, length=64, seed=1)
        before, built = persisted_rdds(spark), []
        jobs = jobs_under_group(spark, f"build-{variant}-{materialized}", lambda: built.append(
            builder(spark, df, path=str(tmp_path / "idx"), w=8, bits=4, leaf_capacity=50,
                    materialized=materialized)
        ))
        assert built[0].n_series == 2000
        assert len(jobs) == n_jobs
        assert persisted_rdds(spark) == before

    def test_summarizer_runs_one_wave(self, spark, tmp_path):
        """The summarizer's Python tasks, each with a fixed start-up cost,
        run one per core (at least two), not one per input partition."""
        from repro.core.coconut_tree import summarize_series
        from repro.synth_data import series_collection

        df = series_collection(spark, n_series=400, length=64, seed=1)
        assert df.rdd.getNumPartitions() == 8
        cores = max(2, spark.sparkContext.defaultParallelism)
        summaries, _ = summarize_series(df, 8, 4, 64, raw=str(tmp_path / "raw"))
        assert summaries.rdd.getNumPartitions() <= cores


class TestBinaryKeys:
    """Z-keys are ``binary``: Spark must order them as unsigned bytes, as
    Python does, or z-order breaks where the first byte crosses 0x80."""

    FIRST_BYTES = [0x00, 0x01, 0x7E, 0x7F, 0x80, 0x81, 0xFE, 0xFF]

    def _sorted(self, spark):
        keys = [bytes([a, b]) for a in self.FIRST_BYTES for b in (0x00, 0x7F, 0x80, 0xFF)]
        order = np.random.default_rng(5).permutation(len(keys))
        pdf = pd.DataFrame({
            "id": np.arange(len(keys)), "zkey": [keys[i] for i in order], "seq": np.arange(len(keys)),
        })
        return global_sort_with_rank(
            spark.createDataFrame(pdf, "id long, zkey binary, seq long"), "zkey"
        )

    def test_rank_order_is_unsigned_byte_order(self, spark, tmp_path):
        pdf = _written(*self._sorted(spark), tmp_path / "leaves")
        got = list(pdf["zkey"])
        assert got == sorted(got)
        assert got[0][0] == 0x00 and got[-1][0] == 0xFF

    def test_directory_ranges_follow_unsigned_order(self, spark, tmp_path):
        from repro.core.coconut_common import directory_from_summaries

        pdf = _written(*self._sorted(spark), tmp_path / "leaves")
        d, _ = directory_from_summaries(
            str(tmp_path / "leaves"), lambda zkey: np.arange(0, len(zkey), 5)
        )
        for _, row in d.iterrows():
            grp = list(pdf.loc[pdf["rank"] // 5 * 5 == row["leaf_id"], "zkey"])
            assert bytes(row["min_zkey"]) == min(grp)
            assert bytes(row["max_zkey"]) == max(grp)
        mins, maxs = [bytes(z) for z in d["min_zkey"]], [bytes(z) for z in d["max_zkey"]]
        assert mins == sorted(mins)
        assert all(hi < lo for hi, lo in zip(maxs, mins[1:]))
