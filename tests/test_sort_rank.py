"""Unit tests for the distributed global sort + rank."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.sort_rank import global_sort_with_rank
from repro.oracle import assert_equivalent
from tests.conftest import jobs_under_group, persisted_rdds


def _df(spark, n=200, seed=0):
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame({
        "id": np.arange(n),
        "key": [f"{v:08x}" for v in g.integers(0, 2**32, n)],
    })
    return spark.createDataFrame(pdf), pdf


class TestGlobalSortWithRank:
    def test_ranks_are_dense(self, spark):
        df, _ = _df(spark)
        out, release = global_sort_with_rank(df, "key")
        ranks = sorted(r["rank"] for r in out.select("rank").collect())
        assert ranks == list(range(200))
        release()

    def test_rank_order_matches_key_order(self, spark):
        df, pdf = _df(spark, seed=1)
        out, release = global_sort_with_rank(df, "key")
        got = out.toPandas().sort_values("rank")
        assert list(got["key"]) == sorted(pdf["key"])
        release()

    def test_matches_sql_row_number_oracle(self, spark):
        df, pdf = _df(spark, seed=2)
        out, release = global_sort_with_rank(df, "key")
        assert_equivalent(
            out.select("id", "key", "rank"),
            "SELECT id, key, row_number() OVER (ORDER BY key, id) - 1 AS rank FROM t",
            t=pdf,
        )
        release()

    def test_duplicate_keys_tiebroken_by_id(self, spark):
        pdf = pd.DataFrame({"id": [3, 1, 2, 0], "key": ["a", "a", "a", "a"]})
        out, release = global_sort_with_rank(spark.createDataFrame(pdf), "key")
        assert list(out.toPandas().sort_values("rank")["id"]) == [0, 1, 2, 3]
        release()

    def test_stable_across_recomputation(self, spark):
        """Ranks are read off the persisted sorted partitions, so two
        actions see identical ranks."""
        df, _ = _df(spark, seed=3)
        out, release = global_sort_with_rank(df, "key")
        a = out.toPandas().sort_values("id")["rank"].to_numpy()
        b = out.toPandas().sort_values("id")["rank"].to_numpy()
        assert np.array_equal(a, b)
        release()

    def test_input_evaluated_once(self, spark):
        """The input is persisted before the range sampler scans it, so
        the shuffle reads the cache: each input row is produced once."""
        df, _ = _df(spark, n=300, seed=6)
        produced = spark.sparkContext.accumulator(0)

        def count_rows(batches):
            for pdf in batches:
                produced.add(len(pdf))
                yield pdf

        out, release = global_sort_with_rank(df.mapInPandas(count_rows, df.schema), "key")
        out.select("rank").collect()
        release()
        assert produced.value == 300

    def test_release_drops_every_cache(self, spark):
        """Only the sorted partitions stay persisted, until the release."""
        df, _ = _df(spark)
        before = persisted_rdds(spark)
        out, release = global_sort_with_rank(df, "key")
        assert persisted_rdds(spark) == before + 1
        out.collect()
        release()
        assert persisted_rdds(spark) == before

    def test_schema_keeps_all_columns(self, spark):
        df, _ = _df(spark)
        out, release = global_sort_with_rank(df, "key")
        assert set(out.columns) == {"id", "key", "rank"}
        release()

    def test_small_input_fewer_rows_than_partitions(self, spark):
        """Two rows over one range partition per core (at least two)."""
        pdf = pd.DataFrame({"id": [0, 1], "key": ["b", "a"]})
        out, release = global_sort_with_rank(spark.createDataFrame(pdf), "key")
        assert list(out.toPandas().sort_values("rank")["id"]) == [1, 0]
        release()

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
    @pytest.mark.parametrize("variant,max_jobs", [("tree", 8), ("trie", 8)])
    def test_build_jobs_bounded_and_caches_released(
        self, spark, tmp_path, variant, max_jobs, materialized
    ):
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
        assert len(jobs) <= max_jobs
        assert persisted_rdds(spark) == before


class TestBinaryKeys:
    """Z-keys are ``binary``: Spark must order them as unsigned bytes, as
    Python does, or z-order breaks where the first byte crosses 0x80."""

    FIRST_BYTES = [0x00, 0x01, 0x7E, 0x7F, 0x80, 0x81, 0xFE, 0xFF]

    def _ranked(self, spark):
        keys = [bytes([a, b]) for a in self.FIRST_BYTES for b in (0x00, 0x7F, 0x80, 0xFF)]
        order = np.random.default_rng(5).permutation(len(keys))
        pdf = pd.DataFrame({"id": np.arange(len(keys)), "zkey": [keys[i] for i in order]})
        return global_sort_with_rank(spark.createDataFrame(pdf, "id long, zkey binary"), "zkey")

    def test_rank_order_is_unsigned_byte_order(self, spark):
        out, release = self._ranked(spark)
        pdf = out.toPandas().sort_values("rank")
        got = [bytes(z) for z in pdf["zkey"]]
        assert got == sorted(got)
        assert got[0][0] == 0x00 and got[-1][0] == 0xFF
        release()

    def test_directory_ranges_follow_unsigned_order(self, spark, tmp_path):
        from repro.core.coconut_common import directory_from_summaries

        out, release = self._ranked(spark)
        out.write.parquet(str(tmp_path / "leaves"))
        d, _ = directory_from_summaries(
            str(tmp_path / "leaves"), lambda zkey: np.arange(0, len(zkey), 5)
        )
        pdf = out.toPandas()
        for _, row in d.iterrows():
            grp = [bytes(z) for z in pdf.loc[pdf["rank"] // 5 * 5 == row["leaf_id"], "zkey"]]
            assert bytes(row["min_zkey"]) == min(grp)
            assert bytes(row["max_zkey"]) == max(grp)
        mins, maxs = [bytes(z) for z in d["min_zkey"]], [bytes(z) for z in d["max_zkey"]]
        assert mins == sorted(mins)
        assert all(hi < lo for hi, lo in zip(maxs, mins[1:]))
        release()
