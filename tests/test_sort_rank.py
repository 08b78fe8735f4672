"""Unit tests for the distributed global sort + rank."""
import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.core.sort_rank import global_sort_with_rank
from repro.oracle import assert_equivalent


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
        out = global_sort_with_rank(df, "key")
        ranks = sorted(r["rank"] for r in out.select("rank").collect())
        assert ranks == list(range(200))
        out.unpersist()

    def test_rank_order_matches_key_order(self, spark):
        df, pdf = _df(spark, seed=1)
        out = global_sort_with_rank(df, "key").toPandas().sort_values("rank")
        assert list(out["key"]) == sorted(pdf["key"])
        out_df = None

    def test_matches_sql_row_number_oracle(self, spark):
        df, pdf = _df(spark, seed=2)
        out = global_sort_with_rank(df, "key").select("id", "key", "rank")
        assert_equivalent(
            out,
            "SELECT id, key, row_number() OVER (ORDER BY key, id) - 1 AS rank FROM t",
            t=pdf,
        )
        out.unpersist()

    def test_duplicate_keys_tiebroken_by_id(self, spark):
        pdf = pd.DataFrame({"id": [3, 1, 2, 0], "key": ["a", "a", "a", "a"]})
        out = (
            global_sort_with_rank(spark.createDataFrame(pdf), "key")
            .toPandas()
            .sort_values("rank")
        )
        assert list(out["id"]) == [0, 1, 2, 3]

    def test_stable_across_recomputation(self, spark):
        """Ranks are frozen by persist: two actions see identical ranks."""
        df, _ = _df(spark, seed=3)
        out = global_sort_with_rank(df, "key")
        a = out.toPandas().sort_values("id")["rank"].to_numpy()
        b = out.toPandas().sort_values("id")["rank"].to_numpy()
        assert np.array_equal(a, b)
        out.unpersist()

    def test_schema_keeps_all_columns(self, spark):
        df, _ = _df(spark)
        out = global_sort_with_rank(df, "key")
        assert set(out.columns) == {"id", "key", "rank"}
        out.unpersist()

    def test_small_input_fewer_rows_than_partitions(self, spark):
        """Two rows over one range partition per core (at least two)."""
        pdf = pd.DataFrame({"id": [0, 1], "key": ["b", "a"]})
        out = (
            global_sort_with_rank(spark.createDataFrame(pdf), "key")
            .toPandas()
            .sort_values("rank")
        )
        assert list(out["id"]) == [1, 0]

    def test_does_not_mutate_input_schema(self, spark):
        df, _ = _df(spark)
        before = [f.name for f in df.schema.fields]
        out = global_sort_with_rank(df, "key")
        assert [f.name for f in df.schema.fields] == before
        out.unpersist()

    def test_partitions_are_range_disjoint(self, spark):
        """Max key of partition p < min key of partition p+1 (the merge
        phase of the external sort is implicit in range partitioning)."""
        df, _ = _df(spark, n=500, seed=4)
        out = global_sort_with_rank(df, "key")
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
        out.unpersist()


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
        out = self._ranked(spark)
        pdf = out.toPandas().sort_values("rank")
        got = [bytes(z) for z in pdf["zkey"]]
        assert got == sorted(got)
        assert got[0][0] == 0x00 and got[-1][0] == 0xFF
        out.unpersist()

    def test_directory_ranges_follow_unsigned_order(self, spark, tmp_path):
        from repro.core.coconut_common import directory_from_summaries

        out = self._ranked(spark)
        with_leaf = out.withColumn("leaf_id", F.col("rank") - F.col("rank") % 5)
        with_leaf.write.parquet(str(tmp_path / "leaves"))
        d, _ = directory_from_summaries(str(tmp_path / "leaves"))
        pdf = out.toPandas()
        for _, row in d.iterrows():
            grp = [bytes(z) for z in pdf.loc[pdf["rank"] // 5 * 5 == row["leaf_id"], "zkey"]]
            assert bytes(row["min_zkey"]) == min(grp)
            assert bytes(row["max_zkey"]) == max(grp)
        mins, maxs = [bytes(z) for z in d["min_zkey"]], [bytes(z) for z in d["max_zkey"]]
        assert mins == sorted(mins)
        assert all(hi < lo for hi, lo in zip(maxs, mins[1:]))
        out.unpersist()
