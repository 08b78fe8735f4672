"""Query correctness tests: approximate and exact search on Coconut."""
import numpy as np
import pandas as pd
import pytest

from repro.core.distance import euclidean
from repro.core.query import (
    approximate_search,
    exact_search,
    query_summary,
    sims_scan,
)
from repro.storage.disk_model import DiskModel
from tests.conftest import jobs_under_group
from tests.ground_truth import assert_equivalent, exact_nn_numpy, exact_nn_spark, unpivot_series


@pytest.fixture(scope="module")
def ground_truth(walk_mat, queries, ids):
    return [exact_nn_numpy(ids, walk_mat, q) for q in queries]


class TestApproximateSearch:
    @pytest.mark.parametrize("fixture", ["ctree", "ctree_full", "ctrie", "ctrie_full"])
    def test_returns_real_member(self, fixture, request, walk_mat, queries):
        idx = request.getfixturevalue(fixture)
        r = approximate_search(idx, queries[0])
        assert 0 <= r.id < len(walk_mat)
        assert r.distance == pytest.approx(euclidean(walk_mat[r.id], queries[0]))

    def test_distance_upper_bounds_truth(self, ctree, queries, ground_truth):
        for q, (gid, gd) in zip(queries, ground_truth):
            r = approximate_search(ctree, q)
            assert r.distance >= gd - 1e-9

    def test_radius_improves_quality(self, ctree_full, queries, ground_truth):
        """Wider radius never worsens the answer; on average it helps
        (Fig 9d: CTree(10) better than CTree(1))."""
        d1 = [approximate_search(ctree_full, q, radius=1).distance for q in queries]
        d5 = [approximate_search(ctree_full, q, radius=5).distance for q in queries]
        assert all(b <= a + 1e-9 for a, b in zip(d1, d5))

    def test_full_radius_is_exact(self, ctree_full, queries, ground_truth):
        """Radius covering every leaf degenerates to a full scan."""
        for q, (gid, gd) in zip(queries[:2], ground_truth[:2]):
            r = approximate_search(ctree_full, q, radius=ctree_full.n_leaves)
            assert r.distance == pytest.approx(gd)

    def test_visits_requested_leaf_count(self, ctree, queries):
        r = approximate_search(ctree, queries[0], radius=3)
        assert r.leaves_visited == 3

    def test_sequential_leaf_io(self, ctree_full, queries):
        """Contiguous leaves: the leaf read is sequential, not random."""
        r = approximate_search(ctree_full, queries[0], radius=4)
        assert r.disk.random_reads == 0
        assert r.disk.seq_read_blocks > 0

    def test_secondary_pays_random_raw_fetches(self, ctree, queries):
        r = approximate_search(ctree, queries[0])
        assert r.disk.random_reads == r.visited_records

    def test_query_length_mismatch_raises(self, ctree):
        with pytest.raises(ValueError, match="query length"):
            approximate_search(ctree, np.zeros(13))


class TestExactSearch:
    @pytest.mark.parametrize("fixture", ["ctree", "ctree_full", "ctrie", "ctrie_full"])
    def test_matches_brute_force(self, fixture, request, queries, ground_truth):
        idx = request.getfixturevalue(fixture)
        for q, (gid, gd) in zip(queries, ground_truth):
            r = exact_search(idx, q)
            assert r.distance == pytest.approx(gd)

    def test_matches_spark_brute_force(self, ctree, walk_df, queries):
        q = queries[0]
        sid, sd = exact_nn_spark(walk_df, q)
        r = exact_search(ctree, q)
        assert r.distance == pytest.approx(sd)

    def test_matches_duckdb_oracle(self, spark, ctree, walk_mat, ids, queries):
        """End-to-end oracle: the exact NN distance equals the DuckDB SQL
        answer over unpivoted series."""
        q = queries[1]
        r = exact_search(ctree, q)
        got = spark.createDataFrame(
            pd.DataFrame({"nn_dist": [round(r.distance, 6)]})
        )
        long = unpivot_series(ids, walk_mat)
        qdf = pd.DataFrame({"pos": np.arange(len(q)), "qv": q})
        assert_equivalent(
            got,
            """
            SELECT round(min(dist), 6) AS nn_dist FROM (
              SELECT s.id, sqrt(sum((s.value - q.qv)^2)) AS dist
              FROM long s JOIN qdf q ON s.pos = q.pos GROUP BY s.id)
            """,
            long=long,
            qdf=qdf,
        )

    def test_answer_id_is_argmin(self, ctree_full, walk_mat, queries, ground_truth):
        for q, (gid, gd) in zip(queries, ground_truth):
            r = exact_search(ctree_full, q)
            # Distance ties allowed: check the returned id achieves gd.
            assert euclidean(walk_mat[r.id], q) == pytest.approx(gd)

    def test_visited_leq_candidates_leq_n(self, ctree, queries):
        r = exact_search(ctree, queries[0])
        assert r.visited_records <= r.extra["candidates"] <= ctree.n_series

    def test_pruning_happens(self, ctree, queries):
        """SIMS should prune most of the dataset on random-walk data."""
        r = exact_search(ctree, queries[0])
        assert r.visited_records < ctree.n_series / 2

    def test_radius_reduces_visited(self, ctree_full, queries):
        """Better initial bsf (larger radius) prunes at least as much
        (Fig 9f)."""
        v1 = np.mean([exact_search(ctree_full, q, radius=1).visited_records for q in queries])
        v5 = np.mean([exact_search(ctree_full, q, radius=5).visited_records for q in queries])
        assert v5 <= v1 + 1e-9

    def test_approx_distance_recorded(self, ctree, queries):
        r = exact_search(ctree, queries[0])
        assert r.distance <= r.approx_distance + 1e-12

    def test_exact_on_seismic_kind(self, spark, tmp_path):
        """Exact search is correct on the dense (harder) dataset too."""
        from repro.core.coconut_tree import build_coconut_tree
        from repro.synth_data import query_workload, series_collection, series_matrix

        df = series_collection(spark, n_series=200, length=64, kind="seismic", seed=3)
        mat = series_matrix(n_series=200, length=64, kind="seismic", seed=3)
        idx = build_coconut_tree(
            spark, df, path=str(tmp_path / "seis"), w=8, bits=4, leaf_capacity=50
        )
        qs = query_workload(n_queries=3, length=64, kind="seismic")
        for q in qs:
            gid, gd = exact_nn_numpy(np.arange(200), mat, q)
            assert exact_search(idx, q).distance == pytest.approx(gd)
        idx.close()


class TestSimsScan:
    def test_running_bsf_prunes_and_runs_are_charged(self):
        """Candidates whose bound no longer beats the running bsf are
        skipped; visited blocks {0, 1, 3} are two sequential runs."""
        dists = np.array([5.0, 3.0, 4.0, 1.0, 2.0])
        series = np.zeros((5, 4))
        series[:, 0] = dists
        disk = DiskModel()
        got = sims_scan(
            np.zeros(4), np.array([0.0, 0.0, 3.5, 0.0, 2.5]), series,
            np.arange(10, 15), np.array([0, 33, 40, 100, 5]),
            10.0, -1, disk, 32,
        )
        assert got == (13, 1.0, 3)  # rows 0, 1, 3 visited
        assert (disk.seq_runs, disk.seq_read_blocks) == (2, 3)
        assert disk.random_reads == 0

    def test_nothing_visited_charges_nothing(self):
        disk = DiskModel()
        got = sims_scan(
            np.zeros(4), np.array([2.0, 3.0]), np.ones((2, 4)), np.arange(2),
            np.arange(2), 1.5, 7, disk, 32,
        )
        assert got == (7, 1.5, 0)
        assert disk.seq_runs == 0 and disk.seq_read_blocks == 0


class TestSimsCharge:
    def test_secondary_refine_is_charged_at_raw_positions(self, spark, tmp_path):
        """Hand-worked: eight constant series of length 4 (w=2, bits=2,
        so SAX breakpoints -0.674, 0, 0.674), B=2, leaves of 4.  Row i of
        the raw file is id i, of value V[i].  By z-key (= symbol, ties in
        input order, so by id) the ranks hold ids 1, 3 | 5 | 0, 6 | 2, 4, 7,
        so the ranks and the raw positions differ.

        Query 0.1 (symbol 2): its leaf is ranks 4-7 and the approximate
        search reads the 2 records at its key, ids 6 and 2, so bsf = 1.0
        (id 6).  Bounds 2*gap: symbol 0 1.55, 1 0.2, 2 0, 3 1.15; the
        candidates are ids 5, 0 and 6 at ranks 2-4 and raw positions
        5, 0, 6.  In raw-file order: id 0 (distance 0.4, bsf 0.4), id 5
        (bound 0.2 < 0.4: distance 0.6), id 6 (bound 0: distance 1.0) —
        all three visited.  Raw blocks 0, 2, 3: two sequential runs of
        1 and 2 blocks.  Charging the ranks, blocks 1, 1, 2, would be one
        run of 2 blocks."""
        from repro.core.coconut_tree import build_coconut_tree
        from repro.storage.disk_model import DiskConfig

        values = [0.3, -3.0, 2.5, -1.0, 1.2, -0.2, 0.6, 0.9]
        df = spark.createDataFrame(
            pd.DataFrame({"id": np.arange(8), "series": [np.full(4, v) for v in values]}),
            "id long, series array<double>",
        )
        cfg = DiskConfig(block_series=2, memory_series=100, series_bytes=32)
        idx = build_coconut_tree(
            spark, df, path=str(tmp_path / "hand"), w=2, bits=2, leaf_capacity=4,
            disk_config=cfg,
        )
        q = np.full(4, 0.1)
        assert list(idx.raw_file().id) == list(range(8))
        assert list(idx.load_summaries().id) == [1, 3, 5, 0, 6, 2, 4, 7]
        a = approximate_search(idx, q)
        assert (a.id, a.distance) == (6, pytest.approx(1.0))
        exact_search(idx, q)  # loads the summaries
        e = exact_search(idx, q)
        assert (e.id, e.distance) == (0, pytest.approx(0.4))
        assert (e.extra["candidates"], e.visited_records) == (3, 3)
        refine_runs = e.disk.seq_runs - a.disk.seq_runs
        refine_blocks = e.disk.seq_read_blocks - a.disk.seq_read_blocks
        assert (refine_runs, refine_blocks) == (2, 3)
        assert e.disk.random_reads == a.disk.random_reads
        idx.close()


class TestNoSparkJobs:
    def test_group_counts_spark_jobs(self, spark):
        """Control: a Spark action under a job group is seen."""
        assert jobs_under_group(spark, "no-jobs-control", spark.range(3).count)

    @pytest.mark.parametrize("fixture", ["ctree", "ctree_full", "ctrie", "ctrie_full"])
    def test_search_starts_no_spark_job(self, fixture, request, spark, queries):
        idx = request.getfixturevalue(fixture)
        idx.close()  # the next exact search loads the summaries again

        def search():
            for q in queries[:2]:
                approximate_search(idx, q)
                exact_search(idx, q)

        assert jobs_under_group(spark, f"no-jobs-{fixture}", search) == []

    @pytest.mark.parametrize("fixture", ["ctree", "ctrie"])
    def test_directory_starts_no_spark_job(self, fixture, request, spark):
        """The leaf directory is read from the leaf file on the driver."""
        from repro.core.coconut_common import directory_from_summaries

        idx = request.getfixturevalue(fixture)
        got = []
        jobs = jobs_under_group(
            spark, f"no-jobs-dir-{fixture}",
            lambda: got.append(directory_from_summaries(
                f"{idx.path}/leaves", lambda zkey: idx.directory["leaf_id"].to_numpy()
            )),
        )
        assert jobs == []
        pd.testing.assert_frame_equal(got[0][0], idx.directory)


class TestNoPandasOnQueryPath:
    @pytest.mark.parametrize("fixture", ["ctree", "ctree_full"])
    def test_searches_convert_no_table_to_pandas(
        self, fixture, request, monkeypatch, queries, ground_truth
    ):
        """Leaf reads stay Arrow and numpy: with Arrow's conversion to
        pandas made to fail, both searches, summaries and raw positions
        loaded cold, still give the answers they give without it, and
        the exact one is the brute-force answer."""
        import pyarrow.pandas_compat

        idx = request.getfixturevalue(fixture)
        want = [approximate_search(idx, q) for q in queries]
        idx.close()

        def no_pandas(*args, **kwargs):
            raise AssertionError("a search converted an Arrow table to pandas")

        monkeypatch.setattr(pyarrow.pandas_compat, "table_to_dataframe", no_pandas)
        for q, a, (gid, gd) in zip(queries, want, ground_truth):
            r = exact_search(idx, q)
            assert (r.id, r.distance) == (gid, pytest.approx(gd))
            got = approximate_search(idx, q)
            assert (got.id, got.distance, got.visited_records) == (a.id, a.distance, a.visited_records)


class TestRadius:
    @pytest.mark.parametrize("search", [approximate_search, exact_search])
    @pytest.mark.parametrize("radius", [0, -1])
    def test_radius_below_one_raises(self, ctree, queries, search, radius):
        with pytest.raises(ValueError, match="radius"):
            search(ctree, queries[0], radius=radius)


def _all_nan(q: np.ndarray) -> np.ndarray:
    return np.full_like(q, np.nan)


def _one_inf(q: np.ndarray) -> np.ndarray:
    q = q.copy()
    q[3] = np.inf
    return q


class TestNonFiniteQuery:
    @pytest.mark.parametrize("search", [approximate_search, exact_search])
    @pytest.mark.parametrize("make", [_all_nan, _one_inf])
    def test_raises(self, ctree, queries, search, make):
        with pytest.raises(ValueError, match="finite"):
            search(ctree, make(queries[0]))

    def test_exact_checks_before_loading_summaries(self, ctree, queries):
        import dataclasses

        fresh = dataclasses.replace(ctree, summaries=None)
        with pytest.raises(ValueError, match="finite"):
            exact_search(fresh, _one_inf(queries[0]))
        assert fresh.summaries is None


class TestQuerySummary:
    def test_zkey_consistent_with_dataset(self, ctree, walk_mat):
        from repro.core.zorder import zkeys

        qp, qs, qz = query_summary(ctree, walk_mat[0])
        assert qz == zkeys(walk_mat[:1], ctree.w, ctree.bits)[0]

    def test_shapes(self, ctree, queries):
        qp, qs, qz = query_summary(ctree, queries[0])
        assert qp.shape == (ctree.w,) and qs.shape == (ctree.w,)
        assert isinstance(qz, bytes)


class TestCostAccounting:
    def test_first_exact_query_loads_summaries(self, spark, walk_df, tmp_path, queries):
        from repro.core.coconut_tree import build_coconut_tree

        idx = build_coconut_tree(
            spark, walk_df, path=str(tmp_path / "fresh"), w=8, bits=4, leaf_capacity=50
        )
        r1 = exact_search(idx, queries[0])
        r2 = exact_search(idx, queries[0])
        assert r1.disk.seq_read_blocks > r2.disk.seq_read_blocks  # one-time load
        idx.close()

    def test_exact_disk_nonzero(self, ctree, queries):
        r = exact_search(ctree, queries[0])
        assert r.disk.seconds() > 0
