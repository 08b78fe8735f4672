"""Tests for the iSAX 2.0 / ADS top-down baseline."""
import numpy as np
import pytest

from repro.baselines.isax_index import ISaxIndex, node_mindist
from repro.core.distance import euclidean
from repro.core.mindist import mindist_paa_sax
from repro.core.paa import paa
from repro.core.sax import sax, symbols_from_paa
from repro.storage.disk_model import DiskConfig
from tests.conftest import BITS, CAPACITY, N_SERIES, W
from tests.ground_truth import exact_nn_numpy


def _leaves(idx):
    return idx._leaves()


class TestStructure:
    def test_all_series_present(self, ads_full):
        total = sum(len(l.rows) for l in _leaves(ads_full))
        assert total == N_SERIES

    def test_capacity_respected(self, ads_full):
        for leaf in _leaves(ads_full):
            assert len(leaf.rows) <= CAPACITY

    def test_prefix_invariant(self, ads_full):
        """Every resident's SAX word matches the leaf's per-segment
        prefixes at the leaf's resolutions."""
        for leaf in _leaves(ads_full):
            for row in leaf.rows:
                sym = ads_full.sax[row]
                for j in range(W):
                    k = leaf.bits_used[j]
                    assert int(sym[j]) >> (BITS - k) == leaf.prefix[j]

    def test_low_fill_factor(self, ads_full):
        """Prefix splits leave leaves sparse (paper: ~10%)."""
        assert ads_full.fill_factor < 0.5

    def test_more_leaves_than_median_split(self, ads_full, ctree):
        assert ads_full.n_leaves > ctree.n_leaves

    def test_secondary_same_structure(self, ads_full, ads_plus):
        assert ads_full.n_leaves == ads_plus.n_leaves

    def test_index_bytes_materialized_larger(self, ads_full, ads_plus):
        assert ads_full.index_bytes > ads_plus.index_bytes


class TestNodeMindist:
    def test_full_resolution_matches_mindist(self):
        g = np.random.default_rng(0)
        q = g.standard_normal(64)
        c = g.standard_normal(64)
        qp = paa(q, 8)
        cs = sax(c, 8, 4)
        nm = node_mindist(qp, tuple(int(s) for s in cs), tuple([4] * 8), 4, 64)
        assert nm == pytest.approx(float(mindist_paa_sax(qp, cs, 64, 4)))

    def test_coarser_resolution_looser(self):
        g = np.random.default_rng(1)
        q, c = g.standard_normal(64), g.standard_normal(64)
        qp = paa(q, 8)
        cs = sax(c, 8, 4)
        full = node_mindist(qp, tuple(int(s) for s in cs), tuple([4] * 8), 4, 64)
        half = node_mindist(
            qp, tuple(int(s) >> 2 for s in cs), tuple([2] * 8), 4, 64
        )
        assert half <= full + 1e-9

    def test_lower_bounds_member_distance(self, ads_full, walk_mat, queries):
        q = queries[0]
        qp = paa(q, W)
        for leaf in _leaves(ads_full)[:20]:
            nm = node_mindist(qp, leaf.prefix, leaf.bits_used, BITS, walk_mat.shape[1])
            for row in leaf.rows:
                assert nm <= euclidean(walk_mat[row], q) + 1e-9


class TestQueries:
    def test_approximate_returns_member(self, ads_full, walk_mat, queries):
        r = ads_full.approximate(queries[0])
        assert r.distance == pytest.approx(euclidean(walk_mat[r.id], queries[0]))

    @pytest.mark.parametrize("fixture", ["ads_full", "ads_plus"])
    def test_exact_matches_brute_force(self, fixture, request, ids, walk_mat, queries):
        idx = request.getfixturevalue(fixture)
        for q in queries:
            gid, gd = exact_nn_numpy(ids, walk_mat, q)
            assert idx.exact(q).distance == pytest.approx(gd)

    def test_leaf_read_is_random_io(self, ads_full, queries):
        r = ads_full.approximate(queries[0])
        assert r.disk.random_reads > 0

    def test_exact_visited_recorded(self, ads_full, queries):
        r = ads_full.exact(queries[0])
        assert 0 < r.visited_records <= N_SERIES


class TestConstructionCost:
    def test_restricted_memory_causes_random_io(self, ids, walk_mat):
        cfg = DiskConfig(block_series=32, memory_series=20, series_bytes=512)
        idx = ISaxIndex(ids, walk_mat, w=W, bits=BITS, leaf_capacity=CAPACITY,
                        materialized=True, disk_config=cfg)
        assert idx.build_disk.random_reads + idx.build_disk.random_writes > 0

    def test_ample_memory_no_random_io(self, ids, walk_mat):
        cfg = DiskConfig(block_series=32, memory_series=10 * N_SERIES, series_bytes=512)
        idx = ISaxIndex(ids, walk_mat, w=W, bits=BITS, leaf_capacity=CAPACITY,
                        materialized=True, disk_config=cfg)
        assert idx.build_disk.random_reads == 0
        assert idx.build_disk.random_writes == 0

    def test_memory_monotone(self, ids, walk_mat):
        secs = []
        for mem in (10 * N_SERIES, N_SERIES // 4, N_SERIES // 20):
            cfg = DiskConfig(block_series=32, memory_series=mem, series_bytes=512)
            idx = ISaxIndex(ids, walk_mat, w=W, bits=BITS, leaf_capacity=CAPACITY,
                            materialized=True, disk_config=cfg)
            secs.append(idx.build_disk.seconds())
        assert secs[0] <= secs[1] <= secs[2]

    def test_slower_than_coconut_at_low_memory(self, ads_full, ctree_full):
        """The paper's headline: top-down insertion loses to bulk loading
        once memory is scarce (fixtures use memory_series=100 << N)."""
        assert ads_full.build_disk.seconds() > ctree_full.build_disk.seconds()


class TestUpdates:
    def test_insert_batch_preserves_exactness(self, disk_cfg):
        from repro.synth_data import query_workload, series_matrix

        mat = series_matrix(n_series=150, length=64, seed=11)
        idx = ISaxIndex(np.arange(150), mat, w=W, bits=BITS, leaf_capacity=CAPACITY,
                        materialized=False, disk_config=disk_cfg)
        mat2 = series_matrix(n_series=50, length=64, seed=11, id_offset=150)
        idx.insert_batch(np.arange(150, 200), mat2)
        full = np.vstack([mat, mat2])
        for q in query_workload(n_queries=3, length=64):
            gid, gd = exact_nn_numpy(np.arange(200), full, q)
            assert idx.exact(q).distance == pytest.approx(gd)

    def test_insert_batch_grows_count(self, disk_cfg):
        from repro.synth_data import series_matrix

        mat = series_matrix(n_series=60, length=64, seed=12)
        idx = ISaxIndex(np.arange(60), mat, w=W, bits=BITS, leaf_capacity=20,
                        materialized=False, disk_config=disk_cfg)
        idx.insert_batch(np.arange(60, 80), series_matrix(n_series=20, length=64, seed=12, id_offset=60))
        assert idx.n_series == 80
        assert sum(len(l.rows) for l in _leaves(idx)) == 80
