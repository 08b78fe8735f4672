"""Tests for the STR-bulk-loaded R-tree baseline."""
import numpy as np
import pytest

from repro.baselines.common import paa_box_mindist
from repro.baselines.rtree import RTreeIndex, str_pack
from repro.core.paa import paa
from repro.storage.disk_model import DiskConfig
from tests.conftest import CAPACITY, LENGTH, N_SERIES, W
from tests.ground_truth import exact_nn_numpy


class TestStrPack:
    def test_partition_of_rows(self):
        pts = np.random.default_rng(0).random((200, 4))
        leaves = str_pack(pts, 30)
        all_rows = np.sort(np.concatenate(leaves))
        assert np.array_equal(all_rows, np.arange(200))

    def test_capacity(self):
        pts = np.random.default_rng(1).random((500, 3))
        for leaf in str_pack(pts, 40):
            assert len(leaf) <= 40

    def test_single_leaf_when_small(self):
        pts = np.random.default_rng(2).random((10, 4))
        assert len(str_pack(pts, 50)) == 1

    def test_tiling_reduces_overlap(self):
        """STR leaves should overlap far less than random grouping."""
        g = np.random.default_rng(3)
        pts = g.random((400, 2))

        def total_area(leaves):
            return sum(
                np.prod(pts[l].max(0) - pts[l].min(0)) for l in leaves if len(l) > 1
            )

        str_leaves = str_pack(pts, 40)
        rand_rows = np.arange(400)
        g.shuffle(rand_rows)
        rand_leaves = [rand_rows[i : i + 40] for i in range(0, 400, 40)]
        assert total_area(str_leaves) < total_area(rand_leaves)

    def test_1d_packs_in_order(self):
        pts = np.sort(np.random.default_rng(4).random(100))[:, None]
        leaves = str_pack(pts, 10)
        firsts = [pts[l].min() for l in leaves]
        assert firsts == sorted(firsts)


class TestRTreeIndex:
    def test_mbrs_contain_members(self, rtree):
        for k, rows in enumerate(rtree.leaves):
            p = rtree.paa[rows]
            assert np.all(p >= rtree.mbr_lo[k] - 1e-12)
            assert np.all(p <= rtree.mbr_hi[k] + 1e-12)

    def test_high_fill(self, rtree):
        """STR packs leaves full (it is also a bulk loader)."""
        assert rtree.fill_factor > 0.7

    @pytest.mark.parametrize("materialized", [True, False])
    def test_exact_matches_brute_force(self, ids, walk_mat, queries, disk_cfg, materialized):
        idx = RTreeIndex(ids, walk_mat, w=W, leaf_capacity=CAPACITY,
                         materialized=materialized, disk_config=disk_cfg)
        for q in queries:
            gid, gd = exact_nn_numpy(ids, walk_mat, q)
            assert idx.exact(q).distance == pytest.approx(gd)

    def test_mbr_mindist_lower_bounds(self, rtree, walk_mat, queries):
        q = queries[0]
        md = paa_box_mindist(paa(q, W), rtree.mbr_lo, rtree.mbr_hi, LENGTH)
        from repro.core.distance import euclidean

        for k, rows in enumerate(rtree.leaves):
            true_min = euclidean(walk_mat[rows], q).min()
            assert md[k] <= true_min + 1e-9

    def test_build_cost_scales_with_dimensions(self, ids, walk_mat):
        cfg = DiskConfig(block_series=32, memory_series=20, series_bytes=512)
        i8 = RTreeIndex(ids, walk_mat, w=8, leaf_capacity=CAPACITY,
                        materialized=True, disk_config=cfg)
        i4 = RTreeIndex(ids, walk_mat[:, :32], w=4, leaf_capacity=CAPACITY,
                        materialized=True, disk_config=cfg)
        assert i8.build_disk.seconds() > i4.build_disk.seconds()

    def test_slower_to_build_than_ctree(self, rtree, ctree_full):
        """O(N·D) sorts vs Coconut's one sort (§5.1)."""
        assert rtree.build_disk.seconds() > ctree_full.build_disk.seconds()

    def test_approximate_returns_member(self, rtree, walk_mat, queries):
        from repro.core.distance import euclidean

        r = rtree.approximate(queries[0])
        assert r.distance == pytest.approx(euclidean(walk_mat[r.id], queries[0]))
