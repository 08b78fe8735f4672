"""Tests for the simplified DSTree baseline."""
import numpy as np
import pytest

from repro.baselines.dstree import DSTreeIndex
from repro.storage.disk_model import DiskConfig
from tests.conftest import CAPACITY, N_SERIES, W
from tests.ground_truth import exact_nn_numpy


class TestStructure:
    def test_all_series_present(self, dstree):
        assert sum(len(l.rows) for l in dstree._leaves()) == N_SERIES

    def test_split_invariant(self, dstree):
        """Members of a left subtree are <= the split value on the split
        segment; right subtree members are above it."""

        def check(node):
            if node.is_leaf:
                return
            for r in _subtree_rows(node.left):
                assert dstree.paa[r, node.split_seg] <= node.split_val + 1e-12
            for r in _subtree_rows(node.right):
                assert dstree.paa[r, node.split_seg] > node.split_val - 1e-12
            check(node.left)
            check(node.right)

        def _subtree_rows(node):
            if node.is_leaf:
                return list(node.rows)
            return _subtree_rows(node.left) + _subtree_rows(node.right)

        check(dstree.root)

    def test_median_splits_balanced(self, dstree):
        """Median-threshold splits keep the tree reasonably balanced."""
        sizes = [len(l.rows) for l in dstree._leaves()]
        assert max(sizes) <= CAPACITY

    def test_exact_matches_brute_force(self, dstree, ids, walk_mat, queries):
        for q in queries:
            gid, gd = exact_nn_numpy(ids, walk_mat, q)
            assert dstree.exact(q).distance == pytest.approx(gd)

    def test_approximate_is_member_distance(self, dstree, walk_mat, queries):
        from repro.core.distance import euclidean

        r = dstree.approximate(queries[0])
        assert r.distance == pytest.approx(euclidean(walk_mat[r.id], queries[0]))


class TestCost:
    def test_splits_reread_raw_data(self, ids, walk_mat):
        """The >24h driver: every split pays a direct random re-read of
        the node's series, even with ample memory."""
        cfg = DiskConfig(block_series=32, memory_series=10 * N_SERIES, series_bytes=512)
        idx = DSTreeIndex(ids, walk_mat, w=W, leaf_capacity=CAPACITY, disk_config=cfg)
        assert idx.build_disk.random_reads > 0

    def test_slowest_materialized_builder(self, dstree, ctree_full, rtree):
        assert dstree.build_disk.seconds() > ctree_full.build_disk.seconds()

    def test_memory_monotone(self, ids, walk_mat):
        secs = []
        for mem in (10 * N_SERIES, N_SERIES // 10):
            cfg = DiskConfig(block_series=32, memory_series=mem, series_bytes=512)
            idx = DSTreeIndex(ids, walk_mat, w=W, leaf_capacity=CAPACITY, disk_config=cfg)
            secs.append(idx.build_disk.seconds())
        assert secs[0] <= secs[1]
