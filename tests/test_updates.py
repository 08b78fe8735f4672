"""Tests for Coconut-Tree bulk updates (merge_batch, Fig 10a substrate)."""
import numpy as np
import pytest

from repro.baselines.brute_force import exact_nn_numpy
from repro.core.coconut_tree import build_coconut_tree, merge_batch
from repro.core.query import exact_search
from repro.storage.disk_model import DiskConfig
from repro.synth_data import query_workload, series_collection, series_matrix
from tests.conftest import read_in_file_order


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
