"""Unit + integration tests for the Coconut-Trie bulk loader."""
import numpy as np
import pytest

from repro.core.coconut_trie import MAX_DEPTH, assign_prefix_leaves
from repro.core.zorder import prefix_key
from tests.conftest import CAPACITY, N_SERIES


class TestAssignPrefixLeaves:
    def test_small_group_single_leaf(self):
        keys = np.array([1, 2, 3], dtype=np.uint64)
        labels = assign_prefix_leaves(keys, start_depth=0, capacity=10)
        assert len(set(labels)) == 1

    def test_split_on_top_bit(self):
        lo = np.arange(5, dtype=np.uint64)
        hi = lo + (np.uint64(1) << np.uint64(63))
        keys = np.concatenate([lo, hi])
        labels = assign_prefix_leaves(keys, start_depth=0, capacity=5)
        assert len(set(labels)) == 2
        assert labels[0] == (1, 0) and labels[-1] == (1, 1)

    def test_capacity_respected(self):
        g = np.random.default_rng(0)
        keys = np.sort(g.integers(0, 2**63, 500).astype(np.uint64))
        labels = assign_prefix_leaves(keys, start_depth=0, capacity=40)
        from collections import Counter

        for (d, p), cnt in Counter(labels).items():
            if d < MAX_DEPTH:
                assert cnt <= 40

    def test_leaves_contiguous_in_sorted_order(self):
        g = np.random.default_rng(1)
        keys = np.sort(g.integers(0, 2**63, 300).astype(np.uint64))
        labels = assign_prefix_leaves(keys, start_depth=0, capacity=20)
        seen = set()
        prev = None
        for lab in labels:
            if lab != prev:
                assert lab not in seen  # each label is one contiguous run
                seen.add(lab)
                prev = lab

    def test_prefix_property(self):
        """Every key in a (depth, prefix) leaf has that bit-prefix."""
        g = np.random.default_rng(2)
        keys = np.sort(g.integers(0, 2**63, 200).astype(np.uint64))
        labels = assign_prefix_leaves(keys, start_depth=0, capacity=15)
        for key, (d, p) in zip(keys, labels):
            if d > 0:
                assert int(key) >> (64 - d) == p

    def test_identical_keys_oversized_leaf(self):
        keys = np.zeros(100, dtype=np.uint64)
        labels = assign_prefix_leaves(keys, start_depth=0, capacity=10)
        assert len(set(labels)) == 1  # cannot split identical keys

    def test_minimal_depth(self):
        """No two sibling leaves could be merged and still fit — the
        CompactSubtree fixpoint."""
        g = np.random.default_rng(3)
        keys = np.sort(g.integers(0, 2**63, 400).astype(np.uint64))
        capacity = 30
        labels = assign_prefix_leaves(keys, start_depth=0, capacity=capacity)
        from collections import Counter

        counts = Counter(labels)
        for (d, p), cnt in counts.items():
            if d == 0:
                continue
            sib = (d, p ^ 1)
            if sib in counts:
                assert cnt + counts[sib] > capacity


class TestTrieIndex:
    def test_all_series_indexed(self, ctrie):
        assert ctrie.n_series == N_SERIES

    def test_sparser_than_tree(self, ctrie, ctree):
        """Prefix splits cannot pack across prefix boundaries: the trie
        has more leaves and lower fill (paper: ~10% vs ~97%)."""
        assert ctrie.n_leaves > ctree.n_leaves
        assert ctrie.fill_factor < ctree.fill_factor

    def test_leaf_members_share_prefix(self, spark, ctrie):
        """A leaf is a trie node: no key in any other leaf shares the
        longest common prefix of its members."""
        pdf = spark.read.parquet(f"{ctrie.path}/leaves").select("leaf_id", "zkey").toPandas()
        total_bits = 8 * len(pdf["zkey"].iloc[0])
        keys = [int.from_bytes(z, "big") for z in pdf["zkey"]]
        leaf = pdf["leaf_id"].to_list()
        for lid in set(leaf):
            members = [k for k, l in zip(keys, leaf) if l == lid]
            shift = max((members[0] ^ k).bit_length() for k in members)
            prefix = members[0] >> shift  # the first total_bits - shift bits
            assert total_bits - shift >= ctrie.w  # at least the root level
            assert all(k >> shift != prefix for k, l in zip(keys, leaf) if l != lid)

    def test_leaves_contiguous_ranges(self, spark, ctrie):
        pdf = spark.read.parquet(f"{ctrie.path}/leaves").select("leaf_id", "rank").toPandas()
        for lid, grp in pdf.groupby("leaf_id"):
            r = sorted(grp["rank"])
            assert r == list(range(r[0], r[0] + len(r)))

    def test_key_ranges_disjoint(self, ctrie):
        d = ctrie.directory
        for i in range(len(d) - 1):
            assert d.iloc[i]["max_zkey"] <= d.iloc[i + 1]["min_zkey"]

    def test_capacity_respected(self, ctrie):
        assert ctrie.directory["count"].max() <= CAPACITY

    def test_counts_sum(self, ctrie):
        assert ctrie.directory["count"].sum() == N_SERIES

    def test_no_random_io_secondary_build(self, ctrie):
        assert ctrie.build_disk.random_reads == 0

    def test_materialized_trie_costs_more(self, ctrie, ctrie_full):
        assert ctrie_full.build_disk.seconds() > ctrie.build_disk.seconds()

    def test_build_slower_than_tree(self, ctrie, ctree):
        """Compaction makes CTrie construction slower than CTree (§5.1)."""
        assert ctrie.build_disk.seconds() > ctree.build_disk.seconds()

    def test_trie_leaves_map_to_isax_nodes(self, spark, ctrie):
        """Each leaf's (depth,prefix) is an iSAX node: members agree on
        prefix_key at every whole-symbol-resolution up to the leaf depth."""
        pdf = spark.read.parquet(f"{ctrie.path}/leaves").select("leaf_id", "zkey").toPandas()
        w, bits = ctrie.w, ctrie.bits
        for lid, grp in pdf.groupby("leaf_id"):
            zk = list(grp["zkey"])
            if len(zk) < 2:
                continue
            assert prefix_key(zk[0], w, bits, 1) == prefix_key(zk[-1], w, bits, 1)


class TestEdgeInputs:
    def test_empty_input_raises(self, spark, tmp_path):
        from repro.core.coconut_trie import build_coconut_trie

        empty = spark.createDataFrame([], "id long, series array<double>")
        with pytest.raises(ValueError, match="empty"):
            build_coconut_trie(spark, empty, path=str(tmp_path / "empty"))

    def test_w_not_dividing_length_raises(self, spark, walk_df, tmp_path):
        """Caught on the driver, before the sort job or any file write."""
        from repro.core.coconut_trie import build_coconut_trie

        with pytest.raises(ValueError, match="must divide"):
            build_coconut_trie(spark, walk_df, path=str(tmp_path / "w7"), w=7)
        assert not (tmp_path / "w7").exists()


class TestWideKeys:
    """``w*bits = 128 > 64``: leaves are split on the first 64 key bits
    only, and a group of identical keys stops at ``MAX_DEPTH`` as one
    oversized leaf."""

    N, DUPS, CAP = 300, 20, 10

    @pytest.fixture(scope="class")
    def wide(self, spark, tmp_path_factory):
        import pandas as pd

        from repro.core.coconut_trie import build_coconut_trie
        from repro.synth_data import series_matrix

        mat = series_matrix(n_series=self.N - self.DUPS, length=64, kind="walk", seed=7)
        mat = np.vstack([mat, np.repeat(mat[:1], self.DUPS, axis=0)])
        df = spark.createDataFrame(
            pd.DataFrame({"id": np.arange(self.N), "series": list(mat)}),
            "id long, series array<double>",
        )
        idx = build_coconut_trie(
            spark, df, path=str(tmp_path_factory.mktemp("wide")), w=16, bits=8,
            leaf_capacity=self.CAP,
        )
        yield idx, mat
        idx.close()

    def test_counts_sum_to_n(self, wide):
        idx, _ = wide
        assert idx.directory["count"].sum() == self.N
        # The DUPS+1 identical keys cannot be split: MAX_DEPTH was reached.
        assert idx.directory["count"].max() == self.DUPS + 1

    def test_ranks_contiguous_within_leaf(self, spark, wide):
        idx, _ = wide
        pdf = spark.read.parquet(f"{idx.path}/leaves").select("leaf_id", "rank").toPandas()
        for _, grp in pdf.groupby("leaf_id"):
            r = sorted(grp["rank"])
            assert r == list(range(r[0], r[0] + len(r)))

    def test_exact_equals_brute_force(self, wide, queries):
        from repro.baselines.brute_force import exact_nn_numpy
        from repro.core.query import exact_search

        idx, mat = wide
        for q in queries:
            _, gd = exact_nn_numpy(np.arange(self.N), mat, q)
            assert exact_search(idx, q).distance == pytest.approx(gd)
