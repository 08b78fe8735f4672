"""Unit + integration tests for the Coconut-Trie bulk loader."""
import numpy as np
import pytest

from repro.core.coconut_common import leaf_of
from repro.core.coconut_trie import MAX_DEPTH, prefix_leaf_starts
from tests.conftest import CAPACITY, N_SERIES, assert_leaves_tile_ranks, read_in_file_order
from tests.ground_truth import prefix_key


def _per_root_starts(keys64, *, start_depth, capacity, max_depth=MAX_DEPTH):
    """Reference split: each run of keys with equal first ``start_depth``
    bits (one root subtree) is split on its own, the next interleaved bit
    at a time, until a group fits ``capacity`` or ``max_depth`` is
    reached; returns the index of every leaf's first key."""
    max_depth = min(max_depth, MAX_DEPTH)
    keys = [int(k) for k in keys64]
    roots = [k >> (64 - start_depth) for k in keys]
    starts = []
    for r0 in [i for i in range(len(keys)) if i == 0 or roots[i] != roots[i - 1]]:
        r1 = r0
        while r1 < len(keys) and roots[r1] == roots[r0]:
            r1 += 1
        stack = [(r0, r1, start_depth, roots[r0])]
        while stack:
            lo, hi, depth, prefix = stack.pop()
            if hi - lo <= capacity or depth >= max_depth:
                starts.append(lo)
                continue
            boundary = (2 * prefix + 1) << (64 - depth - 1)
            split = next((i for i in range(lo, hi) if keys[i] >= boundary), hi)
            if split > lo:
                stack.append((lo, split, depth + 1, 2 * prefix))
            if split < hi:
                stack.append((split, hi, depth + 1, 2 * prefix + 1))
    return sorted(starts)


def _node_depth(keys64, lo, hi, start_depth):
    """Depth of the shallowest trie node at or below ``start_depth`` whose
    keys are exactly ``keys64[lo:hi]`` (``None`` if there is none)."""
    keys = [int(k) for k in keys64]
    for d in range(start_depth, 65):
        p = keys[lo] >> (64 - d)
        if (keys[hi - 1] >> (64 - d) == p
                and (lo == 0 or keys[lo - 1] >> (64 - d) != p)
                and (hi == len(keys) or keys[hi] >> (64 - d) != p)):
            return d
    return None


def _leaf_ranges(starts, n):
    return list(zip(starts, [*starts[1:], n]))


def _random_keys(seed, n):
    g = np.random.default_rng(seed)
    return np.sort(g.integers(0, 2**63, n).astype(np.uint64))


class TestAssignPrefixLeaves:
    """:func:`prefix_leaf_starts`: one split over the whole sorted array."""

    def test_small_group_single_leaf(self):
        keys = np.array([1, 2, 3], dtype=np.uint64)
        assert list(prefix_leaf_starts(keys, start_depth=0, capacity=10)) == [0]

    def test_split_on_top_bit(self):
        lo = np.arange(5, dtype=np.uint64)
        hi = lo + (np.uint64(1) << np.uint64(63))
        keys = np.concatenate([lo, hi])
        starts = prefix_leaf_starts(keys, start_depth=0, capacity=5)
        assert list(starts) == [0, 5]
        assert [_node_depth(keys, a, b, 0) for a, b in _leaf_ranges(starts, 10)] == [1, 1]

    def test_capacity_respected(self):
        keys = _random_keys(0, 500)
        starts = prefix_leaf_starts(keys, start_depth=0, capacity=40)
        assert np.diff([*starts, len(keys)]).max() <= 40

    def test_leaves_contiguous_in_sorted_order(self):
        """The leaves tile the sorted array: the first starts at 0 and
        each starts after the one before."""
        keys = _random_keys(1, 300)
        starts = prefix_leaf_starts(keys, start_depth=0, capacity=20)
        assert starts[0] == 0
        assert (np.diff(starts) > 0).all() and starts[-1] < len(keys)

    def test_prefix_property(self):
        """Every leaf holds exactly the keys of one (depth, prefix) trie
        node at or below ``start_depth``."""
        keys = _random_keys(2, 200)
        for start_depth in (0, 3):
            starts = prefix_leaf_starts(keys, start_depth=start_depth, capacity=15)
            for lo, hi in _leaf_ranges(starts, len(keys)):
                assert _node_depth(keys, lo, hi, start_depth) is not None

    def test_identical_keys_oversized_leaf(self):
        keys = np.zeros(100, dtype=np.uint64)
        starts = prefix_leaf_starts(keys, start_depth=0, capacity=10)
        assert list(starts) == [0]  # cannot split identical keys

    def test_minimal_depth(self):
        """No leaf could be merged into its parent node and still fit —
        the CompactSubtree fixpoint: each parent holds more than
        ``capacity`` keys."""
        keys = _random_keys(3, 400)
        capacity = 30
        starts = prefix_leaf_starts(keys, start_depth=0, capacity=capacity)
        as_int = [int(k) for k in keys]
        for lo, hi in _leaf_ranges(starts, len(keys)):
            d = _node_depth(keys, lo, hi, 0)
            if d > 0:
                parent = as_int[lo] >> (64 - d + 1)
                assert sum(k >> (64 - d + 1) == parent for k in as_int) > capacity

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("start_depth,capacity,max_depth", [
        (8, 10, 32), (8, 25, 62), (3, 7, 12), (1, 40, 20),
    ])
    def test_matches_per_root_reference(self, seed, start_depth, capacity, max_depth):
        """Whole-array split == each root subtree split on its own, on
        keys with runs of identical and of near-identical keys."""
        g = np.random.default_rng(seed)
        base = g.integers(0, 2**64, 300, dtype=np.uint64)
        near = base[:10, None] ^ g.integers(0, 2**24, (10, 30), dtype=np.uint64)
        dups = np.repeat(base[10:15], g.integers(2, 3 * capacity, 5))
        keys = np.sort(np.concatenate([base, near.ravel(), dups]))
        got = prefix_leaf_starts(
            keys, start_depth=start_depth, capacity=capacity, max_depth=max_depth
        )
        assert list(got) == _per_root_starts(
            keys, start_depth=start_depth, capacity=capacity, max_depth=max_depth
        )


class TestTrieIndex:
    def test_all_series_indexed(self, ctrie):
        assert ctrie.n_series == N_SERIES

    def test_sparser_than_tree(self, ctrie, ctree):
        """Prefix splits cannot pack across prefix boundaries: the trie
        has more leaves and lower fill (paper: ~10% vs ~97%)."""
        assert ctrie.n_leaves > ctree.n_leaves
        assert ctrie.fill_factor < ctree.fill_factor

    def test_leaf_members_share_prefix(self, ctrie):
        """A leaf is a trie node: no key in any other leaf shares the
        longest common prefix of its members."""
        pdf = read_in_file_order(f"{ctrie.path}/leaves", ["zkey"])
        total_bits = 8 * len(pdf["zkey"].iloc[0])
        keys = [int.from_bytes(z, "big") for z in pdf["zkey"]]
        leaf = leaf_of(ctrie.directory["leaf_id"].to_numpy(), pdf["rank"].to_numpy()).tolist()
        for lid in set(leaf):
            members = [k for k, l in zip(keys, leaf) if l == lid]
            shift = max((members[0] ^ k).bit_length() for k in members)
            prefix = members[0] >> shift  # the first total_bits - shift bits
            assert total_bits - shift >= ctrie.w  # at least the root level
            assert all(k >> shift != prefix for k, l in zip(keys, leaf) if l != lid)

    def test_leaves_contiguous_ranges(self, ctrie):
        assert_leaves_tile_ranks(ctrie.directory, N_SERIES)

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

    def test_trie_leaves_map_to_isax_nodes(self, ctrie):
        """Each leaf's (depth,prefix) is an iSAX node: members agree on
        prefix_key at every whole-symbol-resolution up to the leaf depth."""
        pdf = read_in_file_order(f"{ctrie.path}/leaves", ["zkey"])
        pdf["leaf"] = leaf_of(ctrie.directory["leaf_id"].to_numpy(), pdf["rank"].to_numpy())
        w, bits = ctrie.w, ctrie.bits
        for lid, grp in pdf.groupby("leaf"):
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

    def test_ranks_contiguous_within_leaf(self, wide):
        idx, _ = wide
        assert_leaves_tile_ranks(idx.directory, self.N)

    def test_exact_equals_brute_force(self, wide, queries):
        from tests.ground_truth import exact_nn_numpy
        from repro.core.query import exact_search

        idx, mat = wide
        for q in queries:
            _, gd = exact_nn_numpy(np.arange(self.N), mat, q)
            assert exact_search(idx, q).distance == pytest.approx(gd)
