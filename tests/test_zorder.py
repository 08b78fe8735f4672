"""Unit tests for the sortable summarization (invSAX / z-order keys)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sax import sax
from repro.core.zorder import deinterleave, first64, interleave, zkeys
from tests.conftest import LENGTH
from tests.ground_truth import KERNEL_GRID, interleave_per_bit, prefix_key, reduce_word


def key_to_int(zkey: bytes) -> int:
    """A z-key as an int, padding bits included."""
    return int.from_bytes(zkey, "big")


class TestInterleave:
    def test_known_small_example(self):
        """w=2, bits=2: symbols (0b10, 0b01) -> bits 1,0 (level 1), 0,1
        (level 0) -> 0b1001 -> padded byte 0b10010000 = 0x90."""
        assert interleave(np.array([[0b10, 0b01]]), 2) == [b"\x90"]

    def test_zero_symbols(self):
        assert interleave(np.array([[0, 0, 0]]), 2) == [b"\x00"]

    def test_all_ones(self):
        """w=4, bits=2: all symbols 0b11 -> all 8 bits set -> 0xff."""
        assert interleave(np.array([[3, 3, 3, 3]]), 2) == [b"\xff"]

    def test_key_width(self):
        keys = interleave(np.array([[1, 2, 3, 4]]), 8)
        assert len(keys[0]) == 4  # 4 segments x 8 bits

    @pytest.mark.parametrize("w, bits", [(3, 3), (9, 1), (16, 8)])
    def test_roundtrip_partial_and_wide_keys(self, w, bits):
        """w*bits = 9 leaves 7 padding bits in a 2-byte key; w*bits = 128
        is wider than the 64 bits the trie splits on."""
        g = np.random.default_rng(w * bits)
        syms = g.integers(0, 1 << bits, (40, w)).astype(np.uint32)
        keys = interleave(syms, bits)
        assert all(len(k) == (w * bits + 7) // 8 for k in keys)
        assert np.array_equal(deinterleave(keys, w, bits), syms)

    @pytest.mark.parametrize("w, bits", KERNEL_GRID)
    def test_equals_per_bit_invertsum(self, w, bits):
        """The broadcast interleave gives the keys the per-bit InvertSum
        loop does, byte for byte; the all-0 and all-1 words included."""
        g = np.random.default_rng(w * 100 + bits)
        syms = g.integers(0, 1 << bits, (200, w)).astype(np.uint32)
        syms[0], syms[1] = 0, (1 << bits) - 1
        assert interleave(syms, bits) == interleave_per_bit(syms, bits)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            interleave(np.array([[4]]), 2)

    @given(
        st.lists(st.integers(0, 255), min_size=8, max_size=8),
        st.lists(st.integers(0, 255), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, a, b):
        syms = np.array([a, b], dtype=np.uint32)
        assert np.array_equal(deinterleave(interleave(syms, 8), 8, 8), syms)

    @given(st.integers(0, 7), st.integers(0, 14))
    @settings(max_examples=40, deadline=None)
    def test_order_preserved_single_segment(self, seg, base):
        """If two words differ only in one segment, the larger symbol
        gives the (weakly) larger z-key."""
        w, bits = 8, 4
        lo = np.full(w, base, dtype=np.uint32)
        hi = lo.copy()
        hi[seg] = base + 1
        k_lo, k_hi = interleave(np.stack([lo, hi]), bits)
        assert k_lo < k_hi

    def test_dominance_order(self):
        """If every segment of a <= every segment of b, key(a) <= key(b)."""
        g = np.random.default_rng(0)
        for _ in range(20):
            a = g.integers(0, 8, 8).astype(np.uint32)
            b = np.minimum(a + g.integers(0, 3, 8), 7).astype(np.uint32)
            ka, kb = interleave(np.stack([a, b]), 3)
            assert ka <= kb

    def test_lexicographic_equals_numeric(self):
        g = np.random.default_rng(1)
        syms = g.integers(0, 256, (50, 8)).astype(np.uint32)
        keys = interleave(syms, 8)
        by_str = sorted(keys)
        by_int = sorted(keys, key=key_to_int)
        assert by_str == by_int


class TestFirst64:
    @pytest.mark.parametrize("w, bits", [(3, 3), (8, 4), (16, 8)])
    def test_top_64_bits(self, w, bits):
        """The first 64 key bits, tail-padded with zeros for keys shorter
        than 8 bytes and truncated for longer ones."""
        g = np.random.default_rng(4)
        keys = interleave(g.integers(0, 1 << bits, (30, w)), bits)
        shift = 8 * len(keys[0]) - 64
        expected = [
            key_to_int(z) >> shift if shift >= 0 else key_to_int(z) << -shift
            for z in keys
        ]
        got = first64(keys)
        assert got.dtype == np.uint64
        assert [int(x) for x in got] == expected


class TestPrefixKey:
    def test_prefix_is_reduced_isax_word(self):
        """The first k*w interleaved bits are the interleaving of the
        resolution-k iSAX word — the Coconut-Trie bridge."""
        g = np.random.default_rng(2)
        w, bits = 4, 4
        syms = g.integers(0, 16, (10, w)).astype(np.uint32)
        keys = interleave(syms, bits)
        for k in range(bits + 1):
            red = reduce_word(syms, bits, k)
            red_keys_int = [
                key_to_int(x) >> (8 * len(x) - k * w)
                for x in (interleave(red, k) if k else [b"\x00"] * 10)
            ] if k else [0] * 10
            for i in range(10):
                assert prefix_key(keys[i], w, bits, k) == red_keys_int[i]

    def test_equal_prefix_iff_same_reduced_word(self):
        g = np.random.default_rng(3)
        w, bits, k = 4, 4, 2
        syms = g.integers(0, 16, (30, w)).astype(np.uint32)
        keys = interleave(syms, bits)
        red = reduce_word(syms, bits, k)
        for i in range(30):
            for j in range(30):
                same_word = np.array_equal(red[i], red[j])
                same_prefix = prefix_key(keys[i], w, bits, k) == prefix_key(
                    keys[j], w, bits, k
                )
                assert same_word == same_prefix

    def test_k_zero_is_zero(self):
        assert prefix_key(b"\xab\xcd", 4, 4, 0) == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            prefix_key(b"\xab\xcd", 4, 4, 5)


class TestSortingSimilarity:
    def test_paper_figure2_problem_fixed(self):
        """The paper's motivating example: sorting by concatenated SAX
        puts S1=ec,S2=ee,S3=fc,S4=ge in the wrong order; z-order keys
        place S1 next to S3 and S2 next to S4."""
        # 3-bit symbols: a..h -> 0..7
        s = {"S1": [4, 2], "S2": [4, 4], "S3": [5, 2], "S4": [6, 4]}
        syms = np.array(list(s.values()), dtype=np.uint32)
        keys = dict(zip(s.keys(), interleave(syms, 3)))
        order = sorted(s, key=lambda k: keys[k])
        i = {name: order.index(name) for name in s}
        assert abs(i["S1"] - i["S3"]) == 1  # most-similar pairs adjacent
        assert abs(i["S2"] - i["S4"]) == 1

    def test_zkeys_from_raw_series(self, walk_mat):
        keys = zkeys(walk_mat[:10], 8, 4)
        assert len(keys) == 10
        assert all(len(k) == 4 for k in keys)  # 8 segments x 4 bits

    def test_sorted_neighbors_share_prefixes(self, walk_mat):
        """On average, z-order neighbors share longer interleaved-bit
        prefixes than random pairs — the locality the index exploits."""
        keys = sorted(zkeys(walk_mat, 8, 4))
        ints = [key_to_int(k) for k in keys]
        total_bits = 8 * len(keys[0])

        def shared(a, b):
            return total_bits - (a ^ b).bit_length() if a != b else total_bits

        neigh = np.mean([shared(ints[i], ints[i + 1]) for i in range(len(ints) - 1)])
        g = np.random.default_rng(0)
        rand = np.mean(
            [shared(ints[i], ints[j]) for i, j in g.integers(0, len(ints), (200, 2))]
        )
        assert neigh > rand


class TestZkeysSpark:
    """The Spark summarization pass emits the numpy keys and words."""

    def _summaries(self, walk_df):
        from repro.core.coconut_tree import summarize_series

        summaries, _ = summarize_series(walk_df, 8, 4, LENGTH, raw=None)
        return summaries.toPandas().sort_values("id")

    def test_matches_numpy(self, spark, walk_df, walk_mat):
        got = self._summaries(walk_df)
        expected = zkeys(walk_mat, 8, 4)
        assert list(got["zkey"]) == expected

    def test_sax_column_matches(self, spark, walk_df, walk_mat):
        got = self._summaries(walk_df)
        expected = sax(walk_mat, 8, 4)
        assert np.array_equal(deinterleave(got["zkey"], 8, 4), expected)
