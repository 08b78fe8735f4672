"""Unit tests for the SAX lower-bounding distance."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import euclidean
from repro.core.mindist import mindist_paa_sax
from repro.core.paa import paa
from repro.core.sax import breakpoints, sax
from tests.ground_truth import KERNEL_GRID, mindist_elementwise


def _series(seed, n=64):
    g = np.random.default_rng(seed)
    x = np.cumsum(g.standard_normal(n))
    return (x - x.mean()) / max(x.std(), 1e-12)


class TestMindistPaaSax:
    @pytest.mark.parametrize("seed", range(10))
    def test_lower_bounds_true_distance(self, seed):
        a, b = _series(seed), _series(seed + 100)
        md = mindist_paa_sax(paa(a, 8), sax(b, 8, 4), 64, 4)
        assert md <= euclidean(a, b) + 1e-9

    def test_zero_when_same_region(self):
        a = _series(1)
        md = mindist_paa_sax(paa(a, 8), sax(a, 8, 4), 64, 4)
        assert md == 0.0

    def test_batch_shape(self):
        a = _series(2)
        cands = np.stack([sax(_series(i), 8, 4) for i in range(5)])
        md = mindist_paa_sax(paa(a, 8), cands, 64, 4)
        assert md.shape == (5,)

    def test_batch_matches_single(self):
        a = _series(3)
        cands = np.stack([sax(_series(i + 50), 8, 4) for i in range(4)])
        md = mindist_paa_sax(paa(a, 8), cands, 64, 4)
        for i in range(4):
            assert md[i] == pytest.approx(
                float(mindist_paa_sax(paa(a, 8), cands[i], 64, 4))
            )

    def test_higher_cardinality_tightens(self):
        """More bits -> smaller regions -> larger (tighter) lower bound."""
        a, b = _series(4), _series(104)
        md2 = mindist_paa_sax(paa(a, 8), sax(b, 8, 2), 64, 2)
        md4 = mindist_paa_sax(paa(a, 8), sax(b, 8, 4), 64, 4)
        assert md4 >= md2 - 1e-12

    def test_scaling_with_length(self):
        """The sqrt(n/w) factor: doubling n at the same symbols scales
        the bound by sqrt(2)."""
        a, b = _series(5), _series(105)
        qp, cs = paa(a, 8), sax(b, 8, 4)
        m64 = mindist_paa_sax(qp, cs, 64, 4)
        m128 = mindist_paa_sax(qp, cs, 128, 4)
        assert m128 == pytest.approx(m64 * np.sqrt(2))

    def test_segment_mismatch_raises(self):
        with pytest.raises(ValueError, match="segment mismatch"):
            mindist_paa_sax(np.zeros(8), np.zeros(4, dtype=int), 64, 4)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_property_hypothesis(self, s1, s2):
        a, b = _series(s1), _series(s2)
        md = mindist_paa_sax(paa(a, 8), sax(b, 8, 4), 64, 4)
        assert md <= euclidean(a, b) + 1e-9


class TestTableEqualsElementwise:
    """The per-query gap table gives the bounds the elementwise formula
    does, bit for bit, whatever the candidates' shape and wherever the
    query falls."""

    @pytest.mark.parametrize("w, bits", KERNEL_GRID)
    def test_2d_candidates(self, w, bits):
        g = np.random.default_rng(w * 100 + bits)
        cands = g.integers(0, 1 << bits, (300, w))
        for q in (g.standard_normal(w), 3 * g.standard_normal(w)):
            got = mindist_paa_sax(q, cands, 16 * w, bits)
            assert np.array_equal(got, mindist_elementwise(q, cands, 16 * w, bits))

    @pytest.mark.parametrize("w, bits", KERNEL_GRID)
    def test_1d_candidate(self, w, bits):
        g = np.random.default_rng(w * 100 + bits + 1)
        q, cand = g.standard_normal(w), g.integers(0, 1 << bits, w)
        got = mindist_paa_sax(q, cand, 16 * w, bits)
        assert np.ndim(got) == 0
        assert got == mindist_elementwise(q, cand, 16 * w, bits)

    @pytest.mark.parametrize("w, bits", KERNEL_GRID)
    def test_query_outside_outer_breakpoints(self, w, bits):
        """Queries below the lowest and above the highest breakpoint, and
        on a breakpoint, against every symbol."""
        bp = breakpoints(bits)
        cands = np.tile(np.arange(1 << bits)[:, None], (1, w))
        for q in (np.full(w, bp[0] - 2.5), np.full(w, bp[-1] + 2.5), np.full(w, bp[0])):
            got = mindist_paa_sax(q, cands, 16 * w, bits)
            assert np.array_equal(got, mindist_elementwise(q, cands, 16 * w, bits))
