"""Unit tests for SAX / iSAX symbols and breakpoints."""
import numpy as np
import pytest
from statistics import NormalDist

from repro.core.sax import (
    breakpoints,
    region_edges,
    sax,
    symbols_from_paa,
)
from tests.ground_truth import reduce_word


class TestBreakpoints:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
    def test_count(self, bits):
        assert len(breakpoints(bits)) == (1 << bits) - 1

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
    def test_monotone(self, bits):
        bp = breakpoints(bits)
        assert np.all(np.diff(bp) > 0)

    def test_symmetric_around_zero(self):
        bp = breakpoints(3)
        assert np.allclose(bp, -bp[::-1])

    def test_equal_mass_regions(self):
        """Each region holds 1/2^bits of the standard normal mass."""
        bp = breakpoints(2)
        cdf = [NormalDist().cdf(b) for b in bp]
        assert np.allclose(cdf, [0.25, 0.5, 0.75])

    def test_bits1_is_zero(self):
        assert breakpoints(1)[0] == pytest.approx(0.0)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            breakpoints(0)
        with pytest.raises(ValueError):
            breakpoints(17)


class TestSymbols:
    def test_monotone_in_value(self):
        vals = np.linspace(-3, 3, 100)
        syms = symbols_from_paa(vals, 3)
        assert np.all(np.diff(syms.astype(int)) >= 0)

    def test_range(self):
        syms = symbols_from_paa(np.linspace(-10, 10, 1000), 4)
        assert syms.min() == 0 and syms.max() == 15

    def test_zero_maps_to_upper_middle(self):
        """0.0 sits exactly on the middle breakpoint -> upper half."""
        assert symbols_from_paa(np.array([0.0]), 2)[0] == 2

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_extremes(self, bits):
        assert symbols_from_paa(np.array([-100.0]), bits)[0] == 0
        assert symbols_from_paa(np.array([100.0]), bits)[0] == (1 << bits) - 1

    def test_sax_shape(self):
        x = np.random.default_rng(0).standard_normal((6, 32))
        assert sax(x, 8, 4).shape == (6, 8)

    def test_roughly_uniform_on_znormal_data(self, walk_mat):
        """Gaussian breakpoints should spread z-normalized PAA values
        across symbols without extreme concentration."""
        syms = sax(walk_mat, 8, 2).ravel()
        counts = np.bincount(syms, minlength=4) / len(syms)
        assert counts.max() < 0.6


class TestRegionEdges:
    def test_value_inside_own_region(self):
        vals = np.linspace(-3, 3, 50)
        syms = symbols_from_paa(vals, 3)
        lo, hi = region_edges(syms, 3)
        assert np.all(vals >= lo) and np.all(vals <= hi)

    def test_outer_regions_unbounded(self):
        lo, hi = region_edges(np.array([0, 7]), 3)
        assert lo[0] == -np.inf and hi[1] == np.inf

    def test_regions_tile_the_line(self):
        syms = np.arange(8)
        lo, hi = region_edges(syms, 3)
        assert np.allclose(hi[:-1], lo[1:])


class TestReduceWord:
    def test_identity(self):
        s = np.array([5, 3, 7])
        assert np.array_equal(reduce_word(s, 3, 3), s)

    def test_to_zero_bits(self):
        assert np.all(reduce_word(np.array([5, 3]), 3, 0) == 0)

    def test_drops_low_bits(self):
        assert reduce_word(np.array([0b1101]), 4, 2)[0] == 0b11

    def test_nested_prefixes(self):
        """Reducing in two steps equals reducing in one."""
        s = np.array([13, 2, 9])
        assert np.array_equal(
            reduce_word(reduce_word(s, 4, 3), 3, 1), reduce_word(s, 4, 1)
        )

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            reduce_word(np.array([1]), 3, 4)

    def test_preserves_order_of_regions(self):
        """Reduced symbols remain monotone in the original value."""
        vals = np.linspace(-3, 3, 200)
        syms = symbols_from_paa(vals, 4)
        red = reduce_word(syms, 4, 2)
        assert np.all(np.diff(red.astype(int)) >= 0)
