"""Tests for the Vertical (DHWT stepwise-scan) baseline."""
import numpy as np
import pytest

from repro.baselines.vertical import VerticalIndex, dhwt, level_slices
from repro.core.distance import euclidean
from tests.ground_truth import exact_nn_numpy


class TestDHWT:
    def test_parseval(self):
        g = np.random.default_rng(0)
        x = g.standard_normal((5, 64))
        c = dhwt(x)
        assert np.allclose(np.sum(x**2, axis=1), np.sum(c**2, axis=1))

    def test_distance_preserved(self):
        g = np.random.default_rng(1)
        a, b = g.standard_normal(64), g.standard_normal(64)
        assert euclidean(dhwt(a)[0], dhwt(b)[0]) == pytest.approx(euclidean(a, b))

    def test_first_coefficient_is_scaled_mean(self):
        x = np.random.default_rng(2).standard_normal(16)
        assert dhwt(x)[0][0] == pytest.approx(x.mean() * np.sqrt(16))

    def test_constant_series_only_approx_coeff(self):
        c = dhwt(np.full(8, 2.0))[0]
        assert c[0] == pytest.approx(2.0 * np.sqrt(8))
        assert np.allclose(c[1:], 0)

    def test_non_power_of_two_padded(self):
        x = np.random.default_rng(3).standard_normal(48)
        c = dhwt(x)[0]
        assert len(c) == 64

    def test_prefix_lower_bound_monotone(self):
        """Partial coefficient distances tighten level by level."""
        g = np.random.default_rng(4)
        a, b = g.standard_normal(64), g.standard_normal(64)
        ca, cb = dhwt(a)[0], dhwt(b)[0]
        true = euclidean(a, b)
        prev = 0.0
        for sl in level_slices(64):
            prev += float(np.sum((ca[sl] - cb[sl]) ** 2))
            assert np.sqrt(prev) <= true + 1e-9

    def test_level_slices_cover(self):
        sls = level_slices(64)
        covered = sorted(i for sl in sls for i in range(sl.start, sl.stop))
        assert covered == list(range(64))

    def test_level_sizes_double(self):
        sizes = [sl.stop - sl.start for sl in level_slices(32)]
        assert sizes == [1, 1, 2, 4, 8, 16]


class TestVerticalIndex:
    def test_exact_matches_brute_force(self, vertical, ids, walk_mat, queries):
        for q in queries:
            gid, gd = exact_nn_numpy(ids, walk_mat, q)
            assert vertical.exact(q).distance == pytest.approx(gd)

    def test_approximate_not_below_truth(self, vertical, ids, walk_mat, queries):
        for q in queries:
            gid, gd = exact_nn_numpy(ids, walk_mat, q)
            assert vertical.approximate(q).distance >= gd - 1e-9

    def test_visited_well_below_n(self, vertical, queries):
        r = vertical.exact(queries[0])
        assert r.visited_records < len(vertical.ids) / 2

    def test_build_cost_exceeds_one_pass(self, vertical):
        """Stepwise construction pays one raw pass per level."""
        c = vertical.disk_config
        one_pass = -(-vertical.n // c.block_series)
        assert vertical.build_disk.seq_read_blocks >= one_pass * len(vertical.slices)
