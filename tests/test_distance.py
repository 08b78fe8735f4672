"""Unit tests for z-normalization and Euclidean distance."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import euclidean, znormalize
from tests.ground_truth import assert_equivalent, distances_to_query, squared_euclidean


class TestZNormalize:
    def test_zero_mean(self):
        x = np.random.default_rng(0).random(64) * 10 + 3
        z = znormalize(x)
        assert abs(z.mean()) < 1e-10

    def test_unit_std(self):
        x = np.random.default_rng(1).random(64) * 10
        z = znormalize(x)
        assert abs(z.std() - 1.0) < 1e-10

    def test_constant_series_maps_to_zeros(self):
        z = znormalize(np.full(32, 7.0))
        assert np.all(z == 0.0)

    def test_batch_axis(self):
        x = np.random.default_rng(2).random((5, 16))
        z = znormalize(x)
        assert z.shape == (5, 16)
        assert np.allclose(z.mean(axis=1), 0, atol=1e-10)
        assert np.allclose(z.std(axis=1), 1, atol=1e-10)

    def test_translation_invariant(self):
        x = np.random.default_rng(3).random(32)
        assert np.allclose(znormalize(x), znormalize(x + 100))

    def test_scale_invariant(self):
        x = np.random.default_rng(4).random(32)
        assert np.allclose(znormalize(x), znormalize(x * 42))


class TestEuclidean:
    def test_zero_for_identical(self):
        x = np.random.default_rng(0).random(16)
        assert euclidean(x, x) == 0.0

    def test_known_value(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_symmetry(self):
        g = np.random.default_rng(1)
        a, b = g.random(16), g.random(16)
        assert euclidean(a, b) == pytest.approx(euclidean(b, a))

    def test_matrix_vs_vector(self):
        g = np.random.default_rng(2)
        m, q = g.random((10, 8)), g.random(8)
        d = euclidean(m, q)
        assert d.shape == (10,)
        for i in range(10):
            assert d[i] == pytest.approx(euclidean(m[i], q))

    def test_squared_consistent(self):
        g = np.random.default_rng(3)
        a, b = g.random(8), g.random(8)
        assert squared_euclidean(a, b) == pytest.approx(euclidean(a, b) ** 2)

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4),
           st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b):
        a, b = np.array(a), np.array(b)
        z = np.zeros(4)
        assert euclidean(a, b) <= euclidean(a, z) + euclidean(z, b) + 1e-9

    def test_matches_numpy_linalg(self):
        g = np.random.default_rng(4)
        a, b = g.random(64), g.random(64)
        assert euclidean(a, b) == pytest.approx(np.linalg.norm(a - b))


class TestSparkDistances:
    def test_matches_numpy(self, spark, walk_df, walk_mat, queries):
        q = queries[0]
        got = distances_to_query(walk_df, q).toPandas().sort_values("id")
        expected = euclidean(walk_mat, q)
        assert np.allclose(got["dist"].to_numpy(), expected)

    def test_min_dist_oracle(self, spark, walk_df, walk_mat, queries):
        """The global min distance agrees with a DuckDB SQL formulation
        over unpivoted (id, pos, value) rows."""
        from tests.ground_truth import unpivot_series

        q = queries[0]
        long = unpivot_series(np.arange(len(walk_mat)), walk_mat)
        import pandas as pd

        qdf = pd.DataFrame({"pos": np.arange(len(q)), "qv": q})
        got = (
            distances_to_query(walk_df, q)
            .groupBy()
            .agg({"dist": "min"})
            .withColumnRenamed("min(dist)", "min_dist")
        )
        assert_equivalent(
            got,
            """
            SELECT min(dist) AS min_dist FROM (
              SELECT s.id, sqrt(sum((s.value - q.qv)^2)) AS dist
              FROM long s JOIN qdf q ON s.pos = q.pos GROUP BY s.id)
            """,
            long=long,
            qdf=qdf,
        )
