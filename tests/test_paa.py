"""Unit tests for PAA."""
import numpy as np
import pandas as pd
import pytest

from repro.core.paa import paa
from tests.ground_truth import assert_equivalent


class TestPaaNumpy:
    def test_constant_series(self):
        assert np.allclose(paa(np.full(16, 3.0), 4), np.full(4, 3.0))

    def test_known_values(self):
        x = np.array([1.0, 3.0, 5.0, 7.0])
        assert np.allclose(paa(x, 2), [2.0, 6.0])

    def test_identity_when_w_equals_n(self):
        x = np.random.default_rng(0).random(8)
        assert np.allclose(paa(x, 8), x)

    def test_w1_is_mean(self):
        x = np.random.default_rng(1).random(32)
        assert paa(x, 1)[0] == pytest.approx(x.mean())

    def test_batch_shape(self):
        x = np.random.default_rng(2).random((7, 32))
        assert paa(x, 8).shape == (7, 8)

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError, match="must divide"):
            paa(np.zeros(10), 3)

    def test_mean_preserved(self):
        """Segment means average to the overall mean."""
        x = np.random.default_rng(3).random(64)
        assert paa(x, 8).mean() == pytest.approx(x.mean())

    def test_linear(self):
        g = np.random.default_rng(4)
        a, b = g.random(16), g.random(16)
        assert np.allclose(paa(a + b, 4), paa(a, 4) + paa(b, 4))

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 16, 32])
    def test_cardinality_sweep(self, w):
        x = np.random.default_rng(5).random(32)
        assert paa(x, w).shape == (w,)

    def test_paa_lower_bound_property(self):
        """sqrt(n/w)*ED(paa) <= ED(raw) — the PAA pruning guarantee."""
        g = np.random.default_rng(6)
        for _ in range(20):
            a, b = g.standard_normal(64), g.standard_normal(64)
            lhs = np.sqrt(64 / 8) * np.linalg.norm(paa(a, 8) - paa(b, 8))
            assert lhs <= np.linalg.norm(a - b) + 1e-9


class TestPaaSpark:
    def test_oracle_segment_means(self, spark, walk_mat):
        """PAA segment means agree with a DuckDB GROUP BY over unpivoted
        series rows."""
        from tests.ground_truth import unpivot_series

        w, n = 8, walk_mat.shape[1]
        segs = paa(walk_mat, w)
        got = spark.createDataFrame(
            pd.DataFrame(
                {"id": np.arange(len(walk_mat)),
                 **{f"seg{j}": segs[:, j] for j in range(w)}}
            )
        )
        long = unpivot_series(np.arange(len(walk_mat)), walk_mat)
        seg_exprs = ", ".join(
            f"avg(value) FILTER (pos // {n // w} = {j}) AS seg{j}" for j in range(w)
        )
        assert_equivalent(
            got, f"SELECT id, {seg_exprs} FROM long GROUP BY id", long=long
        )
