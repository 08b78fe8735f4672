"""Ground truth the tests compare against; nothing in ``src/`` uses it.

- Brute-force exact nearest neighbor: every index's exact search must
  return the same (id, distance) as a full scan, either the numpy scan
  (:func:`exact_nn_numpy`) or the distributed Spark scan
  (:func:`exact_nn_spark`, over :func:`distances_to_query`).
- The DuckDB oracle: ``assert_equivalent(spark_df, sql, **tables)`` runs
  ``sql`` in DuckDB over ``tables`` and asserts the sorted rows match
  ``spark_df`` (the Spark result).  This catches wrong results from a
  rewritten plan or a custom operator — "it ran" is not "it is
  correct".  ``tables`` may be Spark or pandas DataFrames; Spark inputs
  are collected via ``.toPandas()``.  Alias every output column
  identically on both sides (Spark names ``count(*)`` as ``count(1)``,
  DuckDB as ``count_star()``) and project to scalar columns —
  array/map/struct columns are not orderable so cannot be compared here.
  :func:`unpivot_series` gives the (id, pos, value) rows that SQL
  formulations of a distance run over.
- The iSAX multi-resolution reference: :func:`reduce_word` drops a
  word's low-order bits, and :func:`prefix_key` reads the same
  resolution off a z-key's leading bits; the z-key tests check that the
  two agree.
- The leaf of a rank: :func:`leaf_of` reads it off the directory's leaf
  ids, which the layout tests check leaves against.
"""
from __future__ import annotations

from typing import Iterator

import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.distance import euclidean


def squared_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared ED — cheaper for comparisons (monotone in ED)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.sum((a - b) ** 2, axis=-1)


def distances_to_query(series_df: DataFrame, query: np.ndarray) -> DataFrame:
    """Spark path: ED from every row of ``series_df`` (id, series) to ``query``.

    Returns a DataFrame (id: long, dist: double). Runs as ``mapInPandas``
    so the per-batch math is vectorized numpy over Arrow batches.
    """
    q = np.asarray(query, dtype=np.float64)

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if len(pdf) == 0:
                continue
            mat = np.stack(pdf["series"].to_numpy())
            yield pd.DataFrame(
                {"id": pdf["id"].to_numpy(), "dist": euclidean(mat, q)}
            )

    return series_df.select("id", "series").mapInPandas(
        compute, schema="id long, dist double"
    )


def exact_nn_spark(series_df: DataFrame, query: np.ndarray) -> tuple[int, float]:
    """Distributed full-scan NN: (id, distance) of the closest series."""
    row = (
        distances_to_query(series_df, query)
        .orderBy(F.col("dist").asc(), F.col("id").asc())
        .first()
    )
    return int(row["id"]), float(row["dist"])


def exact_nn_numpy(
    ids: np.ndarray, series: np.ndarray, query: np.ndarray
) -> tuple[int, float]:
    d = euclidean(series, np.asarray(query, dtype=np.float64))
    k = int(np.argmin(d))
    return int(ids[k]), float(d[k])


def unpivot_series(ids: np.ndarray, series: np.ndarray) -> pd.DataFrame:
    """(id, pos, value) long-format pandas frame for the DuckDB oracle."""
    n, m = series.shape
    return pd.DataFrame(
        {
            "id": np.repeat(ids, m),
            "pos": np.tile(np.arange(m), n),
            "value": series.ravel(),
        }
    )


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )


def reduce_word(symbols: np.ndarray, bits: int, to_bits: int) -> np.ndarray:
    """Drop low-order bits: cardinality-2**bits word -> cardinality-2**to_bits.

    This is iSAX's multi-resolution operation — a node at resolution
    ``to_bits`` contains all words sharing these high-order bits.
    """
    if not 0 <= to_bits <= bits:
        raise ValueError(f"to_bits={to_bits} must be in [0, bits={bits}]")
    return (np.asarray(symbols, dtype=np.uint32) >> (bits - to_bits)).astype(np.uint32)


def prefix_key(zkey: bytes, w: int, bits: int, k: int) -> int:
    """First ``k*w`` interleaved bits as an int = resolution-``k`` iSAX word.

    Two series share a ``k``-bit iSAX prefix in *every* segment iff their
    ``prefix_key(.., k)`` are equal — the property Coconut-Trie builds on.
    """
    if not 0 <= k <= bits:
        raise ValueError(f"k={k} must be in [0, bits={bits}]")
    return int.from_bytes(zkey, "big") >> (8 * len(zkey) - k * w)


def leaf_of(starts: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Leaf id of each record rank, given the ascending leaf ids (first
    ranks): the last leaf starting at or before it."""
    return starts[np.searchsorted(starts, ranks, side="right") - 1]
