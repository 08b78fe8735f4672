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
- The elementwise kernels the query path's table and broadcast forms
  must equal bit for bit: :func:`mindist_elementwise` computes each
  candidate's gaps from its own region edges, and
  :func:`interleave_per_bit` builds each z-key one (level, segment) bit
  column at a time, as Algorithm 1's InvertSum reads.
"""
from __future__ import annotations

from typing import Iterator

import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.distance import euclidean
from repro.core.sax import region_edges


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


# The (w, bits) grid the kernels are checked against their references
# on: bits=1, w=1, w*bits not a multiple of 8, and w*bits > 64.
KERNEL_GRID = [(8, 1), (1, 4), (1, 1), (3, 3), (5, 7), (8, 8), (16, 8), (9, 10)]


def mindist_elementwise(
    query_paa: np.ndarray, cand_sax: np.ndarray, n: int, bits: int
) -> np.ndarray:
    """MINDIST from each candidate's own (m, w) region edges: the gap is
    the query's distance to the nearest edge, 0 inside the region."""
    q = np.asarray(query_paa, dtype=np.float64)
    s = np.atleast_2d(np.asarray(cand_sax))
    w = q.shape[-1]
    lo, hi = region_edges(s, bits)
    gap = np.where(q < lo, lo - q, np.where(q > hi, q - hi, 0.0))
    d = np.sqrt((n / w) * np.sum(gap**2, axis=-1))
    return d[0] if np.asarray(cand_sax).ndim == 1 else d


def interleave_per_bit(symbols: np.ndarray, bits: int) -> list[bytes]:
    """InvertSum one bit column at a time: for level i = bits-1 .. 0,
    for segment j = 0 .. w-1, bit i of symbol j; packed, tail-padded."""
    s = np.atleast_2d(np.asarray(symbols, dtype=np.uint32))
    w = s.shape[1]
    cols = [((s[:, j] >> i) & 1) for i in range(bits - 1, -1, -1) for j in range(w)]
    bitmat = np.stack(cols, axis=1).astype(np.uint8)
    return [row.tobytes() for row in np.packbits(bitmat, axis=1)]
