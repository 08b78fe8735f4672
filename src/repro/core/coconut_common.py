"""Shared layout for Coconut indexes (Tree and Trie variants).

Both variants produce the same on-disk shape, which is what makes their
comparison (paper §4.2 vs §4.3) clean:

- ``<path>/leaves``  — Parquet, partitioned by ``leaf_id``, rows sorted
  by z-key: the contiguous leaf level ("columnar index structure").
  Each record is the paper's leaf entry: the invSAX key ``zkey`` (a
  fixed-width ``binary`` value; the SAX word is decoded from it) and the
  series ``id`` in place of a file offset, plus its ``rank`` in file
  order.  Materialized leaves also hold the series.  A leaf is a
  contiguous run of ranks, so its ``leaf_id`` is the rank of its first
  record.
- ``<path>/raw``     — Parquet (id, series): stands in for the paper's
  raw series file; only written for non-materialized (secondary)
  indexes, whose leaves hold ids ("offsets") instead of series.
- a driver-side *leaf directory* (leaf id, min/max z-key, count, in
  file order): the in-memory internal levels of the tree/trie.
- driver-resident :class:`Summaries` (SAX words and ids as numpy
  arrays, row ``i`` holding rank ``i``): the paper's "in-memory
  summarizations" used by the SIMS exact search, decoded from the
  leaves' keys on first use.  A record's leaf is found from its rank
  with :meth:`CoconutIndex.leaf_of`.

Spark writes the files; queries read them back with ``pyarrow.parquet``
one part file at a time, so answering a query starts no Spark job.

They differ only in where a leaf starts (every ``leaf_capacity``-th
rank vs a prefix boundary) and in construction cost accounting.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.zorder import deinterleave
from repro.storage.disk_model import DiskConfig, DiskModel

SUMMARY_COLS = ["id", "zkey", "rank", "leaf_id"]


def _part_files(directory: str) -> list[str]:
    """The Parquet part files Spark wrote into ``directory``, by name
    (``_SUCCESS`` and hidden ``.crc`` checksums skipped)."""
    return sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if not f.startswith(("_", "."))
    )


def _read_part(path: str, columns: list[str] | None) -> pa.Table:
    """One part file.  Query-time reads and ``to_pandas`` conversions run
    on the calling thread (``use_threads=False``): the data is small, and
    Arrow's pool threads would each grow a malloc arena in the driver."""
    with pq.ParquetFile(path) as pf:
        return pf.read(columns=columns, use_threads=False)


@dataclass
class Summaries:
    """The SAX word and id of all N records; row ``i`` is the record of
    rank ``i`` (ranks are dense): Algorithm 5's in-memory summarizations."""

    sax: np.ndarray       # (N, w) symbols
    id: np.ndarray


@dataclass
class CoconutIndex:
    """A built Coconut index plus everything a query needs to run."""

    spark: SparkSession
    path: str
    w: int
    bits: int
    length: int                  # raw series length n
    leaf_capacity: int
    materialized: bool
    n_series: int
    directory: pd.DataFrame      # leaf_id,min_zkey,max_zkey,count by leaf_id
    build_disk: DiskModel        # construction I/O accounting
    disk_config: DiskConfig
    build_wall_s: float
    summaries: Summaries | None = None  # resident once loaded (Algorithm 5 l.3-4)

    # -- derived stats (Fig 8c) -------------------------------------------
    @property
    def n_leaves(self) -> int:
        return len(self.directory)

    @property
    def fill_factor(self) -> float:
        """Mean leaf occupancy relative to capacity (paper: ~0.97 for
        median splits, ~0.10 for prefix splits)."""
        return self.n_series / (self.n_leaves * self.leaf_capacity)

    @property
    def record_bytes(self) -> int:
        c = self.disk_config
        return c.series_bytes if self.materialized else c.summary_bytes

    @property
    def index_bytes(self) -> int:
        """Modeled on-disk footprint: leaves are allocated at full
        capacity (free space in sparse leaves is the paper's space
        amplification)."""
        return self.n_leaves * self.leaf_capacity * self.record_bytes

    def leaf_blocks(self, count: int) -> int:
        """Disk blocks occupied by ``count`` leaf records."""
        c = self.disk_config
        per_block = c.block_series if self.materialized else c.summaries_per_block
        return max(1, -(-count // per_block))

    # -- leaf access -------------------------------------------------------
    def leaf_of(self, ranks: np.ndarray) -> np.ndarray:
        """Leaf id of each record rank: the last leaf starting at or
        before it."""
        starts = self.directory["leaf_id"].to_numpy()
        return starts[np.searchsorted(starts, ranks, side="right") - 1]

    def _leaf_dir(self, leaf_id: int) -> str:
        return f"{self.path}/leaves/leaf_id={int(leaf_id)}"

    def read_leaves(
        self, leaf_ids: list[int], columns: list[str] | None = None
    ) -> pd.DataFrame:
        """Contents of the given leaves, read straight from their
        ``leaf_id=k`` directories (``columns``: data columns to read,
        default all); a ``leaf_id`` column is always appended."""
        if not leaf_ids:
            return pd.DataFrame(columns=[*(columns or SUMMARY_COLS[:-1]), "leaf_id"])
        parts = []
        for lid in leaf_ids:
            for f in _part_files(self._leaf_dir(lid)):
                t = _read_part(f, columns)
                parts.append(
                    t.append_column("leaf_id", pa.array(np.full(len(t), lid, np.int64)))
                )
        return pa.concat_tables(parts).to_pandas(use_threads=False)

    def fetch_raw(self, ids: list[int]) -> pd.DataFrame:
        """Fetch raw series by id (secondary indexes only): the paper's
        'go to the raw data file' step.  Each part file's ids are read
        first, and its series only where some id matches."""
        if not ids:
            return pd.DataFrame(columns=["id", "series"])
        want = np.asarray(ids, dtype=np.int64)
        parts = []
        for f in _part_files(f"{self.path}/raw"):
            with pq.ParquetFile(f) as pf:
                file_ids = pf.read(columns=["id"], use_threads=False).column(0)
                rows = np.flatnonzero(np.isin(file_ids.to_numpy(), want))
                if len(rows):
                    t = pf.read(columns=["id", "series"], use_threads=False)
                    parts.append(t.take(pa.array(rows)))
        if not parts:
            return pd.DataFrame(columns=["id", "series"])
        return pa.concat_tables(parts).to_pandas(use_threads=False)

    def load_summaries(self) -> Summaries:
        """Read every leaf's (id, zkey) and decode the SAX words, each
        record at its rank."""
        ids, ranks, keys = [], [], []
        for lid in self.directory["leaf_id"]:
            for f in _part_files(self._leaf_dir(lid)):
                t = _read_part(f, ["id", "rank", "zkey"])
                ids.append(t.column("id").to_numpy())
                ranks.append(t.column("rank").to_numpy())
                keys.extend(t.column("zkey").to_pylist())
        order = np.argsort(np.concatenate(ranks))
        sax = deinterleave(keys, self.w, self.bits)
        return Summaries(sax=sax[order], id=np.concatenate(ids)[order])

    def close(self) -> None:
        """Release the resident summaries."""
        self.summaries = None


def directory_from_summaries(summaries: DataFrame) -> pd.DataFrame:
    """Aggregate the leaf directory: per-leaf z-key range and count, in
    file order (by ``leaf_id``, the leaf's first rank)."""
    pdf = (
        summaries.groupBy("leaf_id")
        .agg(
            F.min("zkey").alias("min_zkey"),
            F.max("zkey").alias("max_zkey"),
            F.count("*").alias("count"),
        )
        .toPandas()
    )
    return pdf.sort_values("leaf_id").reset_index(drop=True)


def write_index_files(
    summaries: DataFrame,
    raw_df: DataFrame | None,
    path: str,
    *,
    materialized: bool,
) -> None:
    """Write the leaf level (and the stand-in raw file for secondary
    indexes) to the local filesystem."""
    cols = list(SUMMARY_COLS)
    if materialized:
        cols.append("series")
    summaries.select(*cols).write.mode("overwrite").partitionBy("leaf_id").parquet(
        f"{path}/leaves"
    )
    if not materialized:
        if raw_df is None:
            raise ValueError("secondary index requires the raw series DataFrame")
        raw_df.select("id", "series").write.mode("overwrite").parquet(f"{path}/raw")
