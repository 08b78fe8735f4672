"""Shared layout for Coconut indexes (Tree and Trie variants).

Both variants produce the same on-disk shape, which is what makes their
comparison (paper §4.2 vs §4.3) clean:

- ``<path>/leaves``  — one Parquet file, the sorted run of the bulk
  load: the contiguous leaf level ("columnar index structure").  Each
  record is the paper's leaf entry, ``id, zkey[, series]``: the series
  ``id`` in place of a file offset and the invSAX key ``zkey`` (a
  fixed-width ``binary`` value; the SAX word is decoded from it), plus
  the series when materialized.  A record's *rank* is not stored: it is
  its row position in the part files taken in name order, which hold
  the records in z-key order.  A leaf is a contiguous run of ranks,
  named by its first rank (``leaf_id``); leaf boundaries live only in
  the directory, not in the records.
- ``<path>/raw``     — Parquet (id, series): stands in for the paper's
  raw series file; only written for non-materialized (secondary)
  indexes, whose leaves hold ids ("offsets") instead of series.
- a driver-side *leaf directory* (leaf id, min/max z-key, count, in
  file order): the in-memory internal levels of the tree/trie, built
  from the leaf file's keys and the builder's leaf starts.
- driver-resident :class:`Summaries` (SAX words and ids as numpy
  arrays, row ``i`` holding rank ``i``): the paper's "in-memory
  summarizations" used by the SIMS exact search, decoded from the
  leaves' keys on first use.  A record's leaf is found from its rank
  with :func:`leaf_of`.

Spark writes the files; the directory and queries read them back with
``pyarrow.parquet``, so neither starts a Spark job.

They differ only in where a leaf starts (every ``leaf_capacity``-th
rank vs a prefix boundary) and in construction cost accounting.
"""
from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame

from repro.core.zorder import deinterleave
from repro.storage.disk_model import DiskConfig, DiskModel, LeafStats

SUMMARY_COLS = ["id", "zkey"]


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


def leaf_of(starts: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Leaf id of each record rank, given the ascending leaf ids (first
    ranks): the last leaf starting at or before it."""
    return starts[np.searchsorted(starts, ranks, side="right") - 1]


@dataclass
class Summaries:
    """The SAX word and id of all N records; row ``i`` is the record of
    rank ``i`` (ranks are dense): Algorithm 5's in-memory summarizations."""

    sax: np.ndarray       # (N, w) symbols
    id: np.ndarray


@dataclass
class CoconutIndex(LeafStats):
    """A built Coconut index plus everything a query needs to run."""

    path: str
    w: int
    bits: int
    length: int                  # raw series length n
    leaf_capacity: int
    materialized: bool
    n_series: int
    directory: pd.DataFrame      # leaf_id,min_zkey,max_zkey,count by leaf_id
    row_groups: list[tuple[str, int, int, int]]  # file,index,first rank,rows
    build_disk: DiskModel        # construction I/O accounting
    disk_config: DiskConfig
    build_wall_s: float
    summaries: Summaries | None = None  # resident once loaded (Algorithm 5 l.3-4)

    # -- derived stats (Fig 8c) -------------------------------------------
    @property
    def n_leaves(self) -> int:
        return len(self.directory)

    # -- leaf access -------------------------------------------------------
    def read_leaves(
        self, leaf_ids: list[int], columns: list[str] | None = None
    ) -> pd.DataFrame:
        """Records of the given leaves in rank order: the row groups that
        overlap their ranks are read and the leaves sliced out
        (``columns``: default all)."""
        if not len(leaf_ids):
            return pd.DataFrame(columns=columns or SUMMARY_COLS)
        lo = np.unique(np.asarray(leaf_ids, dtype=np.int64))
        starts = self.directory["leaf_id"].to_numpy()
        hi = lo + self.directory["count"].to_numpy()[np.searchsorted(starts, lo)]
        parts = []
        for f, i, first, rows in self.row_groups:
            a, b = np.maximum(lo, first), np.minimum(hi, first + rows)
            if (a < b).any():
                with pq.ParquetFile(f) as pf:
                    t = pf.read_row_group(i, columns=columns, use_threads=False)
                parts += [t.slice(x - first, y - x) for x, y in zip(a, b) if x < y]
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
        """Read the leaf file's (id, zkey) in one pass and decode the SAX
        words.  Queries rely on the part files, in name order, holding
        ranks 0..N-1 — N records in z-key order: files that do not are an
        error."""
        files = _part_files(f"{self.path}/leaves")
        t = pa.concat_tables([_read_part(f, ["id", "zkey"]) for f in files])
        zkey = t.column("zkey").to_pylist()
        keys = np.array(zkey)  # fixed-width keys: one numpy bytes dtype
        if len(keys) != self.n_series or (keys[1:] < keys[:-1]).any():
            raise ValueError(f"{self.path}/leaves does not hold ranks 0..N-1 in file order")
        sax = deinterleave(zkey, self.w, self.bits)
        return Summaries(sax=sax, id=t.column("id").to_numpy())

    def close(self) -> None:
        """Release the resident summaries."""
        self.summaries = None


def directory_from_summaries(
    leaves: str, leaf_starts: Callable[[pa.ChunkedArray], np.ndarray]
) -> tuple[pd.DataFrame, list]:
    """The leaf directory and row groups (file, index, first rank, rows)
    of the leaf file ``leaves``, from one driver-side read of its ``zkey``
    column.  ``leaf_starts`` maps the keys, in rank order, to every leaf's
    first rank, ascending; a leaf runs up to the next one's.  The part
    files hold ranks 0..N-1 in name order, so a row group's first rank is
    the number of rows before it."""
    tables, row_groups, n = [], [], 0
    for f in _part_files(leaves):
        with pq.ParquetFile(f) as pf:
            tables.append(pf.read(columns=["zkey"], use_threads=False))
            for i in range(pf.num_row_groups):
                rows = pf.metadata.row_group(i).num_rows
                row_groups.append((f, i, n, rows))
                n += rows
    zkey = pa.concat_tables(tables).column("zkey")
    first = leaf_starts(zkey)
    last = np.append(first[1:], n) - 1
    directory = pd.DataFrame({
        "leaf_id": first, "min_zkey": zkey.take(first).to_pylist(),
        "max_zkey": zkey.take(last).to_pylist(), "count": last - first + 1,
    })
    return directory, row_groups


def write_index_files(
    summaries: DataFrame,
    raw_df: DataFrame | None,
    path: str,
    *,
    materialized: bool,
) -> None:
    """Write the leaf level (and the stand-in raw file for secondary
    indexes) to the local filesystem.  ``summaries`` is the globally
    sorted frame, range-partitioned by key, so its part files, in name
    order, hold ranks 0..N-1."""
    cols = list(SUMMARY_COLS)
    if materialized:
        cols.append("series")
    summaries.select(*cols).write.mode("overwrite").parquet(f"{path}/leaves")
    if not materialized:
        if raw_df is None:
            raise ValueError("secondary index requires the raw series DataFrame")
        raw_df.select("id", "series").write.mode("overwrite").parquet(f"{path}/raw")


# Records read, merged and written at a time by the merge.  Each chunk
# is one row group of the output, and a Parquet writer holds its row
# group in memory until it is closed, so the chunk bounds the merge's
# driver memory: 256 series of length 128 are 256 KB.
MERGE_CHUNK_ROWS = 256


def _order_keys(zkey: pa.ChunkedArray | pa.Array, ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Each record's sort key ``(zkey, id)`` as one fixed-width bytes
    value: the z-key, then the id big-endian with its sign bit flipped.
    Byte order of these values is the order of Spark's sort by
    (``zkey``, ``id``), so numpy can sort and search them."""
    if not len(ids):
        return np.array([], dtype="S1")
    z = np.frombuffer(b"".join(zkey.to_pylist()), np.uint8).reshape(len(ids), -1)
    flipped = np.asarray(ids, dtype=np.int64).view(np.uint64) ^ np.uint64(1 << 63)
    i = flipped.astype(">u8").view(np.uint8).reshape(-1, 8)
    both = np.ascontiguousarray(np.hstack([z, i]))
    return both.view(f"S{both.shape[1]}").ravel()


def _link_or_copy(src: str, dst: str) -> None:
    """Share a file the new index reuses unchanged; copy it where the
    filesystem cannot hard-link."""
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


def merge_index_files(old: str, batch: pa.Table, path: str, *, materialized: bool) -> None:
    """Write the index files of the index at ``old`` merged with
    ``batch`` (``id, zkey, series`` records, in arrival order) to
    ``path``: the streaming merge of two sorted runs.

    The batch is sorted in memory by (``zkey``, ``id``).  The old leaf
    file is streamed part file by part file, in name order (empty part
    files are skipped), ``MERGE_CHUNK_ROWS`` records at a time.  Each
    part becomes one output part file, ``part-NNNNN.parquet``, holding
    its records and the batch records that sort after the previous
    part's last record and up to its own last one; the last part also
    takes every batch record after it.  So the output's part files, in
    name order, again hold ranks 0..N-1.
    Secondary indexes get a ``raw`` directory of the old raw part files,
    shared or copied, followed by one part file of the batch's series in
    arrival order.  Nothing is read through Spark, and nothing is
    dictionary-encoded: keys and series are near-unique.
    """
    parts = []
    for f in _part_files(f"{old}/leaves"):
        with pq.ParquetFile(f) as pf:
            if pf.metadata.num_rows:
                parts.append(f)
    schema = pq.read_schema(parts[0])
    new_keys = _order_keys(batch.column("zkey"), batch.column("id"))
    order = np.argsort(new_keys)
    new, new_keys = batch.select(schema.names).cast(schema).take(order), new_keys[order]
    os.makedirs(f"{path}/leaves")
    taken = 0
    for j, f in enumerate(parts):
        with pq.ParquetFile(f) as pf, pq.ParquetWriter(
            f"{path}/leaves/part-{j:05d}.parquet", schema, use_dictionary=False
        ) as out:
            for rb in pf.iter_batches(batch_size=MERGE_CHUNK_ROWS, use_threads=False):
                run = pa.Table.from_batches([rb])
                keys = _order_keys(run.column("zkey"), run.column("id"))
                upto = int(np.searchsorted(new_keys, keys[-1], side="right"))
                if upto > taken:
                    at = np.argsort(np.concatenate([keys, new_keys[taken:upto]]), kind="stable")
                    run = pa.concat_tables([run, new.slice(taken, upto - taken)]).take(at)
                    taken = upto
                out.write_table(run)
            if j == len(parts) - 1 and taken < len(new):
                out.write_table(new.slice(taken))
    if not materialized:
        raw = f"{path}/raw"
        os.makedirs(raw)
        old_raw = _part_files(f"{old}/raw")
        for i, f in enumerate(old_raw):
            _link_or_copy(f, f"{raw}/part-{i:05d}.parquet")
        if len(batch):
            pq.write_table(
                batch.select(["id", "series"]).cast(pq.read_schema(old_raw[0])),
                f"{raw}/part-{len(old_raw):05d}.parquet", use_dictionary=False,
            )
