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
  the directory, not in the records.  Materialized leaves are written
  in row groups of at most B series (``DiskConfig.block_series``), one
  modeled disk block each.
- ``<path>/raw``     — Parquet (id, series): stands in for the paper's
  raw series file; only written for non-materialized (secondary)
  indexes, whose leaves hold ids ("offsets") instead of series.  It is
  written in row groups of at most B series, and a series is addressed
  by its *position*: its row in the part files taken in name order.
- a driver-side *leaf directory* (leaf id, min/max z-key, count, in
  file order): the in-memory internal levels of the tree/trie, built
  from the leaf file's keys and the builder's leaf starts.
- driver-resident :class:`Summaries` (SAX words, ids and file positions
  as numpy arrays, row ``i`` holding rank ``i``): the paper's "in-memory
  summarizations" used by the SIMS exact search, decoded from the
  leaves' keys on first use.
- a driver-resident :class:`RawFile` (secondary indexes): each id's
  raw-file position, read once from the raw ``id`` column.  It stands in
  for the file offset the paper stores in each leaf entry.

Spark writes the files; the directory and queries read them back with
``pyarrow.parquet``, so neither starts a Spark job.  Both read rows by
position (:meth:`RowGroups.take`): only the row groups that hold the
requested positions are decoded.

They differ only in where a leaf starts (every ``leaf_capacity``-th
rank vs a prefix boundary) and in construction cost accounting.
"""
from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, DataFrameWriter

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


@dataclass(frozen=True)
class RowGroups:
    """The row groups of a Parquet file written as part files, whose
    rows, in name order, are numbered 0..n-1 (a row's *position*): each
    group's part file (an index into ``files``), its index in that
    file, its first position and its row count.

    A part file is opened on its first read and stays open, footer
    parsed, until :meth:`close`.  Reads run on the calling thread
    (``use_threads=False``): the data is small, and Arrow's pool threads
    would each grow a malloc arena in the driver."""

    files: list[str]
    file: np.ndarray
    index: np.ndarray
    first: np.ndarray   # ascending
    rows: np.ndarray
    readers: dict[int, pq.ParquetFile] = field(default_factory=dict, repr=False, compare=False)

    def take(self, positions: np.ndarray, columns: list[str] | None = None) -> pa.Table:
        """``columns`` (default all) of the rows at ``positions``, in the
        order given.  Only the row groups holding them are read, with one
        ``read_row_groups`` per part file, and each part file's rows are
        picked before the next is read, so the driver holds one file's
        read at a time."""
        pos = np.asarray(positions, dtype=np.int64)
        if len(pos) and (pos.min() < 0 or pos.max() >= self.first[-1] + self.rows[-1]):
            raise IndexError(f"positions outside 0..{self.first[-1] + self.rows[-1] - 1}")
        group = np.searchsorted(self.first, pos, side="right") - 1
        parts, picked = [], []
        for j in np.unique(self.file[group]).tolist():
            mine = np.flatnonzero(self.file[group] == j)
            groups = np.unique(group[mine])
            if j not in self.readers:
                self.readers[j] = pq.ParquetFile(self.files[j])
            read = self.readers[j].read_row_groups(
                self.index[groups].tolist(), columns=columns, use_threads=False
            )
            offset = np.cumsum(self.rows[groups]) - self.rows[groups]  # in the read
            g = group[mine]
            parts.append(read.take(offset[np.searchsorted(groups, g)] + pos[mine] - self.first[g]))
            picked.append(mine)
        if not parts:
            empty = pq.read_schema(self.files[0]).empty_table()
            return empty.select(columns) if columns else empty
        return pa.concat_tables(parts).take(np.argsort(np.concatenate(picked)))

    def close(self) -> None:
        """Close the part files opened so far; a later read reopens them."""
        for reader in self.readers.values():
            reader.close()
        self.readers.clear()


def read_with_row_groups(directory: str, columns: list[str]) -> tuple[pa.Table, RowGroups]:
    """``columns`` of every row of the Parquet file ``directory``, in
    position order, and its row groups: one pass over its part files."""
    files, tables, groups = _part_files(directory), [], []
    for j, f in enumerate(files):
        with pq.ParquetFile(f) as pf:
            tables.append(pf.read(columns=columns, use_threads=False))
            groups += [(j, i, pf.metadata.row_group(i).num_rows) for i in range(pf.num_row_groups)]
    file, index, rows = np.array(groups, dtype=np.int64).reshape(-1, 3).T
    return pa.concat_tables(tables), RowGroups(files, file, index, np.cumsum(rows) - rows, rows)


def as_matrix(series: pa.ChunkedArray, length: int) -> np.ndarray:
    """A ``series`` column of equal-length lists as one ``(k, length)``
    float64 array, without a Python object per row.  A null value (a NaN
    stored by Spark's pandas conversion) reads as NaN."""
    values = series.combine_chunks().flatten()
    return values.to_numpy(zero_copy_only=False).reshape(-1, length)


@dataclass
class Summaries:
    """The SAX word, id and series position of all N records; row ``i``
    is the record of rank ``i`` (ranks are dense): Algorithm 5's
    in-memory summarizations.  A series' position is its row in the raw
    file (secondary) or its rank (materialized: the leaves hold it)."""

    sax: np.ndarray       # (N, w) symbols
    id: np.ndarray
    pos: np.ndarray


@dataclass
class RawFile:
    """A secondary index's raw file: its row groups, and the position of
    every id in it, which stands in for the file offset the paper stores
    in each leaf entry.  A merged index's raw file ends with the batch,
    so an id is not its position."""

    groups: RowGroups
    id: np.ndarray        # the id at each position
    by_id: np.ndarray     # positions in ascending id order

    @classmethod
    def load(cls, directory: str) -> RawFile:
        """One read of the raw file's ``id`` column."""
        t, groups = read_with_row_groups(directory, ["id"])
        ids = t.column("id").to_numpy()
        return cls(groups, ids, np.argsort(ids, kind="stable"))

    def positions(self, ids: np.ndarray) -> np.ndarray:
        """The raw-file position of each of ``ids``; an id not in the
        file is a ``KeyError``."""
        ids = np.asarray(ids, dtype=np.int64)
        at = np.searchsorted(self.id, ids, sorter=self.by_id)
        pos = self.by_id[np.minimum(at, len(self.id) - 1)]
        if not np.array_equal(self.id[pos], ids):
            raise KeyError("ids not in the raw file")
        return pos


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
    row_groups: RowGroups        # of the leaf file; a position is a rank
    build_disk: DiskModel        # construction I/O accounting
    disk_config: DiskConfig
    build_wall_s: float
    summaries: Summaries | None = None  # resident once loaded (Algorithm 5 l.3-4)
    raw: RawFile | None = None          # resident once loaded (secondary only)

    # -- derived stats (Fig 8c) -------------------------------------------
    @property
    def n_leaves(self) -> int:
        return len(self.directory)

    # -- leaf access -------------------------------------------------------
    def read_leaves(
        self, leaf_ids: list[int], columns: list[str] | None = None
    ) -> pd.DataFrame:
        """Records of the given leaves in rank order: only the row groups
        that hold their ranks are read (``columns``: default all)."""
        if not len(leaf_ids):
            return pd.DataFrame(columns=columns or SUMMARY_COLS)
        lo = np.unique(np.asarray(leaf_ids, dtype=np.int64))
        starts = self.directory["leaf_id"].to_numpy()
        count = self.directory["count"].to_numpy()[np.searchsorted(starts, lo)]
        ranks = np.concatenate([np.arange(a, a + c) for a, c in zip(lo, count)])
        return self.row_groups.take(ranks, columns).to_pandas(use_threads=False)

    def raw_file(self) -> RawFile:
        """The raw file's row groups and id positions, read on first use
        and resident afterwards.  Like the offsets in the paper's leaf
        entries, reading them is not charged."""
        if self.raw is None:
            self.raw = RawFile.load(f"{self.path}/raw")
        return self.raw

    def fetch_raw(self, positions: np.ndarray) -> np.ndarray:
        """The raw series at the given raw-file positions, in the order
        given, as one ``(k, length)`` array (secondary indexes only): the
        paper's 'go to the raw data file' step.  Only the row groups (B
        series each) that hold them are read."""
        series = self.raw_file().groups.take(positions, ["series"]).column("series")
        return as_matrix(series, self.length)

    def load_summaries(self) -> Summaries:
        """Read the leaf file's (id, zkey) in one pass and decode the SAX
        words.  Queries rely on the part files, in name order, holding
        ranks 0..N-1 — N records in z-key order: files that do not are an
        error."""
        t, _ = read_with_row_groups(f"{self.path}/leaves", ["id", "zkey"])
        zkey = t.column("zkey").to_pylist()
        keys = np.array(zkey)  # fixed-width keys: one numpy bytes dtype
        if len(keys) != self.n_series or (keys[1:] < keys[:-1]).any():
            raise ValueError(f"{self.path}/leaves does not hold ranks 0..N-1 in file order")
        ids = t.column("id").to_numpy()
        pos = np.arange(len(ids)) if self.materialized else self.raw_file().positions(ids)
        return Summaries(sax=deinterleave(zkey, self.w, self.bits), id=ids, pos=pos)

    def close(self) -> None:
        """Release the resident summaries and raw-file positions, and
        close the open part files."""
        self.row_groups.close()
        if self.raw is not None:
            self.raw.groups.close()
        self.summaries = None
        self.raw = None


def directory_from_summaries(
    leaves: str, leaf_starts: Callable[[pa.ChunkedArray], np.ndarray]
) -> tuple[pd.DataFrame, RowGroups]:
    """The leaf directory and row groups of the leaf file ``leaves``, from
    one driver-side read of its ``zkey`` column.  ``leaf_starts`` maps
    the keys, in rank order, to every leaf's first rank, ascending; a
    leaf runs up to the next one's.  The part files hold ranks 0..N-1 in
    name order, so a row's position is its rank."""
    t, row_groups = read_with_row_groups(leaves, ["zkey"])
    zkey = t.column("zkey")
    first = leaf_starts(zkey)
    last = np.append(first[1:], len(zkey)) - 1
    directory = pd.DataFrame({
        "leaf_id": first, "min_zkey": zkey.take(first).to_pylist(),
        "max_zkey": zkey.take(last).to_pylist(), "count": last - first + 1,
    })
    return directory, row_groups


def _in_blocks(writer: DataFrameWriter, block_series: int) -> DataFrameWriter:
    """``writer`` ending a Parquet row group every ``block_series``
    records, one modeled disk block.  Parquet checks a group's size only
    every so many records; the check runs every ``block_series`` records,
    and a 1-byte target size makes each check close the group.  A task's
    last group holds the rest."""
    return (
        writer.option("parquet.block.size", 1)
        .option("parquet.page.size.row.check.min", block_series)
        .option("parquet.page.size.row.check.max", block_series)
    )


def write_index_files(
    summaries: DataFrame,
    raw_df: DataFrame | None,
    path: str,
    *,
    materialized: bool,
    block_series: int,
) -> None:
    """Write the leaf level (and the stand-in raw file for secondary
    indexes) to the local filesystem.  ``summaries`` is the globally
    sorted frame, range-partitioned by key, so its part files, in name
    order, hold ranks 0..N-1.  Files holding series are written in row
    groups of at most ``block_series`` series."""
    cols = list(SUMMARY_COLS)
    if materialized:
        cols.append("series")
    leaves = summaries.select(*cols).write.mode("overwrite")
    if materialized:
        leaves = _in_blocks(leaves, block_series)
    leaves.parquet(f"{path}/leaves")
    if not materialized:
        if raw_df is None:
            raise ValueError("secondary index requires the raw series DataFrame")
        raw = raw_df.select("id", "series").write.mode("overwrite")
        _in_blocks(raw, block_series).parquet(f"{path}/raw")


# Records read, merged and written at a time by the merge.  Each chunk
# is at least one row group of the output (a materialized index's are
# B series each), and a Parquet writer holds its row group in memory
# until it is closed, so the chunk bounds the merge's driver memory: 256
# series of length 128 are 256 KB.
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


def merge_index_files(
    old: str, batch: pa.Table, path: str, *, materialized: bool, block_series: int
) -> None:
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
    name order, again hold ranks 0..N-1.  Materialized leaves are
    written in row groups of at most ``block_series`` series.
    Secondary indexes get a ``raw`` directory of the old raw part files,
    shared or copied, followed by one part file of the batch's series in
    arrival order, in row groups of ``block_series`` series.  Nothing is read through Spark, and nothing is
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
    group_rows = block_series if materialized else None  # None: one group per write
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
                out.write_table(run, row_group_size=group_rows)
            if j == len(parts) - 1 and taken < len(new):
                out.write_table(new.slice(taken), row_group_size=group_rows)
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
                row_group_size=block_series,
            )
