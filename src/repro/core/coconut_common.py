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
  the records in z-key order, equal keys in input order.  A leaf is a
  contiguous run of ranks, named by its first rank (``leaf_id``); leaf
  boundaries live only in the directory, not in the records.
  Materialized leaves are written in row groups of at most B series
  (``DiskConfig.block_series``), one modeled disk block each.
- ``<path>/raw``     — the paper's raw data file, a flat binary array
  of series; only written for non-materialized (secondary) indexes,
  whose leaves hold ids ("offsets") instead of series.  It has one part
  per input partition, written by the summarization scan: a part's
  series as ``length``-wide rows of little-endian float64
  (``part-<hex>.series``) and their int64 ids (``part-<hex>.id``).  A
  series is addressed by its *position*: its row in the parts taken in
  name order, so it sits at byte ``position · length · 8`` of their
  concatenation.
- a driver-side *leaf directory* (leaf id, min/max z-key, count, in
  file order): the in-memory internal levels of the tree/trie, built
  from the leaf file's keys and the builder's leaf starts.
- driver-resident :class:`Summaries` (SAX words, ids and file positions
  as numpy arrays, row ``i`` holding rank ``i``): the paper's "in-memory
  summarizations" used by the SIMS exact search, decoded from the
  leaves' keys on first use.
- a driver-resident :class:`RawFile` (secondary indexes): each id's
  raw-file position, read once from the raw file's ids.  It stands in
  for the file offset the paper stores in each leaf entry.

Spark writes the leaf file, and its summarization tasks the raw file;
the directory and queries read them back on the driver, so neither
starts a Spark job.  Both read rows by position: leaf records through
:meth:`RowGroups.take`, which decodes only the row groups that hold the
requested positions, and raw series through :meth:`RawFile.take`, which
reads only the B-series blocks that hold them, one ``pread`` per
contiguous run.

They differ only in where a leaf starts (every ``leaf_capacity``-th
rank vs a prefix boundary) and in construction cost accounting.
"""
from __future__ import annotations

import os
import shutil
from bisect import bisect_left, bisect_right
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


def as_matrix(series: pa.Array | pa.ChunkedArray, length: int) -> np.ndarray:
    """A ``series`` column of equal-length lists as one ``(k, length)``
    float64 array, without a Python object per row.  A null value reads
    as NaN."""
    if isinstance(series, pa.ChunkedArray):
        series = series.combine_chunks()
    return series.flatten().to_numpy(zero_copy_only=False).reshape(-1, length)


@dataclass
class Summaries:
    """The SAX word, id and series position of all N records; row ``i``
    is the record of rank ``i`` (ranks are dense): Algorithm 5's
    in-memory summarizations.  A series' position is its row in the raw
    file (secondary) or its rank (materialized: the leaves hold it)."""

    sax: np.ndarray       # (N, w) symbols
    id: np.ndarray
    pos: np.ndarray


RAW_SERIES, RAW_IDS = ".series", ".id"  # the two files of a raw part


def raw_part(directory: str, part: int) -> str:
    """The path, less its suffix, of the raw part named by ``part``."""
    return os.path.join(directory, f"part-{part:016x}")


def raw_parts(directory: str) -> list[str]:
    """The raw parts in ``directory``, by name: paths less their suffix."""
    return sorted(
        os.path.join(directory, f[: -len(RAW_IDS)])
        for f in os.listdir(directory)
        if f.endswith(RAW_IDS)
    )


class RawWriter:
    """Appends runs of series to the raw parts in ``directory``: a
    part's rows to its ``.series`` file, as little-endian float64, and
    their ids to its ``.id`` file.  Rows carry ascending sequence
    numbers, and a part holds consecutive ones: a run that continues
    the last part appended to goes on in it; any other starts a part
    named after its first number.  A part is truncated when it is
    started, so a task that runs again rewrites its parts instead of
    appending to them twice."""

    def __init__(self, directory: str):
        self.directory = directory
        self.files: list[tuple] = []
        self.next = -1   # the number that continues the last part

    def append(self, first: int, ids: np.ndarray, series: np.ndarray) -> None:
        """Rows numbered ``first``, ``first + 1``, ...: their ids and
        their series, one row each."""
        if first != self.next:
            stem = raw_part(self.directory, first)
            self.files.append((open(stem + RAW_SERIES, "wb"), open(stem + RAW_IDS, "wb")))
        out_series, out_ids = self.files[-1]
        out_series.write(np.ascontiguousarray(series, dtype="<f8").data)
        out_ids.write(np.ascontiguousarray(ids, dtype="<i8").data)
        self.next = first + len(ids)

    def __enter__(self) -> RawWriter:
        return self

    def __exit__(self, *exc) -> None:
        for pair in self.files:
            for f in pair:
                f.close()


def check_unique_ids(ids: np.ndarray, what: str) -> None:
    """A ``ValueError`` naming ``what`` if an id occurs more than once in
    ``ids``: a secondary index finds a series by its id."""
    s = np.sort(ids)
    repeated = np.unique(s[1:][s[1:] == s[:-1]])
    if len(repeated):
        raise ValueError(
            f"{what} holds {len(repeated)} ids more than once (first: "
            f"{repeated[:5].tolist()}); a secondary index needs unique ids"
        )


@dataclass
class RawFile:
    """A secondary index's raw file: its parts' series files, the first
    position of each part (then N), and the position of every id, which
    stands in for the file offset the paper stores in each leaf entry.
    A merged index's raw file ends with the batch, so an id is not its
    position.  Each id is in it once.

    A part file is opened on its first read and stays open until
    :meth:`close`.  It is read with ``pread`` into numpy buffers, not
    mapped: the pages a map touches would stay in the driver's memory."""

    files: list[str]
    starts: list[int]     # ascending; N last
    length: int
    id: np.ndarray        # the id at each position
    by_id: np.ndarray     # positions in ascending id order
    fds: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def load(cls, directory: str, length: int) -> RawFile:
        """One read of each part's ids; the series files are checked to
        hold ``length``-wide rows for them, and the ids to be unique."""
        parts = raw_parts(directory)
        ids = [np.fromfile(p + RAW_IDS, dtype="<i8") for p in parts]
        for p, i in zip(parts, ids):
            if os.path.getsize(p + RAW_SERIES) != len(i) * length * 8:
                raise ValueError(f"{p}{RAW_SERIES} does not hold {len(i)} series of length {length}")
        starts = np.cumsum([0, *map(len, ids)]).tolist()
        ids = np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
        check_unique_ids(ids, directory)
        return cls([p + RAW_SERIES for p in parts], starts, length, ids, np.argsort(ids, kind="stable"))

    def positions(self, ids: np.ndarray) -> np.ndarray:
        """The raw-file position of each of ``ids``; an id not in the
        file is a ``KeyError``."""
        ids = np.asarray(ids, dtype=np.int64)
        at = np.searchsorted(self.id, ids, sorter=self.by_id)
        pos = self.by_id[np.minimum(at, len(self.id) - 1)]
        if not np.array_equal(self.id[pos], ids):
            raise KeyError("ids not in the raw file")
        return pos

    def take(self, positions: np.ndarray, block_series: int) -> np.ndarray:
        """The series at ``positions``, in the order given, as one ``(k,
        length)`` array.  The file is read in blocks of ``block_series``
        series (block ``b`` holds positions ``b·B`` to ``b·B + B - 1``):
        each contiguous run of blocks holding a position is read with one
        ``preadv`` per part file it spans, into one buffer, and the rows
        asked for are picked from it."""
        pos = np.asarray(positions, dtype=np.int64)
        n = self.starts[-1]
        if not len(pos):
            return np.empty((0, self.length), dtype="<f8")
        if pos.min() < 0 or pos.max() >= n:
            raise IndexError(f"positions outside 0..{n - 1}")
        blocks, slot = np.unique(pos // block_series, return_inverse=True)
        buf = np.empty((len(blocks) * block_series, self.length), dtype="<f8")  # block i at row i·B
        first = np.flatnonzero(np.diff(blocks, prepend=-2) != 1)  # each run's first block
        last = np.append(first[1:], len(blocks)) - 1
        lo = (blocks[first] * block_series).tolist()
        hi = np.minimum((blocks[last] + 1) * block_series, n).tolist()
        for at, a, b in zip((first * block_series).tolist(), lo, hi):
            self._read(a, b, buf[at : at + b - a])
        return buf[slot * block_series + pos % block_series]

    def _read(self, lo: int, hi: int, out: np.ndarray) -> None:
        """The series at positions ``lo..hi-1`` into ``out``: one
        ``preadv`` per part file they span."""
        row_bytes = self.length * 8
        for j in range(bisect_right(self.starts, lo) - 1, bisect_left(self.starts, hi)):
            a, b = max(lo, self.starts[j]), min(hi, self.starts[j + 1])
            if a >= b:
                continue  # an empty part
            if j not in self.fds:
                self.fds[j] = os.open(self.files[j], os.O_RDONLY)
            into = out[a - lo : b - lo]
            if os.preadv(self.fds[j], [into], (a - self.starts[j]) * row_bytes) != into.nbytes:
                raise EOFError(f"{self.files[j]} is shorter than its ids")

    def close(self) -> None:
        """Close the part files opened so far; a later read reopens them."""
        for fd in self.fds.values():
            os.close(fd)
        self.fds.clear()


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
    ) -> pa.Table:
        """Records of the given leaves in rank order: only the row groups
        that hold their ranks are read (``columns``: default all)."""
        lo = np.unique(np.asarray(leaf_ids, dtype=np.int64))
        starts = self.directory["leaf_id"].to_numpy()
        count = self.directory["count"].to_numpy()[np.searchsorted(starts, lo)]
        before = np.cumsum(count) - count  # the leaves' offsets in the read
        ranks = np.arange(count.sum()) + np.repeat(lo - before, count)
        return self.row_groups.take(ranks, columns)

    def raw_file(self) -> RawFile:
        """The raw file's parts and id positions, read by the build (or
        on first use after :meth:`close`) and resident afterwards.  Like
        the offsets in the paper's leaf entries, reading them is not
        charged."""
        if self.raw is None:
            self.raw = RawFile.load(f"{self.path}/raw", self.length)
        return self.raw

    def fetch_raw(self, positions: np.ndarray) -> np.ndarray:
        """The raw series at the given raw-file positions, in the order
        given, as one ``(k, length)`` array (secondary indexes only): the
        paper's 'go to the raw data file' step.  Only the blocks (B
        series each) that hold them are read, one read per contiguous
        run of blocks, as SIMS is charged for them."""
        return self.raw_file().take(positions, self.disk_config.block_series)

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
            self.raw.close()
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
    records, one modeled disk block: a materialized index's leaves.
    Parquet checks a group's size only every so many records; the check
    runs every ``block_series`` records, and a 1-byte target size makes
    each check close the group.  A task's last group holds the rest."""
    return (
        writer.option("parquet.block.size", 1)
        .option("parquet.page.size.row.check.min", block_series)
        .option("parquet.page.size.row.check.max", block_series)
    )


def write_index_files(
    summaries: DataFrame, *, path: str, materialized: bool, block_series: int
) -> None:
    """Write the leaf level to the local filesystem.  ``summaries`` is
    the globally sorted frame, range-partitioned by key, so its part
    files, in name order, hold ranks 0..N-1.  Materialized leaves are
    written in row groups of at most ``block_series`` series.  A
    secondary index's raw file is written by the summarization scan,
    which runs in this write."""
    cols = list(SUMMARY_COLS)
    if materialized:
        cols.append("series")
    leaves = summaries.select(*cols).write.mode("overwrite")
    if materialized:
        leaves = _in_blocks(leaves, block_series)
    leaves.parquet(f"{path}/leaves")


# Records read, merged and written at a time by the merge.  Each chunk
# is at least one row group of the output (a materialized index's are
# B series each), and a Parquet writer holds its row group in memory
# until it is closed, so the chunk bounds the merge's driver memory: 256
# series of length 128 are 256 KB.
MERGE_CHUNK_ROWS = 256


def _link_or_copy(src: str, dst: str) -> None:
    """Share a file the new index reuses unchanged; copy it where the
    filesystem cannot hard-link."""
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


def merge_index_files(
    old: str, batch: pa.Table, series: np.ndarray, path: str, *,
    materialized: bool, block_series: int,
) -> None:
    """Write the index files of the index at ``old`` merged with
    ``batch`` (``id, zkey, series`` records, in arrival order; its series
    also as the matrix ``series``) to ``path``: the streaming merge of
    two sorted runs.

    The batch is sorted stably in memory by ``zkey`` (numpy orders the
    fixed-width keys as Spark does: as unsigned bytes).  The old leaf
    file is streamed part file by part file, in name order (empty part
    files are skipped), ``MERGE_CHUNK_ROWS`` records at a time; each
    chunk takes the batch records whose key is below its last key, a
    stable merge putting old records before batch records of equal key,
    and the last part takes the rest.  Each part becomes one output part
    file, ``part-NNNNN.parquet``, so the output's part files, in name
    order, hold ranks 0..N-1 in the order of a rebuild over old + batch:
    by key, equal keys in input order.  Materialized leaves are written
    in row groups of at most ``block_series`` series.
    Secondary indexes get a ``raw`` directory of the old raw parts,
    shared or copied, followed by one part of the batch's series in
    arrival order.  Nothing is read through Spark, and nothing is
    dictionary-encoded: keys and series are near-unique.
    """
    parts = []
    for f in _part_files(f"{old}/leaves"):
        with pq.ParquetFile(f) as pf:
            if pf.metadata.num_rows:
                parts.append(f)
    schema = pq.read_schema(parts[0])
    new_keys = np.array(batch.column("zkey").to_pylist(), dtype="S")
    order = np.argsort(new_keys, kind="stable")
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
                keys = np.array(run.column("zkey").to_pylist(), dtype="S")
                upto = int(np.searchsorted(new_keys, keys[-1], side="left"))
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
        old_raw = raw_parts(f"{old}/raw")
        for i, stem in enumerate(old_raw):
            for suffix in (RAW_SERIES, RAW_IDS):
                _link_or_copy(stem + suffix, raw_part(raw, i) + suffix)
        if len(batch):
            with RawWriter(raw) as out:
                out.append(len(old_raw), batch.column("id").to_numpy(), series)
