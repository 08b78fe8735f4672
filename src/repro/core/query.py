"""Query processing over Coconut indexes.

``approximate_search`` is Algorithm 4: locate the leaf where the
query's invSAX key would be inserted (binary search over the leaf
directory — the in-memory internal levels) and scan ``radius``
neighboring leaves, which are *contiguous on disk* because the leaf
level is a sorted file; return the best true Euclidean distance found.

``exact_search`` is Algorithm 5 (CoconutTreeSIMS): seed a best-so-far
from the approximate answer, compute the MINDIST lower bound for every
in-memory summarization (``mindist_paa_sax`` builds one per-query
table of squared segment gaps, one row per segment and one column per
symbol, and gathers it at the driver-resident SAX matrix: the paper's
"multiple threads computing bounds in parallel" as one gather and one
sum), then perform the skip-sequential visit
(:func:`sims_scan`, shared with the ADS baseline): visit only the
records whose bound beats the *running* bsf, in the order of the file
that holds their series — the raw file for a secondary index, the leaf
file for a materialized one — and charge the blocks at their positions
in it.  The number of visited records (Fig 9f) and the block
traffic are accounted against the disk model.

Series are fetched by file position: a secondary index's candidates by
their raw-file positions (held in the resident summaries, or mapped
from the leaf entries' ids), a materialized index's by their ranks in
the leaf file.  Only what holds those positions is read, B series at a
time: the raw file's blocks, by offset, or the leaf file's row groups,
with pyarrow, whose tables the searches read as Arrow and numpy
columns, never as pandas frames.  Neither search starts a Spark job.
The refine computes every candidate's distance in one vectorized call.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from repro.core.coconut_common import CoconutIndex, Summaries, as_matrix
from repro.core.distance import euclidean
from repro.core.mindist import mindist_paa_sax
from repro.core.paa import paa
from repro.core.sax import symbols_from_paa
from repro.core.zorder import interleave
from repro.storage.disk_model import CPU_SORT_ITEM_S, DiskModel


@dataclass
class SearchResult:
    """Outcome of one query: answer id/distance plus cost accounting."""

    id: int
    distance: float
    leaves_visited: int = 0
    visited_records: int = 0          # raw records touched (Fig 9f)
    approx_distance: float = float("nan")
    disk: DiskModel | None = None
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)


def query_summary(index: CoconutIndex, query: np.ndarray) -> tuple[np.ndarray, np.ndarray, bytes]:
    """(paa, sax, zkey) of the query under the index's parameters."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape[-1] != index.length:
        raise ValueError(f"query length {q.shape[-1]} != index length {index.length}")
    if not np.isfinite(q).all():
        raise ValueError("query values must be finite (no NaN or inf)")
    qp = paa(q, index.w)
    qs = symbols_from_paa(qp, index.bits)
    return qp, qs, interleave(qs[None, :], index.bits)[0]


def _target_leaf_pos(index: CoconutIndex, zkey: bytes) -> int:
    """Directory position of the leaf whose key range would hold ``zkey``."""
    mins = index.directory["min_zkey"].to_numpy()
    pos = int(np.searchsorted(mins, zkey, side="right")) - 1
    return max(0, pos)


def _check_radius(radius: int) -> None:
    if radius < 1:
        raise ValueError(f"radius must be >= 1 leaf, got {radius}")


def _leaf_window(index: CoconutIndex, pos: int, radius: int) -> slice:
    """``radius`` directory positions centered on ``pos`` (clamped)."""
    n = index.n_leaves
    lo = max(0, pos - (radius - 1) // 2)
    hi = min(n, lo + radius)
    lo = max(0, hi - radius)
    return slice(lo, hi)


def _true_distances(
    index: CoconutIndex, leaves: pa.Table, query: np.ndarray, disk: DiskModel
) -> tuple[np.ndarray, np.ndarray]:
    """(ids, distances) of every record in ``leaves``, fetching raw
    series from the raw file when the index is secondary."""
    ids = leaves.column("id").to_numpy()
    if index.materialized:
        mat = as_matrix(leaves.column("series"), index.length)
    else:
        raw = index.raw_file()
        pos = np.sort(raw.positions(ids))  # raw-file order
        mat = index.fetch_raw(pos)
        # Secondary leaves point into the raw file at arbitrary offsets:
        # each uncached fetch is a random block read.
        disk.rand_read(len(mat))
        ids = raw.id[pos]
    return ids, euclidean(mat, np.asarray(query))


def approximate_search(
    index: CoconutIndex, query: np.ndarray, *, radius: int = 1
) -> SearchResult:
    """Algorithm 4: best true distance within ``radius`` contiguous leaves."""
    _check_radius(radius)
    t0 = time.perf_counter()
    disk = DiskModel(config=index.disk_config)
    _, _, qz = query_summary(index, query)
    window = _leaf_window(index, _target_leaf_pos(index, qz), radius)
    # Contiguous leaves: one sequential run covering the window.
    counts = index.directory["count"].to_numpy()[window]
    disk.seq_read(sum(index.leaf_blocks(int(c)) for c in counts))
    cols = ["id", "series"] if index.materialized else ["id", "zkey"]
    leaves = index.read_leaves(index.directory["leaf_id"].to_numpy()[window].tolist(), columns=cols)
    if not index.materialized:
        # Secondary index: the paper retrieves "all data series in a
        # specific radius from this point ... usually a disk page" — a
        # page of raw records around the query's sorted position per
        # radius step, not every offset in the (densely packed) leaves.
        # The leaves come in rank order: z-key order, ties in input order.
        keys = leaves.column("zkey").to_numpy(zero_copy_only=False)
        pos = int(np.searchsorted(keys, qz))
        half = max(1, index.disk_config.block_series * radius // 2)
        lo = max(0, min(pos - half, len(leaves) - 2 * half))
        leaves = leaves.slice(lo, 2 * half)
    ids, dists = _true_distances(index, leaves, query, disk)
    best = np.nanargmin(dists)  # a NaN series is never the answer; ties go to the first
    return SearchResult(
        id=int(ids[best]),
        distance=float(dists[best]),
        leaves_visited=len(counts),
        visited_records=len(dists),
        approx_distance=float(dists[best]),
        disk=disk,
        wall_s=time.perf_counter() - t0,
    )


def _ensure_summaries_loaded(index: CoconutIndex, disk: DiskModel) -> Summaries:
    """Algorithm 5 lines 3–4: first query pays one sequential load of the
    summarizations into memory; afterwards they are resident."""
    if index.summaries is None:
        disk.seq_read(index.disk_config.blocks(index.n_series, series=False))
        index.summaries = index.load_summaries()
    return index.summaries


def _candidate_series(index: CoconutIndex, pos: np.ndarray) -> np.ndarray:
    """Series at the file positions ``pos``, in that order, as one
    ``(k, length)`` array: from the leaf file when materialized (a
    position is a rank), else from the raw file."""
    if index.materialized:
        return as_matrix(index.row_groups.take(pos, ["series"]).column("series"), index.length)
    return index.fetch_raw(pos)


def sims_scan(
    query: np.ndarray,
    mindists: np.ndarray,
    series: np.ndarray,
    ids: np.ndarray,
    positions: np.ndarray,
    bsf: float,
    bsf_id: int,
    disk: DiskModel,
    per_block: int,
) -> tuple[int, float, int]:
    """Skip-sequential scan (SIMS [62] / Algorithm 5 lines 12–22).

    Walks the candidates in file order; each one whose lower bound beats
    the *running* bsf is visited: its raw series is read and refines the
    bsf.  Row ``i`` of ``series`` is candidate ``i``'s series.  The
    distances of the candidates whose bound beats the initial bsf are
    computed in one vectorized call; the walk then reads them.  Disk
    charge: the visited blocks ``positions // per_block``, one
    sequential run per contiguous stretch.  Returns (answer id, answer
    distance, visited record count).
    """
    pending = np.flatnonzero(mindists < bsf)
    dists = euclidean(series[pending], query)
    visited = []
    for i, d in zip(pending.tolist(), dists.tolist()):
        if mindists[i] >= bsf:
            continue  # pruned by the (shrinking) running bsf — skipped
        visited.append(i)
        if d < bsf:
            bsf = d
            bsf_id = int(ids[i])
    blocks = np.unique(positions[visited] // per_block)
    for run in np.split(blocks, np.flatnonzero(np.diff(blocks) != 1) + 1):
        disk.seq_read(len(run))
    return bsf_id, bsf, len(visited)


def exact_search(
    index: CoconutIndex, query: np.ndarray, *, radius: int = 1
) -> SearchResult:
    """Algorithm 5 (CoconutTreeSIMS): exact nearest neighbor."""
    _check_radius(radius)
    t0 = time.perf_counter()
    disk = DiskModel(config=index.disk_config)
    qp, _, _ = query_summary(index, query)
    sums = _ensure_summaries_loaded(index, disk)

    approx = approximate_search(index, query, radius=radius)
    disk.merge(approx.disk)
    # In-memory lower-bound computation over all N summaries (parallel
    # threads in the paper): CPU-only, one compare-scale op per summary.
    disk.charge_cpu(index.n_series * CPU_SORT_ITEM_S)

    md = mindist_paa_sax(qp, sums.sax, index.length, index.bits)
    keep = np.flatnonzero(md < approx.distance)  # candidate ranks: row i is rank i
    keep = keep[np.argsort(sums.pos[keep])]      # in series-file order
    pos = sums.pos[keep]
    # Series for candidates, fetched once by position; then visited in
    # the series file's order (SIMS's synchronized skip-sequential scan)
    # and charged at their positions in it.
    bsf_id, bsf, visited = sims_scan(
        query, md[keep], _candidate_series(index, pos), sums.id[keep], pos,
        approx.distance, approx.id, disk, index.disk_config.block_series,
    )

    return SearchResult(
        id=bsf_id,
        distance=bsf,
        leaves_visited=approx.leaves_visited,
        visited_records=visited,
        approx_distance=approx.distance,
        disk=disk,
        wall_s=time.perf_counter() - t0,
        extra={"candidates": len(keep)},
    )
