"""The two Coconut workloads: set-up, one round of timed work, checks.

Fixed configuration shared by all workloads: series length 128, w=8,
bits=8, leaf capacity 100, and the disk model of
``benchmarks/conftest.py`` (B=32 series, M=N/10, 1 KiB series, 24 B
summaries).  Inputs come from ``repro.synth_data`` under the run's seed;
queries use ``seed + QUERY_SEED_OFFSET``, so they are never members of
the collection.  One closed-loop client: each operation starts when the
previous one has returned and been checked.

A *round* is the unit each workload repeats:

- ``bulk_load``: bulk-load CTree, CTreeFull and CTrie over N series, and
  ``merge_batch`` one batch into the CTreeFull just built.
- ``query_mix``: one query, answered by ``approximate_search`` and then
  by ``exact_search`` over a secondary CTree.

Every operation is checked (see :class:`Tally`); a failure is counted,
never dropped.
"""
from __future__ import annotations

import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import coconut_tree, coconut_trie, query
from repro.core.coconut_common import CoconutIndex
from repro.storage.disk_model import DiskConfig
from repro.synth_data import query_workload, series_collection, series_matrix
from spans import Tracer, dir_bytes

LENGTH, W, BITS, CAPACITY = 128, 8, 8, 100
QUERY_SEED_OFFSET = 10_000_000
N_QUERIES = 16
N_WARMUP = 3           # query latency settles after a few queries (JIT)
ABS_TOL = 1e-9


def disk_config(n: int) -> DiskConfig:
    return DiskConfig(
        block_series=32, memory_series=n // 10,
        series_bytes=LENGTH * 8, summary_bytes=24,
    )


def data_matrix(seed: int, n: int, kind: str, id_offset: int = 0) -> np.ndarray:
    """Row ``i`` is the series with id ``id_offset + i``."""
    return series_matrix(n_series=n, length=LENGTH, kind=kind, seed=seed, id_offset=id_offset)


def query_set(seed: int, kind: str, n: int = N_QUERIES + N_WARMUP) -> np.ndarray:
    """The query pool followed by the warm-up queries."""
    return query_workload(n_queries=n, length=LENGTH, kind=kind, seed=QUERY_SEED_OFFSET + seed)


def distances(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.sqrt(((mat - q) ** 2).sum(axis=1))


@dataclass
class Tally:
    """Attempted and failed operations; each failure keeps its reason."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def index_ok(index: CoconutIndex, n: int) -> bool:
    """Directory counts sum to ``n`` and leaf ``min_zkey`` strictly rises."""
    d = index.directory
    keys = list(d["min_zkey"])
    return (
        index.n_series == n
        and int(d["count"].sum()) == n
        and all(a < b for a, b in zip(keys, keys[1:]))
    )


def exact_ok(res, true_d: float, d_of_id: float) -> bool:
    """Exact answer equals brute force, and its id has that distance."""
    tol = ABS_TOL * max(1.0, true_d)
    return abs(res.distance - true_d) <= tol and abs(d_of_id - res.distance) <= tol


def approx_ok(res, true_d: float, d_of_id: float | None) -> bool:
    """Approximate answer is a member at the distance it reports, no
    closer than the true nearest neighbour."""
    if d_of_id is None:
        return False
    tol = ABS_TOL * max(1.0, true_d)
    return abs(d_of_id - res.distance) <= tol and res.distance >= true_d - tol


@dataclass
class Event:
    """One timed operation and the counters the program returned for it."""

    round: int
    kind: str             # build_ctree | build_ctree_full | build_ctrie | merge | approx | exact
    wall_s: float
    n: int                # collection size the operation saw
    disk: dict = field(default_factory=dict)
    index_bytes: int = 0  # bytes under leaves/ (builds and merges)
    candidates: int = 0
    visited: int = 0
    ratio: float = 0.0    # approx distance / true NN distance


class Workload:
    """Base: owns the work directory, the tally and the event log."""

    name = ""
    kind = "walk"
    trace_rounds = 1          # traced rounds the per-layer figures average

    def __init__(self, spark, seed: int, work: Path, tracer: Tracer):
        self.spark, self.seed, self.work, self.tracer = spark, seed, work, tracer
        self.tally = Tally()
        self.events: list[Event] = []
        self.index_bytes_per_series = 0.0
        self._persisted = []
        work.mkdir(parents=True, exist_ok=True)

    # -- helpers -----------------------------------------------------------
    def collection(self, n: int, id_offset: int = 0):
        df = series_collection(
            self.spark, n_series=n, length=LENGTH, kind=self.kind,
            seed=self.seed, id_offset=id_offset,
        ).persist()
        df.count()
        self._persisted.append(df)
        return df

    def attempt(self, what: str, fn):
        """Run one operation; an exception is a counted failure."""
        try:
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - the run goes on, the failure is counted
            traceback.print_exc(file=sys.stderr)
            self.tally.record(False, f"{what}: raised")
            return None, 0.0

    def drop(self, index: CoconutIndex | None, path: Path) -> None:
        if index is not None:
            index.close()
        shutil.rmtree(path, ignore_errors=True)

    def run_queries(self, r: int, index: CoconutIndex, q: np.ndarray,
                    member: np.ndarray, ids: np.ndarray, true_d: float) -> None:
        """Approximate then exact answer to ``q``, both checked.

        ``member`` is the current collection as a matrix, ``ids`` its ids.
        """
        row_of = {int(i): k for k, i in enumerate(ids)}

        def dist_of(i: int) -> float | None:
            k = row_of.get(int(i))
            return None if k is None else float(distances(member[k:k + 1], q)[0])

        with self.tracer.op("approx"):
            res, wall = self.attempt("approx", lambda: query.approximate_search(index, q, radius=1))
        if res is not None:
            self.tally.record(approx_ok(res, true_d, dist_of(res.id)), f"approx r{r}")
            self.events.append(Event(
                r, "approx", wall, len(ids), res.disk.snapshot(),
                visited=res.visited_records, ratio=res.distance / true_d,
            ))
        with self.tracer.op("exact"):
            res, wall = self.attempt("exact", lambda: query.exact_search(index, q, radius=1))
        if res is not None:
            d = dist_of(res.id)
            self.tally.record(d is not None and exact_ok(res, true_d, d), f"exact r{r}")
            self.events.append(Event(
                r, "exact", wall, len(ids), res.disk.snapshot(),
                candidates=res.extra["candidates"], visited=res.visited_records,
            ))

    def close(self) -> None:
        for df in self._persisted:
            df.unpersist()
        shutil.rmtree(self.work, ignore_errors=True)


class BulkLoad(Workload):
    """Construction only: summarize, sort+rank, leaf write, directory,
    and the batch merge that re-runs them over old leaves plus a batch."""

    name = "bulk_load"
    n = 8000
    batch = 1000
    warm_n = 200
    variants = (
        ("build_ctree", "tree", False),
        ("build_ctree_full", "tree", True),
        ("build_ctrie", "trie", False),
    )

    def _build(self, variant: str, materialized: bool, df, path: Path, n: int) -> CoconutIndex:
        fn = coconut_tree.build_coconut_tree if variant == "tree" else coconut_trie.build_coconut_trie
        return fn(
            self.spark, df, path=str(path), w=W, bits=BITS, leaf_capacity=CAPACITY,
            materialized=materialized, disk_config=disk_config(n),
        )

    def setup(self) -> None:
        self.df = self.collection(self.n)
        self.batch_df = self.collection(self.batch, id_offset=self.n)
        # Warm-up on a small collection: a CTrie build runs every code
        # path of the three variants (summarize, sort+rank, the trie's
        # grouped split and join, leaf write, directory), and a CTreeFull
        # build plus a merge adds the leaf read-back a merge does.
        # Warming each variant at full size would cost ~20 s of set-up.
        warm = self.collection(self.warm_n, id_offset=self.n + self.batch)
        path = self.work / "warm"
        self.drop(self._build("trie", False, warm, path, self.warm_n), path)
        full = self._build("tree", True, warm, path, self.warm_n)
        merged = coconut_tree.merge_batch(full, self.batch_df, path=str(self.work / "warm-merged"))
        self.drop(full, path)
        self.drop(merged, self.work / "warm-merged")

    def run_round(self, r: int, i: int) -> None:
        for kind, variant, mat in self.variants:
            path = self.work / f"r{r}-{kind}"
            with self.tracer.op(kind):
                index, wall = self.attempt(kind, lambda: self._build(variant, mat, self.df, path, self.n))
            if index is None:
                self.drop(None, path)
                continue
            self.tally.record(index_ok(index, self.n), f"{kind} r{r}")
            ev = Event(r, kind, wall, self.n, index.build_disk.snapshot(),
                       index_bytes=dir_bytes(path / "leaves"))
            self.events.append(ev)
            if kind == "build_ctree":
                self.index_bytes_per_series = ev.index_bytes / self.n
            if kind == "build_ctree_full":
                # merge_batch closes its input and leaves its directory
                # behind; both are deleted here.
                self.merge(r, index)
            self.drop(index, path)

    def merge(self, r: int, index: CoconutIndex) -> None:
        n = self.n + self.batch
        path = self.work / f"r{r}-merged"
        with self.tracer.op("merge"):
            merged, wall = self.attempt(
                "merge", lambda: coconut_tree.merge_batch(index, self.batch_df, path=str(path))
            )
        if merged is not None:
            self.tally.record(index_ok(merged, n), f"merge r{r}")
            self.events.append(Event(r, "merge", wall, n, merged.build_disk.snapshot(),
                                     index_bytes=dir_bytes(path / "leaves")))
        self.drop(merged, path)


class QueryMix(Workload):
    """Query path only, over a secondary CTree of random walks."""

    name = "query_mix"
    n = 8000
    trace_rounds = 3

    def setup(self) -> None:
        df = self.collection(self.n)
        self.mat = data_matrix(self.seed, self.n, self.kind)
        self.ids = np.arange(self.n)
        self.queries = query_set(self.seed, self.kind)
        self.truth = [float(distances(self.mat, q).min()) for q in self.queries]
        self.path = self.work / "index"
        self.index = coconut_tree.build_coconut_tree(
            self.spark, df, path=str(self.path), w=W, bits=BITS, leaf_capacity=CAPACITY,
            materialized=False, disk_config=disk_config(self.n),
        )
        if not index_ok(self.index, self.n):
            raise RuntimeError("query_mix: initial index failed its check")
        self.index_bytes_per_series = dir_bytes(self.path / "leaves") / self.n
        for q in self.queries[N_QUERIES:]:
            query.approximate_search(self.index, q, radius=1)
            query.exact_search(self.index, q, radius=1)

    def run_round(self, r: int, i: int) -> None:
        k = i % N_QUERIES
        self.run_queries(r, self.index, self.queries[k], self.mat, self.ids, self.truth[k])

    def close(self) -> None:
        if hasattr(self, "index"):
            self.index.close()
        super().close()


WORKLOADS = {w.name: w for w in (BulkLoad, QueryMix)}
