"""Figure 10 experiments: updates and complete workloads.

- 10a — interleaved bulk updates and queries: after an initial bulk
  load, batches of new series arrive, each followed by 2 exact queries.
  Coconut-Tree absorbs a batch by sort-and-merge (sequential); ADS+
  inserts top-down (random I/O per leaf touch).  The paper's crossover:
  highly fragmented updates favour ADS+, larger batches favour CTree.
- 10b/10c — complete workload (index construction + 100 exact queries)
  on the astronomy-like and seismic-like datasets, across memory
  configurations, plus the resulting index sizes.
"""
from __future__ import annotations

import shutil
import tempfile
import time

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.common import collect_series
from repro.baselines.isax_index import ISaxIndex
from repro.core import query as cquery
from repro.core.coconut_tree import build_coconut_tree, merge_batch
from repro.experiments.harness import build_system, disk_config_for, run_queries
from repro.storage.disk_model import DiskModel
from repro.synth_data import query_workload, series_collection


def updates_workload(
    spark: SparkSession,
    *,
    total_series: int = 2000,
    initial_frac: float = 0.5,
    batch_sizes: tuple[int, ...] = (100, 500),
    queries_per_batch: int = 2,
    length: int = 64,
    w: int = 8,
    bits: int = 4,
    leaf_capacity: int = 100,
    mem_frac: float = 0.01,
    kind: str = "walk",
    workdir: str | None = None,
) -> list[dict]:
    """Fig 10a: total time (build + updates + queries) per batch size.

    ``sim_s`` is the simulated time of the initial build, every update
    and every query; ``wall_s`` is the measured time of the updates
    (CTree merges, ADS+ inserts) and the queries, not of the initial
    build.  A CTree merge's time includes generating its batch, which
    runs lazily inside the merge's Spark job."""
    cfg = disk_config_for(total_series, length, mem_frac=mem_frac)
    initial = int(total_series * initial_frac)
    queries = query_workload(n_queries=64, length=length, kind=kind)
    rows = []
    for batch in batch_sizes:
        starts = list(range(initial, total_series, batch))
        # --- Coconut-Tree: bulk merge per batch --------------------------
        base_df = series_collection(
            spark, n_series=initial, length=length, kind=kind
        )
        path = tempfile.mkdtemp(dir=workdir, prefix="ctree_upd_")
        idx = build_coconut_tree(
            spark, base_df, path=path, w=w, bits=bits,
            leaf_capacity=leaf_capacity, materialized=False, disk_config=cfg,
        )
        sim, wall = idx.build_disk.seconds(), 0.0
        qi = 0
        for s in starts:
            b = min(batch, total_series - s)
            batch_df = series_collection(
                spark, n_series=b, length=length, kind=kind, id_offset=s
            )
            old_path = idx.path
            t0 = time.perf_counter()
            idx = merge_batch(idx, batch_df, path=tempfile.mkdtemp(dir=workdir, prefix="ctree_upd_"))
            wall += time.perf_counter() - t0
            shutil.rmtree(old_path, ignore_errors=True)  # superseded by the merge
            sim += idx.build_disk.seconds()
            for _ in range(queries_per_batch):
                t0 = time.perf_counter()
                r = cquery.exact_search(idx, queries[qi % len(queries)])
                wall += time.perf_counter() - t0
                sim += r.disk.seconds()
                qi += 1
        rows.append({"system": "CTree", "batch": batch, "sim_s": sim,
                     "wall_s": wall, "n_batches": len(starts)})
        idx.close()
        shutil.rmtree(idx.path, ignore_errors=True)
        # --- ADS+: top-down insertion per batch --------------------------
        ids, series = collect_series(
            series_collection(spark, n_series=initial, length=length, kind=kind)
        )
        ads = ISaxIndex(
            ids, series, w=w, bits=bits, leaf_capacity=leaf_capacity,
            materialized=False, disk_config=cfg,
        )
        sim, wall = ads.build_disk.seconds(), 0.0
        qi = 0
        for s in starts:
            b = min(batch, total_series - s)
            bids, bseries = collect_series(
                series_collection(spark, n_series=b, length=length, kind=kind, id_offset=s)
            )
            before, t0 = ads.build_disk.seconds(), time.perf_counter()
            ads.insert_batch(bids, bseries)
            wall += time.perf_counter() - t0
            sim += ads.build_disk.seconds() - before
            for _ in range(queries_per_batch):
                t0 = time.perf_counter()
                r = ads.exact(queries[qi % len(queries)])
                wall += time.perf_counter() - t0
                sim += r.disk.seconds()
                qi += 1
        rows.append({"system": "ADS+", "batch": batch, "sim_s": sim,
                     "wall_s": wall, "n_batches": len(starts)})
    return rows


def complete_workload(
    spark: SparkSession,
    *,
    kind: str,
    systems: tuple[str, ...] = ("CTree", "CTreeFull", "ADS+", "ADSFull"),
    n_series: int = 2000,
    n_queries: int = 20,
    length: int = 64,
    w: int = 8,
    bits: int = 4,
    leaf_capacity: int = 100,
    mem_fracs: tuple[float, ...] = (1.0, 0.01),
    workdir: str | None = None,
) -> list[dict]:
    """Fig 10b/10c: construction + exact-query workload on a real-like
    dataset, per memory configuration; index sizes alongside."""
    df = series_collection(spark, n_series=n_series, length=length, kind=kind).persist()
    df.count()
    queries = query_workload(n_queries=n_queries, length=length, kind=kind)
    rows = []
    for mem_frac in mem_fracs:
        cfg = disk_config_for(n_series, length, mem_frac=mem_frac)
        for name in systems:
            h = build_system(
                name, spark, df, w=w, bits=bits, leaf_capacity=leaf_capacity,
                disk_config=cfg, workdir=workdir,
            )
            qr = run_queries(h, queries, mode="exact")
            rows.append({
                "system": name,
                "kind": kind,
                "mem_frac": mem_frac,
                "build_sim_s": h.build_sim_s,
                "query_sim_s": qr["avg_sim_s"] * n_queries,
                "total_sim_s": h.build_sim_s + qr["avg_sim_s"] * n_queries,
                "index_bytes": h.index_bytes,
                "avg_visited": qr["avg_visited"],
            })
            h.close()
    df.unpersist()
    return rows
