"""Common harness for the evaluation experiments (Figures 8–10).

Every system under test — the Coconut variants and the four baselines —
is exposed through one uniform :class:`SystemHandle`, so each
experiment is a sweep over (system, axis) producing printable rows.
Coconut systems build through the Spark bulk-load path; baselines build
driver-side; both charge the same disk model, and both wall-clock and
simulated-I/O seconds are reported (see DESIGN.md §2 for why the
simulated axis is the one comparable to the paper's memory sweeps).
"""
from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.common import collect_series
from repro.baselines.dstree import DSTreeIndex
from repro.baselines.isax_index import ISaxIndex
from repro.baselines.rtree import RTreeIndex
from repro.baselines.vertical import VerticalIndex
from repro.core import query as cquery
from repro.core.coconut_tree import build_coconut_tree
from repro.core.coconut_trie import build_coconut_trie
from repro.core.query import SearchResult
from repro.storage.disk_model import DiskConfig

#: Canonical system names, as used in the paper's figures.
MATERIALIZED_SYSTEMS = ["CTreeFull", "CTrieFull", "ADSFull", "R-tree", "DSTree", "Vertical"]
SECONDARY_SYSTEMS = ["CTree", "CTrie", "ADS+", "R-tree+"]
COCONUT_SYSTEMS = {"CTree", "CTrie", "CTreeFull", "CTrieFull"}


@dataclass
class SystemHandle:
    """Uniform facade over a built index."""

    name: str
    n_leaves: int
    fill_factor: float
    index_bytes: int
    build_sim_s: float
    build_wall_s: float
    build_io: dict
    approximate: Callable[..., SearchResult]
    exact: Callable[..., SearchResult]
    close: Callable[[], None]


def disk_config_for(n_series: int, length: int, *, mem_frac: float) -> DiskConfig:
    """Disk geometry scaled to the experiment: a block holds ~32 series,
    memory holds ``mem_frac * n_series`` series."""
    series_bytes = length * 8
    return DiskConfig(
        block_series=32,
        memory_series=max(1, int(mem_frac * n_series)),
        series_bytes=series_bytes,
        summary_bytes=24,
    )


def build_system(
    name: str,
    spark: SparkSession,
    series_df: DataFrame,
    *,
    w: int,
    bits: int,
    leaf_capacity: int,
    disk_config: DiskConfig,
    workdir: str | None = None,
) -> SystemHandle:
    """Build the named system over ``series_df`` and wrap it."""
    if name in COCONUT_SYSTEMS:
        builder = build_coconut_tree if "Tree" in name else build_coconut_trie
        path = tempfile.mkdtemp(dir=workdir, prefix=f"{name}_")
        idx = builder(
            spark, series_df, path=path, w=w, bits=bits,
            leaf_capacity=leaf_capacity, materialized=name.endswith("Full"),
            disk_config=disk_config,
        )
        approximate = lambda q, radius=1: cquery.approximate_search(idx, q, radius=radius)
        exact = lambda q, radius=1: cquery.exact_search(idx, q, radius=radius)
        close = lambda: (idx.close(), shutil.rmtree(path, ignore_errors=True))
    else:
        ids, series = collect_series(series_df)
        if name in ("ADSFull", "ADS+"):
            idx = ISaxIndex(
                ids, series, w=w, bits=bits, leaf_capacity=leaf_capacity,
                materialized=(name == "ADSFull"), disk_config=disk_config,
            )
        elif name in ("R-tree", "R-tree+"):
            idx = RTreeIndex(
                ids, series, w=w, leaf_capacity=leaf_capacity,
                materialized=(name == "R-tree"), disk_config=disk_config,
            )
        elif name == "DSTree":
            idx = DSTreeIndex(
                ids, series, w=w, leaf_capacity=leaf_capacity, disk_config=disk_config
            )
        elif name == "Vertical":
            idx = VerticalIndex(ids, series, disk_config=disk_config)
        else:
            raise ValueError(f"unknown system {name!r}")
        approximate = lambda q, radius=1: idx.approximate(q)
        exact = lambda q, radius=1: idx.exact(q)
        close = lambda: None
    return SystemHandle(
        name=name,
        n_leaves=idx.n_leaves,
        fill_factor=idx.fill_factor,
        index_bytes=idx.index_bytes,
        build_sim_s=idx.build_disk.seconds(),
        build_wall_s=idx.build_wall_s,
        build_io=idx.build_disk.snapshot(),
        approximate=approximate,
        exact=exact,
        close=close,
    )


def run_queries(
    handle: SystemHandle, queries: np.ndarray, *, mode: str, radius: int = 1
) -> dict:
    """Run a query workload; return averaged metrics for one table row."""
    fn = handle.exact if mode == "exact" else handle.approximate
    results = [fn(q, radius=radius) for q in queries]
    return {
        "system": handle.name,
        "mode": mode,
        "radius": radius,
        "avg_sim_s": float(np.mean([r.disk.seconds() for r in results])),
        "avg_wall_s": float(np.mean([r.wall_s for r in results])),
        "avg_distance": float(np.mean([r.distance for r in results])),
        "avg_visited": float(np.mean([r.visited_records for r in results])),
        "distances": [r.distance for r in results],
    }


def format_rows(rows: list[dict], columns: list[str], title: str) -> str:
    """Fixed-width table for jobs/ output and EXPERIMENTS.md."""
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c)
        for c in columns
    }
    lines = [title, "  ".join(c.ljust(widths[c]) for c in columns)]
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)
