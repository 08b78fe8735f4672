"""Figure 8 experiments: index construction time and space.

- 8a/8b — construction time vs available memory, materialized (8a) and
  non-materialized (8b) systems.
- 8c   — space overhead for a fixed dataset (index bytes / raw bytes,
  leaf count, fill factor), read off the 8a/8b rows.
- 8d/8e — construction time vs dataset size with memory fixed.
- 8f   — construction time vs series length at fixed raw volume.

Each function returns one row per (system, axis point); the paper's
qualitative expectations for each are recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.experiments.harness import build_system, disk_config_for
from repro.synth_data import series_collection


def _build_row(name: str, spark, df, *, n, length, w, bits, leaf_capacity, mem_frac, workdir):
    cfg = disk_config_for(n, length, mem_frac=mem_frac)
    h = build_system(
        name, spark, df, w=w, bits=bits, leaf_capacity=leaf_capacity,
        disk_config=cfg, workdir=workdir,
    )
    row = {
        "system": name,
        "n_series": n,
        "length": length,
        "mem_frac": mem_frac,
        "sim_s": h.build_sim_s,
        "wall_s": h.build_wall_s,
        "rand_ios": h.build_io["random_reads"] + h.build_io["random_writes"],
        "seq_blocks": h.build_io["seq_read_blocks"] + h.build_io["seq_write_blocks"],
        "n_leaves": h.n_leaves,
        "fill": h.fill_factor,
        "index_bytes": h.index_bytes,
        "space_ratio": h.index_bytes / (n * length * 8),
    }
    h.close()
    return row


def _sweep(spark, systems, points, *, w, bits, leaf_capacity, kind, workdir) -> list[dict]:
    """Build every system once per ``(n, length, mem_frac)`` point, each
    point over one persisted collection; one row per build."""
    rows = []
    for n, length, mem_fracs in points:
        df = series_collection(spark, n_series=n, length=length, kind=kind).persist()
        df.count()
        for mem_frac in mem_fracs:
            for name in systems:
                rows.append(
                    _build_row(
                        name, spark, df, n=n, length=length, w=w, bits=bits,
                        leaf_capacity=leaf_capacity, mem_frac=mem_frac, workdir=workdir,
                    )
                )
        df.unpersist()
    return rows


def construction_vs_memory(
    spark: SparkSession,
    *,
    systems: list[str],
    n_series: int = 2000,
    length: int = 64,
    w: int = 8,
    bits: int = 4,
    leaf_capacity: int = 100,
    mem_fracs: tuple[float, ...] = (2.0, 0.25, 0.05),
    kind: str = "walk",
    workdir: str | None = None,
) -> list[dict]:
    """Fig 8a (materialized systems) / 8b (secondary systems), and Fig 8c
    from the same rows: leaf count, fill, index bytes and ``space_ratio``
    (index bytes / raw bytes) do not depend on memory."""
    return _sweep(
        spark, systems, [(n_series, length, mem_fracs)], w=w, bits=bits,
        leaf_capacity=leaf_capacity, kind=kind, workdir=workdir,
    )


def construction_vs_datasize(
    spark: SparkSession,
    *,
    systems: list[str],
    sizes: tuple[int, ...] = (500, 1000, 2000),
    memory_series: int = 200,
    length: int = 64,
    w: int = 8,
    bits: int = 4,
    leaf_capacity: int = 100,
    kind: str = "walk",
    workdir: str | None = None,
) -> list[dict]:
    """Fig 8d/8e: fixed memory (the paper's 8 GB workstation), growing N.

    The paper's crossover: while N ≲ M all systems are comparable; once
    N ≫ M the top-down systems' random I/O dominates and the Coconut
    bulk loaders win.
    """
    return _sweep(
        spark, systems, [(n, length, (memory_series / n,)) for n in sizes], w=w,
        bits=bits, leaf_capacity=leaf_capacity, kind=kind, workdir=workdir,
    )


def construction_vs_length(
    spark: SparkSession,
    *,
    systems: list[str],
    lengths: tuple[int, ...] = (32, 64, 128),
    total_points: int = 128_000,
    w: int = 8,
    bits: int = 4,
    leaf_capacity: int = 100,
    mem_frac: float = 0.05,
    kind: str = "walk",
    workdir: str | None = None,
) -> list[dict]:
    """Fig 8f: constant raw volume (N·length fixed), varying length."""
    points = [
        (max(leaf_capacity, total_points // length), length, (mem_frac,))
        for length in lengths
    ]
    return _sweep(
        spark, systems, points, w=w, bits=bits, leaf_capacity=leaf_capacity,
        kind=kind, workdir=workdir,
    )
