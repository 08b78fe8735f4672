"""Shared fixtures: one small dataset and one built index per variant,
session-scoped so the Spark builds are paid once across the suite."""
from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro.baselines.dstree import DSTreeIndex
from repro.baselines.isax_index import ISaxIndex
from repro.baselines.rtree import RTreeIndex
from repro.baselines.vertical import VerticalIndex
from repro.core.coconut_tree import build_coconut_tree, merge_batch
from repro.core.coconut_trie import build_coconut_trie
from repro.storage.disk_model import DiskConfig
from repro.synth_data import query_workload, series_collection, series_matrix

N_SERIES = 400
LENGTH = 64
W, BITS = 8, 4
CAPACITY = 50
JOB_GROUP = "spark.jobGroup.id"


def jobs_under_group(spark, group: str, fn) -> list[int]:
    """Ids of the Spark jobs ``fn()`` starts, run under job group ``group``."""
    sc = spark.sparkContext
    sc.setLocalProperty(JOB_GROUP, group)
    try:
        fn()
    finally:
        sc.setLocalProperty(JOB_GROUP, None)
    # Job-start events reach the status tracker through the
    # asynchronous listener bus.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return list(sc.statusTracker().getJobIdsForGroup(group))


def assert_leaves_tile_ranks(directory, n: int) -> None:
    """The directory's leaves are contiguous rank ranges that tile
    0..n-1 in order: each leaf starts where the one before it ends."""
    counts = directory["count"].to_numpy()
    assert (counts > 0).all() and counts.sum() == n
    assert list(directory["leaf_id"]) == [0, *np.cumsum(counts)[:-1]]


def read_in_file_order(path: str, columns: list[str] | None = None) -> pd.DataFrame:
    """The records of the Parquet file ``path`` (a leaf file, or any
    sorted frame written without ``partitionBy``) as its part files, in
    name order, hold them, with each record's row position as ``rank``.
    ``spark.read`` does not promise that order; pyarrow reads it as is."""
    parts = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    t = pa.concat_tables([pq.read_table(os.path.join(path, f), columns=columns) for f in parts])
    pdf = t.to_pandas()
    pdf.insert(0, "rank", np.arange(len(pdf)))
    return pdf


def read_raw(path: str, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids and the ``(N, length)`` series of the raw file ``path``,
    in position order: its parts, in name order, each an ``.id`` file of
    int64 ids and a ``.series`` file of ``length``-wide float64 rows."""
    stems = sorted(f[: -len(".id")] for f in os.listdir(path) if f.endswith(".id"))
    ids = [np.fromfile(os.path.join(path, s + ".id"), dtype="<i8") for s in stems]
    series = [np.fromfile(os.path.join(path, s + ".series"), dtype="<f8") for s in stems]
    return np.concatenate(ids), np.concatenate(series).reshape(-1, length)


def persisted_rdds(spark) -> int:
    """Number of RDDs the Spark context holds persisted (cached)."""
    return spark.sparkContext._jsc.getPersistentRDDs().size()


@pytest.fixture(scope="session")
def disk_cfg() -> DiskConfig:
    return DiskConfig(
        block_series=32, memory_series=100, series_bytes=LENGTH * 8, summary_bytes=24
    )


@pytest.fixture(scope="session")
def walk_df(spark):
    df = series_collection(
        spark, n_series=N_SERIES, length=LENGTH, kind="walk", seed=0
    ).persist()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def walk_mat() -> np.ndarray:
    return series_matrix(n_series=N_SERIES, length=LENGTH, kind="walk", seed=0)


@pytest.fixture(scope="session")
def ids() -> np.ndarray:
    return np.arange(N_SERIES)


@pytest.fixture(scope="session")
def queries() -> np.ndarray:
    return query_workload(n_queries=5, length=LENGTH, kind="walk")


def _mk_coconut(builder, spark, walk_df, tmp, disk_cfg, *, materialized):
    idx = builder(
        spark, walk_df, path=str(tmp), w=W, bits=BITS, leaf_capacity=CAPACITY,
        materialized=materialized, disk_config=disk_cfg,
    )
    yield idx
    idx.close()
    shutil.rmtree(tmp, ignore_errors=True)


@pytest.fixture(scope="session")
def ctree(spark, walk_df, tmp_path_factory, disk_cfg):
    yield from _mk_coconut(
        build_coconut_tree, spark, walk_df,
        tmp_path_factory.mktemp("ctree"), disk_cfg, materialized=False,
    )


@pytest.fixture(scope="session")
def ctree_full(spark, walk_df, tmp_path_factory, disk_cfg):
    yield from _mk_coconut(
        build_coconut_tree, spark, walk_df,
        tmp_path_factory.mktemp("ctree_full"), disk_cfg, materialized=True,
    )


@pytest.fixture(scope="session")
def ctrie(spark, walk_df, tmp_path_factory, disk_cfg):
    yield from _mk_coconut(
        build_coconut_trie, spark, walk_df,
        tmp_path_factory.mktemp("ctrie"), disk_cfg, materialized=False,
    )


@pytest.fixture(scope="session")
def ctrie_full(spark, walk_df, tmp_path_factory, disk_cfg):
    yield from _mk_coconut(
        build_coconut_trie, spark, walk_df,
        tmp_path_factory.mktemp("ctrie_full"), disk_cfg, materialized=True,
    )


@pytest.fixture(scope="session")
def merged_index(spark, tmp_path_factory):
    """A secondary CTree of 150 walks with a batch of 60 merged in."""
    tmp = tmp_path_factory.mktemp("merge")
    cfg = DiskConfig(block_series=32, memory_series=50, series_bytes=512)
    base = series_collection(spark, n_series=150, length=64, seed=21)
    idx = build_coconut_tree(
        spark, base, path=str(tmp / "base"), w=8, bits=4, leaf_capacity=40,
        materialized=False, disk_config=cfg,
    )
    batch = series_collection(spark, n_series=60, length=64, seed=21, id_offset=150)
    merged = merge_batch(idx, batch, path=str(tmp / "merged"))
    yield merged
    merged.close()


@pytest.fixture(scope="session")
def ads_full(ids, walk_mat, disk_cfg):
    return ISaxIndex(
        ids, walk_mat, w=W, bits=BITS, leaf_capacity=CAPACITY,
        materialized=True, disk_config=disk_cfg,
    )


@pytest.fixture(scope="session")
def ads_plus(ids, walk_mat, disk_cfg):
    return ISaxIndex(
        ids, walk_mat, w=W, bits=BITS, leaf_capacity=CAPACITY,
        materialized=False, disk_config=disk_cfg,
    )


@pytest.fixture(scope="session")
def rtree(ids, walk_mat, disk_cfg):
    return RTreeIndex(
        ids, walk_mat, w=W, leaf_capacity=CAPACITY, materialized=True,
        disk_config=disk_cfg,
    )


@pytest.fixture(scope="session")
def rtree_plus(ids, walk_mat, disk_cfg):
    return RTreeIndex(
        ids, walk_mat, w=W, leaf_capacity=CAPACITY, materialized=False,
        disk_config=disk_cfg,
    )


@pytest.fixture(scope="session")
def dstree(ids, walk_mat, disk_cfg):
    return DSTreeIndex(
        ids, walk_mat, w=W, leaf_capacity=CAPACITY, disk_config=disk_cfg
    )


@pytest.fixture(scope="session")
def vertical(ids, walk_mat, disk_cfg):
    return VerticalIndex(ids, walk_mat, disk_config=disk_cfg)
