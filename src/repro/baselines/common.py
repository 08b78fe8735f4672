"""Shared plumbing for the baseline indexes.

The baselines the paper compares against (iSAX 2.0/ADS, DSTree, R-tree,
Vertical) are *top-down insertion* or *multi-pass* algorithms — inherently
sequential driver-side loops.  They run over numpy arrays collected from
the Spark DataFrames (the datasets at our scale fit the driver easily)
and charge all their block traffic to the same
:class:`repro.storage.disk_model.DiskModel` as the Coconut indexes, so
construction/query comparisons are made in the same cost model the
paper's own analysis uses (§3).  ADS's exact search uses the Coconut
SIMS scan itself, :func:`repro.core.query.sims_scan`.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.core.distance import euclidean


def collect_series(series_df: DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Collect (ids, series matrix) ordered by id — the 'raw file' order."""
    pdf = series_df.select("id", "series").toPandas().sort_values("id")
    return pdf["id"].to_numpy(), np.stack(pdf["series"].to_numpy())


def leaf_true_distances(
    rows: np.ndarray, series: np.ndarray, ids: np.ndarray, query: np.ndarray
) -> tuple[int, float]:
    """Best (id, distance) among ``rows`` (indexes into the collection)."""
    d = euclidean(series[rows], query)
    k = int(np.argmin(d))
    return int(ids[rows[k]]), float(d[k])


__all__ = ["collect_series", "leaf_true_distances"]
