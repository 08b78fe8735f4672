"""Synthetic data series collections and query workloads.

The paper evaluates on (a) random-walk synthetic series ("extensively
used ... models real-world financial data"), (b) seismic waves from
IRIS, (c) astronomy series of celestial objects.  We cannot download
(b) and (c); ``kind="seismic"`` and ``kind="astro"`` are synthetic
substitutes that reproduce the property the paper relies on: they are
*denser* (series more alike, so SAX pruning is less effective) and,
for astro, value-skewed (Fig 7).  All series are z-normalized, as the
paper requires.  Generation is deterministic per (seed, id) so the
driver-side matrix path (:func:`series_matrix`) and the distributed
DataFrame path (:func:`series_collection`) produce bit-identical series
for the same ids.
"""
import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.distance import znormalize

SERIES_KINDS = ("walk", "seismic", "astro")


def _one_series(kind: str, length: int, seed: int, sid: int) -> np.ndarray:
    g = np.random.default_rng([seed, sid])
    if kind == "walk":
        x = np.cumsum(g.standard_normal(length))
    elif kind == "seismic":
        # Background noise plus an oscillatory burst at a random offset —
        # a band-limited wave-train like a windowed seismogram. A small
        # set of discrete carrier frequencies keeps the collection dense.
        t = np.arange(length)
        freq = g.choice([4.0, 6.0, 8.0]) / length
        phase = g.uniform(0, 2 * np.pi)
        start = g.integers(0, max(1, length // 2))
        env = np.exp(-0.5 * ((t - start - length / 4) / (length / 8)) ** 2)
        x = np.sin(2 * np.pi * freq * t + phase) * env * 3.0
        x = x + 0.3 * g.standard_normal(length)
    elif kind == "astro":
        # Slow random walk with occasional large positive flares —
        # right-skewed values like AGN hard-X-ray light curves.
        x = np.cumsum(0.3 * g.standard_normal(length))
        n_flares = int(g.integers(0, 3))
        t = np.arange(length)
        for _ in range(n_flares):
            c = g.integers(0, length)
            x = x + g.uniform(2, 8) * np.exp(-0.5 * ((t - c) / (length / 20)) ** 2)
    else:
        raise ValueError(f"unknown series kind {kind!r}; one of {SERIES_KINDS}")
    return znormalize(x)


def series_matrix(
    *, n_series: int, length: int = 64, kind: str = "walk", seed: int = 0,
    id_offset: int = 0,
) -> np.ndarray:
    """Driver-side (n_series, length) float64 matrix of z-normalized series.

    Row ``i`` is the series with id ``id_offset + i`` — identical to what
    :func:`series_collection` yields for that id.
    """
    return np.stack(
        [_one_series(kind, length, seed, id_offset + i) for i in range(n_series)]
    )


def series_collection(
    spark: SparkSession, *, n_series: int, length: int = 64, kind: str = "walk",
    seed: int = 0, id_offset: int = 0, partitions: int | None = None,
) -> DataFrame:
    """Distributed data series collection: (id long, series array<double>).

    Generated with ``spark.range`` + ``mapInPandas`` so nothing large
    ever sits on the driver; per-id seeding keeps it deterministic
    regardless of partitioning.
    """
    import pandas as pd  # local: keep worker-side imports explicit

    ids = spark.range(id_offset, id_offset + n_series, 1, partitions or 8)

    def gen(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            rows = [_one_series(kind, length, seed, int(i)) for i in pdf["id"]]
            yield pd.DataFrame({"id": pdf["id"].to_numpy(), "series": rows})

    return ids.mapInPandas(gen, schema="id long, series array<double>")


def query_workload(
    *, n_queries: int, length: int = 64, kind: str = "walk", seed: int = 10_000_000
) -> np.ndarray:
    """Query series drawn from the same process as the dataset (paper §5
    Workloads), under a disjoint seed so they are not dataset members."""
    return series_matrix(n_series=n_queries, length=length, kind=kind, seed=seed)

