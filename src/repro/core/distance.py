"""Euclidean distance and z-normalization for data series.

The paper (§2) evaluates similarity with Euclidean distance (ED) over
z-normalized series of equal length.  Both are vectorized numpy, used by
the synthetic data, the indexes and query refinement.
"""
from __future__ import annotations

import numpy as np


def znormalize(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Z-normalize along the last axis: subtract mean, divide by std.

    Constant series (std < ``eps``) map to all-zeros rather than NaN,
    matching the common data-series-indexing convention.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    const = sd < eps
    return np.where(const, 0.0, (x - mu) / np.where(const, 1.0, sd))


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ED between series. Supports (n,) vs (n,), (m,n) vs (n,), (m,n) vs (m,n)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.sqrt(np.sum((a - b) ** 2, axis=-1))
