"""Piecewise Aggregate Approximation (PAA).

PAA (Keogh et al. [21]) summarizes a length-``n`` series as the means of
``w`` equal-sized segments.  It is the first stage of SAX (Figure 1 of
the paper) and the coordinate space of the R-tree baseline.
"""
from __future__ import annotations

import numpy as np


def paa(x: np.ndarray, w: int) -> np.ndarray:
    """PAA of series along the last axis.

    ``w`` must divide the series length (the paper uses n=256, w=16).
    Accepts (n,) or (m, n); returns (w,) or (m, w).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n % w != 0:
        raise ValueError(f"segment count w={w} must divide series length n={n}")
    return x.reshape(*x.shape[:-1], w, n // w).mean(axis=-1)
