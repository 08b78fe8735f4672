"""Lower-bounding distance for SAX summarizations.

``mindist_paa_sax`` is the classic iSAX lower bound (Shieh & Keogh
[54]): the distance from a query's PAA values to the SAX *regions* of a
candidate, guaranteed ≤ the true Euclidean distance.  The paper's
pruning claims (approximate search quality, SIMS skip-scan, Fig 9d–f)
all rest on this bound; Coconut keeps it unchanged because invSAX is a
bijective re-ordering of the same bits (§4.1).
"""
from __future__ import annotations

import numpy as np

from repro.core.sax import region_edges


def mindist_paa_sax(
    query_paa: np.ndarray, cand_sax: np.ndarray, n: int, bits: int
) -> np.ndarray:
    """Lower bound on ED(query, candidate) from the candidate's SAX word.

    ``query_paa``: (w,) PAA of the query. ``cand_sax``: (w,) or (m, w)
    symbols. ``n`` is the raw series length.  Per segment, the gap is the
    distance from the query's PAA value to the nearest edge of the
    candidate's region (0 if inside); MINDIST = sqrt(n/w * sum(gap^2)).

    A segment's gap depends only on (segment, symbol), so the squared
    gaps are computed once per query, as a ``(w, 2**bits)`` table, and
    each candidate's are gathered from it: the bound pass is one gather
    and one sum, whatever ``m`` is.
    """
    q = np.asarray(query_paa, dtype=np.float64)
    s = np.atleast_2d(np.asarray(cand_sax))
    w = q.shape[-1]
    if s.shape[-1] != w:
        raise ValueError(f"segment mismatch: query w={w}, candidate w={s.shape[-1]}")
    lo, hi = region_edges(np.arange(1 << bits), bits)
    qc = q[:, None]
    gap = np.where(qc < lo, lo - qc, np.where(qc > hi, qc - hi, 0.0))
    d = np.sqrt((n / w) * np.sum((gap**2)[np.arange(w), s], axis=-1))
    return d[0] if np.asarray(cand_sax).ndim == 1 else d
