"""Symbolic Aggregate approXimation (SAX / iSAX).

SAX (Lin et al. [27], Shieh & Keogh [54]) discretizes each PAA value
into one of ``2**bits`` regions whose boundaries are standard-normal
quantiles, so z-normalized values spread roughly evenly across regions
(Figure 1 of the paper).  Symbols are the region indexes, ordered by
value: symbol 0 is the lowest region.  An iSAX *word* is the vector of
per-segment symbols; a lower-cardinality word is obtained by dropping
low-order bits (``reduce_word``), which is how prefix-split indexes
(iSAX 2.0 / ADS / Coconut-Trie) define their nodes.
"""
from __future__ import annotations

from functools import lru_cache
from statistics import NormalDist

import numpy as np

from repro.core.paa import paa

_NORM = NormalDist()


@lru_cache(maxsize=32)
def breakpoints(bits: int) -> np.ndarray:
    """The 2**bits - 1 standard-normal quantile breakpoints.

    ``breakpoints(3)`` are the 7 cut points dividing N(0,1) mass into 8
    equal regions.
    """
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    a = 1 << bits
    return np.array([_NORM.inv_cdf(i / a) for i in range(1, a)])


def symbols_from_paa(p: np.ndarray, bits: int) -> np.ndarray:
    """Map PAA values to SAX symbols in [0, 2**bits).

    Symbol = number of breakpoints at or below the value, so symbols are
    monotone in the underlying value.
    """
    bp = breakpoints(bits)
    return np.searchsorted(bp, np.asarray(p, dtype=np.float64), side="right").astype(
        np.uint32
    )


def sax(x: np.ndarray, w: int, bits: int) -> np.ndarray:
    """SAX word(s) of raw series: PAA then discretize. (m,n)->(m,w) uint32."""
    return symbols_from_paa(paa(x, w), bits)


def region_edges(symbols: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) region boundaries for each symbol.

    Outermost regions are unbounded: lower edge of symbol 0 is -inf and
    upper edge of the top symbol is +inf — exactly what MINDIST needs.
    """
    bp = breakpoints(bits)
    s = np.asarray(symbols, dtype=np.int64)
    ext = np.concatenate(([-np.inf], bp, [np.inf]))
    return ext[s], ext[s + 1]


def reduce_word(symbols: np.ndarray, bits: int, to_bits: int) -> np.ndarray:
    """Drop low-order bits: cardinality-2**bits word -> cardinality-2**to_bits.

    This is iSAX's multi-resolution operation — a node at resolution
    ``to_bits`` contains all words sharing these high-order bits.
    """
    if not 0 <= to_bits <= bits:
        raise ValueError(f"to_bits={to_bits} must be in [0, bits={bits}]")
    return (np.asarray(symbols, dtype=np.uint32) >> (bits - to_bits)).astype(np.uint32)
