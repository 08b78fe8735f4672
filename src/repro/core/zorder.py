"""Sortable summarizations: invSAX / z-order keys (Algorithm 1, InvertSum).

The paper's core idea: interleave the bits of the per-segment SAX
symbols so that *all* more-significant bits (across all segments)
precede all less-significant bits, preserving segment order within each
significance level.  The result is a Morton / z-order key [31]: sorting
by it keeps series that are similar in every segment adjacent, and its
``k*w``-bit prefixes are exactly the resolution-``k`` iSAX words — the
bridge between Coconut-Tree's sorted order and Coconut-Trie's prefix
nodes.

Keys are fixed-width ``bytes`` (``ceil(w*bits/8)`` bytes, zero-padded
at the *tail*, i.e. the least significant end).  Python, Spark
``binary``, Parquet and DuckDB ``BLOB`` all compare bytes
unsigned-lexicographically, which equals numeric order on the
interleaved bits — Spark sorts them natively, no UDF comparator needed.
The key is the whole summary: :func:`deinterleave` recovers the SAX
words from it.  This module is numpy only and owns the key format; the
Spark summarization pass that emits the keys is
:func:`repro.core.coconut_tree.summarize_series`.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.sax import sax


def interleave(symbols: np.ndarray, bits: int) -> list[bytes]:
    """InvertSum (Algorithm 1), vectorized: (m, w) symbols -> m z-keys.

    Bit order: for significance level i = bits-1 .. 0, for segment
    j = 0 .. w-1, emit bit i of symbol j.
    """
    s = np.atleast_2d(np.asarray(symbols, dtype=np.uint32))
    m, w = s.shape
    if bits < 1 or (s >= (1 << bits)).any():
        raise ValueError(f"symbols out of range for bits={bits}")
    cols = [((s[:, j] >> i) & 1) for i in range(bits - 1, -1, -1) for j in range(w)]
    bitmat = np.stack(cols, axis=1).astype(np.uint8)  # (m, w*bits)
    packed = np.packbits(bitmat, axis=1)  # tail-padded with zero bits
    return [row.tobytes() for row in packed]


def deinterleave(keys: Iterable[bytes], w: int, bits: int) -> np.ndarray:
    """Inverse of :func:`interleave`: m z-keys -> (m, w) uint32 symbols.

    The paper notes sortable summarizations carry the same information
    as the originals — this is the "switch back" direction.
    """
    raw = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, (w * bits + 7) // 8)
    bitmat = np.unpackbits(raw, axis=1)[:, : w * bits].reshape(-1, bits, w)
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.uint32))[:, None]
    return (bitmat * weights).sum(axis=1, dtype=np.uint32)


def first64(keys: Iterable[bytes]) -> np.ndarray:
    """The first 64 interleaved bits of each z-key as a uint64 array
    (keys narrower than 8 bytes are zero-padded at the tail)."""
    head = b"".join(z[:8].ljust(8, b"\0") for z in keys)
    return np.frombuffer(head, dtype=">u8").astype(np.uint64)


def zkeys(x: np.ndarray, w: int, bits: int) -> list[bytes]:
    """Raw series -> z-keys (PAA -> SAX -> InvertSum)."""
    return interleave(sax(x, w, bits), bits)
