"""Sortable summarizations: invSAX / z-order keys (Algorithm 1, InvertSum).

The paper's core idea: interleave the bits of the per-segment SAX
symbols so that *all* more-significant bits (across all segments)
precede all less-significant bits, preserving segment order within each
significance level.  The result is a Morton / z-order key [31]: sorting
by it keeps series that are similar in every segment adjacent, and its
``k*w``-bit prefixes are exactly the resolution-``k`` iSAX words — the
bridge between Coconut-Tree's sorted order and Coconut-Trie's prefix
nodes.

Keys are emitted as fixed-width lowercase hex strings (zero-padded at
the *tail*, i.e. the least significant end), so lexicographic string
order equals numeric order on the interleaved bits — Spark sorts them
natively, no UDF comparator needed.  This module is numpy only; the
Spark summarization pass that emits the keys is
:func:`repro.core.coconut_tree.summarize_series`.
"""
from __future__ import annotations

import numpy as np

from repro.core.sax import sax


def key_width_hex(w: int, bits: int) -> int:
    """Hex characters in a z-key for ``w`` segments of ``bits`` bits."""
    n_bytes = (w * bits + 7) // 8
    return 2 * n_bytes


def interleave(symbols: np.ndarray, bits: int) -> list[str]:
    """InvertSum (Algorithm 1), vectorized: (m, w) symbols -> m hex z-keys.

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
    return [row.tobytes().hex() for row in packed]


def deinterleave(zkey_hex: str, w: int, bits: int) -> np.ndarray:
    """Inverse of :func:`interleave`: hex z-key -> (w,) symbol vector.

    The paper notes sortable summarizations carry the same information
    as the originals — this is the "switch back" direction.
    """
    raw = np.frombuffer(bytes.fromhex(zkey_hex), dtype=np.uint8)
    bitvec = np.unpackbits(raw)[: w * bits].reshape(bits, w)
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.uint32))[:, None]
    return (bitvec.astype(np.uint32) * weights).sum(axis=0).astype(np.uint32)


def zkeys(x: np.ndarray, w: int, bits: int) -> list[str]:
    """Raw series -> hex z-keys (PAA -> SAX -> InvertSum)."""
    return interleave(sax(x, w, bits), bits)


def key_to_int(zkey_hex: str) -> int:
    """Z-key as a Python int (padding bits included) for driver-side tries."""
    return int(zkey_hex, 16)


def prefix_key(zkey_hex: str, w: int, bits: int, k: int) -> int:
    """First ``k*w`` interleaved bits as an int = resolution-``k`` iSAX word.

    Two series share a ``k``-bit iSAX prefix in *every* segment iff their
    ``prefix_key(.., k)`` are equal — the property Coconut-Trie builds on.
    """
    if not 0 <= k <= bits:
        raise ValueError(f"k={k} must be in [0, bits={bits}]")
    total_padded = 4 * len(zkey_hex)
    return key_to_int(zkey_hex) >> (total_padded - k * w)
