"""Bit-level helpers shared across the package.

Masks are plain Python ints.  Bit ``i`` of a mask corresponds to variable
``x_{i+1}``; rendered bitstrings are written ``x1 x2 ... xn`` left to right,
so the least-significant bit prints first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "dot",
    "lex_key",
    "lex_keys",
    "mask_to_string",
    "string_to_mask",
    "lowest_set_bit",
    "highest_set_bit",
    "delete_bit",
    "popcounts",
    "span_points",
]


def dot(a: int, b: int) -> int:
    """GF(2) inner product of two masks."""
    return (a & b).bit_count() & 1


def lex_key(mask: int, n: int) -> int:
    """Sort key realizing x1-first bitstring order (bit-reversal within n bits)."""
    key = 0
    for i in range(n):
        key = (key << 1) | ((mask >> i) & 1)
    return key


# Byte b with its eight bits in reverse order.
_REVERSED_BYTE = (((np.arange(256)[:, None] >> np.arange(8)) & 1) << np.arange(7, -1, -1)).sum(
    axis=1, dtype=np.int64
)


def lex_keys(masks: np.ndarray, n: int) -> np.ndarray:
    """``lex_key`` of every mask of an int64 array, a byte at a time."""
    keys = np.zeros_like(masks)
    for shift in range(0, n, 8):
        keys = (keys << 8) | _REVERSED_BYTE[(masks >> shift) & 0xFF]
    return keys >> (-n % 8)


def mask_to_string(mask: int, n: int) -> str:
    """Render a mask as the bitstring x1 x2 ... xn."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(n))


def string_to_mask(bits: str) -> int:
    """Parse an x1-first bitstring back into a mask."""
    mask = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid bit {ch!r} at position {i}")
    return mask


def lowest_set_bit(mask: int) -> int:
    """Position of the lowest set bit; mask must be nonzero."""
    return (mask & -mask).bit_length() - 1


def highest_set_bit(mask: int) -> int:
    """Position of the highest set bit; mask must be nonzero."""
    return mask.bit_length() - 1


def delete_bit(mask: int, pos: int) -> int:
    """Remove bit ``pos``, shifting higher bits down one place."""
    low = mask & ((1 << pos) - 1)
    high = mask >> (pos + 1)
    return low | (high << pos)


def popcounts(n: int) -> np.ndarray:
    """Popcount of every mask below 2**n, as uint8 (masks fit uint32 for n <= 32)."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32))


def span_points(vectors: Sequence[int] | np.ndarray, shift: int = 0) -> np.ndarray:
    """Every point of the coset ``shift + span(vectors)``, indexed by subset.

    Entry i is ``shift`` XOR the vectors[j] over the set bits j of i.  The
    array is filled by doubling: the entries below 2**j, XORed with
    vectors[j], give the entries from 2**j to 2**(j+1), so one pass per
    vector writes each of the 2**k entries once, with no other array.  A
    list fills intp; a (k, count) array fills one coset per column, in its dtype.
    """
    if not isinstance(vectors, np.ndarray):
        vectors = np.array(vectors, dtype=np.intp)
    pts = np.empty((1 << len(vectors), *vectors.shape[1:]), dtype=vectors.dtype)
    pts[0] = shift
    for j, v in enumerate(vectors):
        half = 1 << j
        np.bitwise_xor(pts[:half], v, out=pts[half : 2 * half])
    return pts
