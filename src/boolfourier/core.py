"""Exact Fourier analysis of Boolean functions on {0,1}^n.

Representation conventions used throughout the package:

* A function is a truth table of length ``2**n`` with entries in {0, 1}.
  The entry at integer index ``x`` is ``f(x1, ..., xn)`` where ``x1`` is the
  least-significant bit of ``x``.
* A spectrum stores only nonzero Fourier coefficients as integer numerators
  over the implicit denominator ``2**denom_exp``; with the uniform-measure
  transform of a truth table, ``denom_exp == n`` and every numerator is the
  plain character sum, so all arithmetic is exact.
* The +/-1 range view of ``f`` is ``1 - 2*f``; its spectrum is obtained from
  the {0,1} spectrum without leaving integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ._bits import mask_to_string, span_points
from .errors import DimensionMismatch, InvalidEta, NotBoolean
from .gf2 import _greedy_coords, echelon_pivots

__all__ = [
    "N_MAX",
    "BooleanFunction",
    "Spectrum",
    "ANF",
    "SpectralStats",
    "HypercontractivityResult",
    "wht",
    "inverse_wht",
    "to_pm_spectrum",
    "anf_of",
    "anf_to_function",
    "deg2",
    "spectral_stats",
    "xor_convolve",
    "pointwise_product",
    "hypercontractivity_check",
]

# Largest supported number of variables; transform buffers are dense arrays
# of size 2**n, so this is a memory guard.  It also keeps ``wht``'s int32
# character sums exact: 2**N_MAX < 2**31.
N_MAX = 24

_INT64_SAFE = 1 << 62

# Up to this many support pairs the convolution is the pure-Python loop: the
# numpy pair kernel's fixed cost of some 20 us is more than the loop takes.
_PAIRS_LOOP_MAX = 64

# Most support pairs ``_pair_sums`` holds at once, at some 32 bytes a pair.
_PAIRS_BLOCK = 1 << 18


class BooleanFunction:
    """A total function {0,1}^n -> {0,1} stored as a dense truth table.

    ``n == 0`` is permitted (a single table bit); it is the recursion floor
    for point restrictions.
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int, table):
        if not 0 <= n <= N_MAX:
            raise DimensionMismatch(f"n must be in 0..{N_MAX}, got {n}")
        arr = np.asarray(table, dtype=np.uint8)
        if arr.ndim != 1 or arr.size != 1 << n:
            raise DimensionMismatch(
                f"table must have length {1 << n} for n={n}, got {arr.size}"
            )
        if arr.size and arr.max() > 1:
            raise NotBoolean("table entries must be 0 or 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self.n = n
        self.table = arr

    @classmethod
    def from_int(cls, n: int, bits: int) -> "BooleanFunction":
        """Build from a packed truth table: bit ``x`` of ``bits`` is f(x)."""
        if not 0 <= n <= N_MAX:  # before 1 << n sizes anything
            raise DimensionMismatch(f"n must be in 0..{N_MAX}, got {n}")
        if bits < 0 or bits >> (1 << n):
            raise NotBoolean(f"packed table does not fit in {1 << n} bits")
        if n == 0:
            return cls(0, [bits & 1])
        raw = bits.to_bytes(((1 << n) + 7) // 8, "little")
        arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return cls(n, arr[: 1 << n])

    def to_int(self) -> int:
        """Packed truth table as an int (bit x = f(x))."""
        packed = np.packbits(self.table, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def value(self, x: int) -> int:
        return int(self.table[x])

    def ones_count(self) -> int:
        return int(self.table.sum())

    def density(self) -> Fraction:
        return Fraction(self.ones_count(), 1 << self.n)

    def is_constant(self) -> bool:
        return self.ones_count() in (0, 1 << self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self.n, self.table.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 4:
            bits = "".join(str(int(b)) for b in self.table)
            return f"BooleanFunction(n={self.n}, table={bits})"
        return f"BooleanFunction(n={self.n}, ones={self.ones_count()})"


class Spectrum:
    """Sparse exact spectrum: nonzero integer numerators over ``2**denom_exp``.

    ``n`` is the ambient dimension (masks live below ``2**n``); folds keep
    ``denom_exp`` fixed while ``n`` shrinks, so numerators stay comparable
    along a folding chain.
    """

    __slots__ = ("n", "denom_exp", "coeffs")

    def __init__(self, n: int, denom_exp: int, coeffs: Mapping[int, int]):
        if not 0 <= n <= N_MAX:
            raise DimensionMismatch(f"n must be in 0..{N_MAX}, got {n}")
        if denom_exp < 0:
            raise DimensionMismatch("denom_exp must be >= 0")
        clean: Dict[int, int] = {}
        top = 1 << n
        for mask, num in coeffs.items():
            if not 0 <= mask < top:
                raise DimensionMismatch(f"mask {mask} out of range for n={n}")
            if num:
                clean[int(mask)] = int(num)
        self.n = n
        self.denom_exp = denom_exp
        self.coeffs = clean

    @classmethod
    def _from_clean(cls, n: int, denom_exp: int, coeffs: Dict[int, int]) -> "Spectrum":
        """Wrap a dict of int masks below 2**n and nonzero ints, unchecked."""
        spec = cls.__new__(cls)
        spec.n = n
        spec.denom_exp = denom_exp
        spec.coeffs = coeffs
        return spec

    def l0(self) -> int:
        return len(self.coeffs)

    def l1_num(self) -> int:
        return sum(abs(v) for v in self.coeffs.values())

    def linf_num(self) -> int:
        return max((abs(v) for v in self.coeffs.values()), default=0)

    def value(self, mask: int) -> Fraction:
        return Fraction(self.coeffs.get(mask, 0), 1 << self.denom_exp)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def values_equal(self, other: "Spectrum") -> bool:
        """Compare as rational-coefficient maps (denominators may differ)."""
        if self.n != other.n:
            return False
        masks = set(self.coeffs) | set(other.coeffs)
        da, db = self.denom_exp, other.denom_exp
        shift_a = max(0, db - da)
        shift_b = max(0, da - db)
        return all(
            self.coeffs.get(m, 0) << shift_a == other.coeffs.get(m, 0) << shift_b
            for m in masks
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (
            self.n == other.n
            and self.denom_exp == other.denom_exp
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.denom_exp, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        items = ", ".join(
            f"{mask_to_string(m, self.n)}:{v:+d}" for m, v in sorted(self.coeffs.items())
        )
        return f"Spectrum(n={self.n}, /2^{self.denom_exp}, {{{items}}})"


@dataclass(frozen=True)
class ANF:
    """Algebraic normal form: the set of monomial masks with coefficient 1."""

    n: int
    monomials: frozenset[int]

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.monomials), default=0)


@dataclass(frozen=True)
class SpectralStats:
    l0: int
    l1_num: int
    linf_num: int
    granularity: int


@dataclass(frozen=True)
class HypercontractivityResult:
    eta: float
    lhs: float
    rhs: float
    holds: bool


def _butterfly_level(a: np.ndarray, h: int, dtype=None) -> np.ndarray:
    """One Walsh-Hadamard level along axis 0: (u, v) -> (u + v, u - v) at stride h.

    In place, or into a new array of the wider ``dtype`` when one is given,
    which widens the values and runs the level in one pass.  Each output is
    a signed sum of two inputs, so the level at most doubles the largest
    magnitude; callers pick a dtype that holds the doubled value.
    """
    b = a.reshape(len(a) // (2 * h), 2, h, *a.shape[1:])
    if dtype is not None:
        out = np.empty(a.shape, dtype=dtype)
        o = out.reshape(b.shape)
        np.add(b[:, 0], b[:, 1], out=o[:, 0], dtype=dtype)
        np.subtract(b[:, 0], b[:, 1], out=o[:, 1], dtype=dtype)
        return out
    top = b[:, 0].copy()
    b[:, 0] += b[:, 1]
    np.subtract(top, b[:, 1], out=b[:, 1])
    return a


def _butterfly_sum(table: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard butterfly along axis 0 over a copy of a signed integer array."""
    a = table.copy()
    h = 1
    while h < len(a):
        _butterfly_level(a, h)
        h <<= 1
    return a


def _mobius_levels(a: np.ndarray) -> np.ndarray:
    """In-place GF(2) Moebius butterfly along axis 0: (u, v) -> (u, u ^ v) at each stride.

    ``a`` must be C-contiguous, so that each reshape is a view of it.
    """
    h = 1
    while h < len(a):
        b = a.reshape(-1, 2, h, *a.shape[1:])
        b[:, 1] ^= b[:, 0]
        h <<= 1
    return a


# The first three butterfly levels of every byte of a packed table, down the
# (8, 256) matrix whose column b holds the bits of b as ``np.packbits(...,
# bitorder="little")`` packs them.  WHT sums of 8 bits fit int8, and each
# column is viewed as one int64 word, which makes the gather a 1-D take.
_WHT_BYTE = np.ascontiguousarray(
    _butterfly_sum(((np.arange(256) >> np.arange(8)[:, None]) & 1).astype(np.int8)).T
).view(np.int64).ravel()
_MOBIUS_BYTE = np.packbits(
    _mobius_levels(((np.arange(256) >> np.arange(8)[:, None]) & 1).astype(np.uint8)),
    axis=0, bitorder="little",
).ravel()

# Last stride h of each narrow pass of ``wht``: after the level at stride h
# every value is a sum of 2h table bits, so |v| <= 2h.  int8 holds 2h <= 2**6
# (h <= 32) and int16 holds 2h <= 2**14 (h <= 2**13); int32 takes the rest,
# up to 2**n <= 2**N_MAX = 2**24 < 2**31.  The levels commute, so the bound
# holds for any six levels, and any fourteen, in whatever order they run.
_WHT_PASSES = ((np.int8, 1 << 5), (np.int16, 1 << 13), (np.int32, 1 << N_MAX))

# From this many points up, ``_wht_sums`` runs the int8 levels at strides 8,
# 16 and 32 on a transposed copy, where their strides are long.  Below it
# the transposes cost more than they save (about even at n = 8).
_WHT_TRANSPOSED_MIN = 1 << 9

# From 2**14 points up, ``_wht_sums`` looks for zero columns after the low
# ``_PRUNE_BITS`` levels.  Below that the levels above them are too few to
# pay for the look.
_PRUNE_BITS = 12
_PRUNE_MIN = 1 << 14

# From this many points up, ``_wht_sums`` first looks for the span form.  Its
# fixed cost, some 0.3 ms, is about the whole transform at 2**16 points.
_SPAN_MIN = 1 << 17


def _kept_columns(rows: np.ndarray) -> Optional[np.ndarray]:
    """The nonzero columns of ``rows`` ascending, or None when more than half are.

    Row 0's nonzero count is a lower bound for theirs, and answers first on
    dense inputs.
    """
    half = rows.shape[1] // 2
    if np.count_nonzero(rows[0]) > half:
        return None
    cols = np.flatnonzero(np.bitwise_or.reduce(rows, axis=0))
    return cols if cols.size <= half else None


# For k < 6, the bits of a 64-bit word at positions with bit k clear.
# Swapping them with the bits 2**k above XOR-translates the positions by 2**k.
_SWAP_LOW = tuple(
    np.uint64(sum(1 << b for b in range(64) if not b >> k & 1)) for k in range(6)
)


def _span_sums(packed: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(masks in bin order, row 0's int16 sums at them) when f = g(Bx), else None.

    ``packed`` is the table of f on n >= 14 variables, 8 points a byte.
    Row h of its (2**(n-12) x 2**12) matrix is f at x = h * 2**12 + l.
    When each low-bit bin u of the spectrum holds at most one mask s, the
    low 12 levels of row h are row 0's times (-1)^<s_high, h> at u.

    Probe: the low 12 levels of row 0 and of the rows 2^j.  Each nonzero
    bin u of row 0 proposes one mask, whose bit 12 + j is set where row 2^j
    is the negative of row 0.  A value other than row 0's or its negative,
    or more than 2**11 nonzero bins, gives None.

    Basis: the span of the masks in reduced echelon form, with lowest-bit
    pivots p_i.  A pivot at bit 12 or above, where the span does not
    project one-to-one onto the low bits, gives None.

    Proof: let L(2^j) be the XOR of the e_{p_i} over the basis rows b_i with
    bit 12 + j set, and L linear.  Every row h must be row 0 XOR-translated
    by L(h), which makes f's spectrum 2**(n-12) times row 0's, at the masks
    (L^T u, u).  Row 0's spectrum lies in the low bits of the span, where
    L^T u is the span's high part: the proposed masks.  So f = g(Bx), with
    B the basis and g row 0 at the points of the pivots.  The check runs on
    the packed 64-bit words: masked in-word swaps translate row 0 by each
    value of bits 0-5, and one gather, whose word index is XORed with bits
    6-11 of L(h), lays out every row.  Any other row gives None.
    """
    rows = packed.reshape(-1, 1 << (_PRUNE_BITS - 3))
    k = rows.shape[0].bit_length() - 1
    # Probed row i's sum at bin u ends in low[u >> 3, i, u & 7]: the gather
    # does the first 3 levels and the loop the other 9.
    low = _WHT_BYTE[rows[[0, *(1 << j for j in range(k))]].T.copy()].view(np.int8)
    for stride in range(_PRUNE_BITS - 3):  # |v| <= 2**12 fits int16
        low = _butterfly_level(low, 1 << stride, np.int16)
    low = low.reshape(-1, k + 1, 8)
    bins = np.flatnonzero(low[:, 0])
    probe = low[bins >> 3, :, bins & 7]
    if (
        bins.size > 1 << (_PRUNE_BITS - 1)
        or np.count_nonzero(low) != probe.size
        or (np.abs(probe) != np.abs(probe[:, :1])).any()
    ):
        return None
    high = 1 << np.arange(_PRUNE_BITS, _PRUNE_BITS + k)
    masks = bins | ((probe[:, 1:] != probe[:, :1]) @ high)
    basis, pivots = echelon_pivots(_greedy_coords(masks)[0])
    if pivots and max(pivots) >= _PRUNE_BITS:
        return None
    words = packed.view("<u8").reshape(1 << k, 64)
    moved = np.empty((64, 64), dtype=words.dtype)  # moved[v]: row 0, in-word bit b from b ^ v
    moved[0] = words[0]
    for bit, keep in enumerate(_SWAP_LOW):
        s = 1 << bit
        np.bitwise_or((moved[:s] >> s) & keep, (moved[:s] & keep) << s, out=moved[s : 2 * s])
    # Row h is word w ^ (L(h) >> 6) of moved[L(h) & 63]; as a flat index into
    # moved, that is L(h) with its two 6-bit halves swapped, XOR w.
    swapped = []
    for j in range(k):
        shift = sum(((b >> (_PRUNE_BITS + j)) & 1) << p for b, p in zip(basis, pivots))
        swapped.append(((shift & 63) << 6) | (shift >> 6))
    at = span_points(swapped)[:, None] ^ np.arange(64)
    if not np.array_equal(moved.reshape(-1)[at], words):
        return None
    return masks, probe[:, 0]


def _wht_sums(
    table: np.ndarray, most: Optional[int] = None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Exact nonzero character sums of a 0/1 table of length 2**n: (masks, sums).

    The masks are int64 and ascending, and the sums int32.  When more than
    ``most`` sums are nonzero it returns None instead, counted before the
    arrays it would return are made.

    From ``_SPAN_MIN`` points up it first tries ``_span_sums``: probe the
    low 12 levels of 1 + (n - 12) rows of the (2**(n-12) x 2**12) table,
    take the span of the masks they propose, and prove f = g(Bx) on every
    point, with B a basis of the span, by comparing the packed rows.  The
    sums are then row 0's times 2**(n-12), and no level runs on the whole
    table.  It falls back to the pass below when two masks share a low bin,
    when more than 2**11 low bins are nonzero, when the span does not
    project one-to-one onto the low 12 bits, or when a row fails the proof.

    One gather from ``_WHT_BYTE`` does the first three levels of every byte
    of the packed table; for n < 3 the zero padding of the byte does not
    reach the first 2**n sums.  Each remaining level runs on the narrowest
    dtype of ``_WHT_PASSES`` that holds its result, and the first level of
    a wider pass widens as it goes.

    A level at stride h loops over runs of h values, so short strides pay
    a loop step every few bytes.  From ``_WHT_TRANSPOSED_MIN`` points up the
    bytes are gathered in (bits 3-5 of x, bits 6 and up) order, the
    transpose of their order in x.  Each gathered word holds the 8 values of
    one byte (bits 0-2), so bits 3, 4 and 5 have strides size/8, size/4 and
    size/2.  One transpose of the words puts x back in order, and the
    transposed copy is freed before the int16 pass.

    From ``_PRUNE_MIN`` points up, the table after the low ``_PRUNE_BITS``
    levels is a (rows x 2**12) matrix: the row is the high bits of x, the
    column the low bits of s.  The levels left mix rows only, so a zero
    column stays zero.  When at most half the columns are nonzero, those
    levels run down the nonzero columns alone, and the full table is freed.
    """
    size = table.size
    packed = np.packbits(table, bitorder="little")
    if size >= _SPAN_MIN:
        span = _span_sums(packed)
        if span is not None:
            masks, sums = span
            if most is not None and masks.size > most:
                return None
            order = np.argsort(masks)
            scale = size.bit_length() - 1 - _PRUNE_BITS  # n - 12
            return masks[order], sums[order].astype(np.int32) << scale
    if size < _WHT_TRANSPOSED_MIN:
        a = _WHT_BYTE[packed].view(np.int8)[:size]
        h = 8
    else:
        words = _WHT_BYTE[packed.reshape(-1, 8).T.copy()]
        flat = words.view(np.int8).reshape(-1)
        for stride in (size >> 3, size >> 2, size >> 1):
            _butterfly_level(flat, stride)
        a = words.T.copy().view(np.int8).reshape(-1)
        del words, flat
        h = 64
    del packed
    cols, step = None, 1  # axis 0 of a steps x by step
    for dtype, last in _WHT_PASSES:
        while h < size and h <= last:
            if h == 1 << _PRUNE_BITS and size >= _PRUNE_MIN:
                cols = _kept_columns(a.reshape(-1, h))
                if cols is not None:
                    a, step = a.reshape(-1, h)[:, cols], h
            a = _butterfly_level(a, h // step, None if a.dtype == dtype else dtype)
            h <<= 1
    if most is not None and np.count_nonzero(a) > most:
        return None
    if cols is None:
        masks = np.flatnonzero(a != 0)  # 6x faster than on the int32 sums at n = 20
        return masks, a[masks].astype(np.int32, copy=False)
    rows, at = np.nonzero(a)
    return (rows << _PRUNE_BITS) | cols[at], a[rows, at].astype(np.int32, copy=False)


def wht(f: BooleanFunction) -> Spectrum:
    """Walsh-Hadamard transform: f_hat(s) = 2^-n * sum_x f(x) * (-1)^<s,x>.

    Returned numerators are the exact character sums at denom_exp = n.
    """
    masks, sums = _wht_sums(f.table)
    return Spectrum._from_clean(f.n, f.n, dict(zip(masks.tolist(), sums.tolist())))


def inverse_wht(spectrum: Spectrum) -> BooleanFunction:
    """Reconstruct the truth table; raises NotBoolean if any value is not 0/1."""
    n, k = spectrum.n, spectrum.denom_exp
    coeffs = spectrum.coeffs
    if spectrum.l1_num() >= _INT64_SAFE:
        # Cancel the powers of two shared by every numerator.  What remains
        # of a 0/1 function has |num| <= 2^n, so l1 <= 4^n < 2^62: a larger
        # l1 proves some value is not 0 or 1, and int64 is exact otherwise.
        low = 0
        for num in coeffs.values():
            low |= num
        shift = min(k, (low & -low).bit_length() - 1)
        coeffs = {mask: num >> shift for mask, num in coeffs.items()}
        k -= shift
        if sum(abs(v) for v in coeffs.values()) >= _INT64_SAFE:
            raise NotBoolean(f"l1 numerator over 2^{k} is too large for a 0/1 function")
    vals = _butterfly_sum(_dense(coeffs, n, np.int64))
    unit = 1 << k
    bad = np.flatnonzero((vals != 0) & (vals != unit))
    if bad.size:
        x = int(bad[0])
        raise NotBoolean(f"value {int(vals[x])}/{unit} at x={x} is not 0 or 1")
    return BooleanFunction(n, (vals != 0).astype(np.uint8))


def to_pm_spectrum(spectrum: Spectrum) -> Spectrum:
    """Spectrum of 1 - 2f from the spectrum of a {0,1}-valued f.

    Same denom_exp; the numerator at s becomes delta(s,0)*2^denom_exp - 2*num(s).
    The input is a valid spectrum, so only a zero constant needs dropping.
    """
    k = spectrum.denom_exp
    coeffs = {mask: -2 * num for mask, num in spectrum.coeffs.items()}
    coeffs[0] = (1 << k) + coeffs.get(0, 0)
    if not coeffs[0]:
        del coeffs[0]
    return Spectrum._from_clean(spectrum.n, k, coeffs)


def _pm_of_sums(n: int, masks: np.ndarray, sums: np.ndarray) -> Spectrum:
    """``to_pm_spectrum(wht(f))`` straight from ``_wht_sums``' arrays, with one dict.

    The value at s is -2 times the sum, and 2^n - 2 * sum_0 at mask 0,
    dropped when zero.  Mask 0 is the first mask unless f is 0 everywhere,
    when no sum is nonzero and the spectrum is 2^n at mask 0.
    """
    if not masks.size:
        return Spectrum._from_clean(n, n, {0: 1 << n})
    values = np.multiply(sums, -2, dtype=np.int64)
    if masks[0] == 0:
        values[0] += 1 << n
        if not values[0]:
            masks, values = masks[1:], values[1:]
    return Spectrum._from_clean(n, n, dict(zip(masks.tolist(), values.tolist())))


def _xor_butterfly(table: np.ndarray) -> np.ndarray:
    """GF(2) Moebius transform of a 0/1 table of length 2**n, as uint8 0/1.

    The table is packed 8 entries per byte; one gather from ``_MOBIUS_BYTE``
    does the three levels inside each byte (for n < 3 the zero padding does
    not reach the first 2**n entries), the remaining levels XOR whole bytes
    in place, and the result is unpacked.
    """
    size = table.size
    packed = _mobius_levels(_MOBIUS_BYTE[np.packbits(table, bitorder="little")])
    return np.unpackbits(packed, bitorder="little")[:size]


def anf_of(f: BooleanFunction) -> ANF:
    """GF(2) Moebius transform: monomial masks with coefficient 1."""
    coeff = _xor_butterfly(f.table)
    return ANF(f.n, frozenset(np.flatnonzero(coeff != 0).tolist()))


def anf_to_function(anf: ANF) -> BooleanFunction:
    """Inverse Moebius transform (the transform is an involution)."""
    size = 1 << anf.n
    table = np.zeros(size, dtype=np.uint8)
    for m in anf.monomials:
        if not 0 <= m < size:
            raise DimensionMismatch(f"monomial {m} out of range for n={anf.n}")
        table[m] = 1
    return BooleanFunction(anf.n, _xor_butterfly(table))


def deg2(f: BooleanFunction) -> int:
    """GF(2) degree; 0 for constants."""
    monomials = np.flatnonzero(_xor_butterfly(f.table) != 0)
    return int(np.bitwise_count(monomials).max()) if monomials.size else 0


def spectral_stats(spectrum: Spectrum) -> SpectralStats:
    """Sparsity, l1 / linf numerators, and granularity of a spectrum.

    Granularity is denom_exp minus the largest power of two dividing every
    numerator (0 for the empty spectrum): the least g such that every
    coefficient is an integer multiple of 2^-g.
    """
    values = list(spectrum.coeffs.values())
    if not values:
        return SpectralStats(0, 0, 0, 0)
    g = 0
    for v in values:
        g = math.gcd(g, v)
    twos = (g & -g).bit_length() - 1
    return SpectralStats(
        l0=len(values),
        l1_num=sum(abs(v) for v in values),
        linf_num=max(abs(v) for v in values),
        granularity=max(0, spectrum.denom_exp - twos),
    )


def _as_arrays(coeffs: Mapping[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """(keys, values) of a map whose values fit int64, as two int64 arrays."""
    count = len(coeffs)
    return (
        np.fromiter(coeffs.keys(), dtype=np.int64, count=count),
        np.fromiter(coeffs.values(), dtype=np.int64, count=count),
    )


def _dense(coeffs: Mapping[int, int], n: int, dtype) -> np.ndarray:
    arr = np.zeros(1 << n, dtype=dtype)
    arr[list(coeffs)] = list(coeffs.values())
    return arr


def _convolve_loop(a: Mapping[int, int], b: Mapping[int, int]) -> Dict[int, int]:
    """XOR convolution by the double loop over support pairs, on Python ints."""
    out: Dict[int, int] = {}
    for s, u in a.items():
        for t, v in b.items():
            key = s ^ t
            out[key] = out.get(key, 0) + u * v
    return {key: out[key] for key in sorted(out) if out[key]}


def _pair_block(a_keys, b_keys, a_vals, b_vals) -> Tuple[np.ndarray, np.ndarray]:
    """``_pair_sums`` on one block: the outer XOR, one sort, ``np.add.reduceat``."""
    keys = np.bitwise_xor.outer(a_keys, b_keys).ravel()
    if a_vals is None:
        keys.sort()
    else:
        order = np.argsort(keys)  # int64 sums are exact in any order
        keys = keys[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    if a_vals is None:
        return keys[starts], np.diff(starts, append=keys.size)
    sums = np.add.reduceat(np.multiply.outer(a_vals, b_vals).ravel()[order], starts)
    nz = np.flatnonzero(sums != 0)
    return keys[starts[nz]], sums[nz]


def _pair_sums(
    a_keys: np.ndarray, b_keys: np.ndarray, a_vals=None, b_vals=None
) -> Tuple[np.ndarray, np.ndarray]:
    """The pair kernel: (s ^ t ascending, sum of a[s] * b[t] at each), on int64.

    Keys whose sum is zero are left out.  Exact while every partial sum of
    products stays below 2^62, as ``_convolve_pairs`` makes sure.
    Without values every pair counts 1, and the sums are pair counts.

    Up to ``_PAIRS_BLOCK`` pairs it is one numpy pass over them
    (``_pair_block``), some 32 bytes a pair.  Above that the rows of a are
    taken in blocks of at most ``_PAIRS_BLOCK`` pairs, added with
    ``np.add.at`` into a dense int64 array over the masks below 2^m, m the
    bit length of the largest key: memory is bounded by the block and 8 * 2^m
    bytes, as the butterflies' is by 2^m.
    """
    rows = max(1, _PAIRS_BLOCK // b_keys.size)
    if a_keys.size <= rows:
        return _pair_block(a_keys, b_keys, a_vals, b_vals)
    acc = np.zeros(1 << int(max(a_keys.max(), b_keys.max())).bit_length(), dtype=np.int64)
    for i in range(0, a_keys.size, rows):
        keys = np.bitwise_xor.outer(a_keys[i : i + rows], b_keys).ravel()
        values = 1 if a_vals is None else np.multiply.outer(a_vals[i : i + rows], b_vals).ravel()
        np.add.at(acc, keys, values)
    keys = np.flatnonzero(acc != 0)
    return keys, acc[keys]


def _convolve_pairs(a: Mapping[int, int], b: Mapping[int, int]) -> Dict[int, int]:
    """XOR convolution over support pairs: ``_pair_sums`` when it pays and is exact.

    Up to ``_PAIRS_LOOP_MAX`` pairs, and when sum(a^2) * sum(b^2) reaches
    2^124, it is the double loop on Python ints.  Below that bound each
    product, and each partial sum of one key's products, is at most
    sqrt(sum(a^2) * sum(b^2)) < 2^62 by Cauchy-Schwarz, so int64 is exact.
    A side whose values are all zero counts as 1, so that every value of
    the other side fits int64 too.
    """
    if len(a) * len(b) <= _PAIRS_LOOP_MAX or (
        max(sum(v * v for v in a.values()), 1) * max(sum(v * v for v in b.values()), 1)
        >= _INT64_SAFE**2
    ):
        return _convolve_loop(a, b)
    (a_keys, a_vals), (b_keys, b_vals) = _as_arrays(a), _as_arrays(b)
    keys, sums = _pair_sums(a_keys, b_keys, a_vals, b_vals)
    return dict(zip(keys.tolist(), sums.tolist()))


def _convolve_butterfly(a: Mapping[int, int], b: Mapping[int, int], n: int) -> Dict[int, int]:
    """XOR convolution as 2^-n * H(H(a) * H(b)), exact on int64 or objects.

    Every entry of a butterfly pass is a signed sum of the pass's inputs, so
    the first passes stay below l1(a) and l1(b), and the last one below
    sum |Ha * Hb| <= 2^n * max|Ha| * max|Hb|.  Each pass runs on int64 when
    its bound is below 2^62 and on Python ints otherwise.
    """
    wide = max(sum(map(abs, a.values())), sum(map(abs, b.values()))) >= _INT64_SAFE
    dtype = object if wide else np.int64
    ha = _butterfly_sum(_dense(a, n, dtype))
    hb = ha if a is b else _butterfly_sum(_dense(b, n, dtype))
    if not wide and (int(np.abs(ha).max()) * int(np.abs(hb).max())) << n >= _INT64_SAFE:
        ha, hb = ha.astype(object), hb.astype(object)
    conv = _butterfly_sum(ha * hb)
    nz = np.flatnonzero(conv != 0)
    return dict(zip(nz.tolist(), (conv[nz] >> n).tolist()))


def _butterfly_pays(pairs: int, n: int) -> bool:
    """Whether ``xor_convolve`` takes the butterflies for this many support pairs."""
    return pairs > (n + 1) << n


def xor_convolve(a: Mapping[int, int], b: Mapping[int, int], n: int) -> Dict[int, int]:
    """Exact XOR convolution of two maps on masks below 2^n.

    The value at s is the sum over t of a[t] * b[s ^ t]; the result keeps the
    nonzero values in ascending mask order.  When l0(a) * l0(b) exceeds
    (n + 1) * 2^n it is three Walsh-Hadamard butterflies (int64 while that
    is exact: always for +/-1 spectra with n <= 20); otherwise one pass over
    the support pairs (``_convolve_pairs``).
    """
    if _butterfly_pays(len(a) * len(b), n):
        return _convolve_butterfly(a, b, n)
    return _convolve_pairs(a, b)


def _pair_counts(masks: Iterable[int], count: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(t ascending, number of ordered pairs s, s' of the masks with s ^ s' = t).

    The autocorrelation of the indicator of ``count`` distinct masks below
    2^n, by ``xor_convolve``'s split: three butterflies when count^2 >
    (n + 1) * 2^n (their bound 2^n * count^2 <= 2^(3n) keeps them on int64
    up to n = 20), the loop up to ``_PAIRS_LOOP_MAX`` pairs, and otherwise
    the pair kernel on the masks alone.  t = 0, with ``count`` pairs, is first.
    """
    pairs = count * count
    if pairs <= _PAIRS_LOOP_MAX or _butterfly_pays(pairs, n):
        indicator = dict.fromkeys(masks, 1)
        return _as_arrays(xor_convolve(indicator, indicator, n))
    keys = np.fromiter(masks, dtype=np.int64, count=count)
    return _pair_sums(keys, keys)


def pointwise_product(a: Spectrum, b: Spectrum) -> Spectrum:
    """Spectrum of the pointwise product: convolution of coefficient maps.

    denom_exp adds; the numerator at s is sum over t of num_a(t)*num_b(s^t),
    computed by ``xor_convolve``: three butterflies when l0(a) * l0(b) >
    (n + 1) * 2^n, else the pairs.  For +/-1 spectra the butterflies are
    exact on int64 up to n = 20 (their values reach 2^(3n)) and use Python
    ints above that.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"spectra on n={a.n} and n={b.n}")
    coeffs = xor_convolve(a.coeffs, b.coeffs, a.n)  # nonzero ints on masks below 2^n
    return Spectrum._from_clean(a.n, a.denom_exp + b.denom_exp, coeffs)


def hypercontractivity_check(
    f: BooleanFunction, eta: float, pm: bool = False
) -> HypercontractivityResult:
    """Check ||T_eta f||_2 <= ||f||_{1+eta^2} with tolerance 1e-9.

    T_eta scales the coefficient at s by eta^|s|.  With ``pm=True`` the check
    runs on the +/-1 range view (where the right side is exactly 1).
    """
    if not 0.0 < eta <= 1.0:
        raise InvalidEta(f"eta must be in (0, 1], got {eta}")
    return _hypercontractivity(wht(f), f.ones_count(), eta, pm)


def _hypercontractivity(
    spec: Spectrum, ones: int, eta: float, pm: bool = False
) -> HypercontractivityResult:
    """``hypercontractivity_check`` from the {0,1} spectrum of f and its ones count."""
    if pm:
        spec = to_pm_spectrum(spec)
    unit = float(1 << spec.denom_exp)
    lhs_sq = 0.0
    for mask, num in spec.coeffs.items():
        lhs_sq += (num / unit) ** 2 * eta ** (2 * mask.bit_count())
    lhs = math.sqrt(lhs_sq)
    q = 1.0 + eta * eta
    if pm:
        rhs = 1.0
    else:
        rho = ones / (1 << spec.n)
        rhs = rho ** (1.0 / q)
    return HypercontractivityResult(eta, lhs, rhs, lhs <= rhs + 1e-9)
