"""Restriction of functions and spectra to affine subspaces.

A fold along a nonzero direction ``t`` merges the coefficient pair
``{s, s^t}`` into a single coefficient of the restriction to the hyperplane
``<t, x> = b``.  Quotient coordinates are fixed once and for all:

* ``p`` is the lowest set bit of ``t`` and ``h`` the highest;
* the hyperplane basis is ``w_q = e_q ^ (t_q ? e_p : 0)`` for positions
  ``q != p`` in ascending order (the free-variable parametrization of the
  kernel of ``t``), and the completing vector is ``e_h``;
* the pair representative is the member ``u`` with bit ``h`` clear (the
  numerically smaller one), giving the merged numerator
  ``num(u) + (-1)^b num(u^t)`` with no sign correction.

``fold`` and ``_Frame.branches`` are the only code that knows these
coordinates.  A ``_Frame`` embeds the coordinates left by a chain of
restrictions into the original space, and ``_Frame.points`` lists the
original point of every current one.  So every restriction, builder and
certificate gathers a restricted table once through its frame.
``restrict_affine`` is that gather, so its transform reproduces the
iterated fold exactly, coefficient for coefficient.  denom_exp is never
rescaled by folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._bits import delete_bit, dot, highest_set_bit, lowest_set_bit, span_points
from .core import BooleanFunction, Spectrum
from .errors import (
    BoolFourierError,
    DependentConstraints,
    DimensionMismatch,
    NotBoolean,
    ZeroDirection,
)

__all__ = [
    "AffineConstraint",
    "fold",
    "restrict_affine",
    "derivative",
    "spectrum_split",
]


@dataclass(frozen=True, slots=True)
class AffineConstraint:
    """The constraint <mask, x> = bit with a nonzero mask and bit in {0, 1}."""

    mask: int
    bit: int

    def __post_init__(self):
        if self.mask == 0:
            raise ZeroDirection("constraint mask must be nonzero")
        if self.bit not in (0, 1):
            raise NotBoolean(f"constraint bit must be 0 or 1, got {self.bit}")


def _check_direction(n: int, t: int) -> None:
    if t == 0:
        raise ZeroDirection("direction must be nonzero")
    if not 0 < t < (1 << n):
        raise DimensionMismatch(f"direction {t} out of range for n={n}")


def fold(spectrum: Spectrum, t: int, b: int) -> Spectrum:
    """Spectrum of the restriction to <t, x> = b, on n-1 quotient variables.

    One coefficient per pair {s, s^t}: the representative u is the member
    with the highest bit of t clear, the value num(u) + (-1)^b num(u^t),
    and the index is u re-expressed in the hyperplane basis.  denom_exp is
    unchanged, so numerators stay comparable along folding chains.
    """
    _check_direction(spectrum.n, t)
    if b not in (0, 1):
        raise NotBoolean(f"branch bit must be 0 or 1, got {b}")
    p = lowest_set_bit(t)
    h = highest_set_bit(t)
    sign = -1 if b else 1
    out: dict[int, int] = {}
    coeffs = spectrum.coeffs
    for s in coeffs:
        if (s >> h) & 1:
            u = s ^ t
            if u in coeffs:
                continue  # pair already handled from its representative
        else:
            u = s
        value = coeffs.get(u, 0) + sign * coeffs.get(u ^ t, 0)
        if value:
            v = u ^ t if (u >> p) & 1 else u
            out[delete_bit(v, p)] = value
    # delete_bit keeps masks below 2**(n-1) and value is a nonzero int
    return Spectrum._from_clean(spectrum.n - 1, spectrum.denom_exp, out)


class _Frame:
    """Embedding of the current coordinates into the original space.

    A current point y maps to x = shift ^ XOR of basis[i] over set bits of y.
    ``dual[i]`` is the original mask whose parity on the subspace is the
    current coordinate y_i: <dual[i], basis[j]> = [i = j], and every dual
    has bits only in P, the pivots (lowest set bits) of the reduced echelon
    form of span(basis), which are also the lowest set bits of its nonzero
    vectors.  The basis restricted to P is invertible, so the duals are the
    only such masks.
    """

    __slots__ = ("basis", "dual", "shift")

    def __init__(self, basis: List[int], dual: List[int], shift: int):
        self.basis = basis
        self.dual = dual
        self.shift = shift

    @classmethod
    def identity(cls, n: int) -> "_Frame":
        units = [1 << i for i in range(n)]
        return cls(units, list(units), 0)

    @property
    def m(self) -> int:
        return len(self.basis)

    def query_mask(self, t: int) -> int:
        """Original mask Q with <Q, x> = <t, y> ^ <Q, shift> on the subspace."""
        q = 0
        for i, d in enumerate(self.dual):
            if (t >> i) & 1:
                q ^= d
        if q == 0:
            raise BoolFourierError("internal: frame query has no nonzero solution")
        return q

    def pullback(self, q: int) -> int:
        """Current-coordinates direction of an original mask (may be zero)."""
        t = 0
        for i, v in enumerate(self.basis):
            if dot(v, q):
                t |= 1 << i
        return t

    def fold_bit(self, q: int, beta: int) -> int:
        """Fold bit of the answer <q, x> = beta to q = query_mask(t), and back.

        On the frame's subspace <q, x> = <t, y> ^ <q, shift>, so the answer's
        branch is ``branches(t)[fold_bit(q, beta)]``.  The one rule between
        answers and fold bits.
        """
        return beta ^ dot(q, self.shift)

    def branches(self, t: int) -> Tuple["_Frame", "_Frame"]:
        """The frames after restricting along <t, y> = 0 and along <t, y> = 1.

        They share one basis and one dual list, and differ in the shift.
        """
        p = lowest_set_bit(t)
        # t annihilates the new basis vectors (current coordinates e_k ^ t_k e_p),
        # so q vanishes on them and XORing q keeps duality; the new span is
        # {v : <q, v> = 0}, with pivots P minus q's highest bit, which the XOR clears.
        q = self.query_mask(t)
        top = highest_set_bit(q)
        new_basis, new_dual = [], []
        for k in range(self.m):
            if k != p:
                new_basis.append(self.basis[k] ^ (self.basis[p] if (t >> k) & 1 else 0))
                new_dual.append(self.dual[k] ^ (q if (self.dual[k] >> top) & 1 else 0))
        shift1 = self.shift ^ self.basis[highest_set_bit(t)]
        return _Frame(new_basis, new_dual, self.shift), _Frame(new_basis, new_dual, shift1)

    def point(self, y: int) -> int:
        """The original point of the current point y."""
        x = self.shift
        for i, v in enumerate(self.basis):
            if (y >> i) & 1:
                x ^= v
        return x

    def points(self) -> np.ndarray:
        """The original point of every current point y, at index y."""
        return span_points(self.basis, self.shift)

    def restriction(self, f: BooleanFunction) -> BooleanFunction:
        """f on the frame's subspace, in the frame's coordinates.

        One gather.  ``branches`` maps the fold's quotient basis into
        original coordinates, so the table's transform is the iterated fold
        along the chain of (t, b) that built the frame.
        """
        if self.m == f.n:
            return f  # only the identity frame keeps every coordinate
        return BooleanFunction(self.m, f.table[self.points()])


def restrict_affine(
    f: BooleanFunction, constraints: Sequence[AffineConstraint]
) -> BooleanFunction:
    """Restrict f to the affine subspace cut out by independent constraints.

    Each constraint is pulled back into the frame left by the ones before it
    and restricts that frame in the fold's quotient coordinates; the table is
    gathered once through the final frame.  So the transform of the result
    equals the iterated fold of the transform of f with the same directions
    and branch bits.  With k = n constraints the result is the 0-variable
    function holding a single table bit.
    """
    for c in constraints:
        _check_direction(f.n, c.mask)
    frame = _Frame.identity(f.n)
    for c in constraints:
        t = frame.pullback(c.mask)
        # after independent constraints, exactly their span pulls back to 0
        if t == 0:
            raise DependentConstraints("constraint masks are linearly dependent")
        frame = frame.branches(t)[frame.fold_bit(c.mask, c.bit)]
    return frame.restriction(f)


# Bits 0, 1 and 2 of x swap the halves of words of 2, 4 and 8 table bytes.
_WORDS = (np.uint16, np.uint32, np.uint64)


def derivative(f: BooleanFunction, t: int) -> BooleanFunction:
    """Discrete derivative x -> f(x) ^ f(x ^ t).

    The table at x ^ t is the table with its halves swapped along each set
    bit of t.  Bits 0-2 rotate each word of ``_WORDS`` by half its width,
    one pass a bit.  The bits from 3 up are the axes of the table's 8-byte
    words viewed as a 2 x ... x 2 array, all reversed by one copy.
    """
    _check_direction(f.n, t)
    g = f.table
    for i in range(min(3, f.n)):
        if (t >> i) & 1:
            words, half = g.view(_WORDS[i]), 8 << i  # half of 16 << i bits
            g = ((words >> half) | (words << half)).view(np.uint8)
    if t >> 3:
        words = g.view(np.uint64).reshape((2,) * (f.n - 3))  # axis j: bit n - 1 - j of x
        g = np.flip(words, [f.n - 1 - i for i in range(3, f.n) if (t >> i) & 1])
        g = g.ravel().view(np.uint8)
    return BooleanFunction(f.n, f.table ^ g)


def spectrum_split(spectrum: Spectrum, t: int) -> Tuple[Spectrum, Spectrum]:
    """Partition coefficients by <s, t>: (part on the kernel of t, the rest).

    Both parts keep the ambient n and denom_exp; l0 and l1 numerators add up
    exactly to those of the input.
    """
    _check_direction(spectrum.n, t)
    on_kernel: dict[int, int] = {}
    off_kernel: dict[int, int] = {}
    for s, num in spectrum.coeffs.items():
        (off_kernel if dot(s, t) else on_kernel)[s] = num
    return (
        Spectrum(spectrum.n, spectrum.denom_exp, on_kernel),
        Spectrum(spectrum.n, spectrum.denom_exp, off_kernel),
    )
