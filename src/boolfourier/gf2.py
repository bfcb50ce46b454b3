"""GF(2) linear algebra on int-bitmask rows.

A mask is a plain int; bit ``i`` is the coefficient of ``x_{i+1}``.  A matrix
is a list of row masks plus a column count, so row operations are single-word
XORs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._bits import lowest_set_bit, span_points
from .errors import DependentInput, DimensionMismatch

__all__ = [
    "Gf2Matrix",
    "LinearMap",
    "gf2_rank",
    "complete_basis",
    "apply_linear",
    "gf2_invert",
    "echelon_pivots",
    "dickson_matrix",
]


def _greedy_basis(rows: Iterable[int]) -> List[int]:
    """The rows independent of the rows before them, in input order.

    ``ech`` holds each kept row reduced against those kept before it, so
    their highest bits are distinct and one pass reduces a new row.
    """
    basis: List[int] = []
    ech: List[int] = []
    for row in rows:
        r = row
        for e in ech:
            r = min(r, r ^ e)
        if r:
            basis.append(row)
            ech.append(r)
    return basis


def _greedy_coords(rows: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """``_greedy_basis`` of an int64 row array, and each row's coordinates in it.

    A row is the XOR of the basis rows at the set bits of its coordinates.
    One pass over the rows per basis row: ``red`` holds each row XOR the
    basis rows at the set bits of ``coords``, so it is zero once the row is
    in the span of the basis so far.  The first nonzero entry of ``red``
    is the next basis row, and its highest bit is cleared from every row
    after it.  Later pivots have that bit clear, so it stays clear.
    """
    red = rows.copy()
    coords = np.zeros_like(red)
    basis: List[int] = []
    i = 0
    while i < len(red):
        nonzero = red[i:] != 0
        j = int(nonzero.argmax())
        if not nonzero[j]:
            break
        i += j
        pivot = int(red[i])  # the XOR of basis rows coords[i] and the new one
        mix = int(coords[i]) | (1 << len(basis))
        coords[i] = 1 << len(basis)
        basis.append(int(rows[i]))
        i += 1
        hit = (red[i:] >> (pivot.bit_length() - 1)) & 1
        red[i:] ^= hit * pivot
        coords[i:] ^= hit * mix
    return basis, coords


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of a set of bitmask rows over GF(2)."""
    return len(_greedy_basis(rows))


def echelon_pivots(rows: Sequence[int]) -> tuple[List[int], List[int]]:
    """Echelonize with lowest-set-bit pivoting; returns (rows, pivot positions).

    Zero rows are dropped; the returned rows are fully reduced against each
    other, one pivot bit per row.
    """
    ech: List[int] = []
    pivots: List[int] = []
    for row in rows:
        for r, p in zip(ech, pivots):
            if (row >> p) & 1:
                row ^= r
        if row:
            p = lowest_set_bit(row)
            for i, r in enumerate(ech):
                if (r >> p) & 1:
                    ech[i] = r ^ row
            ech.append(row)
            pivots.append(p)
    return ech, pivots


class Gf2Matrix:
    """Matrix over GF(2): rows are int masks, ``ncols`` columns."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Sequence[int], ncols: int):
        top = 1 << ncols
        for r in rows:
            if not 0 <= r < top:
                raise DimensionMismatch(f"row {r} does not fit in {ncols} columns")
        self.rows = list(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls([1 << i for i in range(n)], n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        return gf2_rank(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gf2Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.rows}, ncols={self.ncols})"


def gf2_invert(matrix: Gf2Matrix) -> Optional[Gf2Matrix]:
    """Inverse via Gauss-Jordan on [M | I]; None if singular.

    The reduced row with pivot p < n has e_p on the left, so its right half
    is row p of the inverse; a pivot at n or above means M is singular.
    """
    n = matrix.ncols
    if matrix.nrows != n:
        return None
    ech, pivots = echelon_pivots(
        [row | (1 << (n + i)) for i, row in enumerate(matrix.rows)]
    )
    if any(p >= n for p in pivots):
        return None
    result = [0] * n
    for row, p in zip(ech, pivots):
        result[p] = row >> n
    return Gf2Matrix(result, n)


class LinearMap:
    """Invertible linear change of coordinates on {0,1}^n.

    ``forward`` acts on points: it maps x to the point whose bit i is
    ``<forward.rows[i], x>`` (see ``apply_linear``).  The inverse matrix is
    computed on construction.
    """

    __slots__ = ("forward", "inverse")

    def __init__(self, forward: Gf2Matrix):
        if forward.nrows != forward.ncols:
            raise DimensionMismatch("linear map must be square")
        inverse = gf2_invert(forward)
        if inverse is None:
            raise DependentInput("matrix is singular")
        self.forward = forward
        self.inverse = inverse

    @property
    def n(self) -> int:
        return self.forward.ncols

    def __repr__(self) -> str:
        return f"LinearMap(rows={self.forward.rows})"


def complete_basis(masks: Sequence[int], n: int) -> LinearMap:
    """Extend independent masks to a basis of {0,1}^n.

    The forward rows are the input masks verbatim followed by standard basis
    vectors at the non-pivot positions of the echelonized input, in ascending
    position order.  Deterministic given the input.
    """
    ech, pivots = echelon_pivots(masks)
    if len(ech) != len(masks):
        raise DependentInput("input masks are linearly dependent")
    rows = list(masks)
    taken = set(pivots)
    for q in range(n):
        if q not in taken:
            rows.append(1 << q)
    if len(rows) != n:
        raise DimensionMismatch(f"{len(masks)} masks exceed dimension {n}")
    return LinearMap(Gf2Matrix(rows, n))


def apply_linear(f, linear_map: LinearMap):
    """Compose a truth table with an invertible map: (Lf)(x) = f(L x)."""
    from .core import BooleanFunction

    if linear_map.n != f.n:
        raise DimensionMismatch(f"map on {linear_map.n} variables, f on {f.n}")
    # L x is the XOR of the columns L e_j over the set bits j of x.
    rows = linear_map.forward.rows
    columns = [
        sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(f.n)
    ]
    return BooleanFunction(f.n, f.table[span_points(columns)])


def dickson_matrix(anf) -> Gf2Matrix:
    """Symmetric zero-diagonal matrix of the quadratic monomials of an ANF.

    Entry (i, j) is 1 exactly when the monomial x_{i+1} x_{j+1} appears.
    """
    n = anf.n
    rows = [0] * n
    for m in anf.monomials:
        if m.bit_count() == 2:
            i = lowest_set_bit(m)
            j = m.bit_length() - 1
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Gf2Matrix(rows, n)
