"""Deterministic two-party protocols for XOR functions F(x, y) = f(x xor y).

A parity decision tree for f turns into a protocol directly: for each node
the two sides announce <mask, x> and <mask, y> (two bits per round) and both
follow the branch of the XOR, which equals <mask, x xor y>.  So it runs on
``pdt``'s walks: a transcript is the path of x xor y, and the check over
all pairs routes them as ``pdt_check`` routes points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ._bits import dot
from .core import _INT64_SAFE, BooleanFunction
from .errors import DimensionMismatch, TooLarge
from .pdt import Pdt, _path, _route

__all__ = [
    "xor_matrix",
    "matrix_rank_exact",
    "Round",
    "Transcript",
    "simulate_protocol",
    "verify_protocol",
    "ProtocolReport",
]

_XOR_MATRIX_N_LIMIT = 10
_SWEEP_N_LIMIT = 8
# q = 2^25 - 39, a prime.  Multipliers and pivot-row entries are reduced to
# [0, q) before use, so a product is below q^2 < 2^50.  An entry is reduced
# at least once per panel of _PANEL <= 64 columns and takes at most one
# product per pivot of the panel, so in between it moves by less than
# _PANEL * q^2 <= 2^56 whatever the matrix shape: elimination mod q is exact
# on int64.
_RANK_PRIME = 33_554_393
_PANEL = 32
# Numerator and denominator bound of the rational lift, 4095: 2 * bound^2 < q
# makes a lifted fraction unique.
_LIFT_BOUND = math.isqrt(_RANK_PRIME // 2)


def xor_matrix(f: BooleanFunction) -> np.ndarray:
    """The 2^n x 2^n integer matrix M[x][y] = f(x xor y)."""
    if f.n > _XOR_MATRIX_N_LIMIT:
        raise TooLarge(f"xor_matrix supports n <= {_XOR_MATRIX_N_LIMIT}, got {f.n}")
    size = 1 << f.n
    idx = np.arange(size, dtype=np.int64)
    return f.table[idx[:, None] ^ idx[None, :]].astype(np.int64)


def matrix_rank_exact(matrix) -> int:
    """Rank over the rationals of a matrix with integer entries.

    Three exact steps:

    1. Lower bound.  The entries are reduced modulo the prime q = 2^25 - 39
       and brought to row echelon form over GF(q) on int64 by forward
       elimination in column panels (products of residues stay below 2^50,
       and entries are reduced once per panel).  With r pivots, M has an
       r x r minor on the pivot columns that is nonzero mod q, hence a
       nonzero integer, so the rank over Q is at least r.  If
       r = min(rows, cols) that is the rank.
    2. Upper bound.  Otherwise back substitution in the echelon rows gives
       the non-pivot columns as combinations X of the pivot columns mod q.
       X is lifted to rationals a/b with |a|, b <= sqrt(q/2), and the
       identity M[:, pivots] @ (D X) == D M[:, free] is checked in exact
       integer arithmetic, D being the common denominator.  When it holds,
       every column of M lies in the span of the r pivot columns, so the
       rank is at most r.  The modular computation only proposes the
       combinations; the exact check is the proof.
    3. Fallback.  When the lift or the check fails (q divides a minor that
       matters, or X has entries beyond the lift bound), the rank comes
       from fraction-free Bareiss elimination on Python ints.

    Non-integer entries raise TypeError.
    """
    m = _integer_matrix(matrix)
    rows, cols = m.shape
    a = (m % _RANK_PRIME).astype(np.int64, copy=False)
    pivots = _echelon_mod_q(a)
    if len(pivots) == min(rows, cols) or _factors_through(m, _free_solution(a, pivots), pivots):
        return len(pivots)
    return _bareiss_rank(m)


def _integer_matrix(matrix) -> np.ndarray:
    """The matrix as int64 when it is an integer array that fits, else as Python ints."""
    if isinstance(matrix, np.ndarray) and np.can_cast(matrix.dtype, np.int64):
        m = matrix.astype(np.int64, copy=False)
    else:
        m = np.array(matrix, dtype=object)
    if m.ndim != 2:
        raise DimensionMismatch("matrix_rank_exact expects a 2-d matrix")
    if m.dtype == object:
        m = np.frompyfunc(operator.index, 1, 1)(m)
    return m


def _echelon_mod_q(a: np.ndarray) -> List[int]:
    """Row echelon form over GF(q) of int64 residues, in place; the pivot columns.

    Forward elimination with row swaps, one panel of _PANEL columns at a
    time (``_eliminate_panel``).  The pivots are the first columns
    independent of those before them.  On return the first len(pivots)
    rows hold the echelon rows, reduced, with multipliers at the pivot
    columns left of their own pivot.
    """
    pivots: List[int] = []
    for c0 in range(0, a.shape[1], _PANEL):
        _eliminate_panel(a, c0, pivots)
    return pivots


def _eliminate_panel(a: np.ndarray, c0: int, pivots: List[int]) -> None:
    """One panel of ``_echelon_mod_q``: columns c0 to c0 + _PANEL, appending its pivots.

    The rows from len(pivots) down are those left.  Inside the panel each
    pivot updates the panel's columns only, in the rows with a nonzero
    entry below it.  Those entries stay in place as its multipliers, as in
    an LU factorization; they are taken relative to the pivot, so the
    pivot's inverse scales the pivot row instead.  Then one triangular pass
    gives the pivot rows right of the panel, and one matmul, L21 @ U12,
    updates the trailing block.  Both are reduced mod q once, so every
    entry right of the panel, in the panel's pivot rows and below, is a
    residue again.
    """
    rows, cols = a.shape
    c1 = min(c0 + _PANEL, cols)
    r0 = r = len(pivots)
    inverses = []
    # a column that is zero in the rows left at the panel's start stays zero
    for c in (c0 + np.flatnonzero(a[r:, c0:c1].any(axis=0))).tolist():
        col = a[r:, c]
        col %= _RANK_PRIME
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            row = a[i].copy()
            a[i] = a[r]
            a[r] = row
        inverses.append(pow(int(a[r, c]), -1, _RANK_PRIME))
        if nz.size > 1:
            hit = r + nz[1:]
            scaled = a[r, c + 1 : c1] % _RANK_PRIME * inverses[-1] % _RANK_PRIME
            a[hit, c + 1 : c1] -= a[hit, c, None] * scaled
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if r == r0:
        return
    a[r0:r, c0:c1] %= _RANK_PRIME
    if c1 == cols:
        return
    panel = pivots[r0 - r :]
    inv = np.array(inverses, dtype=np.int64)
    # U12 = L11^-1 A12, with L11 unit lower: multipliers times inverses
    u = a[r0:r, c1:]
    lower = np.tril(a[r0:r, panel], -1) * inv % _RANK_PRIME
    for j in np.flatnonzero(lower.any(axis=0)).tolist():
        u[j] %= _RANK_PRIME
        u[j + 1 :] -= lower[j + 1 :, j, None] * u[j]
    u %= _RANK_PRIME
    lower = a[r:, panel]
    live = np.flatnonzero(lower.any(axis=1))
    if live.size:
        # these multipliers are relative to the pivots as well
        hit = r + live
        scaled = u * inv[:, None] % _RANK_PRIME
        a[hit, c1:] = (a[hit, c1:] - lower[live] @ scaled) % _RANK_PRIME


def _free_solution(a: np.ndarray, pivots: List[int]) -> np.ndarray:
    """X = U_P^-1 U_F mod q: each non-pivot column on the pivot columns.

    U is the echelon rows left by ``_echelon_mod_q``, U_P its pivot columns
    (upper triangular; the multipliers below the diagonal are dropped) and
    U_F the rest.  Both are scaled by the inverse pivots first, so U_P has
    a unit diagonal.  Back substitution runs bottom up in blocks of _PANEL
    rows: a block is solved row by row, then one matmul moves it into the
    rows above, which are reduced mod q once per block.
    """
    r = len(pivots)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivots] = False
    upper = a[:r, pivots]
    inverses = np.array(
        [pow(int(v), -1, _RANK_PRIME) for v in upper.diagonal()], dtype=np.int64
    )[:, None]
    upper = np.triu(upper, 1) * inverses % _RANK_PRIME
    x = a[:r, free] * inverses % _RANK_PRIME
    for end in range(r, 0, -_PANEL):
        start = max(end - _PANEL, 0)
        for j in range(end - 1, start - 1, -1):
            x[j] %= _RANK_PRIME
            x[start:j] -= upper[start:j, j, None] * x[j]
        if start:
            x[:start] = (x[:start] - upper[:start, start:end] @ x[start:end]) % _RANK_PRIME
    return x


def _rational_lift(residues: np.ndarray):
    """(D X, D) for fractions X = residues mod q with common denominator D, or None.

    Wang's rational reconstruction, run on the distinct residues at once:
    the half extended Euclidean algorithm on (q, u) stops at the first
    remainder a <= sqrt(q/2); its cofactor b is the denominator, accepted
    when |b| <= sqrt(q/2) and gcd(a, b) = 1.  None when a residue has no
    such fraction.
    """
    values, where = np.unique(residues.ravel(), return_inverse=True)
    r0 = np.full(values.shape, _RANK_PRIME, dtype=np.int64)
    r1 = values.copy()
    t0 = np.zeros(values.shape, dtype=np.int64)
    t1 = np.ones(values.shape, dtype=np.int64)
    while True:
        act = np.flatnonzero(r1 > _LIFT_BOUND)
        if act.size == 0:
            break
        q = r0[act] // r1[act]
        r0[act], r1[act] = r1[act], r0[act] - q * r1[act]
        t0[act], t1[act] = t1[act], t0[act] - q * t1[act]
    if np.any(np.abs(t1) > _LIFT_BOUND) or np.any(np.gcd(r1, t1) != 1):
        return None
    sign = np.sign(t1)
    nums, dens = r1 * sign, t1 * sign
    denom = math.lcm(*dens.tolist())
    dtype = np.int64 if _LIFT_BOUND * denom < _INT64_SAFE else object
    scaled = nums.astype(dtype) * (denom // dens.astype(dtype))
    return scaled[where].reshape(residues.shape), denom


def _factors_through(m: np.ndarray, x: np.ndarray, pivots: List[int]) -> bool:
    """Exact check that each non-pivot column of m is m[:, pivots] @ X.

    X is the rational lift of the residues ``x``.  The products run on
    int64 when r * max|m| * max|D X| stays below 2^62, and on Python ints
    otherwise.  The int64 product takes the pivot columns row-contiguous
    and D X column-contiguous, the layout numpy's integer matmul walks.
    """
    free = np.ones(m.shape[1], dtype=bool)
    free[pivots] = False
    lifted = _rational_lift(x)
    if lifted is None:
        return False
    scaled, denom = lifted
    big = max(-int(m.min(initial=0)), int(m.max(initial=0)))
    if scaled.dtype != object and max(len(pivots), 1) * big * _LIFT_BOUND * denom < _INT64_SAFE:
        m = m.astype(np.int64, copy=False)
        scaled = np.asfortranarray(scaled)
    else:
        scaled, m = scaled.astype(object), m.astype(object)
    target = m[:, free]
    target *= denom
    return bool(np.array_equal(m.take(pivots, axis=1) @ scaled, target))


def _bareiss_rank(a: np.ndarray) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Entries are arbitrary-precision integers throughout; every division is
    exact by the Bareiss identity, so no pivoting policy or tolerance enters.
    Columns without a pivot are skipped; elimination stops as soon as the
    remaining block is zero.
    """
    a = a.astype(object)
    rows, cols = a.shape
    r = 0
    prev = 1
    for c in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if a[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        p = a[r, c]
        if r + 1 < rows and c + 1 < cols:
            block = a[r + 1 :, c + 1 :]
            a[r + 1 :, c + 1 :] = (
                block * p - np.outer(a[r + 1 :, c], a[r, c + 1 :])
            ) // prev
        a[r + 1 :, c] = 0
        prev = p
        r += 1
    return r


@dataclass(frozen=True)
class Round:
    mask: int
    alice_bit: int
    bob_bit: int


@dataclass(frozen=True)
class Transcript:
    rounds: Tuple[Round, ...]
    output: int

    @property
    def cost_bits(self) -> int:
        return 2 * len(self.rounds)


@dataclass(frozen=True)
class ProtocolReport:
    correct: bool
    max_cost: int


def simulate_protocol(tree: Pdt, x: int, y: int) -> Transcript:
    """Run the two-bit-per-round protocol derived from a parity tree.

    The rounds are the path of x xor y (``pdt._path``, ``pdt_eval``'s
    walk): each round both parties announce their side's parity of that
    round's query mask, and the shared branch is the XOR.
    """
    top = 1 << tree.n
    if not (0 <= x < top and 0 <= y < top):
        raise DimensionMismatch(f"inputs out of range for n={tree.n}")
    masks, output = _path(tree, x ^ y)
    return Transcript(tuple(Round(m, dot(m, x), dot(m, y)) for m in masks), output)


def verify_protocol(tree: Pdt, f: BooleanFunction) -> ProtocolReport:
    """Exhaustively check the protocol against f(x xor y) over all 4^n pairs.

    The pairs are the indices x * 2^n + y, routed down the tree at once by
    ``pdt._route`` (``pdt_check``'s router).  On a pair index the query m
    acts as the mask m * (2^n + 1), whose parity on the pair is Alice's bit
    <m, x> xor Bob's bit <m, y>.  The leaf values are then compared with
    f(x xor y) in one pass.
    """
    if tree.n != f.n:
        raise DimensionMismatch(f"tree on {tree.n} variables, f on {f.n}")
    if f.n > _SWEEP_N_LIMIT:
        raise TooLarge(f"exhaustive pair sweep supports n <= {_SWEEP_N_LIMIT}")
    size = 1 << f.n
    # pair indices fit in 16 bits while n <= 8, and points in 8
    points = np.arange(size, dtype=np.uint8)
    outputs = _route(tree, 2 * f.n, size + 1)
    correct = np.array_equal(outputs, f.table[np.bitwise_xor.outer(points, points)].ravel())
    return ProtocolReport(correct=correct, max_cost=2 * tree.depth())
