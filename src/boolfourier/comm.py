"""Deterministic two-party protocols for XOR functions F(x, y) = f(x xor y).

A parity decision tree for f turns into a protocol directly: for each node
the two sides announce <mask, x> and <mask, y> (two bits per round) and both
follow the branch of the XOR, which equals <mask, x xor y>.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._bits import dot
from .core import _INT64_SAFE, BooleanFunction
from .errors import DimensionMismatch, TooLarge
from .pdt import Pdt, PdtNode

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
# Residue products stay below 2^62, so elimination mod p is exact on int64.
_RANK_PRIME = 2**31 - 1
# Numerator and denominator bound of the rational lift: 2 * bound^2 < p
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

    1. Lower bound.  The entries are reduced modulo the prime p = 2^31 - 1
       and brought to reduced row echelon form over GF(p) on int64 (a
       product of two residues stays below 2^62).  With r pivots, M has an
       r x r minor on the pivot columns that is nonzero mod p, hence a
       nonzero integer, so the rank over Q is at least r.  If
       r = min(rows, cols) that is the rank.
    2. Upper bound.  Otherwise the echelon rows on the non-pivot columns,
       X, are lifted to rationals a/b with |a|, b <= sqrt(p/2), and the
       identity M[:, pivots] @ (D X) == D M[:, free] is checked in exact
       integer arithmetic, D being the common denominator.  When it holds,
       every column of M lies in the span of the r pivot columns, so the
       rank is at most r.  The modular computation only proposes the
       combinations; the exact check is the proof.
    3. Fallback.  When the lift or the check fails (p divides a minor that
       matters, or X has entries beyond the lift bound), the rank comes
       from fraction-free Bareiss elimination on Python ints.

    Non-integer entries raise TypeError.
    """
    m = _integer_matrix(matrix)
    rows, cols = m.shape
    reduced, pivots = _rref_mod_p((m % _RANK_PRIME).astype(np.int64, copy=False))
    r = len(pivots)
    if r == min(rows, cols) or _factors_through(m, reduced, pivots):
        return r
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


def _rref_mod_p(a: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(p) of int64 residues, in place.

    Returns a copy of the nonzero rows, so the full residue matrix can be
    freed before the factorization check, and their pivot columns.  Columns
    left of the current pivot are already zero in the pivot row, so each
    step only updates the columns from the pivot on.
    """
    rows, cols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, _RANK_PRIME) % _RANK_PRIME
        col = a[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            a[hit, c:] = (a[hit, c:] - col[hit, None] * a[r, c:]) % _RANK_PRIME
        pivots.append(c)
        r += 1
    return a[:r].copy(), pivots


def _rational_lift(residues: np.ndarray):
    """(D X, D) for fractions X = residues mod p with common denominator D, or None.

    Wang's rational reconstruction, run on the distinct residues at once:
    the half extended Euclidean algorithm on (p, u) stops at the first
    remainder a <= sqrt(p/2); its cofactor b is the denominator, accepted
    when |b| <= sqrt(p/2) and gcd(a, b) = 1.  None when a residue has no
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


def _factors_through(m: np.ndarray, reduced: np.ndarray, pivots: List[int]) -> bool:
    """Exact check that each non-pivot column of m is m[:, pivots] @ X.

    X is the rational lift of ``reduced`` on those columns.  The products
    run on int64 when r * max|m| * max|D X| stays below 2^62, and on Python
    ints otherwise.
    """
    free = np.ones(m.shape[1], dtype=bool)
    free[pivots] = False
    lifted = _rational_lift(reduced[:, free])
    if lifted is None:
        return False
    scaled, denom = lifted
    big = max(-int(m.min(initial=0)), int(m.max(initial=0)))
    if scaled.dtype != object and max(len(pivots), 1) * big * _LIFT_BOUND * denom < _INT64_SAFE:
        m = m.astype(np.int64, copy=False)
    else:
        scaled, m = scaled.astype(object), m.astype(object)
    target = m[:, free]
    target *= denom
    return bool(np.array_equal(m[:, pivots] @ scaled, target))


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

    Each round both parties announce their side's parity of the current
    query mask; the shared branch is the XOR, so the walk tracks
    pdt_eval(tree, x xor y) exactly.
    """
    top = 1 << tree.n
    if not (0 <= x < top and 0 <= y < top):
        raise DimensionMismatch(f"inputs out of range for n={tree.n}")
    rounds: List[Round] = []
    node = tree.root
    while isinstance(node, PdtNode):
        a = dot(node.mask, x)
        b = dot(node.mask, y)
        rounds.append(Round(node.mask, a, b))
        node = node.child1 if a ^ b else node.child0
    return Transcript(tuple(rounds), node.value)


def verify_protocol(tree: Pdt, f: BooleanFunction) -> ProtocolReport:
    """Exhaustively check the protocol against f(x xor y) over all 4^n pairs.

    All pairs are routed down the tree at once.  At each node Alice's bit
    <mask, x> and Bob's bit <mask, y> are computed for every pair that
    reached it, and the pairs branch on their XOR, as in
    ``simulate_protocol``; at each leaf the leaf value is compared with
    f(x xor y) for every pair that arrived there.
    """
    if tree.n != f.n:
        raise DimensionMismatch(f"tree on {tree.n} variables, f on {f.n}")
    if f.n > _SWEEP_N_LIMIT:
        raise TooLarge(f"exhaustive pair sweep supports n <= {_SWEEP_N_LIMIT}")
    # Pair indices x * 2^n + y fit in 16 bits while n <= 8.
    pairs = np.arange(1 << (2 * f.n), dtype=np.uint16)
    correct = True
    stack = [(tree.root, pairs >> f.n, pairs & ((1 << f.n) - 1))]
    while stack:
        node, x, y = stack.pop()
        if not isinstance(node, PdtNode):
            if np.any(f.table[x ^ y] != node.value):
                correct = False
                break
            continue
        alice = np.bitwise_count(x & node.mask)
        bob = np.bitwise_count(y & node.mask)
        branch = ((alice ^ bob) & 1).astype(bool)
        stack.append((node.child1, x[branch], y[branch]))
        stack.append((node.child0, x[~branch], y[~branch]))
    return ProtocolReport(correct=correct, max_cost=2 * tree.depth())
