"""Reference computations for the benchmark's output checks.

Everything here is written from the definitions with numpy and plain ints.
Nothing imports boolfourier, so a fault in the program cannot hide a fault
in a check.  Points are ints whose bit i is x_{i+1}, as in the program.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def _axis_transform(table, step: Callable) -> np.ndarray:
    """Apply a 2-point transform along every axis of the (2,)*n cube."""
    a = np.asarray(table)
    n = a.size.bit_length() - 1
    if a.size != 1 << n:
        raise ValueError(f"table length {a.size} is not a power of two")
    if n == 0:
        return a.copy()
    # C order puts bit n-1 on axis 0; every axis is transformed, so the order
    # of the axes does not matter for the result.
    cube = a.reshape((2,) * n)
    for axis in range(n):
        lo, hi = np.take(cube, 0, axis=axis), np.take(cube, 1, axis=axis)
        cube = np.stack(step(lo, hi), axis=axis)
    return cube.reshape(-1)


def wht_numerators(table) -> np.ndarray:
    """sum_x f(x) * (-1)^<s,x> for every s: the 0/1 spectrum over 2^n."""
    a = np.asarray(table, dtype=np.int64)
    return _axis_transform(a, lambda lo, hi: (lo + hi, lo - hi))


def sparsity(table) -> int:
    """Number of nonzero Fourier coefficients of f."""
    return int(np.count_nonzero(wht_numerators(table)))


def support(table) -> List[int]:
    return [int(s) for s in np.nonzero(wht_numerators(table))[0]]


def mobius(table) -> np.ndarray:
    """GF(2) ANF coefficients: the coefficient of monomial m is XOR of f over submasks."""
    a = np.asarray(table, dtype=np.uint8)
    return _axis_transform(a, lambda lo, hi: (lo, lo ^ hi))


def degree(table) -> int:
    """GF(2) degree; 0 for constants."""
    coeffs = mobius(table)
    monomials = np.nonzero(coeffs)[0]
    if monomials.size == 0:
        return 0
    return int(np.bitwise_count(monomials.astype(np.uint64)).max())


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2), pivoting on the highest set bit."""
    pivots: dict = {}
    for v in vectors:
        v = int(v)
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def affine_points(
    constraints: Sequence[Tuple[int, int]], n: int
) -> Optional[np.ndarray]:
    """Points x with <mask, x> = bit for every (mask, bit), or None if empty.

    The points come in the order of a parametrization y -> a ^ sum y_i b_i
    over a kernel basis b_1..b_m, so the array is a truth-table index of the
    subspace in its own m coordinates.
    """
    rows: List[Tuple[int, int]] = []  # reduced (row, bit), distinct lowest bits
    for mask, bit in constraints:
        mask, bit = int(mask), int(bit) & 1
        for r, rb in rows:
            low = r & -r
            if mask & low:
                mask ^= r
                bit ^= rb
        if mask == 0:
            if bit:
                return None
            continue
        low = mask & -mask
        rows = [((r ^ mask), rb ^ bit) if r & low else (r, rb) for r, rb in rows]
        rows.append((mask, bit))
    pivot_of = {(r & -r).bit_length() - 1: (r, rb) for r, rb in rows}
    shift = 0
    for p, (_, rb) in pivot_of.items():
        if rb:
            shift |= 1 << p
    points = np.array([shift], dtype=np.int64)
    for q in range(n):
        if q in pivot_of:
            continue
        v = 1 << q
        for p, (r, _) in pivot_of.items():
            if (r >> q) & 1:
                v |= 1 << p
        points = np.concatenate([points, points ^ np.int64(v)])
    return points


def restricted_degree(table, constraints: Sequence[Tuple[int, int]], n: int) -> int:
    """GF(2) degree of f on an affine subspace (-1 if the subspace is empty)."""
    pts = affine_points(constraints, n)
    if pts is None:
        return -1
    return degree(np.asarray(table)[pts])


def constant_on(table, constraints: Sequence[Tuple[int, int]], n: int, value: int) -> bool:
    """True when the subspace is nonempty and f equals value on all of it."""
    pts = affine_points(constraints, n)
    return pts is not None and bool(np.all(np.asarray(table)[pts] == value))


# ---------------------------------------------------------------------------
# Trees.  The program hands them out as node objects (attributes mask,
# child0, child1 or value) and the CLI as a JSON mirror (keys query, child0,
# child1 or value, query an x1-first bitstring).  Both are read into one
# plain form: ("leaf", value) or (mask, child0, child1).


def tree_key(node) -> tuple:
    """Plain hashable form of a tree given as node objects or as JSON."""
    if isinstance(node, dict):
        if "value" in node:
            return ("leaf", node["value"])
        mask = sum(1 << i for i, ch in enumerate(node["query"]) if ch == "1")
        return (mask, tree_key(node["child0"]), tree_key(node["child1"]))
    if hasattr(node, "value"):
        return ("leaf", node.value)
    return (node.mask, tree_key(node.child0), tree_key(node.child1))


def walk_tree(key: tuple, n: int) -> Tuple[np.ndarray, int]:
    """(output on every point, depth) of a tree in plain form."""
    out = np.full(1 << n, 2, dtype=np.uint8)  # 2 marks a point no leaf reached
    depth = 0

    def walk(node: tuple, idx: np.ndarray, level: int) -> None:
        nonlocal depth
        if node[0] == "leaf":
            out[idx] = node[1]
            depth = max(depth, level)
            return
        mask, child0, child1 = node
        par = np.bitwise_count(idx & np.int64(mask)) & 1
        walk(child0, idx[par == 0], level + 1)
        walk(child1, idx[par == 1], level + 1)

    walk(key, np.arange(1 << n, dtype=np.int64), 0)
    return out, depth
