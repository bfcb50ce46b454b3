"""Shared test fixtures: independent oracles, the function corpora and the
records of frozen certificates.

The oracles recompute everything from definitions in plain Python (direct
double-loop transforms, subset-sum Moebius, point-selection restrictions,
Fraction Gaussian elimination) so package results can be checked against
arithmetic that shares no code with the implementation.  Three references
are slow loops the vectorized code is checked against instead:
``protocol_oracle``, the per-pair loop over ``simulate_protocol`` behind
``verify_protocol``, ``first_drop_reference``, the per-candidate
degree-drop search behind the batched one, and ``span_tree_oracle``, one
``restrict_affine`` and ``wht`` per node behind span-query's level pass.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from boolfourier import (
    AffineConstraint,
    FamilySpec,
    NotFound,
    TooLarge,
    cert_greedy_l1,
    cert_norm_halving_with_trace,
    generate,
    restrict_affine,
    simulate_protocol,
    to_pm_spectrum,
    wht,
)
from boolfourier._bits import mask_to_string

# ---------------------------------------------------------------------------
# Independent oracles (no package imports beyond corpus construction).


def parity(x: int) -> int:
    return x.bit_count() & 1


def wht_oracle(table: Sequence[int]) -> Dict[int, int]:
    """Numerators of the 0/1 spectrum over 2^n, by the defining double sum."""
    table = [int(v) for v in table]
    size = len(table)
    n = (size - 1).bit_length()
    assert size == 1 << n
    out = {}
    for s in range(size):
        num = sum(table[x] * (-1) ** parity(s & x) for x in range(size))
        if num:
            out[s] = num
    return out


def pm_spectrum_oracle(table: Sequence[int]) -> Dict[int, int]:
    """Numerators of the (-1)^f spectrum over 2^n."""
    pm = [1 - 2 * int(v) for v in table]
    size = len(table)
    out = {}
    for s in range(size):
        num = sum(pm[x] * (-1) ** parity(s & x) for x in range(size))
        if num:
            out[s] = num
    return out


def anf_oracle(table: Sequence[int]) -> set:
    """Monomial masks by subset-sum Moebius inversion from the definition."""
    table = [int(v) for v in table]
    size = len(table)
    monomials = set()
    for m in range(size):
        acc = 0
        sub = m
        while True:  # iterate all submasks of m
            acc ^= table[sub]
            if sub == 0:
                break
            sub = (sub - 1) & m
        if acc:
            monomials.add(m)
    return monomials


def deg_oracle(table: Sequence[int]) -> int:
    mons = anf_oracle(table)
    return max((m.bit_count() for m in mons), default=0)


def x1_first_string(mask: int, n: int) -> str:
    """The mask as the bitstring x1 x2 ... xn; string order is x1-first order."""
    return "".join(str((mask >> i) & 1) for i in range(n))


def heavy_direction_oracle(support: Iterable[int], n: int) -> Tuple[int, int]:
    """(t, p(t)) maximizing the count p(t) of unordered support pairs with XOR t.

    Counts every pair directly; ties go to the x1-first smallest t.
    """
    counts: Dict[int, int] = {}
    for s, u in itertools.combinations(sorted(support), 2):
        counts[s ^ u] = counts.get(s ^ u, 0) + 1
    best = max(counts.values())
    t = min((t for t, c in counts.items() if c == best), key=lambda t: x1_first_string(t, n))
    return t, best


def greedy_pair_reference(spectrum) -> Tuple[int, int]:
    """The greedy step's (a1, a2) by its defining rule, over every coefficient.

    ``heapq.nsmallest`` of two, keyed by (-|c|, the mask's x1-first
    bitstring): the largest magnitudes, ties in x1-first order.
    """
    n = spectrum.n
    (a1, _), (a2, _) = heapq.nsmallest(
        2, spectrum.coeffs.items(), key=lambda kv: (-abs(kv[1]), x1_first_string(kv[0], n))
    )
    return a1, a2


def span_basis_oracle(table: Sequence[int]) -> List[int]:
    """The support masks of the (-1)^f spectrum independent of those before them, x1-first.

    Span-query's queries at the root, where the frame is the identity.
    """
    n = (len(table) - 1).bit_length()
    basis: List[int] = []
    for s in sorted(pm_spectrum_oracle(table), key=lambda m: x1_first_string(m, n)):
        if s and _independent(basis + [s]):
            basis.append(s)
    return basis


def span_tree_oracle(
    f, queries: Sequence[int], path: Sequence[Tuple[int, int]] = (), parent=None, branch=None,
    start: int = 0,
) -> Tuple[List[tuple], dict]:
    """Span-query's subtree at a node, from the definition: (trace rows, tree dict).

    The node is f restricted to ``path``, (mask, bit) constraints, and every
    path of the subtree asks ``queries`` in order.  Each node gets one row
    (parent, branch, mask, l0, l1_num), in depth-first preorder with ids
    from ``start``: ``restrict_affine`` along its path, then ``wht``, with
    the +/-1 l1 numerator scaled from 2**m, m the restriction's variables,
    to the root denominator 2**n.  A leaf's value is its restriction's
    constant, which must be constant.
    """
    rows: List[tuple] = []

    def node(path, parent, branch):
        g = restrict_affine(f, [AffineConstraint(m, b) for m, b in path])
        pm = to_pm_spectrum(wht(g)).coeffs
        node_id = start + len(rows)
        depth = len(path) - len(base)
        mask = queries[depth] if depth < len(queries) else None
        rows.append((parent, branch, mask, len(pm), sum(map(abs, pm.values())) << (f.n - g.n)))
        if mask is None:
            assert g.is_constant()
            return {"value": int(g.table[0])}
        return {
            "query": mask_to_string(mask, f.n),
            "child0": node(path + ((mask, 0),), node_id, 0),
            "child1": node(path + ((mask, 1),), node_id, 1),
        }

    base = tuple(path)
    tree = node(base, parent, branch)
    return rows, tree


def _independent(masks: Sequence[int]) -> bool:
    """GF(2) linear independence by elimination on plain ints."""
    rows = list(masks)
    r = 0
    for bit in range(max(rows).bit_length() if rows else 0):
        piv = next((i for i in range(r, len(rows)) if (rows[i] >> bit) & 1), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> bit) & 1:
                rows[i] ^= rows[r]
        r += 1
    return r == len(masks) and all(rows)


def query_mask_oracle(basis: Sequence[int], t: int) -> int:
    """The one mask with bits only in P whose parity with basis[i] is bit i of t.

    P is the set of lowest set bits of the nonzero points of span(basis),
    listed point by point; every subset of P is tried as the mask.
    """
    points = [0]
    for v in basis:
        points += [p ^ v for p in points]
    pivots = sorted({(p & -p).bit_length() - 1 for p in points if p})
    assert len(pivots) == len(basis)
    found = []
    for bits in itertools.product((0, 1), repeat=len(pivots)):
        q = sum(bit << pos for bit, pos in zip(bits, pivots))
        if all(parity(q & v) == (t >> i) & 1 for i, v in enumerate(basis)):
            found.append(q)
    assert len(found) == 1
    return found[0]


def subspace_table(
    table: Sequence[int], constraints: Sequence[Tuple[int, int]]
) -> Optional[List[int]]:
    """Subfunction values on the affine subspace, by point selection.

    Returns None when the constraints are inconsistent.  The parameterization
    is an arbitrary greedy basis of the direction space; only
    parameterization-independent quantities (degree, value multiset,
    constancy) should be compared against it.
    """
    table = [int(v) for v in table]
    size = len(table)
    pts = [
        x
        for x in range(size)
        if all(parity(x & t) == b for t, b in constraints)
    ]
    if not pts:
        return None
    x0 = pts[0]
    directions = sorted({p ^ x0 for p in pts} - {0})
    basis: List[int] = []
    spanned = {0}
    for d in directions:
        if d not in spanned:
            spanned |= {s ^ d for s in spanned}
            basis.append(d)
    m = len(basis)
    out = []
    for u in range(1 << m):
        x = x0
        for i in range(m):
            if (u >> i) & 1:
                x ^= basis[i]
        out.append(table[x])
    return out


def rank_oracle(table: Sequence[int], max_codim: int = 4) -> Optional[int]:
    """Minimum codimension with a degree drop, by exhaustive brute force."""
    table = [int(v) for v in table]
    size = len(table)
    n = (size - 1).bit_length()
    d = deg_oracle(table)
    for k in range(1, min(max_codim, n) + 1):
        for masks in itertools.combinations(range(1, size), k):
            if not _independent(masks):
                continue
            for bits in itertools.product((0, 1), repeat=k):
                sub = subspace_table(table, list(zip(masks, bits)))
                if sub is not None and deg_oracle(sub) < d:
                    return k
    return None


def matrix_rank_oracle(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by Fraction Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rows):
            if i != rank and m[i][col]:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def xor_matrix_oracle(table: Sequence[int]) -> List[List[int]]:
    table = [int(v) for v in table]
    size = len(table)
    return [[table[x ^ y] for y in range(size)] for x in range(size)]


# ---------------------------------------------------------------------------
# Slow reference loops for vectorized package code.


def protocol_oracle(tree, f) -> bool:
    """Whether the protocol of ``tree`` outputs f(x xor y) on every pair.

    One ``simulate_protocol`` walk per (x, y), all 4^n of them.
    """
    size = 1 << f.n
    return all(
        simulate_protocol(tree, x, y).output == f.value(x ^ y)
        for x in range(size)
        for y in range(size)
    )


def rref_bases_reference(n: int, k: int) -> Iterator[Tuple[int, ...]]:
    """Canonical bases of the k-dim mask spaces, in ascending tuple order.

    A basis is canonical when its rows ascend, each row's lowest set bit is
    its pivot, and every row is zero at the other rows' pivots.  Each row
    is found by scanning every mask above the previous one.
    """

    def rec(start: int, rows: Tuple[int, ...], pivots: int, union: int):
        if len(rows) == k:
            yield rows
            return
        for t in range(start, 1 << n):
            if t & pivots or union & (t & -t):
                continue
            yield from rec(t + 1, rows + (t,), pivots | (t & -t), union | t)

    yield from rec(1, (), 0, 0)


def _packed_drop(bits: Sequence[int], d: int) -> bool:
    """Whether no monomial of weight >= d survives in a 0/1 table of size 2^m.

    The table is packed into one int and the Moebius transform runs
    word-parallel.
    """
    size = len(bits)
    m = size.bit_length() - 1
    word = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    for i in range(m):
        step = 1 << i
        period_mask = ((1 << size) - 1) // ((1 << (2 * step)) - 1) * ((1 << step) - 1)
        word ^= (word & period_mask) << step
    return word & _heavy_word(size, d) == 0


@functools.lru_cache(maxsize=None)
def _heavy_word(size: int, d: int) -> int:
    """The bits x < size of weight >= d, as one int."""
    return sum(1 << x for x in range(size) if x.bit_count() >= d)


def first_drop_reference(f, max_codim: int, max_candidates: Optional[int]) -> Tuple[int, ...]:
    """Per-candidate reference for the package's degree-drop search.

    Candidates are ``rref_bases_reference`` in increasing codimension, each
    tested alone on the kernel of its rows (``_kernel_drops``).  Raises the
    package's NotFound and TooLarge with the same texts.
    """
    if f.n > 12:
        raise TooLarge("subspace search supports n <= 12")
    verdicts = _kernel_drops(f.table.tobytes(), f.n)
    examined = 0
    for k in range(1, min(max_codim, f.n) + 1):
        for rows in rref_bases_reference(f.n, k):
            if max_candidates is not None and examined >= max_candidates:
                raise NotFound(f"candidate budget {max_candidates} exhausted at codim {k}")
            examined += 1
            if verdicts[rows]:
                return rows
    raise NotFound(f"no degree drop within codimension {max_codim}")


class _KernelDrops(dict):
    """rows -> whether the degree of the table drops on the kernel of rows, computed on first use.

    The kernel's points in ascending order are a linear parametrization of
    it (by its basis reduced on highest bits, in order), so the table on
    them has the restriction's degree.
    """

    def __init__(self, table: bytes, n: int):
        super().__init__()
        self.table = np.frombuffer(table, dtype=np.uint8)
        self.d = deg_oracle(self.table)
        self.xs = np.arange(1 << n)

    def __missing__(self, rows: Tuple[int, ...]) -> bool:
        odd = np.bitwise_count(self.xs[None, :] & np.array(rows)[:, None]) & 1
        self[rows] = _packed_drop(self.table[np.flatnonzero(~odd.any(axis=0))], self.d)
        return self[rows]


# One function's verdicts serve every (max_codim, budget) pair tried on it.
_kernel_drops = functools.lru_cache(maxsize=2)(_KernelDrops)


# ---------------------------------------------------------------------------
# Corpus.


def _symmetric_values(n: int, rule: str) -> Tuple[int, ...]:
    if rule == "threshold":
        return tuple(1 if w >= (n + 1) // 2 else 0 for w in range(n + 1))
    if rule == "mod3":
        return tuple(1 if w % 3 == 0 else 0 for w in range(n + 1))
    if rule == "exact":
        return tuple(1 if w == n // 2 else 0 for w in range(n + 1))
    raise ValueError(rule)


def addressing21_table() -> np.ndarray:
    """Truth table on n = 21 of x_{5+a} XOR x5*x21, where a = x1 + 2x2 + 4x3 + 8x4.

    The 4-bit addressing function on x1..x20 plus one quadratic term: l0 is
    1,024 but the support spans all 21 dimensions, one past span-query's
    2**20-leaf limit.
    """
    x = np.arange(1 << 21)
    return (((x >> (4 + (x & 15))) ^ ((x >> 4) & (x >> 20))) & 1).astype(np.uint8)


def family_corpus(max_n: int = 10) -> List[Tuple[str, object]]:
    """(label, BooleanFunction) pairs spanning every constructor family.

    Dense families stop at n = 7 to keep exhaustive checks quick; parity is
    carried to max_n and bent_ip to k = 8.
    """
    entries: List[Tuple[str, object]] = []

    def add(kind: str, params: dict, label: str) -> None:
        entries.append((label, generate(FamilySpec(kind, params))))

    for k in (2, 4, 6, 8):
        if k <= max_n:
            add("bent_ip", {"k": k}, f"bent_ip(k={k})")
    for n in range(1, min(7, max_n) + 1):
        add("and", {"n": n}, f"and(n={n})")
        add("or", {"n": n}, f"or(n={n})")
    for n in range(1, max_n + 1):
        add("parity", {"n": n}, f"parity(n={n})")
    for n in (1, 3, 5, 7):
        if n <= max_n:
            add("majority", {"n": n}, f"majority(n={n})")
    for n in range(2, min(8, max_n) + 1):
        for rule in ("threshold", "mod3"):
            add(
                "symmetric",
                {"values": _symmetric_values(n, rule)},
                f"symmetric(n={n},{rule})",
            )
    for n in (3, 4, 5, 6):
        if n <= max_n:
            add(
                "symmetric",
                {"values": _symmetric_values(n, "exact")},
                f"symmetric(n={n},exact)",
            )
    for n in range(2, min(8, max_n) + 1):
        add(
            "affine_indicator",
            {"n": n, "constraints": ((1, 1),)},
            f"affine_indicator(n={n},x1=1)",
        )
        add(
            "affine_indicator",
            {"n": n, "constraints": ((3, 0), (2, 1))},
            f"affine_indicator(n={n},two)",
        )
    return entries


def random_corpus(count: int = 200) -> List[Tuple[str, object]]:
    """Seeded random polynomials cycling n in 3..6 and degree in 2..4."""
    entries = []
    for i in range(count):
        n = 3 + i % 4
        d = min(2 + i % 3, n)
        seed = i + 1
        f = generate(FamilySpec("random_poly", {"n": n, "d": d, "seed": seed}))
        entries.append((f"random_poly(n={n},d={d},seed={seed})", f))
    return entries


def full_corpus(max_n: int = 10, random_count: int = 200) -> List[Tuple[str, object]]:
    return family_corpus(max_n) + random_corpus(random_count)


def cert_corpus() -> List[Tuple[str, object]]:
    """The frozen-certificate corpus: random_poly for n = 3..10, d = 2..4
    (d <= n) and seeds 1..3, then bent_ip and majority."""
    entries = []
    for n in range(3, 11):
        for d in range(2, min(4, n) + 1):
            for seed in (1, 2, 3):
                params = {"n": n, "d": d, "seed": seed}
                label = f"random_poly(n={n},d={d},seed={seed})"
                entries.append((label, generate(FamilySpec("random_poly", params))))
    for k in (4, 6, 8):
        entries.append((f"bent_ip(k={k})", generate(FamilySpec("bent_ip", {"k": k}))))
    for n in (3, 5, 7, 9):
        entries.append((f"majority(n={n})", generate(FamilySpec("majority", {"n": n}))))
    return entries


def plain_certs(f) -> dict:
    """Both certificates of f as JSON-ready data, with norm-halving's steps.

    Constraints are [x1-first mask bitstring, bit] pairs; a step is
    [derivative mask, chosen branch, l1 before, l1 split, l1 after, sub codims].
    """

    def plain(cert) -> dict:
        return {
            "constraints": [[mask_to_string(c.mask, f.n), c.bit] for c in cert.constraints],
            "value": cert.value,
        }

    cert, steps = cert_norm_halving_with_trace(f)
    plain_steps = [
        [s.derivative_mask, s.chosen_branch, s.l1_before, list(s.l1_split), s.l1_after,
         list(s.sub_codims)]
        for s in steps
    ]
    return {
        "greedy_l1": plain(cert_greedy_l1(f)),
        "norm_halving": {**plain(cert), "steps": plain_steps},
    }
