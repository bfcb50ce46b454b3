"""Named Boolean function families used by tests, sweeps and the CLI.

Every generator is deterministic; random_poly is seeded and its monomial
draws are part of this package's fixture contract (golden files depend on
them), not an external standard.  One table, ``_FAMILIES``, maps each kind
to its generator and parameter names: ``FAMILY_KINDS`` and ``generate``
both read it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from ._bits import popcounts
from .core import N_MAX, BooleanFunction, anf_to_function, ANF
from .errors import InvalidSpec
from .gf2 import gf2_rank
from .restrict import AffineConstraint

__all__ = [
    "FamilySpec",
    "generate",
    "bent_ip",
    "and_fn",
    "or_fn",
    "parity_fn",
    "majority_fn",
    "symmetric_fn",
    "random_poly",
    "affine_indicator",
    "FAMILY_KINDS",
]


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidSpec(f"unknown family kind {self.kind!r}")


def _check_n(n) -> int:
    if not isinstance(n, int) or not 1 <= n <= N_MAX:
        raise InvalidSpec(f"n must be an integer in 1..{N_MAX}, got {n!r}")
    return n


def bent_ip(k: int) -> BooleanFunction:
    """Inner product x1*x2 + x3*x4 + ... + x_{k-1}*x_k; k must be even."""
    k = _check_n(k)
    if k % 2:
        raise InvalidSpec(f"bent_ip needs even k, got {k}")
    monomials = frozenset(0b11 << i for i in range(0, k, 2))
    return anf_to_function(ANF(k, monomials))


def and_fn(n: int) -> BooleanFunction:
    n = _check_n(n)
    return symmetric_fn([0] * n + [1])


def or_fn(n: int) -> BooleanFunction:
    n = _check_n(n)
    return symmetric_fn([0] + [1] * n)


def parity_fn(n: int) -> BooleanFunction:
    n = _check_n(n)
    return symmetric_fn([w & 1 for w in range(n + 1)])


def majority_fn(n: int) -> BooleanFunction:
    """Strict majority of an odd number of variables."""
    n = _check_n(n)
    if n % 2 == 0:
        raise InvalidSpec(f"majority needs odd n, got {n}")
    return symmetric_fn([int(w > n // 2) for w in range(n + 1)])


def symmetric_fn(values: Sequence[int]) -> BooleanFunction:
    """f(x) = values[popcount(x)]; n = len(values) - 1."""
    vals = tuple(values)
    if not vals:
        raise InvalidSpec("symmetric needs a non-empty value vector")
    if any(v not in (0, 1) for v in vals):
        raise InvalidSpec("symmetric values must be bits")
    n = _check_n(len(vals) - 1)
    lut = np.array(vals, dtype=np.uint8)
    return BooleanFunction(n, lut[popcounts(n)])


def random_poly(n: int, d: int, seed: int) -> BooleanFunction:
    """GF(2) polynomial with each monomial of weight <= d kept with prob 1/2.

    Candidate monomials (including the constant) are visited in ascending
    mask order, one generator bit each, so the seed pins the truth table.
    """
    n = _check_n(n)
    if not isinstance(d, int) or d < 0:
        raise InvalidSpec(f"degree must be a non-negative integer, got {d!r}")
    if d > n:
        raise InvalidSpec(f"degree {d} exceeds n = {n}")
    rng = random.Random(seed)
    monomials = frozenset(
        m for m in range(1 << n) if m.bit_count() <= d and rng.getrandbits(1)
    )
    return anf_to_function(ANF(n, monomials))


def affine_indicator(
    constraints: Sequence[AffineConstraint | Tuple[int, int]], n: int
) -> BooleanFunction:
    """Indicator of the affine subspace cut out by independent constraints."""
    n = _check_n(n)
    cs = [c if isinstance(c, AffineConstraint) else AffineConstraint(*c) for c in constraints]
    top = 1 << n
    for c in cs:
        if not 0 < c.mask < top:
            raise InvalidSpec(f"constraint mask {c.mask} out of range for n={n}")
    if gf2_rank([c.mask for c in cs]) != len(cs):
        raise InvalidSpec("constraint masks are linearly dependent")
    xs = np.arange(top, dtype=np.int64)
    ok = np.ones(top, dtype=bool)
    for c in cs:
        par = np.bitwise_count(np.bitwise_and(xs, np.int64(c.mask))) & 1
        ok &= par == c.bit
    return BooleanFunction(n, ok.astype(np.uint8))


# kind -> (generator, parameter names in call order)
_FAMILIES = {
    "bent_ip": (bent_ip, ("k",)),
    "and": (and_fn, ("n",)),
    "or": (or_fn, ("n",)),
    "parity": (parity_fn, ("n",)),
    "majority": (majority_fn, ("n",)),
    "symmetric": (symmetric_fn, ("values",)),
    "random_poly": (random_poly, ("n", "d", "seed")),
    "affine_indicator": (affine_indicator, ("constraints", "n")),
}
FAMILY_KINDS = tuple(_FAMILIES)


def generate(spec: FamilySpec) -> BooleanFunction:
    """Build the function a FamilySpec names; InvalidSpec on bad parameters."""
    kind, params = spec.kind, spec.params
    build, names = _FAMILIES[kind]
    missing = [x for x in names if x not in params]
    if missing:
        raise InvalidSpec(f"{kind} needs parameter(s) {', '.join(missing)}")
    extra = set(params) - set(names)
    if extra:
        raise InvalidSpec(f"{kind} got unexpected parameter(s) {', '.join(sorted(extra))}")
    return build(*(params[x] for x in names))
