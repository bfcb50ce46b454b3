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

``restrict_affine`` builds the truth table of the restriction through the
same basis, so its transform reproduces the iterated fold exactly,
coefficient for coefficient.  denom_exp is never rescaled by folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._bits import delete_bit, dot, highest_set_bit, lowest_set_bit, span_points
from .core import BooleanFunction, Spectrum
from .errors import (
    DependentConstraints,
    DimensionMismatch,
    NotBoolean,
    ZeroDirection,
)
from .gf2 import gf2_rank

__all__ = [
    "AffineConstraint",
    "fold",
    "restrict_affine",
    "derivative",
    "spectrum_split",
    "hyperplane_basis",
]


@dataclass(frozen=True)
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


def hyperplane_basis(n: int, t: int) -> Tuple[List[int], int]:
    """Basis of the kernel of ``t`` plus the completing vector ``e_h``.

    Returns (w_1..w_{n-1} in ascending free-position order, e_h).
    """
    _check_direction(n, t)
    p = lowest_set_bit(t)
    h = highest_set_bit(t)
    basis = []
    for q in range(n):
        if q == p:
            continue
        w = 1 << q
        if (t >> q) & 1:
            w |= 1 << p
        basis.append(w)
    return basis, 1 << h


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
    return Spectrum(spectrum.n - 1, spectrum.denom_exp, out)


def _restrict_once(f: BooleanFunction, t: int, b: int) -> BooleanFunction:
    """Truth table of f on <t, x> = b in the fold's quotient coordinates."""
    basis, eh = hyperplane_basis(f.n, t)
    return BooleanFunction(f.n - 1, f.table[span_points(basis, b * eh)])


def _translate_constraint(t: int, b: int, t1: int, b1: int) -> Tuple[int, int]:
    """Re-express (t, b) in the quotient coordinates of a fold along (t1, b1)."""
    p = lowest_set_bit(t1)
    h = highest_set_bit(t1)
    v = t ^ t1 if (t >> p) & 1 else t
    return delete_bit(v, p), b ^ (b1 & (t >> h) & 1)


def restrict_affine(
    f: BooleanFunction, constraints: Sequence[AffineConstraint]
) -> BooleanFunction:
    """Restrict f to the affine subspace cut out by independent constraints.

    Constraints are applied in order, each through the fold's quotient basis,
    so the transform of the result equals the iterated fold of the transform
    of f with the same directions and branch bits.  With k = n constraints the
    result is the 0-variable function holding a single table bit.
    """
    masks = [c.mask for c in constraints]
    for m in masks:
        _check_direction(f.n, m)
    if gf2_rank(masks) != len(masks):
        raise DependentConstraints("constraint masks are linearly dependent")
    g = f
    pending = [(c.mask, c.bit) for c in constraints]
    while pending:
        (t, b), rest = pending[0], pending[1:]
        g = _restrict_once(g, t, b)
        pending = [_translate_constraint(tj, bj, t, b) for tj, bj in rest]
    return g


def derivative(f: BooleanFunction, t: int) -> BooleanFunction:
    """Discrete derivative x -> f(x) ^ f(x ^ t)."""
    _check_direction(f.n, t)
    idx = np.arange(1 << f.n, dtype=np.int64) ^ np.int64(t)
    return BooleanFunction(f.n, f.table ^ f.table[idx])


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
