"""Invariant reports, the Chang span checker and the B_d recurrence evaluator.

invariant_report bundles every inequality that can be checked exactly for a
single function; everything is an integer comparison except the
hypercontractivity spot-check (1e-9 tolerance) and Chang's bound (float with
a 1e-12 guard band on the strict inequality).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .core import (
    BooleanFunction,
    Spectrum,
    _hypercontractivity,
    deg2,
    pointwise_product,
    spectral_stats,
    to_pm_spectrum,
    wht,
)
from .errors import DependentInput, InvalidDegree, InvalidSpec, ZeroDensity
from .gf2 import Gf2Matrix, LinearMap, apply_linear, gf2_rank
from .pdt import build_greedy_l1, build_heavy_hitter
from .restrict import fold, spectrum_split

__all__ = [
    "CheckRecord",
    "InvariantReport",
    "ChangResult",
    "invariant_report",
    "chang_check",
    "bound_B",
    "bound_B_leading",
]


@dataclass(frozen=True)
class CheckRecord:
    name: str
    lhs: object
    rhs: object
    holds: bool


@dataclass(frozen=True)
class InvariantReport:
    checks: Tuple[CheckRecord, ...]
    overall: bool

    def as_dict(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
                for c in self.checks
            ],
            "overall": self.overall,
        }


@dataclass(frozen=True)
class ChangResult:
    span: int
    bound: float
    holds: bool


def _fold_directions(n: int) -> List[int]:
    # every direction at small n, a fixed slice beyond that
    top = 1 << n
    return list(range(1, top if n <= 6 else 16))


def invariant_report(f: BooleanFunction) -> InvariantReport:
    """Every paper inequality checkable for one function, as exact records.

    Tree-dependent checks use the shallowest of the greedy and heavy-hitter
    trees and the span-query depth, which is the GF(2) rank of the support
    (degree-reduce is excluded: its subspace search has a budget and would
    only add depth, never improve it).
    """
    checks: List[CheckRecord] = []
    n = f.n
    spec = wht(f)
    pm = to_pm_spectrum(spec)
    l0, l1 = spec.l0(), spec.l1_num()
    ones = f.ones_count()

    # Parseval (0/1 range): sum of squared numerators = 2^n * sum f(x)
    energy = sum(v * v for v in spec.coeffs.values())
    checks.append(
        CheckRecord("parseval", energy, (1 << n) * ones, energy == (1 << n) * ones)
    )

    # Boolean spectrum characterization: (f_pm)^2 = 1 as exact convolution
    square = pointwise_product(pm, pm)
    unit = {0: 1 << (2 * n)}
    checks.append(
        CheckRecord(
            "boolean_autocorrelation",
            repr(square.coeffs),
            repr(unit),
            square.coeffs == unit,
        )
    )

    # deg2(f) <= log2 l0, i.e. 2^deg2 <= l0 (degenerate pass for f = 0)
    d = deg2(f)
    checks.append(
        CheckRecord("deg_le_log_sparsity", 1 << d, l0, l0 == 0 or (1 << d) <= l0)
    )

    # l1 <= sqrt(l0): squared integer comparison over the common denominator
    checks.append(
        CheckRecord("l1_le_sqrt_l0", l1 * l1, l0 << (2 * n), l1 * l1 <= l0 << (2 * n))
    )

    # granularity of the +/-1 spectrum <= floor(log2 l0_pm) - 1 (l0_pm >= 2)
    stats_pm = spectral_stats(pm)
    l0_pm = pm.l0()
    if l0_pm >= 2:
        gran_bound = l0_pm.bit_length() - 1 - 1
        checks.append(
            CheckRecord(
                "granularity_bound",
                stats_pm.granularity,
                gran_bound,
                stats_pm.granularity <= gran_bound,
            )
        )
    else:
        checks.append(CheckRecord("granularity_bound", stats_pm.granularity, None, True))

    # l0 <= 4^depth for the shallowest tree; every path of the span-query
    # tree queries every basis mask, so its depth is the support's rank
    depth = min(
        build_greedy_l1(f)[0].depth(),
        build_heavy_hitter(f)[0].depth(),
        gf2_rank(spec.coeffs),
    )
    checks.append(
        CheckRecord("sparsity_vs_depth", l0, 4 ** depth, l0 <= 4 ** depth)
    )

    # range switch sandwich: 2*l1 - 1 <= l1_pm <= 2*l1 + 1, over 2^n
    l1_pm = pm.l1_num()
    sandwich = 2 * l1 - (1 << n) <= l1_pm <= 2 * l1 + (1 << n)
    checks.append(
        CheckRecord(
            "range_switch_sandwich",
            (2 * l1 - (1 << n), l1_pm),
            (l1_pm, 2 * l1 + (1 << n)),
            sandwich,
        )
    )

    # fold monotonicity: l0 and l1 numerators never grow under folding
    worst_l1 = 0
    worst_l0 = 0
    if n >= 1:
        for t in _fold_directions(n):
            for b in (0, 1):
                g = fold(pm, t, b)
                worst_l1 = max(worst_l1, g.l1_num())
                worst_l0 = max(worst_l0, g.l0())
    checks.append(
        CheckRecord(
            "fold_monotone",
            (worst_l0, worst_l1),
            (l0_pm, l1_pm),
            worst_l0 <= l0_pm and worst_l1 <= l1_pm,
        )
    )

    # split conservation: the two parts partition l0 and l1 exactly
    split_ok = True
    if n >= 1:
        for t in _fold_directions(n):
            a, b = spectrum_split(pm, t)
            if a.l0() + b.l0() != l0_pm or a.l1_num() + b.l1_num() != l1_pm:
                split_ok = False
                break
    checks.append(CheckRecord("split_conservation", (l0_pm, l1_pm), (l0_pm, l1_pm), split_ok))

    # l0, l1 and deg2 are invariant under invertible linear substitution
    if n >= 1:
        lm = _seeded_linear_map(n, seed=7)
        g = apply_linear(f, lm)
        gspec = wht(g)
        dg = deg2(g)
        inv_ok = gspec.l0() == l0 and gspec.l1_num() == l1 and dg == d
        checks.append(
            CheckRecord(
                "linear_map_invariance",
                (gspec.l0(), gspec.l1_num(), dg),
                (l0, l1, d),
                inv_ok,
            )
        )
    else:
        checks.append(CheckRecord("linear_map_invariance", None, None, True))

    # Chang span bound at epsilon = min nonzero |coefficient|
    if f.is_constant():
        checks.append(CheckRecord("chang_span", None, None, True))
    else:
        eps = min(abs(v) for v in spec.coeffs.values())
        res = _chang(spec, ones, eps)
        checks.append(CheckRecord("chang_span", res.span, res.bound, res.holds))

    # Bonami-Beckner spot checks on the 0/1 function
    for eta in (0.25, 0.5, 0.75, 1.0):
        res = _hypercontractivity(spec, ones, eta)
        checks.append(
            CheckRecord(f"hypercontractivity_{eta}", res.lhs, res.rhs, res.holds)
        )

    return InvariantReport(tuple(checks), all(c.holds for c in checks))


def _seeded_linear_map(n: int, seed: int) -> LinearMap:
    """Deterministic invertible GF(2) map: rejection-sample rows by seed."""
    rng = random.Random(seed)
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(n)]
        try:
            return LinearMap(Gf2Matrix(rows, n))
        except DependentInput:
            continue


def chang_check(f: BooleanFunction, eps_num: int) -> ChangResult:
    """Span of the large-coefficient masks vs Chang's 2(rho/eps)^2 ln(1/rho).

    eps = eps_num / 2^n; rho is the exact density of f.  holds is the strict
    inequality span < bound with a 1e-12 guard band.
    """
    if eps_num <= 0:
        raise InvalidSpec(f"eps numerator must be positive, got {eps_num}")
    ones = f.ones_count()
    if ones == 0:
        raise ZeroDensity("Chang's bound needs a nonzero function")
    return _chang(wht(f), ones, eps_num)


def _chang(spec: Spectrum, ones: int, eps_num: int) -> ChangResult:
    """``chang_check`` from the {0,1} spectrum of a nonzero f and its ones count."""
    rho = Fraction(ones, 1 << spec.n)
    big = [s for s, v in spec.coeffs.items() if abs(v) >= eps_num]
    span = gf2_rank(big)
    ratio = Fraction(ones, eps_num)  # rho / eps, exactly
    bound = 2.0 * float(ratio) ** 2 * math.log(1.0 / float(rho))
    return ChangResult(span=span, bound=bound, holds=span < bound - 1e-12)


def bound_B(d: int, m: float) -> float:
    """The depth recurrence B_d(m) = B_{d-1}(m^2) log2(m) + B_{d-1}(m) + 1.

    Base case B_3(m) = 9 * log2(m + 1) + 5; the constants annotate sweeps,
    they are not asserted truths.
    """
    if not isinstance(d, int) or d < 3:
        raise InvalidDegree(f"bound_B needs integer d >= 3, got {d!r}")
    if m < 1:
        raise InvalidDegree(f"bound_B needs m >= 1, got {m!r}")
    if d == 3:
        return 9.0 * math.log2(m + 1) + 5.0
    return bound_B(d - 1, m * m) * math.log2(m) + bound_B(d - 1, m) + 1.0


def bound_B_leading(d: int, m: float) -> float:
    """Leading-order form 2^((d-2)(d-3)/2) * log2(m)^(d-2) of the recurrence."""
    if not isinstance(d, int) or d < 3:
        raise InvalidDegree(f"bound_B_leading needs integer d >= 3, got {d!r}")
    if m < 1:
        raise InvalidDegree(f"bound_B_leading needs m >= 1, got {m!r}")
    return 2.0 ** ((d - 2) * (d - 3) / 2) * math.log2(m) ** (d - 2)
