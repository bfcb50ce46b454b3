"""Cross-cutting invariant reports, the Chang span check, depth bounds."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from boolfourier import (
    BooleanFunction,
    FamilySpec,
    InvalidDegree,
    InvalidSpec,
    ZeroDensity,
    bound_B,
    bound_B_leading,
    chang_check,
    generate,
    hypercontractivity_check,
    invariant_report,
)
from boolfourier import core
from boolfourier.gf2 import gf2_rank
from boolfourier.pdt import build_span_query
from helpers import full_corpus

EXPECTED_CHECKS = [
    "parseval",
    "boolean_autocorrelation",
    "deg_le_log_sparsity",
    "l1_le_sqrt_l0",
    "granularity_bound",
    "sparsity_vs_depth",
    "range_switch_sandwich",
    "fold_monotone",
    "split_conservation",
    "linear_map_invariance",
    "chang_span",
    "hypercontractivity_0.25",
    "hypercontractivity_0.5",
    "hypercontractivity_0.75",
    "hypercontractivity_1.0",
]


# ---------------------------------------------------------------------------
# Invariant report.


@pytest.mark.parametrize(
    "f",
    [
        generate(FamilySpec("bent_ip", {"k": 4})),
        generate(FamilySpec("majority", {"n": 5})),
        BooleanFunction(3, [1] * 8),
        BooleanFunction(3, [0] * 8),
        generate(FamilySpec("random_poly", {"n": 5, "d": 3, "seed": 7})),
        # no fold direction and no linear map: those checks hold vacuously
        BooleanFunction(0, [0]),
        BooleanFunction(0, [1]),
    ],
    ids=["ip4", "maj5", "const1", "const0", "rand", "n0-zero", "n0-one"],
)
def test_invariant_report_overall(f):
    rep = invariant_report(f)
    assert rep.overall
    assert [c.name for c in rep.checks] == EXPECTED_CHECKS
    assert all(c.holds for c in rep.checks)


def test_invariant_report_transforms_f_once(monkeypatch):
    # One transform of f for the report's own checks, one in each of the
    # two fold builders and one of the linearly substituted g; the
    # span-query depth is the rank of the report's own spectrum.  The
    # builders take their sums from _wht_sums, which wht calls inside core.
    calls = []
    real_wht, real_sums = core.wht, core._wht_sums

    def counting_wht(f):
        calls.append(f.n)
        return real_wht(f)

    def counting_sums(table, **kw):
        calls.append(table.size.bit_length() - 1)
        return real_sums(table, **kw)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "boolfourier":
            continue
        if getattr(module, "wht", None) is real_wht:
            monkeypatch.setattr(module, "wht", counting_wht)
        if module is not core and getattr(module, "_wht_sums", None) is real_sums:
            monkeypatch.setattr(module, "_wht_sums", counting_sums)
    invariant_report(generate(FamilySpec("random_poly", {"n": 6, "d": 3, "seed": 2})))
    assert calls == [6] * 4


def test_span_query_depth_is_support_rank():
    # invariant_report takes the span-query depth without building the tree
    for label, f in full_corpus():
        assert gf2_rank(core.wht(f).coeffs) == build_span_query(f)[0].depth(), label


def test_invariant_report_matches_public_checks():
    f = generate(FamilySpec("random_poly", {"n": 6, "d": 3, "seed": 2}))
    records = {c.name: c for c in invariant_report(f).checks}
    res = chang_check(f, min(abs(v) for v in core.wht(f).coeffs.values()))
    assert (res.span, res.bound, res.holds) == (
        records["chang_span"].lhs, records["chang_span"].rhs, records["chang_span"].holds)
    for eta in (0.25, 0.5, 0.75, 1.0):
        res = hypercontractivity_check(f, eta)
        rec = records[f"hypercontractivity_{eta}"]
        assert (res.lhs, res.rhs, res.holds) == (rec.lhs, rec.rhs, rec.holds)


def test_report_as_dict_shape():
    rep = invariant_report(BooleanFunction(2, [0, 1, 1, 0]))
    d = rep.as_dict()
    assert set(d) == {"checks", "overall"}
    assert all(set(c) == {"name", "lhs", "rhs", "holds"} for c in d["checks"])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
        lambda v: BooleanFunction.from_int(n, v))))
def test_invariants_hold_everywhere(f):
    assert invariant_report(f).overall


# ---------------------------------------------------------------------------
# Chang's lemma.


def test_chang_and4_frozen():
    # AND_4: rho = 1/16, eps = 1/16 -> rho/eps = 1, bound = 2 ln 16
    res = chang_check(generate(FamilySpec("and", {"n": 4})), 1)
    assert res.span == 4
    assert res.bound == pytest.approx(2.0 * math.log(16.0), abs=1e-12)
    assert res.bound == pytest.approx(5.545177444479562, abs=1e-12)
    assert res.holds


def test_chang_large_eps_empty_span():
    # every AND_4 numerator is +-1, so eps_num = 2 leaves no large masks
    res = chang_check(generate(FamilySpec("and", {"n": 4})), 2)
    assert res.span == 0
    assert res.holds


def test_chang_zero_density():
    with pytest.raises(ZeroDensity):
        chang_check(BooleanFunction(3, [0] * 8), 1)


def test_chang_bad_eps():
    with pytest.raises(InvalidSpec):
        chang_check(BooleanFunction(2, [0, 1, 1, 0]), 0)


# ---------------------------------------------------------------------------
# Depth bound recurrence.


def test_bound_B_base_frozen():
    assert bound_B(3, 1.0) == pytest.approx(14.0, abs=1e-9)
    assert bound_B(3, 15.0) == pytest.approx(9.0 * 4.0 + 5.0, abs=1e-9)


def test_bound_B_recurrence_frozen():
    # B_4(16) = B_3(256) log2(16) + B_3(16) + 1
    expect = (9.0 * math.log2(257.0) + 5.0) * 4.0 + (9.0 * math.log2(17.0) + 5.0) + 1.0
    assert bound_B(4, 16.0) == pytest.approx(expect, abs=1e-9)
    assert bound_B(4, 16.0) == pytest.approx(350.9896493422327, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6), st.floats(1.0, 1e4))
def test_bound_B_monotone_and_dominates(d, m):
    assert bound_B(d, m) <= bound_B(d, m + 1.0) + 1e-9
    if d < 6:
        assert bound_B(d, m) <= bound_B(d + 1, m) + 1e-9


def test_bound_B_leading_frozen():
    assert bound_B_leading(3, 16.0) == pytest.approx(4.0, abs=1e-12)
    assert bound_B_leading(5, 4.0) == pytest.approx(2.0 ** 3 * 2.0 ** 3, abs=1e-12)


@pytest.mark.parametrize("fn", [bound_B, bound_B_leading])
def test_bound_B_validation(fn):
    with pytest.raises(InvalidDegree):
        fn(2, 4.0)
    with pytest.raises(InvalidDegree):
        fn(3, 0.5)
