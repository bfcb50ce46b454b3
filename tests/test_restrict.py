"""Folding, affine restriction, derivatives and spectrum splitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boolfourier import (
    AffineConstraint,
    BooleanFunction,
    DependentConstraints,
    FamilySpec,
    ZeroDirection,
    derivative,
    fold,
    generate,
    restrict_affine,
    spectrum_split,
    wht,
)

from helpers import deg_oracle, parity, subspace_table

AND2 = BooleanFunction(2, [0, 0, 0, 1])


def functions(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
            lambda v: BooleanFunction.from_int(n, v)
        )
    )


# ---------------------------------------------------------------------------
# fold: spectrum-level restriction to a hyperplane.


def test_fold_frozen_and2():
    spec = wht(AND2)  # {0:1, 1:-1, 2:-1, 3:1} over 4
    # t = 3 pairs (0,3) and (1,2); b = 0 adds, b = 1 subtracts
    assert fold(spec, 3, 0).coeffs == {0: 2, 1: -2}
    # on x1 ^ x2 = 1 the AND vanishes identically
    assert fold(spec, 3, 1).coeffs == {}


def test_fold_keeps_denominator():
    spec = wht(AND2)
    assert fold(spec, 3, 0).denom_exp == spec.denom_exp
    assert fold(spec, 3, 0).n == 1


@settings(max_examples=80, deadline=None)
@given(functions(), st.data())
def test_fold_agrees_with_function_restriction(f, data):
    t = data.draw(st.integers(1, (1 << f.n) - 1))
    b = data.draw(st.integers(0, 1))
    g = restrict_affine(f, [AffineConstraint(t, b)])
    assert fold(wht(f), t, b).values_equal(wht(g))


@settings(max_examples=80, deadline=None)
@given(functions(), st.data())
def test_fold_norm_monotone(f, data):
    t = data.draw(st.integers(1, (1 << f.n) - 1))
    b = data.draw(st.integers(0, 1))
    spec = wht(f)
    folded = fold(spec, t, b)
    assert folded.l0() <= spec.l0()
    assert folded.l1_num() <= spec.l1_num()


def test_fold_zero_direction():
    with pytest.raises(ZeroDirection):
        fold(wht(AND2), 0, 0)


# ---------------------------------------------------------------------------
# restrict_affine against the point-selection oracle.


@settings(max_examples=60, deadline=None)
@given(functions(5), st.data())
def test_restrict_affine_matches_point_selection(f, data):
    n = f.n
    k = data.draw(st.integers(1, n))
    masks = data.draw(
        st.lists(
            st.integers(1, (1 << n) - 1), min_size=k, max_size=k, unique=True
        )
    )
    bits = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    constraints = [AffineConstraint(m, b) for m, b in zip(masks, bits)]
    try:
        g = restrict_affine(f, constraints)
    except DependentConstraints:
        from boolfourier import gf2_rank

        assert gf2_rank(masks) < k
        return
    oracle = subspace_table(list(f.table), list(zip(masks, bits)))
    assert oracle is not None
    assert len(g.table) == len(oracle)
    # parameterizations may differ; compare value multisets and degree
    assert sorted(int(v) for v in g.table) == sorted(oracle)
    assert deg_oracle(list(g.table)) == deg_oracle(oracle)


def test_restrict_affine_frozen():
    g = restrict_affine(AND2, [AffineConstraint(2, 1)])  # x2 = 1
    assert list(g.table) == [0, 1]  # f | x2=1 is x1
    g = restrict_affine(AND2, [AffineConstraint(2, 0)])
    assert list(g.table) == [0, 0]


# (random_poly n, d, seed), independent (mask, bit) constraints, and the
# to_int tables of restrict_affine under the first k of them for k = 2..n:
# the fold's quotient parametrization, point for point.
RESTRICT_FROZEN = [
    (
        (6, 3, 4),
        [(31, 1), (12, 1), (47, 0), (38, 1), (20, 1), (13, 1)],
        [0x7583, 0x73, 0x5, 0x1, 0x1],
    ),
    (
        (7, 3, 2),
        [(68, 1), (94, 0), (79, 0), (124, 1), (28, 0), (40, 0), (70, 1)],
        [0x91CD1F25, 0x1AD0, 0x28, 0x0, 0x0, 0x0],
    ),
    (
        (8, 3, 5),
        [(251, 0), (15, 1), (198, 1), (90, 1), (107, 1), (120, 0), (32, 1), (186, 1)],
        [0xC942B7F04B3F9F27, 0xA05CB777, 0xECDF, 0xEF, 0xE, 0x3, 0x1],
    ),
]


@pytest.mark.parametrize("params, pairs, tables", RESTRICT_FROZEN)
def test_restrict_affine_parametrization_frozen(params, pairs, tables):
    n, d, seed = params
    f = generate(FamilySpec("random_poly", {"n": n, "d": d, "seed": seed}))
    constraints = [AffineConstraint(m, b) for m, b in pairs]
    got = [restrict_affine(f, constraints[:k]) for k in range(2, n + 1)]
    assert [g.n for g in got] == list(range(n - 2, -1, -1))
    assert [g.to_int() for g in got] == tables


def test_restrict_dependent_raises():
    with pytest.raises(DependentConstraints):
        restrict_affine(AND2, [AffineConstraint(1, 0), AffineConstraint(1, 1)])


# ---------------------------------------------------------------------------
# Derivatives.


@settings(max_examples=80, deadline=None)
@given(functions(), st.data())
def test_derivative_definition(f, data):
    t = data.draw(st.integers(1, (1 << f.n) - 1))
    d = derivative(f, t)
    for x in range(1 << f.n):
        assert d.value(x) == f.value(x) ^ f.value(x ^ t)


@settings(max_examples=60, deadline=None)
@given(functions(5), st.data())
def test_derivative_lowers_degree(f, data):
    from boolfourier import deg2

    t = data.draw(st.integers(1, (1 << f.n) - 1))
    if deg2(f) > 0:
        assert deg2(derivative(f, t)) < deg2(f)


def test_derivative_matches_the_index_gather():
    # the halves swapped along each bit of t, against f(x ^ t) gathered by index
    rng = np.random.default_rng(25)
    cases = [(n, t) for n in range(1, 7) for t in range(1, 1 << n)]
    cases += [(n, int(t)) for n in range(7, 13) for t in rng.integers(1, 1 << n, 40)]
    cases += [(20, 1 << i) for i in range(20)]
    tables = {}
    for n, t in cases:
        if n not in tables:
            tables[n] = BooleanFunction(n, rng.integers(0, 2, 1 << n))
        f = tables[n]
        gathered = f.table ^ f.table[np.arange(1 << n) ^ t]
        assert np.array_equal(derivative(f, t).table, gathered), (n, t)


def test_frame_point_is_the_points_entry():
    from boolfourier.restrict import _Frame

    rng = np.random.default_rng(7)
    for n in range(1, 9):
        frame = _Frame.identity(n)
        for _ in range(n):
            pts = frame.points()
            assert [frame.point(y) for y in range(len(pts))] == pts.tolist()
            t = int(rng.integers(1, 1 << frame.m))
            frame = frame.branches(t)[int(rng.integers(2))]


def test_derivative_frozen():
    assert list(derivative(AND2, 3).table) == [1, 0, 0, 1]  # x1 xnor x2


# ---------------------------------------------------------------------------
# Spectrum split.


@settings(max_examples=80, deadline=None)
@given(functions(), st.data())
def test_split_conserves_norms(f, data):
    t = data.draw(st.integers(1, (1 << f.n) - 1))
    spec = wht(f)
    s0, s1 = spectrum_split(spec, t)
    assert s0.l0() + s1.l0() == spec.l0()
    assert s0.l1_num() + s1.l1_num() == spec.l1_num()
    assert all(parity(m & t) == 0 for m in s0.coeffs)
    assert all(parity(m & t) == 1 for m in s1.coeffs)
    merged = dict(s0.coeffs)
    merged.update(s1.coeffs)
    assert merged == spec.coeffs


def test_split_frozen():
    s0, s1 = spectrum_split(wht(AND2), 1)
    assert s0.coeffs == {0: 1, 2: -1}
    assert s1.coeffs == {1: -1, 3: 1}
