"""GF(2) linear algebra: ranks, inversion, substitution, Dickson form."""

import functools
import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from boolfourier import (
    BooleanFunction,
    DependentInput,
    FamilySpec,
    Gf2Matrix,
    LinearMap,
    anf_of,
    apply_linear,
    complete_basis,
    deg2,
    generate,
    gf2_invert,
    gf2_rank,
    wht,
)
from boolfourier._bits import dot, span_points
from boolfourier.gf2 import _greedy_basis, _greedy_coords, dickson_matrix, echelon_pivots

from helpers import _independent


# ---------------------------------------------------------------------------
# Rank / span.


def test_rank_frozen():
    assert gf2_rank([]) == 0
    assert gf2_rank([0]) == 0
    assert gf2_rank([1, 2, 3]) == 2
    assert gf2_rank([1, 2, 4]) == 3
    assert gf2_rank([5, 3, 6]) == 2  # 5 ^ 3 = 6


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=6))
def test_rank_matches_elimination_oracle(masks):
    nz = [m for m in masks if m]
    r = gf2_rank(masks)
    assert 0 <= r <= len(nz)
    # rank == size of a maximal independent subset found greedily
    best = 0
    for size in range(len(nz), 0, -1):
        import itertools

        if any(_independent(c) for c in itertools.combinations(nz, size)):
            best = size
            break
    assert r == best


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, (1 << 24) - 1) | st.integers(0, 15), max_size=40))
def test_greedy_coords_match_greedy_basis(rows):
    # the same basis, and every row is the XOR of the basis rows its
    # coordinates name
    basis, coords = _greedy_coords(np.array(rows, dtype=np.int64))
    assert basis == _greedy_basis(rows)
    for row, c in zip(rows, coords.tolist()):
        assert 0 <= c < 1 << len(basis)
        named = [b for j, b in enumerate(basis) if c >> j & 1]
        assert row == functools.reduce(operator.xor, named, 0)


def test_echelon_pivots():
    ech, pivots = echelon_pivots([3, 1])
    assert sorted(pivots) == [0, 1]
    assert gf2_rank(ech) == 2


# ---------------------------------------------------------------------------
# Matrix inversion and solving.


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_invert_roundtrip(n, rng):
    rows = [rng.getrandbits(n) for _ in range(n)]
    mat = Gf2Matrix(rows, n)
    inv = gf2_invert(mat)
    if gf2_rank(rows) < n:
        assert inv is None
        return
    assert inv is not None
    # row i of mat * inv == e_i
    for i in range(n):
        acc = 0
        for j in range(n):
            if (rows[i] >> j) & 1:
                acc ^= inv.rows[j]
        assert acc == 1 << i


# ---------------------------------------------------------------------------
# Basis completion and linear substitution.


def test_complete_basis_prefix():
    lm = complete_basis([3, 4], 3)
    cols = lm.forward.rows
    assert cols[0] == 3 and cols[1] == 4
    assert gf2_rank(cols) == 3


def test_complete_basis_dependent():
    with pytest.raises(DependentInput):
        complete_basis([3, 3], 3)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 5))
def test_apply_linear_preserves_spectral_profile(data, n):
    f = BooleanFunction.from_int(
        n, data.draw(st.integers(0, (1 << (1 << n)) - 1))
    )
    rows = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    )
    assume(gf2_rank(rows) == n)
    g = apply_linear(f, LinearMap(Gf2Matrix(rows, n)))
    sf, sg = wht(f), wht(g)
    assert sf.l0() == sg.l0()
    assert sf.l1_num() == sg.l1_num()
    assert sorted(sf.coeffs.values()) == sorted(sg.coeffs.values())
    assert deg2(f) == deg2(g)


def test_apply_linear_identity():
    f = generate(FamilySpec("majority", {"n": 3}))
    ident = LinearMap(Gf2Matrix([1, 2, 4], 3))
    assert np.array_equal(apply_linear(f, ident).table, f.table)


def _random_map(rng: random.Random, n: int) -> LinearMap:
    while True:
        rows = [rng.randrange(1 << n) for _ in range(n)]
        if gf2_rank(rows) == n:
            return LinearMap(Gf2Matrix(rows, n))


def _image(lm: LinearMap, x: int) -> int:
    """L x bit by bit: bit i is <row i, x>."""
    return sum(dot(row, x) << i for i, row in enumerate(lm.forward.rows))


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_linear_pointwise(n):
    rng = random.Random(n)
    for _ in range(5):
        f = BooleanFunction.from_int(n, rng.getrandbits(1 << n))
        lm = _random_map(rng, n)
        g = apply_linear(f, lm)
        assert all(g.value(x) == f.value(_image(lm, x)) for x in range(1 << n))


def test_apply_linear_pointwise_n20():
    rng = random.Random(20)
    n = 20
    f = BooleanFunction.from_int(n, rng.getrandbits(1 << n))
    lm = _random_map(rng, n)
    g = apply_linear(f, lm)
    for _ in range(1000):
        x = rng.randrange(1 << n)
        assert g.value(x) == f.value(_image(lm, x))


@pytest.mark.parametrize(
    "vectors,shift",
    [([], 0), ([], 5), ([1], 0), ([3, 5, 8], 0), ([3, 5, 8], 6), ([6, 6], 1), ([1, 2, 4, 8], 9)],
)
def test_span_points_match_enumeration(vectors, shift):
    expected = []
    for bits in itertools.product((0, 1), repeat=len(vectors)):
        # bits[j] picks vectors[j] and is bit j of the point's index
        idx = sum(b << j for j, b in enumerate(bits))
        pt = shift
        for b, v in zip(bits, vectors):
            if b:
                pt ^= v
        expected.append((idx, pt))
    pts = span_points(vectors, shift)
    assert pts.dtype == np.intp
    assert pts.tolist() == [pt for _, pt in sorted(expected)]
    # a (k, count) array fills one coset per column, in the array's dtype
    columns = np.array([vectors, [v ^ 3 for v in vectors], vectors[::-1]], dtype=np.int16)
    columns = columns.reshape(3, len(vectors)).T
    pts = span_points(columns, shift)
    assert pts.dtype == np.int16
    assert pts.shape == (1 << len(vectors), 3)
    assert pts[:, 0].tolist() == [pt for _, pt in sorted(expected)]
    for i in range(3):
        assert pts[:, i].tolist() == span_points(columns[:, i].tolist(), shift).tolist()


# ---------------------------------------------------------------------------
# Dickson matrix of a quadratic.


def test_dickson_bent_ip_frozen():
    ip4 = generate(FamilySpec("bent_ip", {"k": 4}))
    mat = dickson_matrix(anf_of(ip4))
    assert mat.rows == [2, 1, 8, 4]  # coupling x1<->x2, x3<->x4
    assert gf2_rank(mat.rows) == 4


@pytest.mark.parametrize("k,expected_rank", [(2, 2), (4, 4), (6, 6)])
def test_dickson_rank_of_bent(k, expected_rank):
    f = generate(FamilySpec("bent_ip", {"k": k}))
    assert gf2_rank(dickson_matrix(anf_of(f)).rows) == expected_rank


def test_dickson_symmetric_zero_diagonal():
    maj = generate(FamilySpec("majority", {"n": 3}))
    mat = dickson_matrix(anf_of(maj))
    n = 3
    for i in range(n):
        assert not (mat.rows[i] >> i) & 1  # zero diagonal
        for j in range(n):
            assert ((mat.rows[i] >> j) & 1) == ((mat.rows[j] >> i) & 1)
