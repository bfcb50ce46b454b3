"""Spectrum, ANF and stats against independent oracles and frozen values."""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from boolfourier import (
    ANF,
    BooleanFunction,
    DimensionMismatch,
    InvalidEta,
    N_MAX,
    NotBoolean,
    Spectrum,
    anf_of,
    anf_to_function,
    deg2,
    hypercontractivity_check,
    inverse_wht,
    pointwise_product,
    spectral_stats,
    to_pm_spectrum,
    wht,
    xor_convolve,
)
from boolfourier import core
from boolfourier._bits import lex_key, lex_keys
from boolfourier.gf2 import gf2_rank
from boolfourier.families import FamilySpec, generate
from boolfourier.core import (
    _butterfly_pays,
    _butterfly_sum,
    _convolve_butterfly,
    _convolve_loop,
    _convolve_pairs,
    _pair_sums,
    _wht_sums,
    _xor_butterfly,
)

from helpers import anf_oracle, deg_oracle, pm_spectrum_oracle, wht_oracle, x1_first_string

AND2 = BooleanFunction(2, [0, 0, 0, 1])
IP4 = BooleanFunction(4, [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0])
MAJ3 = BooleanFunction(3, [0, 0, 0, 1, 0, 1, 1, 1])
PAR3 = BooleanFunction(3, [0, 1, 1, 0, 1, 0, 0, 1])


def random_function(draw_n=st.integers(1, 7)):
    return draw_n.flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
            lambda v: BooleanFunction.from_int(n, v)
        )
    )


# ---------------------------------------------------------------------------
# Frozen values (computed independently from the defining sums).


def test_and2_spectrum_frozen():
    spec = wht(AND2)
    assert spec.denom_exp == 2
    assert spec.coeffs == {0: 1, 1: -1, 2: -1, 3: 1}


def test_ip4_spectrum_frozen():
    spec = wht(IP4)
    assert spec.denom_exp == 4
    assert spec.coeffs == {
        0: 6, 1: -2, 2: -2, 3: 2, 4: -2, 5: -2, 6: -2, 7: 2,
        8: -2, 9: -2, 10: -2, 11: 2, 12: 2, 13: 2, 14: 2, 15: -2,
    }
    assert spec.l0() == 16
    assert spec.value(0) == Fraction(3, 8)


def test_maj3_spectrum_frozen():
    spec = wht(MAJ3)
    assert spec.coeffs == {0: 4, 1: -2, 2: -2, 4: -2, 7: 2}


def test_par3_spectrum_frozen():
    assert wht(PAR3).coeffs == {0: 4, 7: -4}


def test_and2_pm_spectrum_frozen():
    pm = to_pm_spectrum(wht(AND2))
    assert pm.coeffs == {0: 2, 1: 2, 2: 2, 3: -2}
    assert pm.l1_num() == 8  # l1 = 2 over the 2^2 denominator


def test_anf_frozen():
    assert anf_of(AND2).monomials == frozenset({3})
    assert anf_of(MAJ3).monomials == frozenset({3, 5, 6})
    assert deg2(AND2) == 2
    assert deg2(MAJ3) == 2
    assert deg2(PAR3) == 1
    assert deg2(IP4) == 2


def test_spectral_stats_frozen():
    stats = spectral_stats(wht(AND2))
    assert (stats.l0, stats.l1_num, stats.linf_num) == (4, 4, 1)
    assert stats.granularity == 2
    stats = spectral_stats(wht(PAR3))
    assert (stats.l0, stats.l1_num, stats.granularity) == (2, 8, 1)


# ---------------------------------------------------------------------------
# Construction and validation.


def test_from_int_roundtrip():
    f = BooleanFunction.from_int(3, 0b10110100)
    assert f.to_int() == 0b10110100
    assert [f.value(x) for x in range(8)] == [0, 0, 1, 0, 1, 1, 0, 1]


def test_from_int_checks_n_first():
    # n is checked before 1 << n shifts by a negative count or sizes a buffer
    for n in (-1, N_MAX + 1):
        with pytest.raises(DimensionMismatch, match=f"got {n}"):
            BooleanFunction.from_int(n, 0)


def test_not_boolean_rejected():
    with pytest.raises(NotBoolean):
        BooleanFunction(1, [0, 2])
    with pytest.raises(DimensionMismatch):
        BooleanFunction(2, [0, 1, 1])  # wrong length


def test_density_and_constants():
    assert AND2.density() == Fraction(1, 4)
    assert BooleanFunction(2, [1, 1, 1, 1]).is_constant()
    assert not AND2.is_constant()


# ---------------------------------------------------------------------------
# Oracle-backed properties.


@settings(max_examples=60, deadline=None)
@given(random_function(st.integers(1, 6)))
def test_wht_matches_oracle(f):
    assert wht(f).coeffs == wht_oracle(list(f.table))


@settings(max_examples=60, deadline=None)
@given(random_function(st.integers(1, 6)))
def test_pm_spectrum_matches_oracle(f):
    assert to_pm_spectrum(wht(f)).coeffs == pm_spectrum_oracle(list(f.table))


@settings(max_examples=60, deadline=None)
@given(random_function(st.integers(1, 6)))
def test_anf_matches_oracle(f):
    anf = anf_of(f)
    assert anf.monomials == frozenset(anf_oracle(list(f.table)))
    assert deg2(f) == deg_oracle(list(f.table))


@settings(max_examples=60, deadline=None)
@given(random_function(st.integers(1, 7)))
def test_inverse_wht_roundtrip(f):
    assert np.array_equal(inverse_wht(wht(f)).table, f.table)


def test_wht_single_numerator_at_n20():
    # the int32 pass's largest sums: one character carrying all 2^20
    n = 20
    one = BooleanFunction(n, np.ones(1 << n, dtype=np.uint8))
    assert wht(one).coeffs == {0: 1 << n}
    assert to_pm_spectrum(wht(one)).coeffs == {0: -(1 << n)}
    par = BooleanFunction(n, (np.bitwise_count(np.arange(1 << n)) & 1).astype(np.uint8))
    full = (1 << n) - 1
    assert wht(par).coeffs == {0: 1 << (n - 1), full: -(1 << (n - 1))}
    assert to_pm_spectrum(wht(par)).coeffs == {full: 1 << n}
    assert anf_of(one).monomials == frozenset({0})
    assert anf_of(par).monomials == frozenset(1 << i for i in range(n))
    assert (deg2(one), deg2(par)) == (0, 1)


def test_wht_roundtrip_and_parseval_n18():
    n = 18
    f = BooleanFunction(n, np.random.default_rng(18).integers(0, 2, 1 << n, dtype=np.uint8))
    spec = wht(f)
    assert all(type(v) is int for v in spec.coeffs.values())
    assert inverse_wht(spec) == f
    assert sum(v * v for v in spec.coeffs.values()) == (1 << n) * f.ones_count()
    assert sum(v * v for v in to_pm_spectrum(spec).coeffs.values()) == 1 << (2 * n)


@pytest.mark.parametrize("n", range(13))
def test_packed_kernels_match_oracles(n):
    # n < 3 leaves zero padding in the packed byte; n >= 3 runs every pass.
    table = np.random.default_rng(700 + n).integers(0, 2, 1 << n, dtype=np.uint8)
    f = BooleanFunction(n, table)
    assert wht(f).coeffs == wht_oracle(table.tolist())
    assert anf_of(f).monomials == frozenset(anf_oracle(table.tolist()))
    assert deg2(f) == deg_oracle(table.tolist())
    assert anf_to_function(anf_of(f)) == f


def _unpacked_moebius(table):
    a = table.copy()
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2, h)
        b[:, 1, :] ^= b[:, 0, :]
        h <<= 1
    return a


@pytest.mark.parametrize("n", [16, 20])
def test_packed_kernels_match_wide_butterflies(n):
    table = np.random.default_rng(n).integers(0, 2, 1 << n, dtype=np.uint8)
    sums = _butterfly_sum(table.astype(np.int64))
    nz = np.flatnonzero(sums)
    assert wht(BooleanFunction(n, table)).coeffs == dict(zip(nz.tolist(), sums[nz].tolist()))
    assert np.array_equal(_xor_butterfly(table), _unpacked_moebius(table))


@pytest.mark.parametrize("n", [6, 7, 14, 15])
def test_packed_kernels_dtype_boundaries(n):
    # The sum at s = 0 reaches 2^n: the largest value of the int8 pass
    # (n = 6), just past it (n = 7), the largest of the int16 pass (n = 14)
    # and just past it (n = 15).  n = 20 is test_wht_single_numerator_at_n20.
    size = 1 << n
    full = size - 1
    one = BooleanFunction(n, np.ones(size, dtype=np.uint8))
    par = BooleanFunction(n, (np.bitwise_count(np.arange(size)) & 1).astype(np.uint8))
    half = 1 << (n - 1)
    assert wht(one).coeffs == {0: size}
    assert wht(par).coeffs == {0: half, full: -half}
    assert to_pm_spectrum(wht(par)).coeffs == {full: size}
    assert anf_of(one).monomials == frozenset({0})
    assert anf_of(par).monomials == frozenset(1 << i for i in range(n))
    assert (deg2(one), deg2(par)) == (0, 1)


_TRANSPOSED_N = core._WHT_TRANSPOSED_MIN.bit_length() - 1


@pytest.mark.parametrize("n", [_TRANSPOSED_N - 1, _TRANSPOSED_N])
def test_wht_transposed_path_boundary(n):
    # the last n on the plain levels and the first with bits 3-5 transposed
    for seed in (1, 2):
        table = np.random.default_rng(900 + 10 * n + seed).integers(0, 2, 1 << n, dtype=np.uint8)
        assert wht(BooleanFunction(n, table)).coeffs == wht_oracle(table.tolist())
    size = 1 << n
    one = BooleanFunction(n, np.ones(size, dtype=np.uint8))
    assert wht(one).coeffs == {0: size}


@pytest.mark.parametrize("n", [3, 9, 16])
def test_wht_sums_are_int32(n):
    table = np.random.default_rng(n).integers(0, 2, 1 << n, dtype=np.uint8)
    masks, sums = _wht_sums(table)
    assert (masks.dtype, sums.dtype) == (np.int64, np.int32)


def _peak_beyond_output(table) -> int:
    """tracemalloc's peak over ``_wht_sums(table)``, less the arrays it returns."""
    tracemalloc.start()
    try:
        masks, sums = _wht_sums(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - masks.nbytes - sums.nbytes


def test_wht_sums_peak_memory_n20():
    # Dense: the transposed copy is freed before the int16 pass, so beyond
    # the masks and sums it returns the peak stays at the int16 -> int32
    # widening: 2 + 4 bytes a point, 6 MiB at n = 20, plus the ufunc's
    # casting buffers of that level (some 64 KiB).
    n = 20
    table = np.random.default_rng(20).integers(0, 2, 1 << n, dtype=np.uint8)
    assert _peak_beyond_output(table) <= (6 << n) + (96 << 10)
    # Sparse: the full table is freed when its nonzero columns are kept, so
    # it never widens past int16; the peak is an in-place int16 level, 2 + 1
    # bytes a point.
    f, _ = _lift(generate(FamilySpec("random_poly", {"n": 8, "d": 3, "seed": 20})), _SPREAD, n)
    assert _peak_beyond_output(f.table) <= (3 << n) + (96 << 10)


# ---------------------------------------------------------------------------
# The column-pruned transform (n >= 14): its levels above bit 12 run on the
# nonzero columns alone.

# eight coordinates: six in the low 12 bits, two above them (n >= 14)
_SPREAD = (1, 4, 6, 9, 10, 11, 12, 13)


def _lift(g: BooleanFunction, coords, n):
    """f(x) = g(x at ``coords``) on n variables, and f's sums by ``wht_oracle(g)``.

    g's mask t moves to the bits ``coords`` of f's mask, and each sum is
    2^(n - k) times g's, k = len(coords).
    """
    x = np.arange(1 << n)
    inner = sum(((x >> c) & 1) << i for i, c in enumerate(coords))
    f = BooleanFunction(n, g.table[inner])
    expected = {}
    for t, num in wht_oracle(g.table.tolist()).items():
        expected[sum(1 << c for i, c in enumerate(coords) if t >> i & 1)] = num << (n - len(coords))
    return f, dict(sorted(expected.items()))


def _and_of(coords, n):
    """AND of the coordinates, lifted to n: sum (-1)^|s| * 2^(n - k) at each s within them."""
    x = np.arange(1 << n)
    full = sum(1 << c for c in coords)
    f = BooleanFunction(n, ((x & full) == full).astype(np.uint8))
    subsets = np.arange(1 << len(coords))
    masks = np.zeros_like(subsets)
    for i, c in enumerate(coords):
        masks |= ((subsets >> i) & 1) << c
    masks.sort()
    return f, {m: (-1) ** m.bit_count() << (n - len(coords)) for m in masks.tolist()}


@pytest.fixture
def looks(monkeypatch):
    """The kept columns (or None) of each look ``_wht_sums`` takes."""
    found = []
    real = core._kept_columns

    def record(rows):
        found.append(real(rows))
        return found[-1]

    monkeypatch.setattr(core, "_kept_columns", record)
    return found


def _check_sums(f, expected, monkeypatch):
    """``_wht_sums``, ``wht`` and the +/-1 root equal the oracle, the dense path and the int64 butterfly."""
    masks, sums = _wht_sums(f.table)
    assert (masks.dtype, sums.dtype) == (np.int64, np.int32)
    assert dict(zip(masks.tolist(), sums.tolist())) == expected
    assert masks.tolist() == list(expected)
    spec = wht(f)
    assert spec.coeffs == expected and list(spec.coeffs) == list(expected)
    pm = core._pm_of_sums(f.n, masks, sums)
    want = to_pm_spectrum(spec).coeffs
    assert pm.coeffs == want and list(pm.coeffs) == list(want)
    plain = _butterfly_sum(f.table.astype(np.int64))
    nz = np.flatnonzero(plain)
    assert np.array_equal(masks, nz) and np.array_equal(sums, plain[nz])
    with monkeypatch.context() as m:
        m.setattr(core, "_PRUNE_MIN", 1 << 30)
        m.setattr(core, "_SPAN_MIN", 1 << 30)
        dense_masks, dense_sums = _wht_sums(f.table)
    assert np.array_equal(masks, dense_masks) and np.array_equal(sums, dense_sums)


@pytest.mark.parametrize("n", [14, 15, 16])
def test_pruned_wht_on_lifted_inputs(n, looks, monkeypatch):
    # at most 2^6 kept columns: the levels above bit 12 run on them alone
    for seed in (1, 2):
        g = generate(FamilySpec("random_poly", {"n": 8, "d": 3, "seed": seed}))
        f, expected = _lift(g, _SPREAD, n)
        looks.clear()
        _check_sums(f, expected, monkeypatch)
        assert looks and looks[0] is not None and looks[0].size <= 1 << 6


@pytest.mark.parametrize("n", [14, 16])
def test_pruned_wht_on_both_sides_of_half_the_columns(n, looks, monkeypatch):
    # AND of 11 low coordinates and one high one: exactly 2^11 of the 2^12
    # columns are nonzero, which is half, so they are kept.
    high = n - 1
    a, a_sums = _and_of([*range(11), high], n)
    _check_sums(a, a_sums, monkeypatch)
    assert [c.size for c in looks[:1]] == [1 << 11]
    # The other side: where x_high = 0, f is x12 instead, which adds column
    # 2^11 and makes 2^11 + 1 columns.  f = a + x12 - x12 * x_high, as the
    # two parts are never 1 together.  Row 0 (x_high = 0) is x12's two
    # columns, so the column count decides.
    b, b_sums = _and_of([11], n)
    c, c_sums = _and_of([11, high], n)
    f = BooleanFunction(n, a.table | (b.table & ~c.table & 1))
    expected = Counter(a_sums)
    expected.update(b_sums)
    expected.subtract(c_sums)
    expected = {m: v for m, v in sorted(expected.items()) if v}
    looks.clear()
    _check_sums(f, expected, monkeypatch)
    assert looks[:1] == [None]


@pytest.mark.parametrize("n", [14, 16, 20])
def test_pruned_wht_support_on_high_bits(n, looks, monkeypatch):
    # f reads only x13 and up: every mask's low 12 bits are 0, one column
    k = n - 12
    g = generate(FamilySpec("random_poly", {"n": k, "d": min(k, 3), "seed": 3}))
    f, expected = _lift(g, range(12, n), n)
    _check_sums(f, expected, monkeypatch)
    assert [c.tolist() for c in looks[:1]] == [[0]]


@pytest.mark.parametrize("n", [14, 20])
def test_pruned_wht_parity_and_constant(n, looks, monkeypatch):
    # From _SPAN_MIN points the constant and the parity take the span path.
    # x13, and x13 times the parity of x1..x12, put two masks in bin 0 (and
    # in bin 2^12 - 1), so they reach the pruned pass at every n.
    size, full, low = 1 << n, (1 << n) - 1, (1 << 12) - 1
    x = np.arange(size)
    one = BooleanFunction(n, np.ones(size, dtype=np.uint8))
    par = BooleanFunction(n, (np.bitwise_count(x) & 1).astype(np.uint8))
    _check_sums(one, {0: size}, monkeypatch)
    _check_sums(par, {0: size >> 1, full: -(size >> 1)}, monkeypatch)
    looks.clear()
    x13 = ((x >> 12) & 1).astype(np.uint8)
    both = x13 & (np.bitwise_count(x & low) & 1).astype(np.uint8)
    half, quarter = size >> 1, size >> 2
    _check_sums(BooleanFunction(n, x13), {0: half, 1 << 12: -half}, monkeypatch)
    _check_sums(
        BooleanFunction(n, both),
        {0: quarter, low: -quarter, 1 << 12: -quarter, low | 1 << 12: quarter},
        monkeypatch,
    )
    assert {tuple(c.tolist()) for c in looks} == {(0,), (0, low)}
    assert core._pm_of_sums(n, *_wht_sums(one.table)).coeffs == {0: -size}
    assert core._pm_of_sums(n, *_wht_sums(par.table)).coeffs == {full: size}


@pytest.mark.parametrize("n", [12, 16])
def test_wht_sums_most_counts_before_the_masks(n):
    # None exactly when more than `most` sums are nonzero, on either path
    g = generate(FamilySpec("random_poly", {"n": 8, "d": 2, "seed": 4}))
    f, expected = _lift(g, _SPREAD if n > 13 else range(8), n)
    count = len(expected)
    assert _wht_sums(f.table, most=count - 1) is None
    masks, sums = _wht_sums(f.table, most=count)
    assert dict(zip(masks.tolist(), sums.tolist())) == expected
    assert _wht_sums(np.zeros(1 << n, dtype=np.uint8), most=0)[0].size == 0


# ---------------------------------------------------------------------------
# The span path (from _SPAN_MIN points, from n = 14 in these tests): f = g(Bx)
# proven on every point, the sums read off the low levels of row 0.


@pytest.fixture
def spans(monkeypatch):
    """Whether each span look ``_wht_sums`` takes succeeds; the looks start at n = 14."""
    found = []
    real = core._span_sums

    def record(packed):
        result = real(packed)
        found.append(result is not None)
        return result

    monkeypatch.setattr(core, "_span_sums", record)
    monkeypatch.setattr(core, "_SPAN_MIN", core._PRUNE_MIN)
    return found


@pytest.fixture
def pivots(monkeypatch):
    """The pivots of each echelon basis the span look takes."""
    found = []
    real = core.echelon_pivots

    def record(rows):
        basis, at = real(rows)
        found.append(at)
        return basis, at

    monkeypatch.setattr(core, "echelon_pivots", record)
    return found


def _forms_lift(g_table, forms, n):
    """f(x) = g(<forms[0], x>, ..., <forms[r-1], x>) on n variables, and f's sums.

    The forms are independent, so f's sum at the XOR of the forms over the
    set bits of t is 2^(n - r) times g's sum at t, from g's int64 butterfly.
    """
    x = np.arange(1 << n)
    inner = np.zeros_like(x)
    for i, form in enumerate(forms):
        inner |= (np.bitwise_count(x & form) & 1).astype(x.dtype) << i
    g_sums = _butterfly_sum(g_table.astype(np.int64))
    expected = {}
    for t in np.flatnonzero(g_sums).tolist():
        mask = 0
        for i, form in enumerate(forms):
            if t >> i & 1:
                mask ^= form
        expected[mask] = int(g_sums[t]) << (n - len(forms))
    return BooleanFunction(n, g_table[inner]), dict(sorted(expected.items()))


def _independent(rng, r, bits):
    """r random independent masks below 2^bits."""
    forms = []
    while len(forms) < r:
        form = int(rng.integers(1, 1 << bits))
        if gf2_rank(forms + [form]) > len(forms):
            forms.append(form)
    return forms


@pytest.mark.parametrize("n", [14, 17, 20])
@pytest.mark.parametrize("r", [0, 1, 5, 8, 12])
def test_span_path_on_random_lifts(n, r, spans):
    # a random g on r bits through r random forms: the span path where the
    # span projects one-to-one onto the low 12 bits, else the pruned pass
    # (r = 12 has more than 2^11 bins); the same sums either way
    rng = np.random.default_rng(100 * n + r)
    g = rng.integers(0, 2, 1 << r, dtype=np.uint8)
    f, expected = _forms_lift(g, _independent(rng, r, n), n)
    masks, sums = _wht_sums(f.table)
    assert (masks.dtype, sums.dtype) == (np.int64, np.int32)
    assert masks.tolist() == list(expected) and sums.tolist() == list(expected.values())
    assert wht(f).coeffs == expected
    assert len(spans) == 2 and (spans[0] or r >= 8)


@pytest.mark.parametrize("n", [14, 17, 20])
def test_span_path_masks_with_high_bits_and_low_pivots(n, spans, pivots, monkeypatch):
    # Forms with independent low 12 bits and random high bits: the masks
    # cross bit 12, the pivots are low and the look succeeds.  r = 12 with
    # 130 masks: the multiplexer of 3 address and 8 data bits (65 masks in
    # 11 dimensions) times y12.
    rng = np.random.default_rng(n)
    y = np.arange(1 << 12)
    mux = (((y >> 3) >> (y & 7)) & 1 & (y >> 11)).astype(np.uint8)
    for g in (rng.integers(0, 2, 1 << 8, dtype=np.uint8), mux):
        r = g.size.bit_length() - 1
        low = _independent(rng, r, 12)
        forms = [part | int(rng.integers(1, 1 << (n - 12))) << 12 for part in low]
        f, expected = _forms_lift(g, forms, n)
        spans.clear()
        pivots.clear()
        _check_sums(f, expected, monkeypatch)
        assert spans == [True, True]
        assert len(pivots[0]) == r and max(pivots[0]) < 12
        assert any(mask >> 12 for mask in expected)
    assert len(expected) == 130


def _oracle_sums(f):
    """f's nonzero sums by the int64 butterfly."""
    plain = _butterfly_sum(f.table.astype(np.int64))
    nz = np.flatnonzero(plain)
    return dict(zip(nz.tolist(), plain[nz].tolist()))


def test_span_path_falls_back_at_each_step(spans, pivots, monkeypatch):
    # n = 20, one input per failing step, which takes the pruned or the full
    # pass; the proof's index (span_points) is only made once the basis holds
    n = 20
    x = np.arange(1 << n)
    bit = [((x >> i) & 1).astype(np.uint8) for i in range(n)]
    proofs = []
    real = core.span_points
    monkeypatch.setattr(core, "span_points", lambda v: proofs.append(len(v)) or real(v))

    def check(f, expected=None):
        spans.clear()
        pivots.clear()
        proofs.clear()
        _check_sums(f, _oracle_sums(f) if expected is None else expected, monkeypatch)
        assert spans == [False, False]

    # Probe, nonzero pattern: x13's masks 0 and 2^12 cancel in bin 0 of row
    # 0, not of row 1.
    check(BooleanFunction(n, bit[12]), {0: 1 << (n - 1), 1 << 12: -(1 << (n - 1))})
    assert (pivots, proofs) == ([], [])
    # Probe, magnitudes: the majority of x1, x2 and x13 has masks 0 and 2^12
    # in bin 0, 4 - 2 on row 0 and 4 + 2 on row 1 (times 2^(n - 3)).
    check(BooleanFunction(n, (bit[0] & bit[1]) | (bit[0] & bit[12]) | (bit[1] & bit[12])))
    assert (pivots, proofs) == ([], [])
    # Basis: two bent functions of x1..x4 with the same magnitudes, chosen by
    # x13.  One mask a bin, but the signs of row 1 are quadratic in the bin:
    # the span holds 2^12 alone, a pivot at bit 12.
    ip = (bit[0] & bit[1]) ^ (bit[2] & bit[3])
    check(BooleanFunction(n, np.where(bit[12] == 1, ip ^ (bit[0] & bit[2]), ip)))
    assert max(pivots[0]) == 12 and proofs == []
    # Proof: a quadratic on _SPREAD whose four masks a bin agree in sign on
    # rows 1 and 2 with row 0, but not on row 3.
    g = generate(FamilySpec("random_poly", {"n": 8, "d": 2, "seed": 1}))
    check(*_lift(g, _SPREAD, n))
    assert pivots and max(pivots[0]) < 12 and proofs
    # More than 2^11 nonzero bins in row 0: a random g on 12 forms with
    # independent low bits, of the span form but past the bin count.
    rng = np.random.default_rng(n)
    forms = [part | int(rng.integers(1, 1 << (n - 12))) << 12 for part in _independent(rng, 12, 12)]
    check(*_forms_lift(rng.integers(0, 2, 1 << 12, dtype=np.uint8), forms, n))
    assert (pivots, proofs) == ([], [])


@pytest.mark.parametrize("n", [14, 20])
def test_span_path_honours_most(n, spans):
    # None exactly when more than `most` sums are nonzero
    g = generate(FamilySpec("random_poly", {"n": 8, "d": 2, "seed": 4}))
    f, expected = _lift(g, range(8), n)
    count = len(expected)
    assert _wht_sums(f.table, most=count - 1) is None
    masks, sums = _wht_sums(f.table, most=count)
    assert dict(zip(masks.tolist(), sums.tolist())) == expected
    assert _wht_sums(np.zeros(1 << n, dtype=np.uint8), most=0)[0].size == 0
    assert spans == [True, True, True]


def test_span_path_peak_memory_n20(spans):
    # The look holds the packed table (2^n / 8 bytes), the proof's word index
    # and gathered rows (2^(n - 3) bytes each) and the probe's levels (four
    # bytes at each of 2^12 points of 1 + (n - 12) rows): some 0.5 MiB,
    # against 3 MiB for the pruned pass
    n = 20
    rng = np.random.default_rng(n)
    forms = [part | int(rng.integers(1, 1 << (n - 12))) << 12 for part in _independent(rng, 8, 12)]
    f, _ = _forms_lift(rng.integers(0, 2, 1 << 8, dtype=np.uint8), forms, n)
    assert _peak_beyond_output(f.table) <= (3 << (n - 3)) + (4 << 12) * (n - 11) + (16 << 10)
    assert spans == [True]


@settings(max_examples=60, deadline=None)
@given(random_function(st.integers(1, 6)))
def test_pm_of_sums_matches_to_pm_spectrum(f):
    # keys, values and insertion order, straight from the sums
    pm = core._pm_of_sums(f.n, *_wht_sums(f.table)).coeffs
    want = to_pm_spectrum(wht(f)).coeffs
    assert pm == want == pm_spectrum_oracle(list(f.table))
    assert list(pm) == list(want)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_pm_of_sums_zero_one_and_balanced(n):
    size = 1 << n
    zero = BooleanFunction(n, np.zeros(size, dtype=np.uint8))
    one = BooleanFunction(n, np.ones(size, dtype=np.uint8))
    assert core._pm_of_sums(n, *_wht_sums(zero.table)).coeffs == {0: size}
    assert core._pm_of_sums(n, *_wht_sums(one.table)).coeffs == {0: -size}
    if n:
        # x1 is balanced: its +/-1 spectrum has no constant term
        x1 = BooleanFunction(n, (np.arange(size) & 1).astype(np.uint8))
        assert core._pm_of_sums(n, *_wht_sums(x1.table)).coeffs == {1: size}


def test_inverse_wht_rejects_first_bad_point():
    with pytest.raises(NotBoolean, match=r"value 3/8 at x=0 is not 0 or 1"):
        inverse_wht(Spectrum(3, 3, {0: 3}))
    # values 4, -2, 4, -2 over 4: x=1 is the first point off {0, 1}
    with pytest.raises(NotBoolean, match=r"value -2/4 at x=1 is not 0 or 1"):
        inverse_wht(Spectrum(2, 2, {0: 1, 1: 3}))


def test_inverse_wht_huge_numerators():
    # the same function over 2^80: numerators beyond int64 cancel exactly
    spec = wht(IP4)
    wide = Spectrum(4, 80, {m: v << 76 for m, v in spec.coeffs.items()})
    assert np.array_equal(inverse_wht(wide).table, IP4.table)
    with pytest.raises(NotBoolean):
        inverse_wht(Spectrum(4, 4, {0: 1 << 70, 1: 1}))


@settings(max_examples=60, deadline=None)
@given(random_function(st.integers(1, 7)))
def test_anf_roundtrip(f):
    assert np.array_equal(anf_to_function(anf_of(f)).table, f.table)


@settings(max_examples=60, deadline=None)
@given(random_function(st.integers(1, 7)))
def test_parseval(f):
    spec = wht(f)
    assert sum(v * v for v in spec.coeffs.values()) == (1 << f.n) * f.ones_count()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(random_function(st.just(n)), random_function(st.just(n)))
    )
)
def test_pointwise_product_is_convolution(fg):
    f, g = fg
    # product spectrum == spectrum of the pointwise AND of 0/1 functions
    prod = BooleanFunction(f.n, [a & b for a, b in zip(f.table, g.table)])
    got = pointwise_product(wht(f), wht(g))
    assert got.values_equal(wht(prod))


def random_signed_map(rng: random.Random, n: int, density: float, scale: int) -> dict:
    return {
        m: rng.choice((-1, 1)) * rng.randint(1, scale)
        for m in range(1 << n)
        if rng.random() < density
    }


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 9),
    st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]),
    st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    st.integers(0, 2**32),
)
def test_xor_convolve_paths_agree(n, density_a, density_b, seed):
    rng = random.Random(seed)
    a = random_signed_map(rng, n, density_a, 1000)
    b = random_signed_map(rng, n, density_b, 1000)
    for x, y in ((a, b), (a, a), (b, b)):
        pairs = _convolve_pairs(x, y)
        butterfly = _convolve_butterfly(x, y, n)
        assert butterfly == pairs
        assert list(butterfly) == sorted(pairs)
        assert xor_convolve(x, y, n) == pairs


@pytest.mark.parametrize("scale", [1 << 40, 1 << 70])
def test_xor_convolve_large_numerators_exact(scale):
    # 2^40 passes the first int64 butterflies but its product bound
    # 2^6 * (64 * 2^40)^2 does not; 2^70 does not fit int64 at all.
    rng = random.Random(scale.bit_length())
    a = random_signed_map(rng, 6, 1.0, scale)
    b = random_signed_map(rng, 6, 0.9, scale)
    assert _convolve_butterfly(a, b, 6) == _convolve_pairs(a, b)
    assert _convolve_butterfly(a, a, 6) == _convolve_pairs(a, a)
    assert xor_convolve(a, b, 6) == _convolve_pairs(a, b)


def _map_with_l1(rng: random.Random, n: int, count: int, l1: int) -> dict:
    """``count`` signed values on distinct masks below 2^n, their magnitudes summing to l1."""
    masks = rng.sample(range(1 << n), count)
    cuts = sorted(rng.sample(range(1, l1), count - 1))
    mags = [b - a for a, b in zip([0] + cuts, cuts + [l1])]
    return {m: rng.choice((-1, 1)) * v for m, v in zip(masks, mags)}


@pytest.mark.parametrize("count", [9, 40])
def test_pair_kernel_matches_loop_below_int64_bound(count):
    # l1(a) * l1(b) = 2^62 - 1, so no sum of products reaches 2^62
    rng = random.Random(count)
    a = _map_with_l1(rng, 12, count, (1 << 31) - 1)
    b = _map_with_l1(rng, 12, count, (1 << 31) + 1)
    assert len(a) * len(b) > core._PAIRS_LOOP_MAX
    want = _convolve_loop(a, b)
    keys, sums = _pair_sums(
        np.array(list(a), dtype=np.int64), np.array(list(b), dtype=np.int64),
        np.array(list(a.values()), dtype=np.int64), np.array(list(b.values()), dtype=np.int64),
    )
    assert dict(zip(keys.tolist(), sums.tolist())) == want
    assert keys.tolist() == sorted(want)
    assert _convolve_pairs(a, b) == want
    assert list(_convolve_pairs(a, b)) == list(want)


@pytest.mark.parametrize("l1", [1 << 31, 1 << 45])
def test_pair_kernel_matches_loop_above_int64_bound(l1):
    # l1(a) * l1(b) >= 2^62.  At 2^31 the sums of squares stay below 2^124
    # and the int64 kernel is exact; at 2^45 they do not, and the Python
    # loop runs, where the int64 products would wrap.
    rng = random.Random(l1.bit_length())
    a = _map_with_l1(rng, 12, 20, l1)
    b = _map_with_l1(rng, 12, 20, l1)
    assert _convolve_pairs(a, b) == _convolve_loop(a, b)
    assert _convolve_pairs(a, a) == _convolve_loop(a, a)


def test_pair_kernel_gate_is_the_sums_of_squares(monkeypatch):
    # 64 values of magnitude 2^25 to 2^26 a side: l1(a) * l1(b) >= 2^62, over
    # the l1 gate, but sum(a^2) * sum(b^2) <= 2^116 < 2^124, so every sum of
    # products is below 2^58 and the int64 kernel takes the pairs
    rng = random.Random(26)
    a, b = (
        {m: rng.choice((-1, 1)) * rng.randint(1 << 25, 1 << 26) for m in rng.sample(range(99), 64)}
        for _ in range(2)
    )
    assert sum(map(abs, a.values())) * sum(map(abs, b.values())) >= 1 << 62
    assert sum(v * v for v in a.values()) * sum(v * v for v in b.values()) < 1 << 124
    want = _convolve_loop(a, b), _convolve_loop(a, a)
    monkeypatch.setattr(core, "_convolve_loop", None)  # the loop is not taken
    got = _convolve_pairs(a, b), _convolve_pairs(a, a)
    assert got == want and [list(d) for d in got] == [list(d) for d in want]


def test_pair_kernel_gate_with_a_side_of_zeros():
    # sum(b^2) = 0 would let values of a past int64 through the gate
    a = {m: 1 << 70 for m in range(9)}
    b = dict.fromkeys(range(9), 0)
    assert not _butterfly_pays(len(a) * len(b), 6)
    assert xor_convolve(a, b, 6) == _convolve_loop(a, b) == {}


@pytest.mark.parametrize("l0", [1, 2, 9, 64, 256])
def test_pair_counts_are_the_ordered_pairs(l0):
    rng = random.Random(l0)
    masks = rng.sample(range(1 << 20), l0)
    keys, counts = _pair_sums(np.array(masks, dtype=np.int64), np.array(masks, dtype=np.int64))
    want = Counter(s ^ t for s in masks for t in masks)
    assert keys.tolist() == sorted(want)
    assert counts.tolist() == [want[k] for k in sorted(want)]


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_pair_kernel_blocks_match_one_pass(monkeypatch, block):
    # blocks of whole rows of a, at most ``block`` pairs each (one row when a
    # row alone is longer), added on a dense array; zero sums are left out
    rng = random.Random(block)
    a = random_signed_map(rng, 9, 0.1, 3)
    b = random_signed_map(rng, 9, 0.05, 3)
    masks = np.array(rng.sample(range(1 << 12), 40), dtype=np.int64)
    whole = (_convolve_loop(a, b), _convolve_loop(a, a), _pair_sums(masks, masks))
    monkeypatch.setattr(core, "_PAIRS_BLOCK", block)
    assert len(a) * len(b) > block
    assert _convolve_pairs(a, b) == whole[0]
    assert list(_convolve_pairs(a, b)) == list(whole[0])
    assert _convolve_pairs(a, a) == whole[1]
    keys, counts = _pair_sums(masks, masks)
    assert keys.tolist() == whole[2][0].tolist()
    assert counts.tolist() == whole[2][1].tolist()


def test_pair_kernel_memory_is_bounded_by_the_block():
    # 10^6 pairs at n = 16, under (n + 1) * 2^n: the pair kernel's side.  In
    # one pass its arrays would take some 32 MB; the blocks hold about
    # 32 * _PAIRS_BLOCK bytes and the dense sums 8 * 2^16.
    n, l0 = 16, 1000
    assert l0 * l0 <= (n + 1) << n
    rng = random.Random(l0)
    a = {m: rng.choice((-1, 1)) for m in rng.sample(range(1 << n), l0)}
    keys, values = np.array(list(a), dtype=np.int64), np.array(list(a.values()), dtype=np.int64)
    for args in ((keys, keys, values, values), (keys, keys)):
        tracemalloc.start()
        try:
            _pair_sums(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * core._PAIRS_BLOCK + (8 << n) + (1 << 20)
    assert xor_convolve(a, a, n) == _convolve_loop(a, a)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 20, 24])
def test_lex_keys_match_lex_key(n):
    rng = random.Random(n)
    masks = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(200)]
    keys = lex_keys(np.array(masks, dtype=np.int64), n).tolist()
    assert keys == [lex_key(m, n) for m in masks]
    order = sorted(range(len(masks)), key=lambda i: x1_first_string(masks[i], n))
    assert [keys[i] for i in order] == sorted(keys)


def test_boolean_autocorrelation_both_paths():
    # (-1)^f squared is 1: the +/-1 spectrum convolved with itself is delta_0
    for f in (AND2, IP4, MAJ3, PAR3):
        pm = to_pm_spectrum(wht(f)).coeffs
        unit = {0: 1 << (2 * f.n)}
        assert _convolve_pairs(pm, pm) == unit
        assert _convolve_butterfly(pm, pm, f.n) == unit


@settings(max_examples=40, deadline=None)
@given(random_function(st.integers(1, 6)))
def test_range_switch_sandwich(f):
    n = f.n
    l1 = wht(f).l1_num()  # over 2^n
    l1_pm = to_pm_spectrum(wht(f)).l1_num()  # over 2^n
    assert 2 * l1 - (1 << n) <= l1_pm <= 2 * l1 + (1 << n)


@settings(max_examples=40, deadline=None)
@given(random_function(st.integers(1, 6)))
def test_deg_le_log_sparsity(f):
    # deg2 <= log2(l0) for non-constant f (Fact "deg vs sparsity")
    l0 = wht(f).l0()
    if l0 > 0 and deg2(f) > 0:
        assert (1 << deg2(f)) <= l0


def test_granularity_uses_pm_view():
    # parity: pm spectrum is a single +/-1 coefficient -> granularity 0
    stats = spectral_stats(to_pm_spectrum(wht(PAR3)))
    assert stats.granularity == 0


# ---------------------------------------------------------------------------
# Hypercontractivity spot checks.


@pytest.mark.parametrize("eta", [0.25, 0.5, 0.75, 1.0])
def test_hypercontractivity_holds(eta):
    for f in (AND2, IP4, MAJ3, PAR3):
        res = hypercontractivity_check(f, eta)
        assert res.holds
        res_pm = hypercontractivity_check(f, eta, pm=True)
        assert res_pm.holds


def test_hypercontractivity_eta_validation():
    with pytest.raises(InvalidEta):
        hypercontractivity_check(AND2, -0.1)
    with pytest.raises(InvalidEta):
        hypercontractivity_check(AND2, 1.5)


# ---------------------------------------------------------------------------
# Spectrum helpers.


def test_values_equal_across_denominators():
    a = Spectrum(2, 2, {0: 1, 3: -1})
    b = Spectrum(2, 3, {0: 2, 3: -2})
    assert a.values_equal(b)
    assert not a.values_equal(Spectrum(2, 2, {0: 1}))


def test_support_sorted():
    assert wht(MAJ3).support() == [0, 1, 2, 4, 7]
