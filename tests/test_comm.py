"""XOR-function matrices, exact integer rank and protocol simulation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boolfourier import (
    BooleanFunction,
    DimensionMismatch,
    FamilySpec,
    Pdt,
    PdtLeaf,
    PdtNode,
    TooLarge,
    build_greedy_l1,
    comm,
    generate,
    gf2_rank,
    matrix_rank_exact,
    pdt_eval,
    simulate_protocol,
    verify_protocol,
    wht,
    xor_matrix,
)

from helpers import matrix_rank_oracle, protocol_oracle, xor_matrix_oracle

AND2 = BooleanFunction(2, [0, 0, 0, 1])
PAR1 = BooleanFunction(1, [0, 1])


def functions(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
            lambda v: BooleanFunction.from_int(n, v)
        )
    )


# ---------------------------------------------------------------------------
# XOR matrix.


def test_xor_matrix_parity1_frozen():
    assert xor_matrix(PAR1).tolist() == [[0, 1], [1, 0]]


def test_xor_matrix_and2_frozen():
    mat = xor_matrix(AND2)
    assert mat.shape == (4, 4)
    for x in range(4):
        for y in range(4):
            assert mat[x, y] == AND2.value(x ^ y)


@settings(max_examples=40, deadline=None)
@given(functions(4))
def test_xor_matrix_matches_oracle(f):
    assert xor_matrix(f).tolist() == xor_matrix_oracle(list(f.table))


def test_xor_matrix_too_large():
    with pytest.raises(TooLarge):
        xor_matrix(generate(FamilySpec("parity", {"n": 11})))


# ---------------------------------------------------------------------------
# Exact rank.


def test_matrix_rank_frozen():
    assert matrix_rank_exact([[0, 1], [1, 0]]) == 2
    assert matrix_rank_exact([[1, 1], [1, 1]]) == 1
    assert matrix_rank_exact([[0, 0], [0, 0]]) == 0
    assert matrix_rank_exact(xor_matrix(AND2)) == 4


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda m: len({len(r) for r in m}) == 1)
)
def test_matrix_rank_matches_fraction_oracle(m):
    assert matrix_rank_exact(m) == matrix_rank_oracle(m)


@st.composite
def leading_zero_matrices(draw):
    """Small integer matrices, tall or wide, with zeros down part of column 0."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    for row in m[: draw(st.integers(0, rows))]:
        row[0] = 0
    return m


@settings(max_examples=80, deadline=None)
@given(leading_zero_matrices())
@example([[0, 1, 2], [3, 4, 5]])  # a row swap, then every row holds a pivot
@example([[0, 0], [0, 2], [1, 1], [2, 2]])  # tall, pivot found below two zeros
def test_bareiss_rank_matches_fraction_oracle(m):
    # the exact fallback of matrix_rank_exact, checked on its own
    assert comm._bareiss_rank(np.array(m, dtype=np.int64)) == matrix_rank_oracle(m)


P = comm._RANK_PRIME  # the prime of the modular lower bound


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Count the calls that reach the Bareiss fallback."""
    calls = []
    bareiss = comm._bareiss_rank

    def counted(a):
        calls.append(a.shape)
        return bareiss(a)

    monkeypatch.setattr(comm, "_bareiss_rank", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.randoms(use_true_random=False))
def test_matrix_rank_of_low_rank_products(rows, cols, rng):
    # A (rows x k) times B (k x cols) with k below both sides has rank <= k
    k = rng.randrange(1, min(rows, cols))
    a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
    b = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
    m = (np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)).tolist()
    want = matrix_rank_oracle(m)
    assert want <= k
    assert matrix_rank_exact(m) == want
    assert matrix_rank_exact(np.array(m, dtype=np.int64)) == want
    assert matrix_rank_exact(np.array(m, dtype=np.int64).T) == want


def test_matrix_rank_beyond_int64(bareiss_calls):
    # full rank mod p already: the lower bound alone settles it
    assert matrix_rank_exact([[2**70, 1], [2**71, 3]]) == 2
    # rank 1, certified by the factorization checked on Python ints
    assert matrix_rank_exact([[2**70, 2**71], [-1, -2]]) == 1
    assert bareiss_calls == []


def test_matrix_rank_multiples_of_p_reach_bareiss(bareiss_calls):
    # zero mod p, rank 2 over Q: the factorization check must fail
    assert matrix_rank_exact([[P, 0], [0, P]]) == 2
    assert matrix_rank_exact([[P, 1], [0, 1]]) == 2
    assert len(bareiss_calls) == 2


def test_matrix_rank_unliftable_entries_reach_bareiss(bareiss_calls):
    # rank 1, but the echelon row is (1, 2^70) and its residue 2^70 mod q
    # lifts to -2411/2827, so the factorization check fails
    assert matrix_rank_exact([[1, 2**70], [3, 3 * 2**70]]) == 1
    assert matrix_rank_exact([[1, 2**70, 5], [3, 3 * 2**70, 15]]) == 1
    assert len(bareiss_calls) == 2


def test_rank_prime_is_prime():
    q = comm._RANK_PRIME
    assert q == 2**25 - 39
    assert all(q % d for d in range(2, math.isqrt(q) + 1))
    assert comm._LIFT_BOUND == 4095


@st.composite
def panel_crossing_products(draw):
    """A (rows x k) @ B (k x cols) with both sides past two panel edges.

    B is zero on its first columns, up to one column before or after the
    first panel edge, and on the column before the second edge.  Rows k1..
    of B are also zero before the second edge, so the pivots past the
    first k1 fall in the third panel.  A's first rows are zero, so the
    first pivot row comes from a row swap at the first panel edge.
    """
    b = comm._PANEL
    rows, cols = draw(st.integers(2 * b + 1, 3 * b)), draw(st.integers(2 * b + 1, 3 * b))
    k = draw(st.integers(1, 6))
    k1 = draw(st.integers(0, k))
    rng = draw(st.randoms(use_true_random=False))
    a = np.array([[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)], dtype=np.int64)
    a[: draw(st.integers(1, 3))] = 0
    bm = np.array([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)], dtype=np.int64)
    bm[:, : draw(st.integers(b - 1, b + 1))] = 0
    bm[:, 2 * b - 1] = 0
    bm[k1:, : 2 * b] = 0
    return a @ bm


@settings(max_examples=12, deadline=None)
@given(panel_crossing_products())
def test_matrix_rank_across_panels_matches_fraction_oracle(m):
    want = matrix_rank_oracle(m.tolist())
    assert matrix_rank_exact(m) == want
    assert matrix_rank_exact(m.T) == want


def test_matrix_rank_of_residues_q_minus_1(bareiss_calls):
    # 2I - J: every residue off the diagonal is q - 1, so the first pivot's
    # multipliers and scaled row are all q - 1 and each of its products is
    # (q - 1)^2, the largest; elimination runs across four panels, first at
    # full rank and then, with 40 rows and columns repeated, below it
    size = 3 * comm._PANEL + 4
    m = 2 * np.eye(size, dtype=np.int64) - 1
    assert (m % comm._RANK_PRIME)[0, 1] == comm._RANK_PRIME - 1
    assert matrix_rank_exact(m) == size
    m = np.vstack([m, m[:40]])
    m = np.hstack([m, m[:, :40]])
    assert matrix_rank_exact(m) == size
    assert bareiss_calls == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_panel_step_leaves_residues_right_of_the_panel(seed):
    # The first panel's step alone, on residues 0 and q - 1 over two panels
    # and more rows than the panel has columns.  Every entry right of the
    # panel, in its pivot rows and the rows below them, is a residue again:
    # the one % of the triangular pass and the one of the trailing block.
    # Later panels reduce what they touch, so after the whole elimination
    # an unreduced trailing block would not show.
    q, b = comm._RANK_PRIME, comm._PANEL
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((b + 9, b + 7)) < 0.5, q - 1, 0).astype(np.int64)
    pivots = []
    comm._eliminate_panel(a, 0, pivots)
    assert 0 < len(pivots) < len(a) and all(c < b for c in pivots)
    right = a[:, b:]
    assert right.any()
    assert ((right >= 0) & (right < q)).all()


@pytest.mark.parametrize("d", [4, 7])
def test_matrix_rank_n9_below_full_rank(bareiss_calls, d):
    # rank below 512: the lifted combinations certify the rank on their own
    f = generate(FamilySpec("random_poly", {"n": 9, "d": d, "seed": 1}))
    rank = matrix_rank_exact(xor_matrix(f))
    assert rank == wht(f).l0() < 512
    assert bareiss_calls == []


def test_matrix_rank_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        matrix_rank_exact([1, 2, 3])
    with pytest.raises(TypeError):
        matrix_rank_exact([[0.5, 1]])
    assert matrix_rank_exact([[]]) == 0


def test_matrix_rank_n8(bareiss_calls):
    assert matrix_rank_exact(xor_matrix(generate(FamilySpec("bent_ip", {"k": 8})))) == 256
    par = generate(FamilySpec("parity", {"n": 8}))
    assert matrix_rank_exact(xor_matrix(par)) == wht(par).l0() == 2
    assert bareiss_calls == []


@settings(max_examples=30, deadline=None)
@given(functions(5))
def test_rank_equals_sparsity(f):
    # rank of the XOR matrix equals the Fourier sparsity
    assert matrix_rank_exact(xor_matrix(f)) == wht(f).l0()


# ---------------------------------------------------------------------------
# Protocol simulation.


def test_simulate_parity_frozen():
    tree, _ = build_greedy_l1(PAR1)
    tr = simulate_protocol(tree, 1, 1)
    assert len(tr.rounds) == 1
    assert (tr.rounds[0].alice_bit, tr.rounds[0].bob_bit) == (1, 1)
    assert tr.output == 0  # parity(1 ^ 1) = 0
    assert tr.cost_bits == 2


@settings(max_examples=30, deadline=None)
@given(functions(5), st.data())
def test_simulation_computes_xor_function(f, data):
    tree, _ = build_greedy_l1(f)
    x = data.draw(st.integers(0, (1 << f.n) - 1))
    y = data.draw(st.integers(0, (1 << f.n) - 1))
    tr = simulate_protocol(tree, x, y)
    assert tr.output == f.value(x ^ y)
    assert tr.cost_bits == 2 * len(tr.rounds)
    assert tr.cost_bits <= 2 * tree.depth()


@settings(max_examples=20, deadline=None)
@given(functions(4))
def test_verify_protocol_exhaustive(f):
    tree, _ = build_greedy_l1(f)
    report = verify_protocol(tree, f)
    assert report.correct
    assert report.max_cost == 2 * tree.depth()


def test_verify_protocol_detects_wrong_tree():
    tree, _ = build_greedy_l1(AND2)
    g = BooleanFunction(2, [1, 0, 0, 1])
    assert not verify_protocol(tree, g).correct


def test_bent_ip4_protocol_cost():
    f = generate(FamilySpec("bent_ip", {"k": 4}))
    tree, _ = build_greedy_l1(f)
    report = verify_protocol(tree, f)
    assert report.correct
    assert report.max_cost <= 8


def _random_tree(rng, n):
    """A random parity tree on n variables with independent masks on each path."""

    def grow(path):
        if len(path) == n or rng.random() < 0.3:
            return PdtLeaf(rng.getrandbits(1))
        while True:
            mask = rng.randrange(1, 1 << n)
            if gf2_rank(path + [mask]) == len(path) + 1:
                break
        return PdtNode(mask, grow(path + [mask]), grow(path + [mask]))

    return Pdt(n, grow([]))


def _flip_one_leaf(node, rng):
    if isinstance(node, PdtLeaf):
        return PdtLeaf(1 - node.value)
    if rng.getrandbits(1):
        return PdtNode(node.mask, node.child0, _flip_one_leaf(node.child1, rng))
    return PdtNode(node.mask, _flip_one_leaf(node.child0, rng), node.child1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.randoms(use_true_random=False))
def test_verify_protocol_matches_per_pair_oracle(n, rng):
    tree = _random_tree(rng, n)
    f = BooleanFunction(n, [pdt_eval(tree, z) for z in range(1 << n)])
    assert verify_protocol(tree, f).correct
    assert protocol_oracle(tree, f)
    flipped = Pdt(n, _flip_one_leaf(tree.root, rng))
    assert not verify_protocol(flipped, f).correct
    assert not protocol_oracle(flipped, f)
    g = BooleanFunction.from_int(n, rng.getrandbits(1 << n))
    assert verify_protocol(tree, g).correct == protocol_oracle(tree, g)


def test_verify_protocol_n8_detects_one_point():
    f = generate(FamilySpec("bent_ip", {"k": 8}))
    tree, _ = build_greedy_l1(f)
    assert verify_protocol(tree, f).correct
    for z in (0, 0x5A, 0xFF):
        table = f.table.copy()
        table[z] ^= 1
        report = verify_protocol(tree, BooleanFunction(8, table))
        assert not report.correct
        assert report.max_cost == 2 * tree.depth()


def test_verify_protocol_rejects_mismatched_n():
    tree, _ = build_greedy_l1(AND2)
    with pytest.raises(DimensionMismatch):
        verify_protocol(tree, PAR1)


def test_verify_protocol_too_large():
    f = generate(FamilySpec("parity", {"n": 9}))
    tree, _ = build_greedy_l1(f)
    with pytest.raises(TooLarge):
        verify_protocol(tree, f)
