"""Tree builders, certificates, exact rank and the signed decomposition."""

import itertools
import json
import time
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from boolfourier import (
    ANF,
    AffineConstraint,
    BooleanFunction,
    BuildTrace,
    Certificate,
    ConstantInput,
    FamilySpec,
    Gf2Matrix,
    InvalidTree,
    LinearMap,
    NotFound,
    Pdt,
    PdtLeaf,
    PdtNode,
    Spectrum,
    TooLarge,
    anf_to_function,
    apply_linear,
    build_degree_reduce,
    build_greedy_l1,
    build_heavy_hitter,
    build_span_query,
    cert_greedy_l1,
    cert_norm_halving,
    cert_norm_halving_with_trace,
    certificate_check,
    deg2,
    degree_reducing_subspace,
    generate,
    green_sanders_decompose,
    pdt_check,
    pdt_eval,
    rank_exact,
    restrict_affine,
    to_pm_spectrum,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
    wht,
)

from boolfourier import pdt as pdt_module
from boolfourier.cli import parse_function_spec
from boolfourier._bits import dot, mask_to_string, popcounts
from boolfourier.pdt import _heavy_direction
from boolfourier.restrict import _Frame, fold

from helpers import (
    _independent,
    addressing21_table,
    cert_corpus,
    deg_oracle,
    first_drop_reference,
    greedy_pair_reference,
    heavy_direction_oracle,
    parity,
    plain_certs,
    query_mask_oracle,
    rank_oracle,
    rref_bases_reference,
    span_basis_oracle,
    span_tree_oracle,
    subspace_table,
    x1_first_string,
)

AND2 = BooleanFunction(2, [0, 0, 0, 1])
IP4 = generate(FamilySpec("bent_ip", {"k": 4}))
BUILDERS = [build_greedy_l1, build_heavy_hitter, build_span_query, build_degree_reduce]


def functions(max_n=6, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(
            lambda v: BooleanFunction.from_int(n, v)
        )
    )


# ---------------------------------------------------------------------------
# Frozen trees for AND2 (hand-derived).


def test_greedy_tree_and2_frozen():
    tree, _ = build_greedy_l1(AND2)
    assert tree_to_dict(tree) == {
        "n": 2,
        "root": {
            "query": "01",
            "child0": {"value": 0},
            "child1": {
                "query": "10",
                "child0": {"value": 0},
                "child1": {"value": 1},
            },
        },
    }


def test_heavy_hitter_tree_and2_frozen():
    tree, _ = build_heavy_hitter(AND2)
    # ties on pair counts resolve to the x1-first smallest mask: same tree
    assert tree_to_dict(tree) == tree_to_dict(build_greedy_l1(AND2)[0])


HEAVY_FROZEN = json.loads((Path(__file__).parent / "data" / "heavy_hitter_frozen.json").read_text())


@pytest.mark.parametrize("label", sorted(HEAVY_FROZEN))
def test_heavy_hitter_trees_frozen(label):
    # bent_ip(k=8) has full support, so every direction ties at the root
    entry = HEAVY_FROZEN[label]
    tree, trace = build_heavy_hitter(generate(FamilySpec(entry["kind"], entry["params"])))
    assert tree_to_dict(tree) == entry["tree"]
    assert [node.info.get("pairs") for node in trace.nodes] == entry["pairs"]


def supports(max_n=8):
    """(n, support) with 2 <= l0 <= 2^n, sparse or dense enough for butterflies."""
    def of(n):
        sparse = st.sets(st.integers(0, (1 << n) - 1), min_size=2, max_size=12)
        dense = st.integers(0, (1 << (1 << n)) - 1).map(
            lambda v: {m for m in range(1 << n) if (v >> m) & 1}
        )
        return st.tuples(st.just(n), st.one_of(sparse, dense).filter(lambda s: len(s) >= 2))

    return st.integers(1, max_n).flatmap(of)


@settings(max_examples=80, deadline=None)
@given(supports(), st.integers(1, 5))
def test_heavy_direction_matches_oracle(n_support, scale):
    n, support = n_support
    spec = Spectrum(n, n, {m: scale if m & 1 else -scale for m in support})
    assert _heavy_direction(spec) == heavy_direction_oracle(support, n)


@pytest.mark.parametrize("n", [16, 18, 20])
@pytest.mark.parametrize("l0", [2, 9, 40, 256])
def test_heavy_direction_matches_per_pair_reference_sparse(n, l0):
    # l0^2 <= (n + 1) * 2^n: the pair kernel's side, at the spectral-sparse
    # sizes; a lifted support makes many directions tie
    rng = np.random.default_rng(10 * n + l0)
    for support in (
        rng.choice(1 << n, size=l0, replace=False).tolist(),
        (rng.choice(1 << 9, size=l0, replace=False) << (n - 9)).tolist(),
    ):
        spec = Spectrum(n, n, {m: 1 if m & 1 else -1 for m in support})
        assert _heavy_direction(spec) == heavy_direction_oracle(support, n)


def _greedy_spectra(f, limit=60):
    """Spectra the greedy walk meets: the root's, then both branches of each fold."""
    stack, out = [to_pm_spectrum(wht(f))], []
    while stack and len(out) < limit:
        spec = stack.pop()
        if spec.l0() < 2:
            continue
        out.append(spec)
        t = pdt_module._greedy_step(spec)[0]
        stack += [fold(spec, t, b) for b in (0, 1)]
    return out


@pytest.mark.parametrize(
    "kind, params",
    [("bent_ip", {"k": 4}), ("bent_ip", {"k": 8}), ("majority", {"n": 5}),
     ("majority", {"n": 9}), ("and", {"n": 6}), ("parity", {"n": 5}),
     ("random_poly", {"n": 8, "d": 3, "seed": 1}), ("random_poly", {"n": 10, "d": 2, "seed": 2})],
)
def test_greedy_step_is_the_nsmallest_rule(kind, params):
    # tie-heavy spectra: every bent coefficient has one magnitude, majority's
    # come in levels by weight
    for spec in _greedy_spectra(generate(FamilySpec(kind, params))):
        a1, a2 = greedy_pair_reference(spec)
        b = 0 if spec.coeffs[a1] * spec.coeffs[a2] > 0 else 1
        assert pdt_module._greedy_step(spec) == (a1 ^ a2, b, {})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.dictionaries(
        st.integers(0, (1 << n) - 1), st.integers(-3, 3).filter(bool), min_size=2, max_size=40))))
def test_greedy_step_is_the_nsmallest_rule_on_small_values(n_coeffs):
    # few magnitudes: ties at the top and at the second magnitude
    n, coeffs = n_coeffs
    spec = Spectrum(n, n, coeffs)
    a1, a2 = greedy_pair_reference(spec)
    assert pdt_module._top_pair(spec) == (a1, a2)
    assert pdt_module._greedy_step(spec)[0] == a1 ^ a2


def test_span_query_tree_and2_frozen():
    tree, _ = build_span_query(AND2)
    assert tree_to_dict(tree) == {
        "n": 2,
        "root": {
            "query": "01",
            "child0": {
                "query": "10",
                "child0": {"value": 0},
                "child1": {"value": 0},
            },
            "child1": {
                "query": "10",
                "child0": {"value": 0},
                "child1": {"value": 1},
            },
        },
    }


def _rows(trace):
    return [(t.parent_id, t.branch, t.mask, t.l0, t.l1_num) for t in trace]


def _span_corpus():
    for n in range(2, 9):
        for d in range(2, min(n, 4) + 1):
            for seed in (1, 2):
                yield generate(FamilySpec("random_poly", {"n": n, "d": d, "seed": seed}))
    for k in (2, 4, 6, 8):
        yield generate(FamilySpec("bent_ip", {"k": k}))
    for n in (1, 3, 5, 7):
        yield generate(FamilySpec("majority", {"n": n}))
    yield BooleanFunction(3, [1] * 8)


def test_span_query_matches_span_tree_oracle():
    # every row and the tree against one restriction and transform per node,
    # the queries against the greedy basis of the root's support
    for f in _span_corpus():
        tree, trace = build_span_query(f)
        rows, root = span_tree_oracle(f, span_basis_oracle(f.table))
        assert _rows(trace) == rows, f
        assert tree_to_dict(tree) == {"n": f.n, "root": root}, f
        assert all(node.info is trace[0].info for node in trace)


def _span_roots(trace, flag):
    """(id, path) of every node whose info has ``flag`` and whose parent's has not.

    A path is the (mask, bit) constraints from the root to the node.
    """
    paths = []
    for node in trace:
        parent = node.parent_id
        paths.append(() if parent is None else paths[parent] + ((trace[parent].mask, node.branch),))
        if node.info.get(flag) and (parent is None or not trace[parent].info.get(flag)):
            yield node.node_id, paths[-1]


def _check_span_subtrees(f, tree, trace, flag) -> Tuple[int, int]:
    """Each span-query subtree of a build against ``span_tree_oracle`` on its restriction.

    Returns how many of them start at a frame with a shift, and how many at
    one where some query's fold bit differs from its answer.
    """
    shifted = flipped = 0
    for i, path in _span_roots(trace, flag):
        queries = []
        while trace[i + len(queries)].mask is not None:  # the leftmost path asks them all
            queries.append(trace[i + len(queries)].mask)
        node = trace[i]
        rows, root = span_tree_oracle(f, queries, path, node.parent_id, node.branch, start=i)
        assert _rows(trace[i : i + len(rows)]) == rows, (f, i)
        subtree = tree.root
        for _, bit in path:
            subtree = subtree.child1 if bit else subtree.child0
        assert tree_to_dict(Pdt(f.n, subtree)) == {"n": f.n, "root": root}
        g = restrict_affine(f, [AffineConstraint(m, b) for m, b in path])
        assert len(queries) == len(span_basis_oracle(g.table))
        frame = _Frame.identity(f.n)
        for mask, bit in path:
            frame = frame.branches(frame.pullback(mask))[frame.fold_bit(mask, bit)]
        shifted += frame.shift != 0
        flipped += any(frame.fold_bit(q, 0) for q in queries)
    return shifted, flipped


@pytest.mark.parametrize("budget", [1, 5])
def test_degree_reduce_fallback_subtrees_match_span_tree_oracle(budget):
    # each fallback subtree, also where it starts below a round, against the
    # oracle on its restriction; at some of those nodes the frame is shifted
    shifted = 0
    for d, n, seed in itertools.product((2, 3, 4), range(3, 9), range(1, 7)):
        if d <= n:
            f = generate(FamilySpec("random_poly", {"n": n, "d": d, "seed": seed}))
            tree, trace = build_degree_reduce(f, max_candidates=budget)
            shifted += _check_span_subtrees(f, tree, trace, "fallback")[0]
    assert shifted


def test_span_subtrees_below_flipping_frames():
    # _grow asks a few random masks, then span-query takes each node below
    # them.  There some frames turn an answer into the other fold bit, which
    # no degree-reduce fallback has been seen to reach.
    rng = np.random.default_rng(25)
    flipped = 0
    for n, seed in itertools.product(range(3, 9), (1, 2, 3)):
        f = generate(FamilySpec("random_poly", {"n": n, "d": 3, "seed": seed}))
        prefix = []
        while len(prefix) < min(3, n - 1):
            q = int(rng.integers(1, 1 << n))
            if _independent(prefix + [q]):
                prefix.append(q)

        def choose(spec, frame, depth):
            if depth < len(prefix):
                return prefix[depth], frame.pullback(prefix[depth]), {}, depth + 1
            return pdt_module._SPAN, None, {"span": True}, None

        tree, trace = pdt_module._grow(to_pm_spectrum(wht(f)), choose, 0)
        assert pdt_check(f, tree).correct
        flipped += _check_span_subtrees(f, tree, trace, "span")[1]
    assert flipped


def test_span_query_bent_ip_16():
    f = generate(FamilySpec("bent_ip", {"k": 16}))
    tree, trace = build_span_query(f)
    assert len(trace) == 131_071
    report = pdt_check(f, tree)
    assert report.correct and report.depth == 16


def test_degree_reduce_tree_and2_frozen():
    tree, trace = build_degree_reduce(AND2)
    assert tree_to_dict(tree) == {
        "n": 2,
        "root": {
            "query": "10",
            "child0": {"value": 0},
            "child1": {
                "query": "01",
                "child0": {"value": 0},
                "child1": {"value": 1},
            },
        },
    }
    assert not any(node.info.get("fallback") for node in trace.nodes)


def test_degree_reduce_span_fallback_tiny_budget():
    # A five-candidate budget sends these builds down the span-query
    # fallback below the root, where the span basis must be pulled back
    # through each level's frame (it used to raise DimensionMismatch).
    for n in range(5, 8):
        for seed in range(1, 40):
            f = generate(FamilySpec("random_poly", {"n": n, "d": 3, "seed": seed}))
            tree, trace = build_degree_reduce(f, max_candidates=5)
            assert pdt_check(f, tree).correct, (n, seed)
            fallback = [node for node in trace.nodes if node.info.get("fallback")]
            assert fallback, (n, seed)
            # one annotation dict per distinct value, shared by every node
            # that carries it, fallback subtrees of one round included
            infos = [node.info for node in trace.nodes]
            values = {tuple(info.items()) for info in infos}
            assert len({id(info) for info in infos}) == len(values)


def test_build_trace_nodes_view():
    tree, trace = build_greedy_l1(IP4)
    nodes = trace.nodes
    assert nodes is trace
    assert len(nodes) == tree.size()
    listed = list(nodes)
    assert [node.node_id for node in listed] == list(range(len(nodes)))
    assert nodes[0] == listed[0] and nodes[0].parent_id is None and nodes[0].branch is None
    assert nodes[-1] == listed[-1] == nodes[len(nodes) - 1]
    assert nodes[1:4] == listed[1:4] and nodes[::-2] == listed[::-2]
    for index in (len(nodes), -len(nodes) - 1):
        with pytest.raises(IndexError):
            nodes[index]
    for node in listed[1:]:
        parent = nodes[node.parent_id]
        assert parent.mask is not None and node.branch in (0, 1)
    leaves = [node for node in listed if node.mask is None]
    assert len(leaves) == tree.num_leaves()
    with pytest.raises(TypeError):
        nodes[0] = listed[0]


def test_build_trace_column_overflow_raises():
    # Columns are as narrow as the bounds at n allow; the widest is l1_num
    # <= 2^(1.5n) <= 2^36 at N_MAX, on int64.  A value that does not fit is
    # refused, never wrapped, and the trace keeps its earlier nodes.
    trace = BuildTrace(n=24)
    trace.add(parent_id=None, branch=None, mask=1, l0=1, l1_num=1 << 36, info={})
    with pytest.raises(OverflowError):
        trace.add(parent_id=0, branch=0, mask=None, l0=1, l1_num=1 << 63, info={})
    trace.add(parent_id=0, branch=1, mask=None, l0=1, l1_num=(1 << 63) - 1, info={})
    small = BuildTrace(n=4)
    with pytest.raises(OverflowError):
        small.add(parent_id=None, branch=None, mask=1 << 40, l0=1, l1_num=16, info={})
    assert [(node.parent_id, node.branch, node.l1_num) for node in trace.nodes] == [
        (None, None, 1 << 36),
        (0, 1, (1 << 63) - 1),
    ]
    assert len(small.nodes) == 0


def test_build_trace_extend_matches_add():
    # nodes appended by column read back as the same nodes added one by one,
    # and a value out of range at any column leaves the trace as it was
    rows = [(-1, -1, 3, 4, 64), (0, 0, 1, 2, 32), (1, 0, -1, 1, 16), (1, 1, -1, 1, 16)]
    one, by_column = BuildTrace(n=4), BuildTrace(n=4)
    for parent, branch, mask, l0, l1 in rows:
        one.add(parent if parent >= 0 else None, branch if branch >= 0 else None,
                mask if mask >= 0 else None, l0, l1, info={"a": 1})
    by_column.extend(np.array(rows, dtype=np.int64).T, info={"a": 1})
    assert list(by_column) == list(one)
    for column in range(5):
        bad = np.array(rows, dtype=np.int64).T.copy()
        bad[column, -1] = 1 << 40
        with pytest.raises(OverflowError):
            by_column.extend(bad, info={"b": 2})
        assert list(by_column) == list(one)
        assert {tuple(node.info.items()) for node in by_column} == {(("a", 1),)}


def test_builders_ip4_shapes():
    depths = [b(IP4)[0].depth() for b in BUILDERS]
    assert depths == [3, 3, 4, 3]
    for b in BUILDERS:
        assert pdt_check(IP4, b(IP4)[0]).correct


# ---------------------------------------------------------------------------
# pdt_check and evaluation.


@settings(max_examples=50, deadline=None)
@given(functions(6))
def test_builders_correct_random(f):
    for builder in BUILDERS:
        tree, _ = builder(f)
        report = pdt_check(f, tree)
        assert report.correct
        assert report.first_mismatch is None
        # sparsity vs depth: l0 <= 4^depth
        assert wht(f).l0() <= 4 ** report.depth


def test_pdt_check_detects_mismatch():
    tree, _ = build_greedy_l1(AND2)
    g = BooleanFunction(2, [1, 0, 0, 1])
    report = pdt_check(g, tree)
    assert not report.correct
    assert report.first_mismatch == 0  # g(0) = 1, tree says 0


def test_pdt_eval_walks_constraints():
    tree, _ = build_greedy_l1(AND2)
    for x in range(4):
        assert pdt_eval(tree, x) == AND2.value(x)


def test_validate_rejects_dependent_path():
    # same query twice on a path
    inner = PdtNode(1, PdtLeaf(0), PdtLeaf(1))
    with pytest.raises(InvalidTree):
        Pdt(2, PdtNode(1, inner, PdtLeaf(0))).validate()
    # paths 1, 2, 4 under child0; child1 repeats them (valid) or asks
    # 1, 2, 1^2 (dependent): the walk must backtrack its echelon state
    valid = PdtNode(2, PdtNode(4, PdtLeaf(0), PdtLeaf(1)), PdtLeaf(0))
    Pdt(3, PdtNode(1, valid, valid)).validate()
    dependent = PdtNode(2, PdtNode(3, PdtLeaf(0), PdtLeaf(1)), PdtLeaf(1))
    with pytest.raises(InvalidTree):
        Pdt(3, PdtNode(1, valid, dependent))


def test_depth_size_leaves():
    tree, _ = build_greedy_l1(AND2)
    assert tree.depth() == 2
    assert tree.size() == 5
    assert tree.num_leaves() == 3
    paths = list(tree.leaf_paths())
    assert len(paths) == 3
    for constraints, value in paths:
        g = restrict_affine(AND2, list(constraints))
        assert g.is_constant() and int(g.table[0]) == value


# ---------------------------------------------------------------------------
# Exact rank.


def test_rank_and2_frozen():
    result = rank_exact(AND2)
    assert result.rank == 1
    assert [(c.mask, c.bit) for c in result.witness] == [(1, 0)]


def test_rank_ip4_frozen():
    result = rank_exact(IP4)
    assert result.rank == 2
    assert [(c.mask, c.bit) for c in result.witness] == [(1, 0), (4, 0)]


@settings(max_examples=40, deadline=None)
@given(functions(4))
def test_rank_matches_bruteforce_oracle(f):
    assume(not f.is_constant())
    expect = rank_oracle(list(f.table), max_codim=f.n)
    got = rank_exact(f, max_codim=f.n)
    assert got.rank == expect
    # witness really drops the degree
    g = restrict_affine(f, list(got.witness))
    assert deg2(g) < deg2(f)
    # the search tests the coset through 0 only (test_degree_drop_is_shift_free)
    assert all(c.bit == 0 for c in got.witness)
    assert [c.mask for c in got.witness] == degree_reducing_subspace(f, max_codim=f.n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_degree_drop_is_shift_free(data):
    # The lemma rank_exact and degree_reducing_subspace rest on: the degree
    # drops on one coset of a subspace exactly when it drops on every coset.
    n = data.draw(st.integers(1, 6))
    table = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    k = data.draw(st.integers(1, n))
    masks = data.draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k, unique=True)
    )
    assume(_independent(masks))
    d = deg_oracle(table)
    drops = [
        deg_oracle(subspace_table(table, list(zip(masks, bits)))) < d
        for bits in itertools.product((0, 1), repeat=k)
    ]
    assert drops == [drops[0]] * len(drops)


def _all_bases(n, k):
    """The rows of every canonical basis of the k-dim mask spaces."""
    return pdt_module._Bases(n, k).take(1 << 20)


def _subspaces(n, k):
    """[n k]_2 by the recurrence [n k] = [n-1 k-1] + 2^k [n-1 k]."""
    if k == 0 or k == n:
        return 1
    if not 0 < k < n:
        return 0
    return _subspaces(n - 1, k - 1) + (1 << k) * _subspaces(n - 1, k)


@pytest.mark.parametrize("n", range(1, 6))
def test_rref_frames_are_kernels_with_oracle_verdicts(n):
    # Every candidate the search can examine at this n: its kernel points
    # are the 2^(n-k) distinct points of the kernel of its rows, and the
    # batched verdict on them is the brute-force one.
    fs = [generate(FamilySpec("random_poly", {"n": n, "d": d, "seed": seed}))
          for d in range(1, min(n, 3) + 1) for seed in (1, 2)]
    fs = [f for f in fs if not f.is_constant()]
    assert fs
    tables = [[int(v) for v in f.table] for f in fs]
    degrees = [deg_oracle(t) for t in tables]
    for k in range(1, n + 1):
        rows = _all_bases(n, k)
        points = pdt_module._kernel_points(rows, n)
        assert points.shape == (1 << (n - k), len(rows))
        verdicts = []
        for f, d in zip(fs, degrees):
            heavy = np.flatnonzero(popcounts(n - k) >= d)
            verdicts.append(pdt_module._drops(f.table, points, heavy).tolist())
        for i, masks in enumerate(rows.tolist()):
            listed = points[:, i].tolist()
            assert len(set(listed)) == 1 << (n - k)
            assert all(dot(t, x) == 0 for t in masks for x in listed)
            constraints = [(t, 0) for t in masks]
            for table, d, got in zip(tables, degrees, verdicts):
                expect = deg_oracle(subspace_table(table, constraints)) < d
                assert got[i] == expect, (masks, table)


@pytest.mark.parametrize("n", range(1, 7))
def test_rref_bases_are_the_reference_sequence(n):
    # The bases come out of the walk's concatenated runs in pieces of any
    # size, the first chunk sizes of the search among them; together they
    # are the reference sequence.
    sizes = itertools.cycle((1, 16, 3, 32, 64, 1000, 7))
    for k in range(1, n + 1):
        bases = pdt_module._Bases(n, k)
        rows = []
        while len(got := bases.take(next(sizes))):
            rows += map(tuple, got.tolist())
        assert rows == list(rref_bases_reference(n, k))


@pytest.mark.parametrize("n", range(1, 8))
def test_bases_per_level_count_the_subspaces(n):
    for k in range(1, n + 1):
        assert len(_all_bases(n, k)) == _subspaces(n, k) == pdt_module._subspace_count(n, k)


_FIRST_DROP_CASES = [("random_poly", {"n": n, "d": min(n, 3), "seed": 1}) for n in range(2, 9)] + [
    ("bent_ip", {"k": 4}),
    ("bent_ip", {"k": 6}),
    ("majority", {"n": 5}),
    ("majority", {"n": 7}),
    ("random_poly", {"n": 13, "d": 3, "seed": 1}),
] + [("random_poly", {"n": n, "d": 2, "seed": 1}) for n in range(4, 9)] + [
    ("bent_ip", {"k": 8}),
]


@pytest.mark.parametrize("kind,params", _FIRST_DROP_CASES)
def test_first_drop_matches_per_candidate_reference(kind, params):
    # Chunks keep the candidate order and stop at the budget, so the batched
    # search returns the same first witness and the same NotFound text as
    # testing one candidate at a time, across chunk boundaries (16, 32, ...).
    # Quadratics start at their Dickson rank and are charged each skipped
    # level whole, so the budgets also sit on the first two level
    # boundaries, [n 1] and [n 1] + [n 2], and one either side.
    f = generate(FamilySpec(kind, params))

    def outcome(search, max_codim, budget):
        try:
            return search(f, max_codim, budget)
        except (NotFound, TooLarge) as exc:
            return f"{type(exc).__name__}: {exc}"

    levels = [_subspaces(f.n, 1), _subspaces(f.n, 1) + _subspaces(f.n, 2)]
    edges = [b + e for b in levels for e in (-1, 0, 1)]
    for max_codim in (0, 1, 2, 3, 4, 6):
        for budget in [None, 0, 1, 15, 16, 17, 31, 32, 33, 100, 50_000] + edges:
            got = outcome(pdt_module._first_drop, max_codim, budget)
            assert got == outcome(first_drop_reference, max_codim, budget), (max_codim, budget)


@st.composite
def quadratics(draw, max_n):
    """A function of degree exactly 2 on 2..max_n variables, from a random ANF."""
    n = draw(st.integers(2, max_n))
    pairs = [1 << i | 1 << j for j in range(n) for i in range(j)]
    quadratic = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    affine = draw(st.lists(st.sampled_from([0] + [1 << i for i in range(n)]), unique=True))
    return anf_to_function(ANF(n, frozenset(quadratic + affine)))


@settings(max_examples=40, deadline=None)
@given(functions(4))
def test_dickson_start_is_at_most_the_rank(f):
    assume(not f.is_constant())
    start = pdt_module._first_codim(f, deg2(f))
    assert start <= rank_oracle(list(f.table), max_codim=f.n)


@settings(max_examples=40, deadline=None)
@given(quadratics(6))
def test_dickson_start_is_the_rank_of_a_quadratic(f):
    # the per-candidate reference walks every codimension from 1
    start = pdt_module._first_codim(f, 2)
    assert start == rank_exact(f, max_codim=f.n).rank
    assert start == len(first_drop_reference(f, f.n, None))


def test_quadratic_search_walks_only_its_dickson_level(monkeypatch):
    # random_poly(10,2,1) has rank 5: the 60,266,976 candidates of codim <= 4
    # are charged to the budget, and only codim 5 is walked
    f = generate(FamilySpec("random_poly", {"n": 10, "d": 2, "seed": 1}))
    bases = pdt_module._Bases

    def walk_codim_5_only(n, k):
        assert k == 5, f"codim {k} walked"
        return bases(n, k)

    monkeypatch.setattr(pdt_module, "_Bases", walk_codim_5_only)
    assert rank_exact(f, max_codim=5, max_candidates=10**8).rank == 5
    with pytest.raises(NotFound, match="candidate budget 60266975 exhausted at codim 4"):
        rank_exact(f, max_codim=5, max_candidates=60_266_975)


def test_rank_witness_order_is_ascending_tuple():
    # IP4's first codim-2 basis in ascending-tuple order is (1, 4)
    result = rank_exact(IP4)
    assert tuple(c.mask for c in result.witness) == (1, 4)


def test_rank_errors():
    with pytest.raises(ConstantInput):
        rank_exact(BooleanFunction(2, [1, 1, 1, 1]))
    with pytest.raises(NotFound):
        rank_exact(IP4, max_codim=1)
    with pytest.raises(TooLarge):
        rank_exact(BooleanFunction.from_int(13, 1), max_codim=1)


@pytest.mark.parametrize("search", [rank_exact, degree_reducing_subspace])
def test_rank_candidate_budget(search):
    with pytest.raises(NotFound, match="candidate budget 1 exhausted at codim 1"):
        search(IP4, max_codim=2, max_candidates=1)
    # IP4 has 15 codim-1 candidates, none of which drops its degree
    with pytest.raises(NotFound, match="candidate budget 16 exhausted at codim 2"):
        search(IP4, max_codim=2, max_candidates=16)
    with pytest.raises(NotFound, match="no degree drop within codimension 1"):
        search(IP4, max_codim=1)


# ---------------------------------------------------------------------------
# Degree-reducing subspaces and the degree-reduce builder.


def test_degree_reducing_subspace_frozen():
    assert degree_reducing_subspace(AND2) == [1]
    assert degree_reducing_subspace(IP4) == [1, 4]


@settings(max_examples=30, deadline=None)
@given(functions(4))
def test_degree_reducing_subspace_all_cosets(f):
    assume(deg2(f) >= 1)
    masks = degree_reducing_subspace(f)
    d = deg2(f)
    for bits in itertools.product((0, 1), repeat=len(masks)):
        g = restrict_affine(
            f, [AffineConstraint(m, b) for m, b in zip(masks, bits)]
        )
        assert deg2(g) < d


@settings(max_examples=30, deadline=None)
@given(functions(5))
def test_degree_reduce_round_structure(f):
    assume(not f.is_constant())
    tree, trace = build_degree_reduce(f)
    assert pdt_check(f, tree).correct
    rounds = [
        node.info["round"] for node in trace.nodes if "round_queries" in node.info
    ]
    assert len(set(rounds)) <= deg2(f)


DEGREE_SEARCH_FROZEN = json.loads(
    (Path(__file__).parent / "data" / "degree_search_frozen.json").read_text()
)


@pytest.mark.parametrize("label", sorted(DEGREE_SEARCH_FROZEN))
def test_degree_search_frozen(label):
    # random_poly at n = 5..8 with the default searches, and one build whose
    # five-candidate budget sends subtrees below the root to the fallback
    entry = DEGREE_SEARCH_FROZEN[label]
    f = generate(FamilySpec("random_poly", entry["params"]))
    n, budget = f.n, entry["max_candidates"]
    if budget is None:
        result = rank_exact(f)
        witness = [[mask_to_string(c.mask, n), c.bit] for c in result.witness]
        assert [result.rank, witness] == entry["rank"]
        subspace = degree_reducing_subspace(f)
        assert [mask_to_string(m, n) for m in subspace] == entry["subspace"]
        tree, trace = build_degree_reduce(f)
    else:
        tree, trace = build_degree_reduce(f, max_candidates=budget)
    assert tree_to_dict(tree) == entry["tree"]
    plain_trace = [
        [node.parent_id, node.branch, None if node.mask is None else mask_to_string(node.mask, n),
         node.l0, node.l1_num, node.info]
        for node in trace.nodes
    ]
    assert plain_trace == entry["trace"]


# ---------------------------------------------------------------------------
# Certificates.


def test_greedy_cert_and2_frozen():
    cert = cert_greedy_l1(AND2)
    assert [(c.mask, c.bit) for c in cert.constraints] == [(2, 0)]
    assert cert.value == 0
    assert cert.codim == 1


def test_greedy_cert_ip4_frozen():
    cert = cert_greedy_l1(IP4)
    assert [(c.mask, c.bit) for c in cert.constraints] == [(8, 0), (2, 0)]
    assert cert.value == 0
    assert certificate_check(IP4, cert)


@settings(max_examples=60, deadline=None)
@given(functions(6))
def test_greedy_cert_valid_and_bounded(f):
    assume(not f.is_constant())
    cert = cert_greedy_l1(f)
    assert certificate_check(f, cert)
    # codim <= 4*l1(f_pm) + 2, checked exactly over the common denominator
    l1pm = to_pm_spectrum(wht(f)).l1_num()
    assert cert.codim << f.n <= 4 * l1pm + (2 << f.n)


def test_norm_halving_ip4_frozen():
    cert = cert_norm_halving(IP4)
    assert [(c.mask, c.bit) for c in cert.constraints] == [(8, 0), (2, 0)]
    assert cert.value == 0


def test_norm_halving_f5_trace_frozen():
    # f = x1 x2 x3 + x4 x5: outer iterations fold 160 -> 80 -> 32 (over 2^5)
    table = [((x & 1) & ((x >> 1) & 1) & ((x >> 2) & 1)) ^ (((x >> 3) & 1) & ((x >> 4) & 1)) for x in range(32)]
    f = BooleanFunction(5, table)
    cert, steps = cert_norm_halving_with_trace(f)
    assert certificate_check(f, cert)
    assert [(s.l1_before, s.l1_after) for s in steps] == [(160, 80), (80, 32)]
    for s in steps:
        assert 2 * s.l1_after <= s.l1_before
        assert s.l1_split[0] + s.l1_split[1] == s.l1_before


def _on_first_three_of_seven(g: BooleanFunction) -> BooleanFunction:
    """g, a function of x1..x3, as a function on n = 7 that ignores x4..x7."""
    return BooleanFunction(7, g.table[np.arange(1 << 7) & 7])


@settings(max_examples=50, deadline=None)
@given(st.one_of(functions(7, min_n=3), functions(3, min_n=3).map(_on_first_three_of_seven)))
def test_norm_halving_first_direction_is_lex_least(f):
    # on the padded inputs the 15 masks on x4..x7 come first, all constant
    assume(deg2(f) >= 3)
    _, steps = cert_norm_halving_with_trace(f)
    size = 1 << f.n
    table = [int(v) for v in f.table]
    nonconstant = [
        u for u in range(1, size) if len({table[x] ^ table[x ^ u] for x in range(size)}) == 2
    ]
    assert steps[0].derivative_mask == min(nonconstant, key=lambda u: x1_first_string(u, f.n))


@settings(max_examples=50, deadline=None)
@given(functions(6))
def test_norm_halving_valid_and_halves(f):
    assume(not f.is_constant())
    cert, steps = cert_norm_halving_with_trace(f)
    assert certificate_check(f, cert)
    for s in steps:
        assert 2 * s.l1_after <= s.l1_before


SPECTRAL_FROZEN = json.loads((Path(__file__).parent / "data" / "spectral_frozen.json").read_text())


def _lifted(entry) -> BooleanFunction:
    """random_poly on the first k coordinates, composed with the stored map."""
    n, params = entry["n"], entry["params"]
    inner = generate(FamilySpec("random_poly", params))
    f = BooleanFunction(n, inner.table[np.arange(1 << n) & ((1 << params["n"]) - 1)])
    return apply_linear(f, LinearMap(Gf2Matrix(entry["rows"], n)))


@pytest.mark.parametrize("label", sorted(SPECTRAL_FROZEN))
def test_spectral_outputs_frozen(label):
    # sparse lifted inputs at n = 12..14; three of the four run the halving loop
    entry = SPECTRAL_FROZEN[label]
    f = _lifted(entry)
    certs = plain_certs(f)
    assert certs["norm_halving"] == entry["norm_halving"]
    assert certs["greedy_l1"] == entry["greedy_l1"]
    tree, trace = build_span_query(f)
    assert tree_to_dict(tree) == entry["span_query"]["tree"]
    assert [[node.l0, node.l1_num] for node in trace.nodes] == entry["span_query"]["trace"]


CERT_FROZEN = json.loads((Path(__file__).parent / "data" / "cert_frozen.json").read_text())
CERT_CORPUS = dict(cert_corpus())


@pytest.mark.parametrize("label", list(CERT_CORPUS))
def test_certificates_frozen(label):
    # both certificates, with norm-halving's steps, on random_poly at n = 3..10 and two families
    assert plain_certs(CERT_CORPUS[label]) == CERT_FROZEN[label]


@pytest.mark.parametrize("n", range(2, 11))
def test_greedy_cert_is_a_path_of_the_greedy_tree(n):
    # each constraint's mask is the node's query and its bit picks the child,
    # down to a leaf holding the certificate's value
    for d in range(2, min(4, n) + 1):
        for seed in range(1, 6):
            f = generate(FamilySpec("random_poly", {"n": n, "d": d, "seed": seed}))
            cert = cert_greedy_l1(f)
            node = build_greedy_l1(f)[0].root
            for c in cert.constraints:
                assert isinstance(node, PdtNode) and node.mask == c.mask
                node = node.child1 if c.bit else node.child0
            assert node == PdtLeaf(cert.value)


def test_one_transform_per_call(monkeypatch):
    (f,) = [_lifted(e) for e in SPECTRAL_FROZEN.values() if e["n"] == 12]
    assert deg2(f) == 3
    # every builder transforms f through _wht_sums and makes its +/-1
    # spectrum from the sums; span-query and degree-reduce gate the support
    # there before any dict is built.  A call of wht would be a second one.
    calls = []
    real_wht, real_sums = pdt_module.wht, pdt_module._wht_sums
    monkeypatch.setattr(pdt_module, "wht", lambda g: calls.append(g.n) or real_wht(g))
    monkeypatch.setattr(
        pdt_module, "_wht_sums", lambda t, **kw: calls.append(t.size) or real_sums(t, **kw)
    )
    for build in (build_greedy_l1, build_heavy_hitter, build_span_query, cert_greedy_l1):
        calls.clear()
        build(f)
        assert len(calls) == 1, build.__name__
    calls.clear()
    _, steps = cert_norm_halving_with_trace(f)
    # the input's transform, then one per outer iteration for its derivative
    assert len(steps) == 2
    assert len(calls) == 1 + len(steps)
    # degree-reduce folds the root spectrum for its trace and its fallback
    g = generate(FamilySpec("random_poly", {"n": 7, "d": 3, "seed": 1}))
    for budget in (pdt_module.DEGREE_SEARCH_BUDGET, 5):
        calls.clear()
        build_degree_reduce(g, max_candidates=budget)
        assert len(calls) == 1, budget


def test_norm_halving_takes_one_derivative_per_step(monkeypatch):
    calls = []
    real_derivative = pdt_module.derivative
    monkeypatch.setattr(
        pdt_module, "derivative", lambda g, t: calls.append(t) or real_derivative(g, t)
    )
    (lifted,) = [_lifted(e) for e in SPECTRAL_FROZEN.values() if e["n"] == 12]
    # at n = 8 and 10 the cubic ignores 5 and 7 variables: no scan over their masks
    cubics = [parse_function_spec(f"anf:{n}:x1*x2*x3") for n in (8, 10)]
    for f in (*cubics, lifted):
        calls.clear()
        _, steps = cert_norm_halving_with_trace(f)
        assert steps
        assert len(calls) == len(steps)


def _frame_chain(f, data):
    """Restrict f's +/-1 spectrum and frame along two random constraint lists.

    Each list holds original constraints drawn independent of every one
    before it.  Returns (spectrum, frame, all the constraints applied).
    """
    spec, frame = to_pm_spectrum(wht(f)), pdt_module._Frame.identity(f.n)
    recorded = []
    for _ in range(2):
        more = []
        for q in data.draw(st.lists(st.integers(1, (1 << f.n) - 1), max_size=frame.m)):
            masks = [c.mask for c in recorded + more]
            if _independent(masks + [q]):
                more.append(AffineConstraint(q, data.draw(st.integers(0, 1))))
        for c in more:
            t = frame.pullback(c.mask)
            spec, frame = pdt_module._child(spec, frame, c.mask, t, c.bit)
        recorded += more
    return spec, frame, recorded


@settings(max_examples=60, deadline=None)
@given(functions(8), st.data())
def test_frame_restriction_matches_restrict_affine(f, data):
    spec, frame, recorded = _frame_chain(f, data)
    g = frame.restriction(f)
    assert g == restrict_affine(f, recorded)
    assert spec.values_equal(to_pm_spectrum(wht(g)))


@settings(max_examples=60, deadline=None)
@given(functions(6), st.data())
def test_query_mask_is_the_dual_xor_on_the_pivots(f, data):
    _, frame, _ = _frame_chain(f, data)
    for i, d in enumerate(frame.dual):
        assert [dot(d, v) for v in frame.basis] == [int(i == j) for j in range(frame.m)]
    for t in range(1, 1 << frame.m):
        assert frame.query_mask(t) == query_mask_oracle(frame.basis, t)


@settings(max_examples=60, deadline=None)
@given(functions(8), st.data())
def test_anchored_greedy_fold_holds_at_anchor(f, data):
    spec, frame, recorded = _frame_chain(f, data)
    points = frame.points()
    anchor = int(points[data.draw(st.integers(0, points.size - 1))])
    constraints, value = pdt_module._greedy_path(spec, frame, anchor)
    assert all(dot(c.mask, anchor) == c.bit for c in constraints)
    assert value == f.value(anchor)
    assert certificate_check(f, Certificate(tuple(recorded + constraints), value))


@settings(max_examples=50, deadline=None)
@given(functions(5))
def test_rank_below_cert_codims(f):
    assume(not f.is_constant())
    r = rank_exact(f, max_codim=f.n).rank
    assert r <= cert_greedy_l1(f).codim
    assert r <= cert_norm_halving(f).codim


def test_cert_constant_input():
    with pytest.raises(ConstantInput):
        cert_greedy_l1(BooleanFunction(1, [0, 0]))
    with pytest.raises(ConstantInput):
        cert_norm_halving(BooleanFunction(1, [1, 1]))


def test_certificate_check_rejects_wrong_value():
    cert = Certificate((AffineConstraint(2, 0),), 1)
    assert not certificate_check(AND2, cert)


# ---------------------------------------------------------------------------
# Green-Sanders decomposition.


def _eval_terms(terms, x, n):
    total = 0
    for sign, masks in terms:
        if all(parity(m & x) == 0 for m in masks):
            total += sign
    return total


def test_green_sanders_and2_frozen():
    tree, _ = build_greedy_l1(AND2)
    terms = green_sanders_decompose(tree, AND2)
    # single 1-leaf with constraints x2=1, x1=1 -> two signed linear terms
    assert len(terms) == 2
    assert terms[0][0] == 1 and terms[1][0] == -1
    for x in range(4):
        assert _eval_terms(terms, x, 2) == AND2.value(x)


@settings(max_examples=40, deadline=None)
@given(functions(5))
def test_green_sanders_sums_pointwise(f):
    tree, _ = build_greedy_l1(f)
    terms = green_sanders_decompose(tree, f)
    assert len(terms) <= 2 ** (tree.depth() + 1)
    for x in range(1 << f.n):
        assert _eval_terms(terms, x, f.n) == f.value(x)


def test_green_sanders_rejects_wrong_tree():
    tree, _ = build_greedy_l1(AND2)
    with pytest.raises(InvalidTree):
        green_sanders_decompose(tree, BooleanFunction(2, [1, 0, 0, 1]))


# ---------------------------------------------------------------------------
# Serialization.


def test_tree_roundtrip():
    for builder in BUILDERS:
        tree, _ = builder(IP4)
        again = tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))))
        assert tree_to_dict(again) == tree_to_dict(tree)


def test_tree_from_dict_validation():
    with pytest.raises(InvalidTree):
        tree_from_dict({"n": 2})
    with pytest.raises(InvalidTree):
        tree_from_dict({"n": 2, "root": {"value": 7}})
    with pytest.raises(InvalidTree):
        tree_from_dict({"n": 2, "root": {"query": "0", "child0": {"value": 0}, "child1": {"value": 1}}})
    with pytest.raises(InvalidTree):
        tree_from_dict({"n": 2, "root": {"query": "01", "child0": {"value": 0}}})
    # keys tree.schema.json forbids
    leaf = {"value": 0}
    with pytest.raises(InvalidTree):
        tree_from_dict({"n": 2, "root": leaf, "extra": 1})
    with pytest.raises(InvalidTree):
        tree_from_dict({"n": 2, "root": {**leaf, "query": "01", "child0": leaf, "child1": leaf}})
    with pytest.raises(InvalidTree):
        tree_from_dict({"n": 2, "root": {"value": 0, "note": 1}})
    # n outside 0..N_MAX is refused before anything is sized by it
    for n in (-1, 25, 10**12):
        with pytest.raises(InvalidTree, match=f"invalid n {n}"):
            tree_from_dict({"n": n, "root": {"value": 0}})


def test_dot_output_frozen():
    tree, _ = build_greedy_l1(AND2)
    dot = tree_to_dot(tree)
    assert dot == (
        "digraph pdt {\n"
        '  n0 [shape=box, label="01"];\n'
        '  n1 [shape=circle, label="0"];\n'
        '  n0 -> n1 [label="0"];\n'
        '  n2 [shape=box, label="10"];\n'
        '  n3 [shape=circle, label="0"];\n'
        '  n2 -> n3 [label="0"];\n'
        '  n4 [shape=circle, label="1"];\n'
        '  n2 -> n4 [label="1"];\n'
        '  n0 -> n2 [label="1"];\n'
        "}\n"
    )


def test_rank_too_large_guard():
    with pytest.raises(TooLarge):
        rank_exact(BooleanFunction.from_int(13, 3), max_codim=1)


def test_span_gate_shared_by_degree_reduce_fallback():
    # the search refuses n = 21, so degree-reduce falls back to span queries
    # at the root, under the same 2^20-leaf gate as span-query itself
    f = BooleanFunction(21, addressing21_table())
    assert wht(f).l0() == 1024
    messages = []
    for build in (build_span_query, build_degree_reduce):
        with pytest.raises(TooLarge) as exc:
            build(f)
        messages.append(str(exc.value))
    assert messages == ["span dimension 21 would need 2^21 leaves"] * 2


def test_span_gate_refuses_a_large_support_before_the_scan(monkeypatch):
    # bent_ip(20) XOR x21: 2^20 nonzero masks, all with bit 21 set.  So many
    # masks span more than 20 dimensions, and the gate refuses them without
    # the sort and the greedy scan of the support, which take seconds here.
    def scan(rows):
        raise AssertionError("the support was scanned")

    monkeypatch.setattr(pdt_module, "_greedy_coords", scan)
    g = generate(FamilySpec("bent_ip", {"k": 20}))
    f = BooleanFunction(21, np.concatenate([g.table, 1 - g.table]))
    start = time.perf_counter()
    with pytest.raises(TooLarge) as exc:
        build_span_query(f)
    assert time.perf_counter() - start < 10
    assert str(exc.value) == "span dimension more than 20 would need more than 2^20 leaves"


@pytest.mark.parametrize("build", [build_span_query, build_degree_reduce])
def test_span_gate_refuses_from_the_transform(monkeypatch, build):
    # the same input: the root's character sums are counted before wht
    # builds a dict, so no spectrum of 2^20 entries is made; degree-reduce's
    # root is a span-query fallback at this n
    def dict_built(*args):
        raise AssertionError("a spectrum dict was built")

    monkeypatch.setattr(Spectrum, "_from_clean", classmethod(dict_built))
    g = generate(FamilySpec("bent_ip", {"k": 20}))
    f = BooleanFunction(21, np.concatenate([g.table, 1 - g.table]))
    with pytest.raises(TooLarge) as exc:
        build(f)
    assert str(exc.value) == "span dimension more than 20 would need more than 2^20 leaves"


@pytest.mark.parametrize("leaves", [1, 2, 3, 4, 8])
def test_span_gate_counts_the_pm_support_off_zero(monkeypatch, leaves):
    # the sums gate refuses exactly the inputs the spectrum gate would
    monkeypatch.setattr(pdt_module, "_SPAN_LEAVES", leaves)
    for f in (AND2, IP4, BooleanFunction(3, [0] * 8), BooleanFunction(3, [1] * 8),
              generate(FamilySpec("majority", {"n": 3}))):
        pm = to_pm_spectrum(wht(f))
        refused = pm.l0() - (0 in pm.coeffs) >= leaves
        for gate in (lambda: pdt_module._span_root_pm(f), lambda: build_span_query(f)):
            try:
                gate()
            except TooLarge:
                assert refused
            else:
                assert not refused


def test_bases_root_is_built_once_per_n():
    pdt_module._ROOTS.pop(6, None)
    first = pdt_module._Bases(6, 2).pending[0]
    assert pdt_module._Bases(6, 3).pending[0] is first
    assert pdt_module._Bases(6, 1).pending[0][0] is first[0]
    assert all(not a.flags.writeable for a in first)
    assert len(first[0]) == (1 << 6) - 1


def test_degree_reduce_beyond_search_limit():
    # x1*x2 on n = 13: the search refuses n > 12 with TooLarge, so the
    # builder answers with the span-query fallback from the root
    n = 13
    f = BooleanFunction(n, ((np.arange(1 << n) & 3) == 3).astype(np.uint8))
    with pytest.raises(TooLarge):
        degree_reducing_subspace(f)
    tree, trace = build_degree_reduce(f)
    assert pdt_check(f, tree).correct
    assert tree.depth() == 2
    assert all(node.info.get("fallback") for node in trace.nodes)
