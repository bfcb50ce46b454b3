"""Acceptance gate: ten end-to-end criteria over the full function corpus.

Each test prints one pass/fail line (bypassing capture) so a plain pytest run
shows the per-criterion verdicts.  Runtime budgets are part of the contract
and asserted where stated.
"""

import json
import sys
import time

import pytest

from boolfourier import (
    AffineConstraint,
    anf_of,
    build_degree_reduce,
    build_greedy_l1,
    build_heavy_hitter,
    build_span_query,
    cert_greedy_l1,
    cert_norm_halving_with_trace,
    certificate_check,
    cli,
    deg2,
    dickson_matrix,
    generate,
    gf2_rank,
    green_sanders_decompose,
    invariant_report,
    matrix_rank_exact,
    pdt_check,
    rank_exact,
    restrict_affine,
    to_pm_spectrum,
    verify_protocol,
    wht,
    xor_matrix,
)
from boolfourier.families import FamilySpec, bent_ip

from helpers import family_corpus, full_corpus, parity, random_corpus

CORPUS = full_corpus()  # labeled pairs, n <= 10
BUILDERS = {
    "greedy-l1": build_greedy_l1,
    "heavy-hitter": build_heavy_hitter,
    "span-query": build_span_query,
    "degree-reduce": build_degree_reduce,
}

# populated by criterion 2, reused by criterion 6
_DEGRED_CACHE = {}

# one verdict line per criterion; conftest echoes these in the terminal summary
ACCEPTANCE_LINES = []


def _report(num: int, violations, detail: str):
    ok = not violations
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    if violations:
        line += f" [{len(violations)} violation(s), first: {violations[0]}]"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, violations[:5]


def test_criterion_01_log_rank_ground_truth():
    small = [(label, f) for label, f in CORPUS if f.n <= 8]
    fams = [(label, f) for label, f in small if not label.startswith("random_poly")]
    rands = [(label, f) for label, f in small if label.startswith("random_poly")]
    violations = []
    if len(fams) < 60:
        violations.append(f"only {len(fams)} family functions at n<=8")
    if len(rands) != 200:
        violations.append(f"expected 200 random polynomials, got {len(rands)}")
    kinds = {label.split("(")[0] for label, _ in small}
    if len(kinds) != 8:
        violations.append(f"families represented: {sorted(kinds)}")
    t0 = time.perf_counter()
    for label, f in small:
        if matrix_rank_exact(xor_matrix(f)) != wht(f).l0():
            violations.append(label)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.1f}s >= 60s budget")
    _report(1, violations,
            f"rank(M_f) == sparsity on {len(small)} functions in {elapsed:.1f}s")


def test_criterion_02_pdt_correctness():
    violations = []
    t0 = time.perf_counter()
    for label, f in CORPUS:
        for name, builder in BUILDERS.items():
            tree, trace = builder(f)
            if name == "degree-reduce":
                _DEGRED_CACHE[label] = (tree, trace)
            if not pdt_check(f, tree).correct:
                violations.append(f"{label}/{name}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        violations.append(f"runtime {elapsed:.1f}s >= 120s budget")
    _report(2, violations,
            f"4 builders x {len(CORPUS)} functions all pass pdt_check "
            f"in {elapsed:.1f}s")


def test_criterion_03_greedy_codim_bound():
    violations = []
    checked = 0
    for label, f in CORPUS:
        if f.is_constant():
            continue
        cert = cert_greedy_l1(f)
        if not certificate_check(f, cert):
            violations.append(f"{label}: invalid certificate")
            continue
        l1pm = to_pm_spectrum(wht(f)).l1_num()  # over denominator 2^n
        if cert.codim << f.n > 4 * l1pm + (2 << f.n):
            violations.append(f"{label}: codim {cert.codim}")
        checked += 1
    _report(3, violations,
            f"codim <= 4*l1(f_pm) + 2 exactly on {checked} non-constant functions")


def test_criterion_04_norm_halving():
    violations = []
    checked = 0
    for label, f in CORPUS:
        if deg2(f) < 3:
            continue
        cert, steps = cert_norm_halving_with_trace(f)
        if not certificate_check(f, cert):
            violations.append(f"{label}: invalid certificate")
        for step in steps:
            if 2 * step.l1_after > step.l1_before:
                violations.append(
                    f"{label}: {step.l1_before} -> {step.l1_after}")
        checked += 1
    _report(4, violations,
            f"l1 numerator halves at every outer iteration on {checked} "
            f"functions with deg2 >= 3")


def test_criterion_05_rank_chain():
    violations = []
    checked = 0
    for label, f in CORPUS:
        if f.is_constant():
            continue
        c_greedy = cert_greedy_l1(f).codim
        c_halving = cert_norm_halving_with_trace(f)[0].codim
        bound = min(c_greedy, c_halving)
        try:
            r = rank_exact(f, max_codim=bound).rank
        except Exception as exc:  # NotFound within the cert codim = violation
            violations.append(f"{label}: {exc}")
            continue
        if r > c_greedy or r > c_halving:
            violations.append(f"{label}: rank {r} vs codims {c_greedy},{c_halving}")
        checked += 1
    for k, expect in ((2, 1), (4, 2), (6, 3)):
        f = bent_ip(k)
        r = rank_exact(f).rank
        d = gf2_rank(dickson_matrix(anf_of(f)).rows) // 2
        if not r == d == expect:
            violations.append(f"bent_ip({k}): rank {r}, dickson/2 {d}")
    _report(5, violations,
            f"rank_exact <= both certificate codims on {checked} functions; "
            f"bent_ip Dickson ranks match")


def _path_constraints(trace_nodes, node):
    by_id = {t.node_id: t for t in trace_nodes}
    cons = []
    cur = node
    while cur.parent_id is not None:
        par = by_id[cur.parent_id]
        cons.append(AffineConstraint(par.mask, cur.branch))
        cur = par
    return cons


def test_criterion_06_degree_reduce_rounds():
    violations = []
    heads = 0
    for label, f in CORPUS:
        if label in _DEGRED_CACHE:
            tree, trace = _DEGRED_CACHE[label]
        else:
            tree, trace = build_degree_reduce(f)
        rounds = {t.info["round"] for t in trace.nodes if t.info.get("round", 0) > 0}
        if len(rounds) > max(deg2(f), 1):
            violations.append(f"{label}: {len(rounds)} rounds, deg2 {deg2(f)}")
        for node in trace.nodes:
            q = node.info.get("round_queries")
            if q is None or node.info.get("fallback"):
                continue
            g = restrict_affine(f, _path_constraints(trace.nodes, node)) \
                if node.parent_id is not None else f
            try:
                r = rank_exact(g, max_codim=q).rank
            except Exception as exc:
                violations.append(f"{label}: round search {exc}")
                continue
            if r != q:
                violations.append(f"{label}: round asked {q}, rank {r}")
            heads += 1
    _report(6, violations,
            f"rounds <= deg2 everywhere; {heads} round heads match the "
            f"round function's rank_exact")


def test_criterion_07_invariant_suite():
    violations = []
    t0 = time.perf_counter()
    for label, f in CORPUS:
        rep = invariant_report(f)
        if not rep.overall:
            bad = [c.name for c in rep.checks if not c.holds]
            violations.append(f"{label}: {bad}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 180.0:
        violations.append(f"runtime {elapsed:.1f}s >= 180s budget")
    _report(7, violations,
            f"invariant_report.overall on {len(CORPUS)} functions in {elapsed:.1f}s")


def test_criterion_08_green_sanders():
    violations = []
    checked = 0
    for label, f in CORPUS:
        if f.n > 8:
            continue
        tree, _ = build_greedy_l1(f)
        terms = green_sanders_decompose(tree, f)
        if len(terms) > 1 << (tree.depth() + 1):
            violations.append(f"{label}: {len(terms)} terms, depth {tree.depth()}")
        for x in range(1 << f.n):
            s = sum(
                sign
                for sign, masks in terms
                if all(parity(m & x) == 0 for m in masks)
            )
            if s != f.value(x):
                violations.append(f"{label}: sum {s} != f({x})")
                break
        checked += 1
    _report(8, violations,
            f"signed subspace indicators sum pointwise to f on {checked} "
            f"functions, term count <= 2^(depth+1)")


def test_criterion_09_protocol_simulation():
    violations = []
    checked = 0
    t0 = time.perf_counter()
    for label, f in CORPUS:
        if f.n > 8:
            continue
        tree, _ = build_greedy_l1(f)
        rep = verify_protocol(tree, f)
        if not rep.correct:
            violations.append(f"{label}: wrong protocol output")
        if rep.max_cost != 2 * tree.depth():
            violations.append(f"{label}: cost {rep.max_cost}")
        checked += 1
    ip4 = generate(FamilySpec("bent_ip", {"k": 4}))
    for name, builder in BUILDERS.items():
        tree, _ = builder(ip4)
        rep = verify_protocol(tree, ip4)
        if not (rep.correct and rep.max_cost <= 8):
            violations.append(f"bent_ip(4)/{name}: cost {rep.max_cost}")
    elapsed = time.perf_counter() - t0
    _report(9, violations,
            f"verify_protocol correct with cost 2*depth on {checked} functions; "
            f"bent_ip(4) within 8 bits; {elapsed:.1f}s")


GOLDEN_ARGS = [
    ["analyze", "anf:2:x1*x2"],
    ["analyze", "tt:1:2"],
    ["analyze", "family:majority(n=5)"],
    ["rank", "anf:4:x1*x2+x3*x4"],
    ["cert", "anf:4:x1*x2+x3*x4", "--method", "greedy"],
    ["cert", "anf:4:x1*x2+x3*x4", "--method", "norm-halving"],
    ["comm", "rank", "anf:2:x1*x2"],
    ["comm", "sim", "anf:2:x1*x2", "--x", "11", "--y", "10"],
    ["verify", "anf:3:x1*x2+x3"],
] + [
    ["pdt", "build", "anf:4:x1*x2+x3*x4", "--strategy", s] for s in BUILDERS
]


def test_criterion_10_determinism(capsys, tmp_path):
    violations = []

    def run_all(tag):
        outs = []
        for argv in GOLDEN_ARGS:
            code = cli.main(argv)
            captured = capsys.readouterr()
            outs.append((code, captured.out.encode()))
        dot = tmp_path / f"{tag}.dot"
        cli.main(["pdt", "build", "anf:2:x1*x2", "--dot", str(dot)])
        capsys.readouterr()
        outs.append(("dot", dot.read_bytes()))
        csv = tmp_path / f"{tag}.csv"
        cli.main([
            "sweep", "--family", "random_poly", "--n", "3..4", "--degree", "2",
            "--seeds", "1..3", "--strategies", "greedy-l1,degree-reduce",
            "--out", str(csv),
        ])
        capsys.readouterr()
        outs.append(("csv", csv.read_bytes()))
        return outs

    first, second = run_all("a"), run_all("b")
    for i, (x, y) in enumerate(zip(first, second)):
        if x != y:
            violations.append(f"output {i} differs between runs")
    for code, _ in first[:-2]:
        if code != 0:
            violations.append(f"golden invocation exited {code}")
    for argv, (_, payload) in zip(GOLDEN_ARGS, first):
        json.loads(payload)  # every stdout payload is well-formed JSON
    _report(10, violations,
            f"{len(first)} golden outputs byte-identical across two runs")
