"""Command-line front end: function-spec parsing, analyses, JSON/CSV/DOT.

Machine output (JSON or CSV) goes to stdout only; diagnostics go to stderr.
Exit codes: 0 success, 1 a requested check failed (or a bounded search found
nothing), 2 parse or validation error.

Function specification strings:
  tt:<n>:<hex>      truth table; hex has exactly ceil(2^n / 4) digits and
                    bit i of its value is f at integer index i (x1 = LSB);
                    bits at or above 2^n must be zero
  anf:<n>:<poly>    GF(2) polynomial, terms joined by '+', each term '1' or
                    'x<i>' factors joined by '*' (e.g. anf:4:x1*x2+x3*x4+1);
                    repeated terms cancel (XOR), repeated factors collapse
  family:<kind>(<params>)
                    comma-separated key=value parameters, e.g.
                    family:bent_ip(k=4), family:random_poly(n=5,d=3,seed=1),
                    family:symmetric(values=0110),
                    family:affine_indicator(n=3,constraints=100=1&010=0)
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ._bits import mask_to_string, string_to_mask
from .core import N_MAX, BooleanFunction, deg2, spectral_stats, to_pm_spectrum, wht
from .comm import matrix_rank_exact, simulate_protocol, verify_protocol, xor_matrix
from .errors import BoolFourierError, InvalidSpec, InvalidTree, NotFound, TooLarge
from .families import FAMILY_KINDS, FamilySpec, _check_n, generate
from .pdt import (
    Certificate,
    build_degree_reduce,
    build_greedy_l1,
    build_heavy_hitter,
    build_span_query,
    cert_greedy_l1,
    cert_norm_halving,
    certificate_check,
    pdt_check,
    rank_exact,
    _shape,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
)
from .verify import bound_B, invariant_report

__all__ = ["main", "parse_function_spec", "STRATEGIES"]

STRATEGIES = {
    "greedy-l1": build_greedy_l1,
    "heavy-hitter": build_heavy_hitter,
    "span-query": build_span_query,
    "degree-reduce": build_degree_reduce,
}

_SWEEP_FAMILIES = ("bent_ip", "and", "or", "parity", "majority", "random_poly")

# Default candidate-subspace budget of `rank`: the exhaustive search takes
# minutes from n = 9 on, so past this many subspaces it exits with code 1.
RANK_CANDIDATE_BUDGET = 1_000_000


# ---------------------------------------------------------------------------
# Function spec parsing.


def _spec_error(msg: str, pos: int) -> InvalidSpec:
    return InvalidSpec(msg, position=pos)


def _parse_int(text: str, pos: int, what: str) -> int:
    if not re.fullmatch(r"-?\d+", text):
        raise _spec_error(f"{what} must be an integer, got {text!r}", pos)
    return int(text)


def _parse_tt(n: int, hex_str: str, hex_pos: int) -> BooleanFunction:
    want = -(-(1 << n) // 4)  # ceil(2^n / 4) hex digits
    if len(hex_str) != want:
        raise _spec_error(
            f"truth table needs exactly {want} hex digit(s) for n={n}, got {len(hex_str)}",
            hex_pos,
        )
    for i, ch in enumerate(hex_str):
        if ch not in "0123456789abcdefABCDEF":
            raise _spec_error(f"invalid hex digit {ch!r}", hex_pos + i)
    value = int(hex_str, 16)
    if value >> (1 << n):
        raise _spec_error(f"truth table bits at or above 2^{n} must be zero", hex_pos)
    return BooleanFunction.from_int(n, value)


def _parse_anf(n: int, poly: str, poly_pos: int) -> BooleanFunction:
    from .core import ANF, anf_to_function

    if not poly:
        raise _spec_error("empty polynomial", poly_pos)
    monomials: set[int] = set()
    offset = 0
    for term in poly.split("+"):
        term_pos = poly_pos + offset
        offset += len(term) + 1
        if not term:
            raise _spec_error("empty term", term_pos)
        if term == "1":
            monomials ^= {0}
            continue
        mask = 0
        f_off = 0
        for factor in term.split("*"):
            f_pos = term_pos + f_off
            f_off += len(factor) + 1
            m = re.fullmatch(r"x(\d+)", factor)
            if not m:
                raise _spec_error(f"invalid factor {factor!r}", f_pos)
            i = int(m.group(1))
            if not 1 <= i <= n:
                raise _spec_error(f"variable x{i} out of range 1..{n}", f_pos)
            mask |= 1 << (i - 1)
        monomials ^= {mask}
    return anf_to_function(ANF(n, frozenset(monomials)))


def _parse_family(body: str, base: int) -> Tuple[BooleanFunction, FamilySpec]:
    m = re.fullmatch(r"(\w+)\((.*)\)", body)
    if not m:
        raise _spec_error("family spec must look like kind(params)", base)
    kind = m.group(1)
    if kind not in FAMILY_KINDS:
        raise _spec_error(f"unknown family kind {kind!r}", base)
    params_str = m.group(2)
    params_pos = base + len(kind) + 1
    params: dict = {}
    offset = 0
    if params_str:
        for item in params_str.split(","):
            item_pos = params_pos + offset
            offset += len(item) + 1
            if "=" not in item:
                raise _spec_error(f"parameter {item!r} is not key=value", item_pos)
            key, _, val = item.partition("=")
            val_pos = item_pos + len(key) + 1
            if key in ("k", "n", "d", "seed"):
                params[key] = _parse_int(val, val_pos, key)
            elif key == "values":
                if not re.fullmatch(r"[01]+", val):
                    raise _spec_error("values must be a bit string", val_pos)
                params["values"] = tuple(int(c) for c in val)
            elif key == "constraints":
                constraints = []
                c_off = 0
                for c in val.split("&"):
                    c_pos = val_pos + c_off
                    c_off += len(c) + 1
                    cm = re.fullmatch(r"([01]+)=([01])", c)
                    if not cm:
                        raise _spec_error(
                            f"constraint {c!r} must be <bits>=<bit>", c_pos
                        )
                    constraints.append((string_to_mask(cm.group(1)), int(cm.group(2))))
                params["constraints"] = tuple(constraints)
            else:
                raise _spec_error(f"unknown parameter {key!r}", item_pos)
    try:
        spec = FamilySpec(kind, params)
        return generate(spec), spec
    except InvalidSpec as exc:  # no generator knows a position in the spec
        raise _spec_error(str(exc), params_pos) from exc


def parse_function_spec(text: str) -> BooleanFunction:
    """Parse tt:/anf:/family: specification strings; InvalidSpec has position."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise _spec_error("spec must start with tt:, anf: or family:", 0)
    base = len(head) + 1
    if head in ("tt", "anf"):
        n_str, sep2, body = rest.partition(":")
        if not sep2:
            shape = "hex" if head == "tt" else "poly"
            raise _spec_error(f"{head} spec must look like {head}:<n>:<{shape}>", base)
        n = _parse_int(n_str, base, "n")
        if not 1 <= n <= N_MAX:
            raise _spec_error(f"n must be in 1..{N_MAX}, got {n}", base)
        parse_body = _parse_tt if head == "tt" else _parse_anf
        return parse_body(n, body, base + len(n_str) + 1)
    if head == "family":
        return _parse_family(rest, base)[0]
    raise _spec_error(f"unknown spec kind {head!r}", 0)


# ---------------------------------------------------------------------------
# Output helpers.


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _constraint_str(mask: int, bit: int, n: int) -> str:
    return f"{mask_to_string(mask, n)}={bit}"


def _write_output(path: str, out_dir: Optional[str], text: str) -> None:
    """Write an output file; a path that cannot be written is exit code 2."""
    if out_dir and not path.startswith("/"):
        path = f"{out_dir.rstrip('/')}/{path}"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidSpec(f"cannot write {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_analyze(args) -> int:
    f = parse_function_spec(args.fn)
    spec = wht(f)
    stats = spectral_stats(spec)
    _emit(
        {
            "n": f.n,
            "deg2": deg2(f),
            "l0": stats.l0,
            "l1": _frac_str(Fraction(stats.l1_num, 1 << spec.denom_exp)),
            "granularity": stats.granularity,
            "density": _frac_str(f.density()),
        }
    )
    return 0


def _build(f, strategy: str):
    """``STRATEGIES[strategy](f)``, with a note on stderr when degree-reduce fell back."""
    tree, trace = STRATEGIES[strategy](f)
    if strategy == "degree-reduce":
        fallback = sum(1 for node in trace if node.info.get("fallback"))
        if fallback:
            print(
                f"note: the degree-drop search gave up; span queries built {fallback} "
                f"of {len(trace)} nodes",
                file=sys.stderr,
            )
    return tree, trace


def _cmd_pdt_build(args) -> int:
    f = parse_function_spec(args.fn)
    tree, _ = _build(f, args.strategy)
    if args.dot:
        _write_output(args.dot, args.out_dir, tree_to_dot(tree))
    depth, size, leaves = _shape(tree.root)
    _emit(
        {
            "n": tree.n,
            "strategy": args.strategy,
            "depth": depth,
            "size": size,
            "leaves": leaves,
            "tree": tree_to_dict(tree),
        }
    )
    return 0


def _cmd_pdt_check(args) -> int:
    f = parse_function_spec(args.fn)
    try:
        with open(args.tree) as fh:
            obj = json.load(fh)
        tree = tree_from_dict(obj)
    except OSError as exc:
        raise InvalidTree(f"cannot read tree file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidTree(f"tree file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidTree("tree file is nested too deeply") from exc
    report = pdt_check(f, tree)
    _emit(
        {
            "correct": report.correct,
            "depth": report.depth,
            "size": report.size,
            "first_mismatch": report.first_mismatch,
        }
    )
    return 0 if report.correct else 1


def _cmd_cert(args) -> int:
    f = parse_function_spec(args.fn)
    cert = cert_greedy_l1(f) if args.method == "greedy" else cert_norm_halving(f)
    ok = certificate_check(f, cert)
    _emit(
        {
            "method": args.method,
            "codim": cert.codim,
            "constraints": [
                _constraint_str(c.mask, c.bit, f.n) for c in cert.constraints
            ],
            "value": cert.value,
            "checked": ok,
        }
    )
    return 0 if ok else 1


def _cmd_rank(args) -> int:
    if args.max_codim < 0 or args.max_candidates < 0:
        raise InvalidSpec("--max-codim and --max-candidates must be non-negative")
    f = parse_function_spec(args.fn)
    result = rank_exact(f, max_codim=args.max_codim, max_candidates=args.max_candidates)
    _emit(
        {
            "rank": result.rank,
            "witness": [_constraint_str(c.mask, c.bit, f.n) for c in result.witness],
        }
    )
    return 0


def _cmd_comm_rank(args) -> int:
    f = parse_function_spec(args.fn)
    rank = matrix_rank_exact(xor_matrix(f))
    l0 = wht(f).l0()
    _emit(
        {
            "matrix_rank": rank,
            "l0": l0,
            "log2_rank": f"{math.log2(rank):.6f}" if rank else None,
            "sparsity_match": rank == l0,
        }
    )
    return 0 if rank == l0 else 1


def _cmd_comm_sim(args) -> int:
    f = parse_function_spec(args.fn)
    if any(len(s) != f.n or not set(s) <= set("01") for s in (args.x, args.y)):
        raise InvalidSpec(f"--x and --y must be length-{f.n} bitstrings")
    x = string_to_mask(args.x)
    y = string_to_mask(args.y)
    tree, _ = _build(f, args.strategy)
    tr = simulate_protocol(tree, x, y)
    _emit(
        {
            "x": args.x,
            "y": args.y,
            "strategy": args.strategy,
            "rounds": [
                {
                    "mask": mask_to_string(r.mask, f.n),
                    "alice": r.alice_bit,
                    "bob": r.bob_bit,
                }
                for r in tr.rounds
            ],
            "output": tr.output,
            "cost_bits": tr.cost_bits,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    f = parse_function_spec(args.fn)
    report = invariant_report(f)
    _emit(report.as_dict())
    return 0 if report.overall else 1


# ---------------------------------------------------------------------------
# Sweep.


def _parse_range(text: str, what: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise InvalidSpec(f"{what} must look like A..B, got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise InvalidSpec(f"{what} range is empty: {text}")
    return range(a, b + 1)


def _sweep_functions(args) -> List[Tuple[str, int, int, BooleanFunction]]:
    """(canonical family string, n, seed, function) for every sweep cell."""
    kind = args.family
    if kind not in _SWEEP_FAMILIES:
        raise InvalidSpec(
            f"sweep supports families {', '.join(_SWEEP_FAMILIES)}; got {kind!r}"
        )
    ns = _parse_range(args.n, "--n")
    seeds = _parse_range(args.seeds, "--seeds") if kind == "random_poly" else (0,)
    out = []
    for n in ns:
        _check_n(n)
        if (kind == "bent_ip" and n % 2) or (kind == "majority" and n % 2 == 0):
            parity = "odd" if n % 2 else "even"
            print(f"note: skipping {parity} n={n} for {kind}", file=sys.stderr)
            continue
        for seed in seeds:
            if kind == "random_poly":
                params = {"n": n, "d": min(args.degree, n), "seed": seed}
            else:
                params = {"k" if kind == "bent_ip" else "n": n}
            family = f"family:{kind}({','.join(f'{k}={v}' for k, v in params.items())})"
            out.append((family, n, seed, generate(FamilySpec(kind, params))))
    return out


def _cmd_sweep(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies:
        if s not in STRATEGIES:
            raise InvalidSpec(f"unknown strategy {s!r}")
    if not strategies:
        raise InvalidSpec("--strategies must name at least one strategy")
    rows = []
    for family_str, n, seed, f in _sweep_functions(args):
        spec = wht(f)
        pm = to_pm_spectrum(spec)
        d = deg2(f)
        l1 = Fraction(spec.l1_num(), 1 << spec.denom_exp)
        constant = f.is_constant()
        cert_codim = ""
        rank_str = ""
        if not constant:
            codims = [cert_greedy_l1(f).codim, cert_norm_halving(f).codim]
            cert_codim = str(min(codims))
            try:
                # bounded search: large-n rows degrade to an empty cell
                rank_str = str(
                    rank_exact(f, max_codim=min(4, f.n), max_candidates=200_000).rank
                )
            except (NotFound, TooLarge):
                rank_str = ""
        if f.n <= 8:
            mrank = matrix_rank_exact(xor_matrix(f))
            mrank_str = str(mrank)
            log2_rank = f"{math.log2(mrank):.6f}" if mrank else ""
        else:
            mrank_str = ""
            log2_rank = ""
        bound = ""
        if d >= 3:
            m_arg = pm.l1_num() / float(1 << pm.denom_exp)
            bound = f"{bound_B(d, max(1.0, m_arg)):.6f}"
        for strat in strategies:
            tree, _ = _build(f, strat)
            rows.append(
                {
                    "family": family_str,
                    "n": n,
                    "seed": seed,
                    "deg2": d,
                    "l0": spec.l0(),
                    "l1_num": l1.numerator,
                    "l1_den": l1.denominator,
                    "strategy": strat,
                    "depth": tree.depth(),
                    "cert_codim": cert_codim,
                    "rank_exact": rank_str,
                    "matrix_rank": mrank_str,
                    "log2_rank": log2_rank,
                    "bound_B": bound,
                }
            )
    rows.sort(key=lambda r: (r["family"], r["n"], r["seed"], r["strategy"]))
    columns = [
        "family",
        "n",
        "deg2",
        "l0",
        "l1_num",
        "l1_den",
        "strategy",
        "depth",
        "cert_codim",
        "rank_exact",
        "matrix_rank",
        "log2_rank",
        "bound_B",
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([r[c] for c in columns])
    _write_output(args.out, args.out_dir, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolfourier",
        description="Exact Fourier analysis of Boolean functions, parity decision "
        "trees, certificates and XOR-protocol checks.",
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        help="directory for output files (CSV/DOT paths resolve against it)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectral summary as JSON")
    p.add_argument("fn")
    p.set_defaults(func=_cmd_analyze)

    pdt = sub.add_parser("pdt", help="parity decision trees")
    pdt_sub = pdt.add_subparsers(dest="pdt_command", required=True)
    p = pdt_sub.add_parser("build", help="build a tree and print its JSON mirror")
    p.add_argument("fn")
    p.add_argument("--strategy", choices=sorted(STRATEGIES), default="greedy-l1")
    p.add_argument("--dot", default=None, help="also write Graphviz DOT here")
    p.set_defaults(func=_cmd_pdt_build)
    p = pdt_sub.add_parser("check", help="check a tree JSON file against a function")
    p.add_argument("fn")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_pdt_check)

    p = sub.add_parser("cert", help="parity certificate")
    p.add_argument("fn")
    p.add_argument("--method", choices=["greedy", "norm-halving"], default="greedy")
    p.set_defaults(func=_cmd_cert)

    p = sub.add_parser("rank", help="exact polynomial rank")
    p.add_argument("fn")
    p.add_argument("--max-codim", type=int, default=4)
    p.add_argument(
        "--max-candidates",
        type=int,
        default=RANK_CANDIDATE_BUDGET,
        help="subspaces to examine before giving up with exit code 1",
    )
    p.set_defaults(func=_cmd_rank)

    comm = sub.add_parser("comm", help="XOR-function communication tools")
    comm_sub = comm.add_subparsers(dest="comm_command", required=True)
    p = comm_sub.add_parser("rank", help="exact rank of the XOR matrix")
    p.add_argument("fn")
    p.set_defaults(func=_cmd_comm_rank)
    p = comm_sub.add_parser("sim", help="simulate the two-party protocol")
    p.add_argument("fn")
    p.add_argument("--x", required=True, help="Alice's input as a bitstring")
    p.add_argument("--y", required=True, help="Bob's input as a bitstring")
    p.add_argument("--strategy", choices=sorted(STRATEGIES), default="greedy-l1")
    p.set_defaults(func=_cmd_comm_sim)

    p = sub.add_parser("verify", help="full invariant report")
    p.add_argument("fn")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="family sweep to CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--n", required=True, help="inclusive range A..B")
    p.add_argument("--degree", type=int, default=3, help="random_poly degree")
    p.add_argument("--seeds", default="1..1", help="random_poly seed range A..B")
    p.add_argument("--strategies", required=True, help="comma-separated list")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BoolFourierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
