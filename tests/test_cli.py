"""Command-line surface: golden bytes, schema conformance, exit codes."""

import csv
import json
import time
from importlib import resources

import jsonschema
import pytest
from referencing import Registry, Resource

from boolfourier import BooleanFunction, anf_of, cli

from helpers import addressing21_table

SCHEMA_ROOT = resources.files("boolfourier") / "schemas"

REGISTRY = Registry().with_resources(
    (res.id(), res)
    for res in (
        Resource.from_contents(json.loads(p.read_text()))
        for p in SCHEMA_ROOT.iterdir()
        if p.name.endswith(".schema.json")
    )
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(payload: str, schema_name: str):
    schema = json.loads((SCHEMA_ROOT / f"{schema_name}.schema.json").read_text())
    jsonschema.Draft202012Validator(schema, registry=REGISTRY).validate(
        json.loads(payload)
    )


# ---------------------------------------------------------------------------
# Golden outputs (exact bytes; key order and trailing newline are contractual).

ANALYZE_AND2 = """\
{
  "deg2": 2,
  "density": "1/4",
  "granularity": 2,
  "l0": 4,
  "l1": "1/1",
  "n": 2
}
"""

RANK_IP4 = """\
{
  "rank": 2,
  "witness": [
    "1000=0",
    "0010=0"
  ]
}
"""

ANALYZE_TT1 = """\
{
  "deg2": 1,
  "density": "1/2",
  "granularity": 1,
  "l0": 2,
  "l1": "1/1",
  "n": 1
}
"""

# a cubic on x1..x3 that ignores x4..x14: the derivative direction is x3
CERT_NORM_HALVING_CUBIC14 = """\
{
  "checked": true,
  "codim": 3,
  "constraints": [
    "01000000000000=1",
    "10000000000000=1",
    "00100000000000=0"
  ],
  "method": "norm-halving",
  "value": 0
}
"""


def test_analyze_and2_golden(capsys):
    code, out, err = run(capsys, "analyze", "anf:2:x1*x2")
    assert (code, err) == (0, "")
    assert out == ANALYZE_AND2


def test_rank_ip4_golden(capsys):
    code, out, err = run(capsys, "rank", "anf:4:x1*x2+x3*x4")
    assert (code, err) == (0, "")
    assert out == RANK_IP4


def test_cert_norm_halving_cubic14_golden(capsys):
    code, out, err = run(capsys, "cert", "anf:14:x1*x2*x3", "--method", "norm-halving")
    assert (code, err) == (0, "")
    assert out == CERT_NORM_HALVING_CUBIC14


def test_analyze_tt_golden(capsys):
    code, out, err = run(capsys, "analyze", "tt:1:2")
    assert (code, err) == (0, "")
    assert out == ANALYZE_TT1


# ---------------------------------------------------------------------------
# Schema conformance for every JSON-emitting subcommand.


def test_analyze_schema(capsys):
    _, out, _ = run(capsys, "analyze", "anf:3:x1*x2*x3+x1")
    validate(out, "analyze")


@pytest.mark.parametrize(
    "strategy", ["greedy-l1", "heavy-hitter", "span-query", "degree-reduce"]
)
def test_pdt_build_schema(capsys, strategy):
    code, out, _ = run(capsys, "pdt", "build", "anf:4:x1*x2+x3*x4", "--strategy", strategy)
    assert code == 0
    validate(out, "pdt_build")
    validate(json.dumps(json.loads(out)["tree"]), "tree")


def test_pdt_check_schema(capsys, tmp_path):
    _, out, _ = run(capsys, "pdt", "build", "anf:2:x1*x2")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(json.loads(out)["tree"]))
    code, out, _ = run(capsys, "pdt", "check", "anf:2:x1*x2", str(tree_file))
    assert code == 0
    validate(out, "pdt_check")
    assert json.loads(out) == {
        "correct": True, "depth": 2, "first_mismatch": None, "size": 5,
    }


@pytest.mark.parametrize("method", ["greedy", "norm-halving"])
def test_cert_schema(capsys, method):
    code, out, _ = run(capsys, "cert", "anf:4:x1*x2+x3*x4", "--method", method)
    assert code == 0
    validate(out, "cert")
    payload = json.loads(out)
    assert payload["checked"] is True
    assert payload["codim"] == 2
    assert payload["constraints"] == ["0001=0", "0100=0"]


def test_rank_schema(capsys):
    _, out, _ = run(capsys, "rank", "anf:3:x1*x2+x3")
    validate(out, "rank")


def test_comm_rank_schema(capsys):
    code, out, _ = run(capsys, "comm", "rank", "anf:2:x1*x2")
    assert code == 0
    validate(out, "comm_rank")
    assert json.loads(out) == {
        "l0": 4, "log2_rank": "2.000000", "matrix_rank": 4, "sparsity_match": True,
    }


def test_comm_sim_schema(capsys):
    code, out, _ = run(capsys, "comm", "sim", "anf:2:x1*x2", "--x", "11", "--y", "10")
    assert code == 0
    validate(out, "comm_sim")
    payload = json.loads(out)
    assert payload["output"] == 0  # f(11 xor 10) = f(01) = 0
    assert payload["cost_bits"] == 2 * len(payload["rounds"])


def test_verify_schema(capsys):
    code, out, _ = run(capsys, "verify", "anf:2:x1*x2")
    assert code == 0
    validate(out, "verify")
    assert json.loads(out)["overall"] is True


# ---------------------------------------------------------------------------
# Exit codes and error reporting.


def test_bad_spec_exit_2(capsys):
    code, out, err = run(capsys, "analyze", "anf:2:x1*x9")
    assert code == 2
    assert out == ""
    assert "position 9" in err


@pytest.mark.parametrize(
    "spec",
    [
        "anf:2:x1**x2",       # empty factor
        "anf:2:",             # empty polynomial
        "tt:2:ff",            # too many hex digits for n=2
        "tt:2:4",             # high bits set... (bit 2 = f(2) is fine; use n=1)
        "gibberish",
        "tt:0:0",
        "family:nonsense()",
        "family:bent_ip(k=3)",
    ],
)
def test_invalid_specs_exit_2(capsys, spec):
    if spec == "tt:2:4":
        spec = "tt:1:4"  # bit 2 set but 2^n = 2
    code, out, err = run(capsys, "analyze", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "spec, line",
    [
        ("tt:2", "tt spec must look like tt:<n>:<hex> (position 3)"),
        ("anf:3", "anf spec must look like anf:<n>:<poly> (position 4)"),
        ("tt:x:8", "n must be an integer, got 'x' (position 3)"),
        ("anf:0:1", "n must be in 1..24, got 0 (position 4)"),
        ("tt:25:1", "n must be in 1..24, got 25 (position 3)"),
        ("tt:3:g0", "invalid hex digit 'g' (position 5)"),
        ("anf:4:x5", "variable x5 out of range 1..4 (position 6)"),
        ("family:bent_ip(k=3)", "bent_ip needs even k, got 3 (position 15)"),
        ("family:and(n=2,extra=1)", "unknown parameter 'extra' (position 15)"),
        ("family:symmetric(values=0120)", "values must be a bit string (position 24)"),
        (
            "family:affine_indicator(n=3,constraints=100)",
            "constraint '100' must be <bits>=<bit> (position 40)",
        ),
        ("family:and(n)", "parameter 'n' is not key=value (position 11)"),
        ("family:and", "family spec must look like kind(params) (position 7)"),
        ("anf:3:x1+", "empty term (position 9)"),
        ("foo:1", "unknown spec kind 'foo' (position 0)"),
    ],
)
def test_invalid_spec_error_line(capsys, spec, line):
    code, out, err = run(capsys, "analyze", spec)
    assert (code, out, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "spec, table",
    [
        ("family:symmetric(values=0110)", [0, 1, 1, 1, 1, 1, 1, 0]),
        ("family:affine_indicator(n=3,constraints=100=1&010=0)", [0, 1, 0, 0, 0, 1, 0, 0]),
        ("anf:2:1+x1*x2", [1, 1, 1, 0]),
    ],
)
def test_spec_parses_to_table(spec, table):
    assert cli.parse_function_spec(spec).table.tolist() == table


def test_span_gate_shared_by_degree_reduce_fallback(capsys):
    # the n = 21 addressing input spans 21 dimensions: span-query refuses it,
    # and so does degree-reduce's span-query fallback, with the same line
    f = BooleanFunction(21, addressing21_table())
    terms = [
        "*".join(f"x{i + 1}" for i in range(21) if m >> i & 1) or "1"
        for m in sorted(anf_of(f).monomials)
    ]
    spec = f"anf:21:{'+'.join(terms)}"
    assert (cli.parse_function_spec(spec).table == f.table).all()
    for strategy in ("span-query", "degree-reduce"):
        code, out, err = run(capsys, "pdt", "build", spec, "--strategy", strategy)
        assert (code, out, err) == (2, "", "error: span dimension 21 would need 2^21 leaves\n")


def test_degree_reduce_fallback_note_on_stderr(capsys):
    # at n = 9 the search budget runs out at the root, so span queries build
    # the whole tree; one note says so, and stdout holds that tree alone
    spec = "family:random_poly(n=9,d=3,seed=1)"
    code, out, err = run(capsys, "pdt", "build", spec, "--strategy", "degree-reduce")
    assert code == 0
    assert err == "note: the degree-drop search gave up; span queries built 1023 of 1023 nodes\n"
    _, span_out, _ = run(capsys, "pdt", "build", spec, "--strategy", "span-query")
    assert json.loads(out)["tree"] == json.loads(span_out)["tree"]


def test_degree_reduce_without_fallback_is_quiet(capsys):
    spec = "family:random_poly(n=5,d=3,seed=1)"
    code, out, err = run(capsys, "pdt", "build", spec, "--strategy", "degree-reduce")
    assert (code, err) == (0, "")
    validate(out, "pdt_build")


def test_comm_sim_degree_reduce_fallback_note(capsys):
    # the same note as pdt build when the search gives up at the root; the
    # transcript on stdout is the span-query tree's
    spec = "family:random_poly(n=9,d=3,seed=1)"
    argv = ("comm", "sim", spec, "--x", "101100101", "--y", "011001110")
    code, out, err = run(capsys, *argv, "--strategy", "degree-reduce")
    assert code == 0
    assert err == "note: the degree-drop search gave up; span queries built 1023 of 1023 nodes\n"
    validate(out, "comm_sim")
    _, span_out, span_err = run(capsys, *argv, "--strategy", "span-query")
    assert span_err == ""
    assert json.loads(out)["rounds"] == json.loads(span_out)["rounds"]


def test_comm_sim_degree_reduce_without_fallback_is_quiet(capsys):
    spec = "family:random_poly(n=5,d=3,seed=1)"
    code, out, err = run(capsys, "comm", "sim", spec, "--x", "10110", "--y", "01100",
                         "--strategy", "degree-reduce")
    assert (code, err) == (0, "")
    validate(out, "comm_sim")


def test_constant_rank_exit_2(capsys):
    code, _, err = run(capsys, "rank", "tt:2:0")
    assert code == 2
    assert "constant" in err


def test_rank_not_found_exit_1(capsys):
    code, _, err = run(
        capsys, "rank", "anf:6:x1*x2+x3*x4+x5*x6", "--max-codim", "1"
    )
    assert code == 1
    assert "codimension 1" in err


def test_rank_candidate_budget_exit_1(capsys):
    # the exhaustive search on this input runs for minutes without a budget
    start = time.perf_counter()
    code, out, err = run(
        capsys, "rank", "family:random_poly(n=10,d=3,seed=1)", "--max-candidates", "2000"
    )
    assert (code, out) == (1, "")
    assert "candidate budget 2000 exhausted" in err
    assert time.perf_counter() - start < 60


@pytest.mark.parametrize("flag", ["--max-candidates", "--max-codim"])
def test_rank_negative_limit_exit_2(capsys, flag):
    code, out, err = run(capsys, "rank", "anf:3:x1*x2*x3", flag, "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("x, y", [("1a", "10"), ("11", "1"), ("10", "2x")])
def test_comm_sim_bad_inputs_exit_2(capsys, x, y):
    code, out, err = run(capsys, "comm", "sim", "anf:2:x1*x2", "--x", x, "--y", y)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_pdt_check_mismatch_exit_1(capsys, tmp_path):
    _, out, _ = run(capsys, "pdt", "build", "anf:2:x1*x2")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(json.loads(out)["tree"]))
    code, out, _ = run(capsys, "pdt", "check", "anf:2:x1+x2", str(tree_file))
    assert code == 1
    payload = json.loads(out)
    assert payload["correct"] is False
    assert payload["first_mismatch"] == 1


def test_pdt_check_deeply_nested_tree_exit_2(capsys, tmp_path):
    # deeper than the JSON decoder's recursion limit
    node = '{"value": 0}'
    for _ in range(5000):
        node = f'{{"query": "1", "child0": {node}, "child1": {{"value": 1}}}}'
    tree_file = tmp_path / "deep.json"
    tree_file.write_text(f'{{"n": 1, "root": {node}}}')
    code, out, err = run(capsys, "pdt", "check", "anf:1:x1", str(tree_file))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "tree",
    [
        {"n": 1, "root": {"query": "1", "child0": {"value": False}, "child1": {"value": True}}},
        {"n": True, "root": {"query": "1", "child0": {"value": 0}, "child1": {"value": 1}}},
        {"n": 1, "root": {"query": "1", "child0": {"value": 0}, "child1": {"value": 1}}, "extra": 1},
        {"n": 1, "root": {"value": 0, "query": "1", "child0": {"value": 0}, "child1": {"value": 1}}},
        {"n": 1, "root": {"query": "1", "child0": {"value": 0, "note": 1}, "child1": {"value": 1}}},
        {"n": 25, "root": {"value": 0}},
        {"n": 10**12, "root": {"value": 0}},
    ],
    ids=["bool-leaf", "bool-n", "extra-top-key", "value-and-query", "extra-leaf-key", "n-25", "n-1e12"],
)
def test_pdt_check_boolean_fields_exit_2(capsys, tmp_path, tree):
    # tree.schema.json rejects booleans where it asks for a bit or an
    # integer, keys outside the leaf and internal-node key sets, and n above
    # N_MAX, which is refused before anything is sized by it
    with pytest.raises(jsonschema.ValidationError):
        validate(json.dumps(tree), "tree")
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(tree))
    code, out, err = run(capsys, "pdt", "check", "anf:1:x1", str(tree_file))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text, err",
    [
        ('{"n": 2, "root": {"query": "00", "child0": {"value": 0}, "child1": {"value": 1}}}',
         "error: query mask 0 out of range for n=2\n"),
        ('{"n": 3, "root": {"query": "100", "child0": {"value": 0}, "child1": {"value": 1}}}',
         "error: tree on 3 variables, f on 2\n"),
        ('{"n": 2, "root": {"query": "0a", "child0": {"value": 0}, "child1": {"value": 1}}}',
         "error: invalid bit 'a' at position 1\n"),
        ('{"n": 2, "root": {"qu', "error: tree file is not valid JSON: "),
        (None, "error: cannot read tree file: "),
    ],
    ids=["zero-query", "wrong-n", "bad-bit", "truncated", "missing"],
)
def test_pdt_check_bad_tree_file_exit_2(capsys, tmp_path, text, err):
    tree_file = tmp_path / "tree.json"
    if text is not None:
        tree_file.write_text(text)
    code, out, got = run(capsys, "pdt", "check", "anf:2:x1", str(tree_file))
    assert (code, out) == (2, "")
    assert got.startswith(err)


# ---------------------------------------------------------------------------
# File outputs.


def test_dot_file_and_out_dir(capsys, tmp_path):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path),
        "pdt", "build", "anf:2:x1*x2", "--dot", "tree.dot",
    )
    assert code == 0
    dot = (tmp_path / "tree.dot").read_text()
    assert dot.startswith("digraph pdt {")
    assert 'label="01"' in dot
    # stdout still carries the JSON summary
    validate(out, "pdt_build")


@pytest.mark.parametrize(
    "argv",
    [
        ["pdt", "build", "anf:2:x1*x2", "--dot"],
        ["sweep", "--family", "parity", "--n", "2..2", "--strategies", "greedy-l1", "--out"],
    ],
)
def test_unwritable_output_exit_2(capsys, tmp_path, argv):
    path = str(tmp_path / "missing" / "out.txt")
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and path in err


def test_sweep_csv_golden(capsys, tmp_path):
    argv = [
        "--out-dir", str(tmp_path), "sweep",
        "--family", "random_poly", "--n", "3..3", "--degree", "2",
        "--seeds", "1..2", "--strategies", "greedy-l1", "--out", "sw.csv",
    ]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "", "")
    got = (tmp_path / "sw.csv").read_text()
    assert got == (
        "family,n,deg2,l0,l1_num,l1_den,strategy,depth,cert_codim,"
        "rank_exact,matrix_rank,log2_rank,bound_B\n"
        '"family:random_poly(n=3,d=2,seed=1)",3,2,5,3,2,greedy-l1,2,2,1,5,2.321928,\n'
        '"family:random_poly(n=3,d=2,seed=2)",3,2,4,1,1,greedy-l1,2,1,1,4,2.000000,\n'
    )


def test_sweep_degree_reduce_fallback_note(capsys, tmp_path):
    # n = 13 is past the degree-drop search and the exact rank cells, so
    # those are empty and the tree comes from the span-query fallback, with
    # the note pdt build prints
    argv = ["sweep", "--family", "parity", "--n", "13..13", "--out", str(tmp_path / "p.csv")]
    code, out, err = run(capsys, *argv, "--strategies", "degree-reduce")
    assert (code, out) == (0, "")
    assert err == "note: the degree-drop search gave up; span queries built 3 of 3 nodes\n"
    _, _, build_err = run(capsys, "pdt", "build", "family:parity(n=13)", "--strategy", "degree-reduce")
    assert build_err == err
    assert (tmp_path / "p.csv").read_text().splitlines()[1] == (
        "family:parity(n=13),13,1,2,1,1,degree-reduce,1,1,,,,"
    )


def test_sweep_deterministic(capsys, tmp_path):
    argv = [
        "sweep", "--family", "bent_ip", "--n", "2..6",
        "--strategies", "greedy-l1,span-query", "--out", "",
    ]
    outs = []
    for name in ("a.csv", "b.csv"):
        argv[-1] = str(tmp_path / name)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "family, families, notes",
    [
        ("bent_ip", ["bent_ip(k=2)", "bent_ip(k=4)"], ["odd n=1", "odd n=3"]),
        ("majority", ["majority(n=1)", "majority(n=3)"], ["even n=2", "even n=4"]),
        ("and", [f"and(n={n})" for n in range(1, 5)], []),
        ("or", [f"or(n={n})" for n in range(1, 5)], []),
        ("parity", [f"parity(n={n})" for n in range(1, 5)], []),
    ],
)
def test_sweep_family_column_and_skip_notes(capsys, tmp_path, family, families, notes):
    path = tmp_path / "sw.csv"
    argv = ["sweep", "--family", family, "--n", "1..4", "--strategies", "greedy-l1"]
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (0, "")
    assert err == "".join(f"note: skipping {x} for {family}\n" for x in notes)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [r["family"] for r in rows] == [f"family:{x}" for x in families]


@pytest.mark.parametrize(
    "family, n_range, bad_n",
    [
        ("bent_ip", "25..25", 25),
        ("majority", "0..3", 0),
        ("bent_ip", "0..2", 0),
        ("majority", "25..25", 25),
    ],
)
def test_sweep_n_out_of_range_exit_2(capsys, tmp_path, family, n_range, bad_n):
    # the range is checked before the odd/even skip, so no skip note hides it
    path = tmp_path / "sw.csv"
    argv = ["sweep", "--family", family, "--n", n_range, "--strategies", "greedy-l1"]
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: n must be an integer in 1..24, got {bad_n}\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "flag, value, line",
    [
        ("--n", "5..3", "--n range is empty: 5..3"),
        ("--n", "3", "--n must look like A..B, got '3'"),
        ("--strategies", "bogus", "unknown strategy 'bogus'"),
        ("--strategies", ",", "--strategies must name at least one strategy"),
        (
            "--family",
            "symmetric",
            "sweep supports families bent_ip, and, or, parity, majority, random_poly; "
            "got 'symmetric'",
        ),
    ],
)
def test_sweep_bad_arguments_exit_2(capsys, tmp_path, flag, value, line):
    path = tmp_path / "sw.csv"
    args = {"--family": "parity", "--n": "1..2", "--strategies": "greedy-l1"}
    args[flag] = value
    argv = ["sweep", *(x for kv in args.items() for x in kv), "--out", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {line}\n")
    assert not path.exists()


def test_family_spec_cli(capsys):
    code, out, _ = run(capsys, "analyze", "family:parity(n=3)")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["l0"], payload["deg2"]) == (3, 2, 1)
