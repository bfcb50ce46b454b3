"""Self-tests of the benchmark: smoke runs, check rejection, file layout.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default test run;
they start benchmark processes and take about half a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_tiny(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    # Only the named fault fails: one attempt per round of degree-search.
    rounds = 1 + trace
    assert result["failed"] == (rounds if workload == "degree-search" else 0), proc.stderr
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_benchmark_json_matches_run():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        m[:3] for m in run.LAYER_METRICS
    ]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"setup_s", "fn_per_s", "peak_rss_mb"}


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "logrank", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# The checks reject corrupted outputs.


@pytest.fixture(scope="module")
def bf():
    return run.import_program()


def _first_output(workload, bf, item_index=0):
    items = workload.build(bf, 5, tiny=True)
    item = items[item_index]
    plain = workload.extract(workload.run(bf, item))
    assert workload.check(item, plain) == []
    return item, plain


def _flip_leaf(key):
    if key[0] == "leaf":
        return ("leaf", 1 - key[1])
    return (key[0], _flip_leaf(key[1]), key[2])


def test_logrank_rejects_wrong_rank_and_flipped_leaf(bf):
    workload = wl.LogRank()
    item, (l0, rank, key, correct, cost) = _first_output(workload, bf)
    assert workload.check(item, (l0, rank + 1, key, correct, cost))
    assert workload.check(item, (l0, rank, _flip_leaf(key), correct, cost))
    assert workload.check(item, (l0, rank, key, correct, cost + 2))


def test_degree_search_rejects_corruption(bf):
    workload = wl.DegreeSearch()
    item, plain = _first_output(workload, bf)
    key, rounds, rank, witness, subspace, cert_g, cert_n = plain
    assert workload.check(item, (_flip_leaf(key),) + plain[1:])
    assert workload.check(item, (key, 99) + plain[2:])
    assert workload.check(item, plain[:2] + (rank + 1,) + plain[3:])
    (constraints, value) = cert_g
    assert workload.check(item, plain[:5] + ((constraints, 1 - value), cert_n))


def test_spectral_dense_rejects_corruption(bf):
    workload = wl.SpectralDense(ROOT)
    item, ((rc_v, text_v), (rc_b, text_b)) = _first_output(workload, bf)
    built = json.loads(text_b)
    node = built["tree"]["root"]
    while "value" not in node:
        node = node["child0"]
    node["value"] = 1 - node["value"]
    assert workload.check(item, ((rc_v, text_v), (rc_b, json.dumps(built))))
    report = json.loads(text_v)
    report["checks"][0]["lhs"] += 1
    assert workload.check(item, ((rc_v, json.dumps(report)), (rc_b, text_b)))
    assert workload.check(item, ((rc_v, text_v), (rc_b, '{"n": 1}')))


def test_spectral_sparse_rejects_corruption(bf):
    workload = wl.SpectralSparse()
    item, (keys, cert_g, cert_n) = _first_output(workload, bf)
    assert workload.check(item, ((_flip_leaf(keys[0]),) + keys[1:], cert_g, cert_n))
    constraints, value = cert_n
    assert workload.check(item, (keys, cert_g, (constraints, 1 - value)))
    # A span-query tree one level too deep still computes f but breaks depth.
    deeper = (1 << (item.n - 1), keys[2], keys[2])
    assert workload.check(item, (keys[:2] + (deeper,), cert_g, cert_n))


# ---------------------------------------------------------------------------
# The reference computations against their definitions.


def test_oracles_match_definitions():
    rng = np.random.default_rng(7)
    n = 5
    table = rng.integers(0, 2, 1 << n).astype(np.uint8)
    nums = oracles.wht_numerators(table)
    for s in range(1 << n):
        direct = sum(int(table[x]) * (-1) ** ((s & x).bit_count() & 1) for x in range(1 << n))
        assert nums[s] == direct
    anf = oracles.mobius(table)
    for m in range(1 << n):
        acc = 0
        for x in range(1 << n):
            if x & m == x:
                acc ^= int(table[x])
        assert anf[m] == acc
    constraints = [(0b00111, 1), (0b01010, 0)]
    pts = oracles.affine_points(constraints, n)
    members = {x for x in range(1 << n)
               if all((x & m).bit_count() % 2 == b for m, b in constraints)}
    assert sorted(pts.tolist()) == sorted(members) and len(pts) == len(members)
    assert oracles.affine_points([(3, 0), (3, 1)], n) is None
    assert oracles.gf2_rank([0b011, 0b110, 0b101]) == 2
    for bits in itertools.product([0, 1], repeat=2):
        assert oracles.constant_on([0] * 4, [(1, bits[0]), (2, bits[1])], 2, 0)
