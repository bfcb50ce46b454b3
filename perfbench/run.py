"""Benchmark of boolfourier: four closed-loop workloads, end to end and by layer.

    python3 perfbench/run.py --workload logrank --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One caller handles one function at a time on one
thread, repeating whole rounds (one pass over the workload's functions)
until ``--seconds`` have passed.  Times are in nominal seconds (see
REFERENCE_NOMINAL_S).  Outputs are checked after the timed phase against
reference computations that share no code with the program.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (setup_s, fn_per_s, peak_rss_mb); with ``--trace 1`` the run
repeats the timed phase with every public function of the program wrapped
and reports the per-layer metrics instead, and writes the full per-function
table to ``.perfbench_out/``.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "boolfourier"
WORKLOADS = ("logrank", "degree-search", "spectral-dense", "spectral-sparse")
SETUP_SAMPLES = 9

# Host speed reference.  On a shared 2-core VM (Xeon, 2.1 GHz) the same code
# ran up to 40% slower for seconds to minutes at a time, unevenly on the two
# cores, which moved the throughput of identical runs by up to a quarter.  A
# fixed pure-Python loop is timed right before every function, and the
# function's wall time is scaled by REFERENCE_NOMINAL_S over the median loop
# time of the nine functions around it: times are then in seconds of a host
# that runs the loop in REFERENCE_NOMINAL_S, the loop's median on that VM.
# Identical runs then agree within a few percent.
REFERENCE_NOMINAL_S = 0.0025


def reference_seconds() -> float:
    """Wall time of a fixed integer-and-dict loop, about 2.5 ms."""
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    table = {}
    for i in range(5000):
        table[i ^ 1234] = table.get(i, 0) + i
    return perf_counter() - t0

# Per-layer metrics of the traced run: (name, unit, better, group, field).
# field is "calls", "self_s" or a counter of tracer.COUNTERS.
LAYER_METRICS = [
    ("comm.matrix_rank_exact.calls", "count", "lower", "comm.matrix_rank_exact", "calls"),
    ("comm.matrix_rank_exact.self_s", "s", "lower", "comm.matrix_rank_exact", "self_s"),
    ("comm.matrix_rank_exact.entries", "count", "lower", "comm.matrix_rank_exact", "entries"),
    ("comm.verify_protocol.calls", "count", "lower", "comm.verify_protocol", "calls"),
    ("comm.verify_protocol.self_s", "s", "lower", "comm.verify_protocol", "self_s"),
    ("comm.verify_protocol.pairs", "count", "lower", "comm.verify_protocol", "pairs"),
    ("pdt.search.calls", "count", "lower", "pdt.search", "calls"),
    ("pdt.search.self_s", "s", "lower", "pdt.search", "self_s"),
    ("pdt.search.exhausted", "count", "lower", "pdt.search", "exhausted"),
    ("pdt.search.found_ratio", "ratio", "higher", "pdt.search", "found_ratio"),
    ("pdt.build.trees", "count", "higher", "pdt.build", "trees"),
    ("pdt.build.self_s", "s", "lower", "pdt.build", "self_s"),
    ("pdt.build.nodes", "count", "lower", "pdt.build", "nodes"),
    ("pdt.build.fallback_nodes", "count", "lower", "pdt.build", "fallback_nodes"),
    ("pdt.build.depth_sum", "count", "lower", "pdt.build", "depth_sum"),
    ("pdt.build.rss_peak_mb", "MiB", "lower", "pdt.build", "rss_peak_mb"),
    ("core.pointwise_product.calls", "count", "lower", "core.pointwise_product", "calls"),
    ("core.pointwise_product.self_s", "s", "lower", "core.pointwise_product", "self_s"),
    ("core.pointwise_product.pairs", "count", "lower", "core.pointwise_product", "pairs"),
    ("core.wht.calls", "count", "lower", "core.wht", "calls"),
    ("core.wht.self_s", "s", "lower", "core.wht", "self_s"),
    ("core.wht.points", "count", "lower", "core.wht", "points"),
    ("core.deg2.calls", "count", "lower", "core.deg2", "calls"),
    ("core.deg2.self_s", "s", "lower", "core.deg2", "self_s"),
    ("restrict.fold.calls", "count", "lower", "restrict.fold", "calls"),
    ("restrict.fold.self_s", "s", "lower", "restrict.fold", "self_s"),
    ("restrict.fold.coeffs_in", "count", "lower", "restrict.fold", "coeffs_in"),
    ("restrict.derivative.self_s", "s", "lower", "restrict.derivative", "self_s"),
    ("restrict.restrict_affine.self_s", "s", "lower", "restrict.restrict_affine", "self_s"),
    ("restrict.spectrum_split.self_s", "s", "lower", "restrict.spectrum_split", "self_s"),
    ("pdt.cert.calls", "count", "lower", "pdt.cert", "calls"),
    ("pdt.cert.self_s", "s", "lower", "pdt.cert", "self_s"),
    ("pdt.cert.codim_sum", "count", "lower", "pdt.cert", "codim_sum"),
    ("verify.invariant_report.calls", "count", "lower", "verify.invariant_report", "calls"),
    ("verify.invariant_report.self_s", "s", "lower", "verify.invariant_report", "self_s"),
    ("cli.main.calls", "count", "lower", "cli.main", "calls"),
    ("cli.main.self_s", "s", "lower", "cli.main", "self_s"),
    ("gf2.calls", "count", "lower", "gf2", "calls"),
    ("gf2.self_s", "s", "lower", "gf2", "self_s"),
    ("families.generate.calls", "count", "lower", "families.generate", "calls"),
    ("families.generate.self_s", "s", "lower", "families.generate", "self_s"),
    ("trace.overhead_s", "s", "lower", None, "overhead_s"),
]


def import_program():
    """Import boolfourier (and its CLI) from this checkout's src/ only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import boolfourier
    import boolfourier.cli  # noqa: F401  (the spectral-dense workload drives it)

    origin = Path(boolfourier.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {src}")
    return boolfourier


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Nominal seconds to import the program and build the workload's inputs.

    numpy is imported before the clock starts: its import was two thirds of
    the total, no change to the program moves it, and on a shared VM its
    time swung by half from one process to the next.
    """
    import numpy  # noqa: F401

    speed = REFERENCE_NOMINAL_S / statistics.median(reference_seconds() for _ in range(5))
    t0 = perf_counter()
    bf = import_program()
    import workloads

    workloads.workloads(ROOT)[workload].build(bf, seed, tiny)
    return (perf_counter() - t0) * speed


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median set-up time over fresh interpreter processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Phase:
    """One timed phase: whole rounds until the time is up."""

    def __init__(self, workload, bf, items, seconds: float):
        self.results = []  # (item index, output or exception)
        self.rounds = 0
        samples = []  # (wall seconds of one pipeline, reference loop seconds before it)
        t0 = perf_counter()
        while True:
            for i, item in enumerate(items):
                ref = reference_seconds()
                t = perf_counter()
                try:
                    out = workload.run(bf, item)
                except Exception as exc:  # a failed operation; counted, not fatal
                    out = exc
                samples.append((perf_counter() - t, ref))
                self.results.append((i, out))
            self.rounds += 1
            if perf_counter() - t0 >= seconds:
                break
        refs = [ref for _, ref in samples]
        self.work_s = sum(dt for dt, _ in samples)
        self.nominal_s = sum(
            dt * REFERENCE_NOMINAL_S / statistics.median(refs[max(0, k - 4): k + 5])
            for k, (dt, _) in enumerate(samples)
        )

    def describe(self, name: str) -> str:
        return (f"{name}: {self.rounds} round(s) of {len(self.results) // self.rounds} functions, "
                f"{self.work_s:.3f} wall s = {self.nominal_s:.3f} nominal s")


def check_results(workload, items, results):
    """(failed count, correct) over all attempts; problems go to stderr.

    Identical outputs of one item are checked once.
    """
    verdicts = {}  # (item index, plain output or exception text) -> output is right
    failed = 0
    for i, out in results:
        item = items[i]
        if isinstance(out, Exception):
            failed += 1
            key = (i, f"{type(out).__name__}: {out}")
            if key not in verdicts:
                verdicts[key] = True  # a failure, not a wrong output
                tag = "known fault" if item.known_fault else "unexpected failure"
                print(f"{workload.name}: {item.label}: {tag}: {key[1]}", file=sys.stderr)
            continue
        key = (i, workload.extract(out))
        if key not in verdicts:
            problems = workload.check(item, key[1])
            verdicts[key] = not problems
            for p in problems:
                print(f"{workload.name}: {item.label}: WRONG: {p}", file=sys.stderr)
        if not verdicts[key]:
            failed += 1
    return failed, all(verdicts.values())


def layer_table(stats, scale: float) -> dict:
    """Group -> {calls, self_s, total_s, counters}, each multiplied by scale."""
    return {
        group: {"calls": g.calls * scale, "self_s": g.self_s * scale,
                "total_s": g.total_s * scale, **{k: v * scale for k, v in g.counts.items()}}
        for group, g in sorted(stats.items())
    }


def layer_metrics(tables, build_rss_peak_mb: float, overhead_s: float) -> dict:
    """Per-layer metrics summed over the given tables (set-up and one round)."""

    def value(group, field):
        return sum(t.get(group, {}).get(field, 0.0) for t in tables)

    metrics = {}
    for name, unit, _, group, field in LAYER_METRICS:
        if field == "overhead_s":
            v = overhead_s
        elif field == "rss_peak_mb":
            v = build_rss_peak_mb
        elif field == "found_ratio":
            calls = value(group, "calls")
            v = value(group, "found") / calls if calls else 0.0
        else:
            v = value(group, field)
        metrics[name] = {"value": float(v), "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed, args.tiny)))
        return 0

    try:
        bf = import_program()
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.workloads(ROOT)[args.workload]

    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed, args.tiny)
        items = workload.build(bf, args.seed, args.tiny)
        phase = Phase(workload, bf, items, args.seconds)
        print(phase.describe(args.workload), file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, correct = check_results(workload, items, phase.results)
        attempted = len(phase.results)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "fn_per_s": {"value": (attempted - failed) / phase.nominal_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        from tracer import Tracer

        tracer = Tracer(PACKAGE)
        tracer.install()
        try:
            items = workload.build(bf, args.seed, args.tiny)
        finally:
            tracer.uninstall()
        setup_stats = tracer.stats
        tracer.reset()
        plain = Phase(workload, bf, items, args.seconds)
        tracer.install()
        try:
            traced = Phase(workload, bf, items, args.seconds)
        finally:
            tracer.uninstall()
        print(plain.describe(args.workload + " untraced"), file=sys.stderr)
        print(traced.describe(args.workload + " traced"), file=sys.stderr)
        overhead_s = traced.nominal_s / traced.rounds - plain.nominal_s / plain.rounds
        failed, correct = check_results(workload, items, plain.results + traced.results)
        attempted = len(plain.results) + len(traced.results)
        tables = {"setup": layer_table(setup_stats, 1.0),
                  "round": layer_table(tracer.stats, 1.0 / traced.rounds)}
        metrics = layer_metrics(tables.values(), tracer.build_rss_peak_mb, overhead_s)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        doc = {"workload": args.workload, "seed": args.seed, "rounds": traced.rounds,
               "traced_round_wall_s": traced.work_s / traced.rounds, **tables}
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
