"""Per-layer tracing of boolfourier from outside the program.

``Tracer.install`` wraps every public function of the traced modules under
every name it is reachable by: the module's own attribute, names imported
into other modules (``pdt.fold``, ``verify.pointwise_product``, the package
namespace) and the ``cli.STRATEGIES`` table.  Each call is a span; a span's
self time is its duration minus the time its child spans cover, and the time
the tracer spends on its own counters is charged to no span.

Spans are aggregated in memory as they close, by group.  A group is one
layer metric prefix (``pdt.build`` covers the four builders); functions
outside the named groups get a group of their own, ``<module>.<name>``.  A
group's ``calls`` counts entries from outside the group, so a group member
calling another member is one call.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
from time import perf_counter
from typing import Dict, List

TRACED_MODULES = ("core", "restrict", "gf2", "pdt", "comm", "verify", "families", "cli")

# Groups of several functions.  Any other public function is a group of its
# own named <module>.<function>, unless its module is in MODULE_GROUPS.
GROUPS = {
    # verify_protocol runs simulate_protocol once per (x, y) pair.
    "comm.verify_protocol": ["comm.verify_protocol", "comm.simulate_protocol"],
    "pdt.search": ["pdt.rank_exact", "pdt.degree_reducing_subspace"],
    "pdt.build": [
        "pdt.build_greedy_l1",
        "pdt.build_heavy_hitter",
        "pdt.build_span_query",
        "pdt.build_degree_reduce",
    ],
    "pdt.cert": ["pdt.cert_greedy_l1", "pdt.cert_norm_halving", "pdt.cert_norm_halving_with_trace"],
    # deg2 is a thin shell over the Moebius transform anf_of.
    "core.deg2": ["core.deg2", "core.anf_of"],
    # parse_function_spec is the parsing half of what main does.
    "cli.main": ["cli.main", "cli.parse_function_spec"],
}
# Modules whose public functions all form one group.
MODULE_GROUPS = {"gf2": "gf2", "families": "families.generate"}


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GroupStats:
    __slots__ = ("calls", "self_s", "total_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _count_matrix_rank(stats, args, result, exc):
    shape = getattr(args[0], "shape", None)
    if shape is None:
        rows = len(args[0])
        cols = len(args[0][0]) if rows else 0
    else:
        rows, cols = shape
    stats.add("entries", rows * cols)


def _count_verify_protocol(stats, args, result, exc):
    stats.add("pairs", 4 ** args[1].n)


def _count_search(stats, args, result, exc):
    if exc is None:
        stats.add("found", 1)
    elif type(exc).__name__ == "NotFound" and "budget" in str(exc):
        stats.add("exhausted", 1)


def _count_build(stats, args, result, exc):
    if exc is not None:
        return
    tree, trace = result
    stats.add("trees", 1)
    stats.add("nodes", len(trace.nodes))
    stats.add("fallback_nodes", sum(1 for node in trace.nodes if node.info.get("fallback")))
    stats.add("depth_sum", tree.depth())


def _count_pointwise(stats, args, result, exc):
    stats.add("pairs", len(args[0].coeffs) * len(args[1].coeffs))


def _count_wht(stats, args, result, exc):
    n = args[0].n
    stats.add("points", n << n)


def _count_fold(stats, args, result, exc):
    stats.add("coeffs_in", len(args[0].coeffs))


def _count_cert(stats, args, result, exc):
    if exc is None:
        cert = result[0] if isinstance(result, tuple) else result
        stats.add("codim_sum", cert.codim)


COUNTERS = {
    "comm.matrix_rank_exact": _count_matrix_rank,
    "comm.verify_protocol": _count_verify_protocol,
    "pdt.search": _count_search,
    "pdt.build": _count_build,
    "core.pointwise_product": _count_pointwise,
    "core.wht": _count_wht,
    "restrict.fold": _count_fold,
    "pdt.cert": _count_cert,
}


def group_of(module: str, name: str) -> str:
    qual = f"{module}.{name}"
    for group, members in GROUPS.items():
        if qual in members:
            return group
    return MODULE_GROUPS.get(module, qual)


class Tracer:
    """Wraps the program's public functions and aggregates their spans."""

    def __init__(self, package):
        self.package = package
        self.stats: Dict[str, GroupStats] = {}
        self.build_rss_peak_mb = 0.0
        self._stack: List[list] = []  # [seconds covered by child spans] per open span
        self._depth: Dict[str, int] = {}
        self._patches: List[tuple] = []  # (container, key, original)

    def reset(self) -> None:
        self.stats = {}
        self.build_rss_peak_mb = 0.0

    def _wrap(self, group: str, fn):
        stack = self._stack
        depth = self._depth
        counter = COUNTERS.get(group)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer.stats.get(group)
            if stats is None:
                stats = tracer.stats[group] = GroupStats()
            outer = depth.get(group, 0) == 0
            depth[group] = depth.get(group, 0) + 1
            frame = [0.0]
            stack.append(frame)
            rss_before = _rss_mib() if group == "pdt.build" else 0.0
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[group] -= 1
                duration = t1 - t0
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if outer:
                    stats.calls += 1
                    if counter is not None:
                        counter(stats, args, result, exc)
                if group == "pdt.build":
                    rss = _rss_mib()
                    if rss > rss_before:
                        tracer.build_rss_peak_mb = max(tracer.build_rss_peak_mb, rss)
                if stack:
                    # The parent's self time excludes this span and the
                    # bookkeeping just done for it.
                    stack[-1][0] += perf_counter() - t0

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{self.package}.{short}")
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type) and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(group_of(short, name), fn))
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            self._patch(vars(module), wrappers)
        self._patch(importlib.import_module(f"{self.package}.cli").STRATEGIES, wrappers)

    def _patch(self, container: dict, wrappers: dict) -> None:
        for key, value in list(container.items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                self._patches.append((container, key, value))
                container[key] = entry[1]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()
