"""Benchmark guard for IR-maintained CFG edges (ISSUE 5).

Measures the CFG-query primitives the IR layer now maintains against
the seed's scan-based cost model, on real mid-pipeline modules:

- ``Block.predecessors()`` (O(preds) from the maintained links) vs the
  historical whole-function successor scan per query;
- ``Loop.ordered_blocks()``/``exit_blocks()`` (block-position index)
  vs the historical O(|function.blocks|) filter per query.

The legacy baselines are re-implemented here verbatim from the seed so
the comparison survives the refactor that removed them.  Running with
``REPRO_BENCH_RECORD=1`` appends a ``cfg_maintenance`` entry to
``BENCH_passmanager.json`` (uploaded by the CI perf-smoke job).  The
end-to-end cold-evaluation guard stays in ``test_passmanager.py`` —
this file isolates the query layer so a bookkeeping regression shows
up at its own doorstep.

Two tests: the identical-answer check is marked ``fast`` and runs in
tier-1; the >= 1.2x speed ratios are a wall-clock measurement, so they
run in the slow tier (CI perf-smoke, ``-m slow``) as the median of three
timed attempts.

A third, slow, records the pass-layer analyses themselves: it runs the
-O2 pipeline over the bundled corpus and appends a
``pass_layer_analyses`` entry with the count and inclusive seconds of
``DominatorTree`` and ``LoopInfo`` builds, RPO walks, reachability walks
and ipsccp function solves.  It bounds only the ipsccp solve count.
"""

import contextlib
import functools
import os
import statistics
import sys
import time

import pytest

from repro.baselines import STANDARD_LEVELS
from repro.ir import cfg
from repro.ir.cfg import LoopInfo
from repro.passes import AnalysisManager, PassManager, sccp
from repro.workloads import load_suite
from repro.workloads.registry import suite_names

from bench_record import record

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_passmanager.json")

#: Leaves loop structure intact but produces realistic SSA CFGs.
PRE_PIPELINE = ["mem2reg", "instcombine", "licm", "simplifycfg"]

QUERY_ROUNDS = 40


# -- the seed's scan-based implementations (legacy cost model) ------------

def _legacy_predecessors(block):
    if block.parent is None:
        return []
    preds = []
    for other in block.parent.blocks:
        if block in other.successors():
            preds.append(other)
    return preds


def _legacy_ordered_blocks(loop):
    function = loop.header.parent
    return [b for b in function.blocks if b in loop.blocks]


def _legacy_exit_blocks(loop):
    exits = []
    for block in _legacy_ordered_blocks(loop):
        for succ in block.successors():
            if succ not in loop.blocks and succ not in exits:
                exits.append(succ)
    return exits


def _many_loop_source(n_loops=60):
    """One big function with many small early-exit loops — the shape
    where the seed's O(|function.blocks|)-per-query cost model
    collapses (every loop query paid for every block of the
    function)."""
    lines = ["int main() {", "  int acc = 1;"]
    for k in range(n_loops):
        lines.append(
            f"  for (int i{k} = 0; i{k} < {8 + k % 7}; i{k}++) {{\n"
            f"    if (acc > {900 + 13 * k}) break;\n"
            f"    acc += i{k} % {2 + k % 5} + {k % 3};\n"
            f"  }}")
    lines += ["  print_int(acc);", "  return acc % 251;", "}"]
    return "\n".join(lines)


def _prepared_functions():
    from repro.lang import compile_source
    functions = []
    for workload in (load_suite("beebs") + load_suite("multi")
                     + load_suite("earlyexit")):
        module = workload.compile()
        PassManager().run(module, PRE_PIPELINE)
        functions.extend(module.defined_functions())
    big = compile_source(_many_loop_source())
    PassManager().run(big, PRE_PIPELINE)
    functions.extend(big.defined_functions())
    return functions


def _time_pred_queries(functions, query):
    started = time.perf_counter()
    total = 0
    for _ in range(QUERY_ROUNDS):
        for function in functions:
            for block in function.blocks:
                total += len(query(block))
    return time.perf_counter() - started, total


def _time_loop_queries(loop_infos, ordered, exits):
    started = time.perf_counter()
    total = 0
    for _ in range(QUERY_ROUNDS):
        for info in loop_infos:
            for loop in info.loops:
                total += len(ordered(loop))
                total += len(exits(loop))
    return time.perf_counter() - started, total


@pytest.mark.fast
def test_cfg_queries_match_the_scan_cost_model():
    """Maintained predecessor links and block positions give the same
    answers, in the same order, as the seed's per-query scans."""
    functions = _prepared_functions()
    for function in functions:
        for block in function.blocks:
            assert [id(b) for b in block.predecessors()] == \
                [id(b) for b in _legacy_predecessors(block)]
    for info in (LoopInfo(fn) for fn in functions):
        for loop in info.loops:
            assert [id(b) for b in loop.ordered_blocks()] == \
                [id(b) for b in _legacy_ordered_blocks(loop)]
            assert [id(b) for b in loop.exit_blocks()] == \
                [id(b) for b in _legacy_exit_blocks(loop)]


def test_cfg_queries_median_speedup_at_least_1_2x():
    """Maintained predecessor links and block positions must answer
    the hot CFG queries measurably faster (>= 1.2x, median of three
    attempts) than the seed's per-query scans."""
    functions = _prepared_functions()
    loop_infos = [LoopInfo(fn) for fn in functions]
    times = {"pred_scan": [], "pred_maintained": [],
             "loop_scan": [], "loop_maintained": []}
    for _attempt in range(3):
        seconds, checksum_a = _time_pred_queries(
            functions, _legacy_predecessors)
        times["pred_scan"].append(seconds)
        seconds, checksum_b = _time_pred_queries(
            functions, lambda block: block.predecessors())
        times["pred_maintained"].append(seconds)
        assert checksum_a == checksum_b
        seconds, checksum_c = _time_loop_queries(
            loop_infos, _legacy_ordered_blocks, _legacy_exit_blocks)
        times["loop_scan"].append(seconds)
        seconds, checksum_d = _time_loop_queries(
            loop_infos, lambda lp: lp.ordered_blocks(),
            lambda lp: lp.exit_blocks())
        times["loop_maintained"].append(seconds)
        assert checksum_c == checksum_d
    median = {name: statistics.median(values)
              for name, values in times.items()}
    pred_speedup = median["pred_scan"] / max(median["pred_maintained"], 1e-9)
    loop_speedup = median["loop_scan"] / max(median["loop_maintained"], 1e-9)
    print(f"\n[cfg-bench] medians of 3: predecessors: scan "
          f"{median['pred_scan'] * 1e3:.1f}ms, maintained "
          f"{median['pred_maintained'] * 1e3:.1f}ms -> "
          f"{pred_speedup:.2f}x; loop queries: scan "
          f"{median['loop_scan'] * 1e3:.1f}ms, maintained "
          f"{median['loop_maintained'] * 1e3:.1f}ms -> {loop_speedup:.2f}x")
    record(BENCH_PATH, {
        "benchmark": "cfg_maintenance",
        "functions": len(functions),
        "query_rounds": QUERY_ROUNDS,
        "pred_scan_seconds": round(median["pred_scan"], 4),
        "pred_maintained_seconds": round(median["pred_maintained"], 4),
        "pred_speedup": round(pred_speedup, 2),
        "loop_scan_seconds": round(median["loop_scan"], 4),
        "loop_maintained_seconds": round(median["loop_maintained"], 4),
        "loop_speedup": round(loop_speedup, 2),
    })
    assert pred_speedup >= 1.2, times
    assert loop_speedup >= 1.2, times


# -- pass-layer analysis counts -------------------------------------------

#: ipsccp function solves over the -O2 corpus when every round re-solved
#: every function (the tier-1 guard in tests/passes bounds the same).
ROUND_ROBIN_IPSCCP_SOLVES = 328

#: Corpus passes per measurement; the record holds one pass's mean.
CORPUS_PASSES = 5


@contextlib.contextmanager
def _counting(stats):
    """Count calls to, and inclusive seconds in, the CFG analyses and
    the solves ipsccp makes, wherever a ``repro`` module bound them."""
    patched = []
    in_ipsccp = [False]

    def counted(label, original, only_in_ipsccp=False):
        entry = stats.setdefault(label, {"count": 0, "seconds": 0.0})

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if only_in_ipsccp and not in_ipsccp[0]:
                return original(*args, **kwargs)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                entry["count"] += 1
                entry["seconds"] += time.perf_counter() - started
        return wrapper

    def patch(owner, name, replacement):
        patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    for label, name in (("rpo_walks", "reverse_postorder"),
                        ("reachability_walks", "reachable_blocks")):
        original = getattr(cfg, name)
        wrapper = counted(label, original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, name, None) is original:
                patch(module, name, wrapper)
    patch(cfg.DominatorTree, "__init__", counted(
        "domtree_builds", cfg.DominatorTree.__init__))
    patch(cfg.LoopInfo, "__init__", counted(
        "loopinfo_builds", cfg.LoopInfo.__init__))
    patch(sccp._SCCPSolver, "solve", counted(
        "ipsccp_solves", sccp._SCCPSolver.solve, only_in_ipsccp=True))
    run_with_changes = sccp.IPSCCP.run_with_changes

    def ipsccp_run(self, module, am):
        in_ipsccp[0] = True
        try:
            return run_with_changes(self, module, am)
        finally:
            in_ipsccp[0] = False

    patch(sccp.IPSCCP, "run_with_changes",
          counted("ipsccp_runs", ipsccp_run))
    try:
        yield stats
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def test_pass_layer_analysis_counts_and_seconds():
    """The -O2 pipeline over the corpus, each program on its own
    analysis manager: per-analysis counts and inclusive seconds (the
    mean of ``CORPUS_PASSES`` passes) go to ``BENCH_passmanager.json``;
    only the ipsccp solve count is bounded (at most half the round-robin
    solve's)."""
    workloads = [w for suite in suite_names() for w in load_suite(suite)]
    stats = {}
    pipeline_seconds = 0.0
    with _counting(stats):
        for _ in range(CORPUS_PASSES):
            modules = [w.compile() for w in workloads]
            started = time.perf_counter()
            for module in modules:
                PassManager().run(module, list(STANDARD_LEVELS["-O2"]),
                                  AnalysisManager())
            pipeline_seconds += time.perf_counter() - started
    entry = {"benchmark": "pass_layer_analyses",
             "programs": len(workloads),
             "pipeline_seconds": round(pipeline_seconds / CORPUS_PASSES, 4)}
    for label, counts in sorted(stats.items()):
        assert counts["count"] % CORPUS_PASSES == 0, label
        entry[label] = counts["count"] // CORPUS_PASSES
        entry[f"{label}_seconds"] = round(
            counts["seconds"] / CORPUS_PASSES, 4)
    print(f"\n[pass-layer] -O2 over {len(workloads)} programs: "
          f"{entry['pipeline_seconds']:.3f}s per corpus pass")
    for label in sorted(stats):
        print(f"  {label}: {entry[label]} in "
              f"{entry[label + '_seconds']:.4f}s")
    record(BENCH_PATH, entry)
    assert entry["ipsccp_runs"] == len(workloads)
    assert entry["ipsccp_solves"] <= ROUND_ROBIN_IPSCCP_SOLVES // 2
