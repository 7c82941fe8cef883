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
"""

import json
import os
import statistics
import time

import pytest

from repro.ir.cfg import LoopInfo
from repro.passes import PassManager
from repro.workloads import load_suite

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_passmanager.json")

#: Leaves loop structure intact but produces realistic SSA CFGs.
PRE_PIPELINE = ["mem2reg", "instcombine", "licm", "simplifycfg"]

QUERY_ROUNDS = 40


def _record(entry):
    if not os.environ.get("REPRO_BENCH_RECORD"):
        return
    try:
        with open(BENCH_PATH) as handle:
            history = json.load(handle)
    except (OSError, ValueError):
        history = []
    history.append(entry)
    with open(BENCH_PATH, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")


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
    _record({
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
