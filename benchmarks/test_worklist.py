"""Benchmark guards for the worklist engines and structural hashing
(ISSUE 3).

Isolates the two pass-layer primitives the ISSUE rebuilt — fixpoint
pass bodies (worklist vs the seed's rescan loops) and per-function
fingerprinting (structural vs print-then-hash) — from the caching
layers measured by ``test_passmanager.py``, so a regression in either
shows up at its own doorstep.  Running with ``REPRO_BENCH_RECORD=1``
appends ``worklist`` / ``structhash`` entries to
``BENCH_passmanager.json``.

Marked ``fast`` (tier-1 guard).
"""

import json
import os
import time

import pytest

from repro.ir.printer import (
    function_fingerprint,
    function_text_fingerprint,
)
from repro.passes import AnalysisManager, PassManager, create_pass
from repro.workloads import load_suite

pytestmark = pytest.mark.fast

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_passmanager.json")

#: The fixpoint-heavy converted passes, run against a mid-pipeline
#: state that leaves them real work.
WORKLIST_PASSES = ("instcombine", "simplifycfg", "sccp", "dce", "gvn")
PRE_PIPELINE = ["inline", "mem2reg", "licm", "indvars", "loop-unroll"]


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


def _pass_body_seconds(engine):
    """Total pass-body time of the converted passes under one engine
    (``worklist`` = enabled manager, ``rescan`` = the legacy bodies)."""
    total = 0.0
    for workload in (load_suite("beebs") + load_suite("parsec")
                     + load_suite("multi")):
        module = workload.compile()
        PassManager().run(module, PRE_PIPELINE)
        am = AnalysisManager(enabled=(engine == "worklist"))
        for name in WORKLIST_PASSES:
            phase = create_pass(name)
            started = time.perf_counter()
            phase.run(module, am)
            total += time.perf_counter() - started
    return total


def test_worklist_pass_bodies_not_slower_than_rescan():
    """The worklist engines must reach their (bit-identical) fixpoints
    at least as fast as the seed's rescan loops on real workloads."""
    best_ratio = 0.0
    for attempt in range(3):
        rescan = _pass_body_seconds("rescan")
        worklist = _pass_body_seconds("worklist")
        ratio = rescan / max(worklist, 1e-9)
        best_ratio = max(best_ratio, ratio)
        if best_ratio >= 1.0:
            break
    print(f"\n[worklist-bench] rescan {rescan * 1e3:.1f}ms, worklist "
          f"{worklist * 1e3:.1f}ms -> {ratio:.2f}x")
    _record({
        "benchmark": "worklist",
        "passes": list(WORKLIST_PASSES),
        "rescan_seconds": round(rescan, 4),
        "worklist_seconds": round(worklist, 4),
        "speedup": round(ratio, 2),
    })
    # Tiny tier-1 functions mostly bound the win (few rescan rounds);
    # the guard protects against the engines regressing below parity.
    assert best_ratio >= 0.9, (rescan, worklist)


def test_structural_fingerprint_faster_than_text():
    """The structural hash must beat print-then-hash on the same
    function population (it also never mutates the function)."""
    functions = []
    for workload in (load_suite("beebs") + load_suite("parsec")
                     + load_suite("multi")):
        for pipeline in ((), ("mem2reg", "instcombine", "simplifycfg")):
            module = workload.compile()
            if pipeline:
                PassManager().run(module, list(pipeline))
            functions.extend(module.defined_functions())

    def best(fn, repeats=5):
        best_seconds = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for function in functions:
                fn(function)
            best_seconds = min(best_seconds,
                               time.perf_counter() - started)
        return best_seconds

    text_seconds = best(function_text_fingerprint)
    struct_seconds = best(function_fingerprint)
    speedup = text_seconds / max(struct_seconds, 1e-9)
    print(f"\n[structhash-bench] text {text_seconds * 1e3:.1f}ms, "
          f"struct {struct_seconds * 1e3:.1f}ms -> {speedup:.2f}x "
          f"({len(functions)} functions)")
    _record({
        "benchmark": "structhash",
        "functions": len(functions),
        "text_seconds": round(text_seconds, 4),
        "struct_seconds": round(struct_seconds, 4),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 1.0, (text_seconds, struct_seconds)
