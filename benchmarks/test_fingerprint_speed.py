"""Speed guard for structural fingerprinting.

Per-function fingerprints drive activity detection after every phase,
so the structural hash (:mod:`repro.ir.structhash`) must beat the
print-then-hash reference it is checked against
(``tests/ir/test_structhash.py``).  A wall-clock ratio, so it lives in
the slow tier (CI's perf-smoke job runs it with ``-m slow``).  Running
with ``REPRO_BENCH_RECORD=1`` appends a ``structhash`` entry to
``BENCH_passmanager.json``.
"""

import os
import time

from repro.ir.printer import (
    function_fingerprint,
    function_text_fingerprint,
)
from repro.passes import PassManager
from repro.workloads import load_suite

from bench_record import record

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_passmanager.json")


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
    record(BENCH_PATH, {
        "benchmark": "structhash",
        "functions": len(functions),
        "text_seconds": round(text_seconds, 4),
        "struct_seconds": round(struct_seconds, 4),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 1.0, (text_seconds, struct_seconds)
