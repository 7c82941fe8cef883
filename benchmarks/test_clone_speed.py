"""Benchmark record of module cloning (``passes.cloning.clone_module``).

Clones every golden state (``tests/passes/clone_golden.py``: the workload
corpus at -O0, -O2 and -O3) three times and records, as the median of
the three passes, the absolute seconds spent in ``clone_module`` and the
microseconds per cloned instruction.  Every clone is checked against its
golden digest inline, so a speedup can never be bought with a change in
the cloned state (names, name counters, use-list order, predecessor
counts, phi incoming blocks).

Slow tier, and no wall-clock bound: the numbers are recorded, not
gated.  Running with ``REPRO_BENCH_RECORD=1`` appends them to
``BENCH_clone.json`` at the repo root.
"""

import importlib.util
import os
import statistics
import time

from repro.passes.cloning import clone_module

from bench_record import record

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_clone.json")


def _load_golden():
    path = os.path.join(ROOT, "tests", "passes", "clone_golden.py")
    spec = importlib.util.spec_from_file_location("clone_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clone_speed_record():
    golden = _load_golden()
    expected = golden.load_golden()
    states = [(key, level, module)
              for key, workload in golden.corpus()
              for level, module, _ in golden.level_states(workload)]
    instructions = sum(module.instruction_count()
                       for _, _, module in states)
    passes = []
    for _ in range(3):
        seconds = 0.0
        for key, level, module in states:
            started = time.perf_counter()
            clone = clone_module(module)
            seconds += time.perf_counter() - started
            assert golden.state_digest(clone) == \
                expected[key][level]["clone"], (key, level)
        passes.append(seconds)
    median = statistics.median(passes)
    per_instruction_us = median / instructions * 1e6
    print(f"\n[clone-bench] {len(states)} states, {instructions} "
          f"instructions: clone_module {median:.3f}s "
          f"({per_instruction_us:.2f} us per instruction)")
    record(BENCH_PATH, {
        "benchmark": "clone_golden_corpus",
        "states": len(states),
        "instructions": instructions,
        "clone_seconds": round(median, 4),
        "us_per_instruction": round(per_instruction_us, 3),
    })
