"""Benchmark record of the backend's own speed (the codegen layer).

Compiles the golden-digest corpus (``tests/backend/codegen_golden.py``:
the workload corpus at -O0, -O2 and -O3, on both targets) three times
and records, as the median of the three passes, the absolute seconds of
instruction selection, register allocation and code layout, the whole
``compile_module`` time, and machine instructions emitted per second.
Every compile is checked against the golden digests inline, so a
speedup can never be bought with a change in the output.

Slow tier, and no wall-clock bound: the numbers are recorded, not
gated.  Running with ``REPRO_BENCH_RECORD=1`` appends them to
``BENCH_codegen.json`` at the repo root.
"""

import importlib.util
import os
import statistics
import time

import pytest

from repro.backend import codegen

from bench_record import record

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_codegen.json")
#: codegen-driver function -> the stage its time is charged to.
STAGES = {
    "select_function": "isel",
    "allocate_registers": "regalloc",
    "_layout_code": "layout",
}


def _load_golden():
    path = os.path.join(ROOT, "tests", "backend", "codegen_golden.py")
    spec = importlib.util.spec_from_file_location("codegen_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(function, stage, seconds):
    def wrapper(*args):
        started = time.perf_counter()
        try:
            return function(*args)
        finally:
            seconds[stage] += time.perf_counter() - started
    return wrapper


def test_codegen_speed_record():
    golden = _load_golden()
    expected = golden.load_golden()
    programs = [(key, level, module)
                for key, build in golden.corpus()
                for level, module in golden.optimized_modules(build)]
    passes = []
    with pytest.MonkeyPatch.context() as patch:
        seconds = {}
        for name, stage in STAGES.items():
            patch.setattr(codegen, name,
                          _timed(getattr(codegen, name), stage, seconds))
        for _ in range(3):
            seconds.update(dict.fromkeys(STAGES.values(), 0.0))
            compile_seconds = 0.0
            instructions = 0
            for key, level, module in programs:
                for target in golden.TARGETS:
                    started = time.perf_counter()
                    program = codegen.compile_module(module, target)
                    compile_seconds += time.perf_counter() - started
                    assert golden.program_digest(program) == \
                        expected[key][f"{level} {target}"], \
                        (key, level, target)
                    instructions += sum(mfunc.instruction_count()
                                        for mfunc in
                                        program.functions.values())
            passes.append(dict(seconds, codegen=compile_seconds))
    median = {stage: statistics.median(p[stage] for p in passes)
              for stage in passes[0]}
    compiles = len(programs) * len(golden.TARGETS)
    per_second = instructions / median["codegen"]
    print(f"\n[codegen-bench] {compiles} compiles, {instructions} machine "
          f"instructions: isel {median['isel']:.3f}s, regalloc "
          f"{median['regalloc']:.3f}s, layout "
          f"{median['layout']:.3f}s, codegen {median['codegen']:.3f}s "
          f"({per_second:,.0f} instructions/s)")
    record(BENCH_PATH, {
        "benchmark": "codegen_golden_corpus",
        "compiles": compiles,
        "instructions": instructions,
        "isel_seconds": round(median["isel"], 4),
        "regalloc_seconds": round(median["regalloc"], 4),
        "layout_seconds": round(median["layout"], 4),
        "codegen_seconds": round(median["codegen"], 4),
        "instructions_per_second": round(per_second),
    })
