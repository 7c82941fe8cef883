"""Benchmark guard for the pre-decoded tape interpreter (cold profiling).

Profiles the workload corpus (BEEBS, PARSEC, the call-graph-rich
``multi`` suite and ``earlyexit``; -O0 and -O2; both targets) with the
full ``PipelineModel`` attached, the way a cold evaluation meets it:
every program is decoded and run from scratch, once, so decode time
counts against the interpreter.  The seed decode-per-instruction
simulator is the baseline.

Guarded: the median of three cold passes over the corpus must be at
least 3x faster than the seed's median, with identical observables,
instruction counts, cycles, stall totals, mispredicts and both caches'
hits and misses (re-checked inline, so a speedup can never be bought
with a semantics drift; the full-state equivalence corpus is
``tests/sim/test_tape.py``).  Measured at introduction on a 2-vCPU
host: 4.03x (seed 11.60 s, interpreter 2.88 s, decode 0.16 s of it).

Slow tier: a wall-clock ratio never gates the tier-1 selection.
Running with ``REPRO_BENCH_RECORD=1`` appends the numbers to
``BENCH_sim.json`` at the repo root, with the absolute run time (tape
minus decode), the executed instruction count and the nanoseconds per
executed instruction, so the simulator's own speed is tracked, not only
its ratio to the seed.
"""

import os
import statistics
import time

from repro.backend import compile_module, get_isa
from repro.baselines import STANDARD_LEVELS
from repro.passes import PassManager
from repro.sim import PipelineModel, Simulator, TapeSimulator, \
    tape_cache_stats
from repro.workloads import load_suite

from bench_record import record

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_sim.json")


def _corpus():
    programs = []
    for suite in ("beebs", "parsec", "multi", "earlyexit"):
        for workload in load_suite(suite):
            for level in ("-O0", "-O2"):
                module = workload.compile()
                PassManager().run(module, STANDARD_LEVELS[level])
                for target in ("x86", "riscv"):
                    isa = get_isa(target)
                    programs.append((compile_module(module, isa), isa))
    return programs


def _profile_all(programs, engine):
    """One cold pass: construct (decode) and run every program."""
    started = time.perf_counter()
    outcomes = []
    for program, isa in programs:
        timing = PipelineModel(isa)
        result = engine(program, isa, timing).run()
        outcomes.append((result.output, result.return_value,
                         result.instructions_executed, timing.cycles(),
                         timing.mispredicts,
                         timing.icache.hits, timing.icache.misses,
                         timing.dcache.hits, timing.dcache.misses))
    return time.perf_counter() - started, outcomes


def test_cold_profile_at_least_3x_seed():
    """Cold decode + run >= 3x the seed simulator over the corpus,
    bit-identical along the way."""
    programs = _corpus()
    seed_times, tape_times = [], []
    decode_before = tape_cache_stats()["decode_seconds"]
    for _ in range(3):
        seconds, seed_outcomes = _profile_all(programs, Simulator)
        seed_times.append(seconds)
        seconds, tape_outcomes = _profile_all(programs, TapeSimulator)
        tape_times.append(seconds)
        assert tape_outcomes == seed_outcomes
    decode_seconds = (tape_cache_stats()["decode_seconds"]
                      - decode_before) / 3
    seed_seconds = statistics.median(seed_times)
    tape_seconds = statistics.median(tape_times)
    speedup = seed_seconds / max(tape_seconds, 1e-9)
    run_seconds = tape_seconds - decode_seconds
    instructions = sum(outcome[2] for outcome in tape_outcomes)
    ns_per_instruction = run_seconds / instructions * 1e9
    print(f"\n[sim-tape-bench] {len(programs)} cold programs: seed "
          f"{seed_seconds:.2f}s, interpreter {tape_seconds:.2f}s "
          f"(decode {decode_seconds:.2f}s, run {run_seconds:.2f}s over "
          f"{instructions} instructions, {ns_per_instruction:.0f} ns "
          f"each) -> {speedup:.2f}x")
    record(BENCH_PATH, {
        "benchmark": "cold_interpreter_vs_seed_profile",
        "programs": len(programs),
        "seed_seconds": round(seed_seconds, 4),
        "tape_seconds": round(tape_seconds, 4),
        "decode_seconds": round(decode_seconds, 4),
        "run_seconds": round(run_seconds, 4),
        "instructions": instructions,
        "ns_per_instruction": round(ns_per_instruction, 1),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 3.0, (seed_times, tape_times)
