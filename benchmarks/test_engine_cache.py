"""Guards for the evaluation engine's warm cache.

A repeated-sequence workload (the shape of RL training and exhaustive /
Pareto searches) must be served from a warm cache without running the
pipeline again.  The tier-1 guard pins that as a work budget (zero
pass-manager runs, codegens and simulations on the warm batch); the
slow-marked guard keeps the wall-clock ratio (>=5x warm over cold),
whose numbers ``REPRO_BENCH_RECORD=1`` appends to ``BENCH_engine.json``
at the repo root.
"""

import os
import sys
import time

import pytest

from repro.backend import codegen
from repro.engine import EvaluationEngine
from repro.passes import PassManager
from repro.sim import Platform, Simulator, TapeSimulator
from repro.workloads import load_suite

from bench_record import record

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_engine.json")

SEQUENCES = ((), ("mem2reg", "simplifycfg"),
             ("mem2reg", "instcombine", "gvn", "dce"),
             ("mem2reg", "licm", "loop-unroll", "simplifycfg"))


def _points():
    return [(workload, sequence)
            for workload in load_suite("beebs")[:5]
            for sequence in SEQUENCES]


def _row(result):
    return (result.result_fingerprint, result.metrics(),
            tuple(result.features), result.code_size, result.output,
            result.return_value)


def _count_calls(monkeypatch, owner, attr):
    """Route ``owner.attr`` and every ``repro`` binding of it through
    a counting wrapper; returns the list of recorded calls."""
    original = getattr(owner, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.fast
def test_warm_cache_runs_no_pipeline_work(monkeypatch):
    points = _points()
    engine = EvaluationEngine(Platform("riscv"))
    cold = engine.evaluate_batch(points)
    work = {
        "passes": [_count_calls(monkeypatch, PassManager, "run")],
        "codegen": [_count_calls(monkeypatch, codegen, "compile_module")],
        "simulate": [_count_calls(monkeypatch, engine_class, "run")
                     for engine_class in (TapeSimulator, Simulator)],
    }
    warm = engine.evaluate_batch(points)

    assert all(not r.cached for r in cold)
    assert all(r.cached for r in warm)
    assert {stage: sum(map(len, calls)) for stage, calls in work.items()} \
        == {"passes": 0, "codegen": 0, "simulate": 0}
    assert [_row(r) for r in warm] == [_row(r) for r in cold]
    # Warm pass hits every point; the cold pass additionally probes the
    # function-granular result index once per fresh simulation.
    assert engine.cache.stats.hits == \
        len(points) + engine.compose_stats["hits"]
    assert engine.cache.stats.hit_rate >= 0.4


@pytest.mark.slow
def test_warm_cache_wall_clock_speedup_at_least_5x():
    points = _points()
    engine = EvaluationEngine(Platform("riscv"))

    started = time.perf_counter()
    cold = engine.evaluate_batch(points)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = engine.evaluate_batch(points)
    warm_seconds = time.perf_counter() - started

    assert all(r.cached for r in warm)
    assert [_row(r) for r in warm] == [_row(r) for r in cold]

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    hit_rate = engine.cache.stats.hit_rate
    print(f"\n[engine-bench] {len(points)} points: cold "
          f"{cold_seconds * 1e3:.1f}ms, warm {warm_seconds * 1e3:.2f}ms "
          f"-> {speedup:.0f}x, hit rate {hit_rate:.1%}")
    record(BENCH_PATH, {
        "benchmark": "warm_vs_cold_batch",
        "points": len(points),
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(speedup, 1),
        "hit_rate": round(hit_rate, 4),
    })
    assert speedup >= 5.0, (cold_seconds, warm_seconds)


@pytest.mark.fast
def test_bench_warm_lookup(benchmark):
    """Steady-state latency of a warm-cache evaluation."""
    workload = load_suite("beebs")[0]
    engine = EvaluationEngine(Platform("riscv"))
    sequence = ("mem2reg", "simplifycfg")
    engine.evaluate(workload, sequence)  # prime

    result = benchmark(engine.evaluate, workload, sequence)
    assert result.cached
