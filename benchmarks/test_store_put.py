"""Benchmark record of the compile farm's write path.

Records three numbers to ``BENCH_engine.json`` (with
``REPRO_BENCH_RECORD=1``):

- ``put_us``: microseconds per ``ShardedStore.put`` of one real point
  payload (riscv ``-O2`` of the first beebs program, a 1.6 KB segment
  line, recorded as ``line_bytes``), the median of five rounds of 400
  puts to a fresh store;
- ``stats_writes_per_batch``: ``_stats/`` snapshot writes per
  ``evaluate_batch`` in an extract-farm-sized run: each beebs program
  (20 of them) under ``extraction_sequences(12, ...)`` (18 sequences,
  seeded as perfbench's extract-farm at seed 0) as one serial batch on
  one fresh farm;
- ``batch_put_seconds``: the seconds that run spends in
  ``ShardedStore.put``.

Slow tier, and no wall-clock bound: the numbers are recorded, not
gated.  ``tests/engine/test_farm_store.py`` guards the counts.
"""

import os
import statistics
import time
import zlib

from repro.baselines import STANDARD_LEVELS
from repro.engine import EvaluationEngine, ShardedStore, cache_key
from repro.engine import store as store_module
from repro.engine.evaluator import evaluate_point
from repro.engine.store import _encode_line
from repro.profiling import extraction_sequences
from repro.sim import Platform
from repro.workloads import load_suite

from bench_record import record

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_engine.json")
PUTS_PER_ROUND = 400
ROUNDS = 5


def _count_stats_writes(monkeypatch):
    counts = {"stats": 0}

    def counting_open(path, mode="r", *args, **kwargs):
        if mode == "w" and "_stats" in str(path):
            counts["stats"] += 1
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(store_module, "open", counting_open,
                        raising=False)
    return counts


def _time_puts(monkeypatch):
    clock = {"seconds": 0.0, "calls": 0}
    put = ShardedStore.put

    def timed(self, key, payload):
        started = time.perf_counter()
        try:
            return put(self, key, payload)
        finally:
            clock["seconds"] += time.perf_counter() - started
            clock["calls"] += 1

    monkeypatch.setattr(ShardedStore, "put", timed)
    return clock


def test_store_put_record(tmp_path, monkeypatch):
    workload = load_suite("beebs")[0]
    payload = evaluate_point({
        "source": workload.source, "name": workload.name,
        "sequence": list(STANDARD_LEVELS["-O2"]), "target": "riscv",
        "measurement_seed": 0})
    keys = [cache_key(f"put-bench-{i}", (), "riscv", 0)
            for i in range(PUTS_PER_ROUND)]
    line_bytes = len(_encode_line(keys[0], payload))
    rounds = []
    for round_index in range(ROUNDS):
        store = ShardedStore(tmp_path / f"micro-{round_index}")
        started = time.perf_counter()
        for key in keys:
            store.put(key, payload)
        rounds.append(time.perf_counter() - started)
        del store
    put_us = statistics.median(rounds) / PUTS_PER_ROUND * 1e6

    stats_writes = _count_stats_writes(monkeypatch)
    put_clock = _time_puts(monkeypatch)
    engine = EvaluationEngine(Platform("riscv"),
                              farm_dir=str(tmp_path / "farm"))
    batches = [(program, extraction_sequences(
        12, seed=zlib.crc32(f"0:{program.name}".encode())))
        for program in load_suite("beebs")]
    points = 0
    for program, sequences in batches:
        results = engine.evaluate_batch(
            [(program, sequence) for sequence in sequences],
            on_error="collect")
        points += len(results)
    per_batch = stats_writes["stats"] / len(batches)
    print(f"\n[store-bench] put {put_us:.1f} us ({line_bytes} B line); "
          f"{len(batches)} batches, {points} points, "
          f"{put_clock['calls']} puts in "
          f"{put_clock['seconds']:.4f} s, {per_batch:.2f} stats "
          f"writes per batch")
    record(BENCH_PATH, {
        "benchmark": "store_put",
        "line_bytes": line_bytes,
        "put_us": round(put_us, 1),
        "batches": len(batches),
        "points": points,
        "batch_puts": put_clock["calls"],
        "batch_put_seconds": round(put_clock["seconds"], 4),
        "stats_writes_per_batch": round(per_batch, 2),
    })
    assert points == sum(len(sequences) for _, sequences in batches)
