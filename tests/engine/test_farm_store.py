"""The sharded cross-process farm store (ISSUE 7 tentpole, layer 1-2).

Covers: single-store semantics (roundtrip, persistence, sealing,
compaction, torn-line and corruption tolerance, no legacy layout,
orphan sweep), a multi-process stress suite (N processes hammering one
store: no corruption, no lost writes), and the farm-composed
process-pool differential (payloads bit-identical to serial
evaluation).
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import (
    EvaluationCache,
    EvaluationEngine,
    ShardedStore,
    cache_key,
    evaluate_point,
)
from repro.engine.store import _encode_line
from repro.sim import Platform
from repro.workloads import load_suite

KEYS = [cache_key(f"fp{i}", ("mem2reg",), "riscv", 0) for i in range(40)]


def _store(path, **kwargs):
    kwargs.setdefault("shards", 4)
    return ShardedStore(str(path), **kwargs)


# -- single-store semantics ----------------------------------------------

def test_put_get_roundtrip_and_miss(tmp_path):
    store = _store(tmp_path)
    store.put(KEYS[0], {"v": 1, "nested": {"x": [1.5, "s"]}})
    assert store.get(KEYS[0]) == {"v": 1, "nested": {"x": [1.5, "s"]}}
    assert store.get(KEYS[1]) is None
    totals = store.stats.totals()
    assert (totals["hits"], totals["misses"], totals["stores"]) \
        == (1, 1, 1)


def test_entries_visible_to_other_instances(tmp_path):
    writer = _store(tmp_path)
    reader = _store(tmp_path)  # separate instance = separate segments
    for i, key in enumerate(KEYS):
        writer.put(key, {"v": i})
    for i, key in enumerate(KEYS):
        assert reader.get(key) == {"v": i}
    # Every reader hit came from a foreign segment.
    assert reader.stats.totals()["cross_hits"] == len(KEYS)
    # Writes land in shard subdirectories of the root.
    shards = [name for name in os.listdir(tmp_path)
              if name.startswith("shard-")]
    assert shards


def test_sealing_and_compaction_preserve_every_entry(tmp_path):
    store = _store(tmp_path, seal_bytes=64, compact_after=2)
    for i, key in enumerate(KEYS):
        store.put(key, {"v": i})
    totals = store.stats.totals()
    assert totals["compactions"] > 0
    assert totals["segments_merged"] >= 2
    # All entries survive compaction, via the same and a fresh handle.
    for handle in (store, _store(tmp_path)):
        for i, key in enumerate(KEYS):
            assert handle.get(key) == {"v": i}, key
    # Compaction dedups: far fewer segment files than entries.
    segments = [name
                for shard in os.listdir(tmp_path)
                if shard.startswith("shard-")
                for name in os.listdir(tmp_path / shard)
                if name.endswith(".jsonl")]
    assert 0 < len(segments) < len(KEYS)


def test_reader_self_heals_after_foreign_compaction(tmp_path):
    writer = _store(tmp_path, seal_bytes=64)
    for i, key in enumerate(KEYS):
        writer.put(key, {"v": i})
    reader = _store(tmp_path)
    assert reader.get(KEYS[0]) == {"v": 0}  # index now points at files
    # Another process compacts under the reader.
    for shard in range(writer.n_shards):
        writer.compact_shard(shard)
    for i, key in enumerate(KEYS):
        assert reader.get(key) == {"v": i}


def test_torn_final_line_and_corrupt_lines_are_skipped(tmp_path):
    store = _store(tmp_path, shards=1)
    store.put(KEYS[0], {"v": 0})
    shard_dir = tmp_path / "shard-00"
    # A killed writer's segment: one intact line, one torn, one corrupt.
    with open(shard_dir / "seg-99999-deadbeef-000001.jsonl", "w") as f:
        f.write(_encode_line(KEYS[1], {"v": 1}).decode())
        f.write("{not json}\n")
        f.write(_encode_line(KEYS[2], {"v": 2}).decode()[:-4])
    fresh = _store(tmp_path, shards=1)
    assert fresh.get(KEYS[0]) == {"v": 0}
    assert fresh.get(KEYS[1]) == {"v": 1}
    assert fresh.get(KEYS[2]) is None  # torn line: never published
    assert fresh.stats.totals()["corrupt_lines"] == 1


def test_legacy_one_file_per_entry_layout_is_a_miss(tmp_path):
    with open(tmp_path / f"{KEYS[0]}.json", "w") as handle:
        json.dump({"v": "legacy"}, handle)
    store = _store(tmp_path)
    assert store.get(KEYS[0]) is None
    assert store.stats.totals()["misses"] == 1


def test_startup_sweep_removes_orphaned_tmp_files(tmp_path):
    (tmp_path / "shard-00").mkdir(parents=True)
    orphan = tmp_path / "shard-00" / "merged-000001-dead.jsonl.tmp"
    orphan.write_text("partial")
    stale_lock = tmp_path / "shard-00" / "compact.lock"
    stale_lock.write_text("99999")
    old = time.time() - 3600
    os.utime(orphan, (old, old))
    os.utime(stale_lock, (old, old))
    fresh_tmp = tmp_path / "shard-00" / "live.jsonl.tmp"
    fresh_tmp.write_text("in-flight")  # young: a live writer owns it
    store = _store(tmp_path)
    assert not orphan.exists()
    assert not stale_lock.exists()
    assert fresh_tmp.exists()
    assert store.stats.totals()["orphans_swept"] == 2


def test_compaction_lock_blocks_then_goes_stale(tmp_path):
    store = _store(tmp_path, shards=1, seal_bytes=64)
    for i, key in enumerate(KEYS):
        store.put(key, {"v": i})
    lock = tmp_path / "shard-00" / "compact.lock"
    lock.write_text("12345")
    assert store.compact_shard(0) is False  # held by a live compactor
    old = time.time() - 3600
    os.utime(lock, (old, old))
    assert store.compact_shard(0) is True  # stale lock broken
    for i, key in enumerate(KEYS):
        assert store.get(key) == {"v": i}


def test_evaluation_cache_disk_tier_is_the_sharded_store(tmp_path):
    cache = EvaluationCache(max_entries=2, store_dir=str(tmp_path))
    assert isinstance(cache.store, ShardedStore)
    for i in range(5):
        cache.put(f"{i:08x}" + "0" * 56, {"v": i})
    # Evicted from the LRU, reloaded from the shared store.
    fresh = EvaluationCache(max_entries=8, store_dir=str(tmp_path))
    assert fresh.get("00000000" + "0" * 56) == {"v": 0}
    assert fresh.stats.disk_hits == 1


# -- multi-process stress -------------------------------------------------

STRESS_KEYS = 24


def _stress_worker(task):
    """One process: write its slice, then hammer reads of every key
    until all writers' entries are visible (no lost writes)."""
    root, worker, n_workers = task
    store = ShardedStore(root, shards=4, seal_bytes=128,
                         compact_after=3)
    payloads = {}
    for i in range(STRESS_KEYS):
        key = cache_key(f"stress{i}", (), "riscv", 0)
        payload = {"i": i, "blob": f"payload-{i}" * 8}
        payloads[key] = payload
        if i % n_workers == worker:  # this worker's slice
            store.put(key, payload)
    deadline = time.time() + 30
    missing = dict(payloads)
    while missing and time.time() < deadline:
        for key in list(missing):
            value = store.get(key)
            if value is not None:
                if value != missing[key]:
                    return ("CORRUPT", key, value)
                del missing[key]
        time.sleep(0.01)
    if missing:
        return ("LOST", sorted(missing)[:3], None)
    store.compact_shard(0)  # racing compactions must stay safe
    for key, expected in payloads.items():
        if store.get(key) != expected:
            return ("CORRUPT-AFTER-COMPACT", key, None)
    return ("OK", store.stats.totals()["cross_hits"], None)


def test_multiprocess_stress_no_corruption_no_lost_writes(tmp_path):
    n_workers = 4
    tasks = [(str(tmp_path), worker, n_workers)
             for worker in range(n_workers)]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        outcomes = list(pool.map(_stress_worker, tasks))
    assert all(status == "OK" for status, _, _ in outcomes), outcomes
    # Every worker read the other workers' slices: cross-process hits.
    assert all(cross > 0 for _, cross, _ in outcomes), outcomes
    # A fresh process sees one consistent, complete image.
    store = ShardedStore(str(tmp_path), shards=4)
    for i in range(STRESS_KEYS):
        key = cache_key(f"stress{i}", (), "riscv", 0)
        assert store.get(key) == {"i": i, "blob": f"payload-{i}" * 8}
    aggregate = store.aggregate_stats()
    assert aggregate["stores"] >= STRESS_KEYS
    assert aggregate["processes"] >= n_workers


# -- farm-composed process pools -----------------------------------------

SEQUENCES = ((), ("mem2reg", "simplifycfg"),
             ("mem2reg", "instcombine", "dce"))
#: Orderings that converge to the same optimized code as SEQUENCES
#: (idempotent re-application), so the farm index can compose them.
CONVERGED = (("mem2reg", "simplifycfg", "simplifycfg"),
             ("mem2reg", "instcombine", "dce", "dce"))


def _rows(results):
    return [(r.result_fingerprint, tuple(sorted(r.metrics().items())),
             tuple(r.features), r.code_size, r.output, r.return_value,
             tuple(sorted(r.function_fingerprints.items())))
            for r in results]


@pytest.mark.parametrize("target", ["riscv", "x86"])
def test_process_pool_composes_through_the_farm(tmp_path, target):
    """PR-4 follow-up closed: process mode consults and publishes the
    shared store, so a farm-known optimized module is composed instead
    of re-evaluated end-to-end — with every payload field (features
    included) bit-identical to serial evaluation."""
    workloads = load_suite("beebs")[:2]
    points = [(w, seq) for w in workloads
              for seq in SEQUENCES + CONVERGED]
    serial = EvaluationEngine(Platform(target, measurement_seed=9))
    farmed = EvaluationEngine(Platform(target, measurement_seed=9),
                              mode="process", workers=2,
                              farm_dir=str(tmp_path / "farm"))
    # Warm the farm as another client would (serial engine, same farm).
    primer = EvaluationEngine(Platform(target, measurement_seed=9),
                              farm_dir=str(tmp_path / "farm"))
    primer.evaluate_batch([(w, seq) for w in workloads
                           for seq in SEQUENCES])
    assert _rows(serial.evaluate_batch(points)) == \
        _rows(farmed.evaluate_batch(points))
    aggregate = farmed.cache.store.aggregate_stats()
    # The sequence keys were new to the process engine, but the primed
    # result index served the optimized code cross-process.
    assert aggregate["cross_hits"] > 0, aggregate


def test_farm_spec_composes_without_an_engine(tmp_path):
    """evaluate_point itself honors farm_dir (the worker-side path)."""
    workload = load_suite("beebs")[0]
    spec = {"source": workload.source, "name": workload.name,
            "sequence": ["mem2reg"], "target": "riscv",
            "measurement_seed": 0, "fuel": 20_000_000,
            "sim_engine": None, "farm_dir": str(tmp_path)}
    first = evaluate_point(spec)
    composed = evaluate_point(dict(spec, sequence=["mem2reg",
                                                   "mem2reg"]))
    bare = evaluate_point({k: v for k, v in spec.items()
                           if k != "farm_dir"})
    for field in ("metrics", "features", "cycles", "code_size",
                  "output", "return_value", "result_fingerprint"):
        assert first[field] == composed[field] == bare[field], field
    assert composed["sequence"] == ["mem2reg", "mem2reg"]
    store = ShardedStore(str(tmp_path))
    assert len(store) == 1  # one result-index entry, shared by both
