"""The cross-process farm store.

Covers: single-store semantics (roundtrip, persistence, the
one-segment-per-writer layout, torn-line and corruption tolerance, no
older layouts), a multi-process stress suite (N processes hammering one
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
from repro.engine import store as store_module
from repro.engine.store import _encode_line
from repro.sim import Platform
from repro.workloads import load_suite
from tests.engine.faultinject import inject_store_faults

KEYS = [cache_key(f"fp{i}", ("mem2reg",), "riscv", 0) for i in range(40)]


def _segments(root):
    return sorted(name for name in os.listdir(root)
                  if name.endswith(".jsonl"))


# -- single-store semantics ----------------------------------------------

def test_put_get_roundtrip_and_miss(tmp_path):
    store = ShardedStore(tmp_path)
    store.put(KEYS[0], {"v": 1, "nested": {"x": [1.5, "s"]}})
    assert store.get(KEYS[0]) == {"v": 1, "nested": {"x": [1.5, "s"]}}
    assert store.get(KEYS[1]) is None
    totals = store.local_stats()
    assert (totals["hits"], totals["misses"], totals["stores"]) \
        == (1, 1, 1)
    assert totals["hit_rate"] == 0.5


def test_entries_visible_to_other_instances(tmp_path):
    writer = ShardedStore(tmp_path)
    reader = ShardedStore(tmp_path)  # separate instance = separate segments
    for i, key in enumerate(KEYS):
        writer.put(key, {"v": i})
    for i, key in enumerate(KEYS):
        assert reader.get(key) == {"v": i}
    # Every reader hit came from a foreign segment.
    assert reader.local_stats()["cross_hits"] == len(KEYS)
    # All of the writer's entries land in one segment directly under
    # the root; the reader, which wrote nothing, has none.
    segments = _segments(tmp_path)
    assert len(segments) == 1
    assert segments[0].startswith(f"seg-{os.getpid()}-")
    # Counters reach _stats/ on a publish (batch end, close or
    # aggregate_stats), never on a put.
    assert sorted(os.listdir(tmp_path)) == segments
    writer.close()
    assert sorted(os.listdir(tmp_path)) == ["_stats"] + segments
    assert writer.aggregate_stats()["stores"] == len(KEYS)


def _count_store_opens(monkeypatch):
    """Count the store module's segment opens and ``_stats/`` snapshot
    writes."""
    counts = {"segment": 0, "stats": 0}

    def counting_open(path, mode="r", *args, **kwargs):
        if mode == "ab":
            counts["segment"] += 1
        elif mode == "w" and "_stats" in str(path):
            counts["stats"] += 1
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(store_module, "open", counting_open,
                        raising=False)
    return counts


def test_puts_open_the_segment_once_and_publish_nothing(tmp_path,
                                                        monkeypatch):
    counts = _count_store_opens(monkeypatch)
    writer = ShardedStore(tmp_path)
    for i, key in enumerate(KEYS):
        writer.put(key, {"v": i})
    assert counts == {"segment": 1, "stats": 0}
    writer.close()
    assert counts == {"segment": 1, "stats": 1}
    # A put after close reopens the same segment.
    writer.put(KEYS[0], {"v": 0})
    assert counts["segment"] == 2
    assert len(_segments(tmp_path)) == 1
    writer.close()


def test_serial_batch_publishes_the_counters_once(tmp_path, monkeypatch):
    counts = _count_store_opens(monkeypatch)
    engine = EvaluationEngine(Platform("riscv", measurement_seed=9),
                              farm_dir=str(tmp_path))
    points = [(load_suite("beebs")[0], seq) for seq in SEQUENCES]
    engine.evaluate_batch(points)
    assert counts == {"segment": 1, "stats": 1}
    # A batch the LRU serves whole leaves the farm's counters as they
    # were, so nothing is rewritten.
    engine.evaluate_batch(points)
    assert counts == {"segment": 1, "stats": 1}
    assert engine.stats()["farm"]["aggregate"]["stores"] == \
        engine.cache.stats.disk_stores


def test_forked_child_appends_to_its_own_segment(tmp_path):
    writer = ShardedStore(tmp_path)
    writer.put(KEYS[0], {"v": 0})  # the segment is open at the fork
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            writer.put(KEYS[1], {"v": 1})
            writer.close()
            status = 0
        finally:
            os._exit(status)
    assert os.waitpid(pid, 0)[1] == 0
    writer.put(KEYS[2], {"v": 2})
    segments = _segments(tmp_path)
    assert len(segments) == 2
    assert sum(name.startswith(f"seg-{pid}-") for name in segments) == 1
    fresh = ShardedStore(tmp_path)
    for i in range(3):
        assert fresh.get(KEYS[i]) == {"v": i}
    # The parent's tracked offsets still address its own lines.
    assert writer.get(KEYS[2]) == {"v": 2}
    assert fresh.local_stats()["corrupt_lines"] == 0
    assert fresh.local_stats()["checksum_skips"] == 0


def test_torn_put_moves_the_writer_to_a_fresh_segment(tmp_path,
                                                      monkeypatch):
    # Three keys' writes fail halfway: each torn put leaves its line at
    # the end of the segment it tore, and the writer goes on in a new
    # one.
    torn = set(KEYS[1:7:2])
    inject_store_faults(monkeypatch, torn=torn)
    writer = ShardedStore(tmp_path)
    for i, key in enumerate(KEYS[:8]):
        if key in torn:
            with pytest.raises(OSError):
                writer.put(key, {"v": i})
        else:
            writer.put(key, {"v": i})
    assert len(_segments(tmp_path)) == 1 + len(torn)
    fresh = ShardedStore(tmp_path)
    for i, key in enumerate(KEYS[:8]):
        expected = None if key in torn else {"v": i}
        assert writer.get(key) == expected
        assert fresh.get(key) == expected
    # An intact line written after a torn one in the same file would
    # have merged with it into one corrupt line.
    assert fresh.local_stats()["corrupt_lines"] == 0
    assert fresh.local_stats()["checksum_skips"] == 0


def test_failed_write_does_not_lose_the_next_entry(tmp_path, monkeypatch):
    # A write that raises partway (a full disk) leaves torn bytes
    # behind; the entry put after it must still reach a fresh reader.
    inject_store_faults(monkeypatch, torn={KEYS[0]})
    writer = ShardedStore(tmp_path)
    with pytest.raises(OSError):
        writer.put(KEYS[0], {"v": 0})
    writer.put(KEYS[1], {"v": 1})
    fresh = ShardedStore(tmp_path)
    assert fresh.get(KEYS[1]) == {"v": 1}
    assert fresh.local_stats()["corrupt_lines"] == 0


def test_short_write_drops_the_segment_handle(tmp_path, monkeypatch):
    # A write that stops halfway without an error: the store counts it
    # as a failed write, drops its handle and opens a fresh segment for
    # the next entry.
    inject_store_faults(monkeypatch, short={KEYS[1]})
    writer = ShardedStore(tmp_path)
    writer.put(KEYS[0], {"v": 0})
    with pytest.raises(OSError):
        writer.put(KEYS[1], {"v": 1})
    writer.put(KEYS[2], {"v": 2})
    segments = _segments(tmp_path)
    assert len(segments) == 2
    assert any(name.endswith("-1.jsonl") for name in segments)
    fresh = ShardedStore(tmp_path)
    assert fresh.get(KEYS[0]) == {"v": 0}
    assert fresh.get(KEYS[1]) is None
    assert fresh.get(KEYS[2]) == {"v": 2}
    assert fresh.local_stats()["corrupt_lines"] == 0
    writer.close()


def test_torn_final_line_and_corrupt_lines_are_skipped(tmp_path):
    store = ShardedStore(tmp_path)
    store.put(KEYS[0], {"v": 0})
    # A killed writer's segment: one intact line, one corrupt, one torn.
    with open(tmp_path / "seg-99999-deadbeef.jsonl", "w") as f:
        f.write(_encode_line(KEYS[1], {"v": 1}).decode())
        f.write("{not json}\n")
        f.write(_encode_line(KEYS[2], {"v": 2}).decode()[:-4])
    fresh = ShardedStore(tmp_path)
    assert fresh.get(KEYS[0]) == {"v": 0}
    assert fresh.get(KEYS[1]) == {"v": 1}
    assert fresh.get(KEYS[2]) is None  # torn line: never published
    assert fresh.local_stats()["corrupt_lines"] == 1


def test_legacy_one_file_per_entry_layout_is_a_miss(tmp_path):
    with open(tmp_path / f"{KEYS[0]}.json", "w") as handle:
        json.dump({"v": "legacy"}, handle)
    # The key-sharded layout: shard-XX/ directories of segments.
    shard = tmp_path / "shard-03"
    shard.mkdir()
    (shard / "seg-99999-deadbeef.jsonl.active").write_bytes(
        _encode_line(KEYS[1], {"v": "active"}))
    (shard / "seg-99999-deadbeef-000001.jsonl").write_bytes(
        _encode_line(KEYS[2], {"v": "sealed"}))
    (shard / "merged-000002-deadbeef.jsonl").write_bytes(
        _encode_line(KEYS[3], {"v": "merged"}))
    before = sorted(os.listdir(shard))
    store = ShardedStore(tmp_path)
    for key in KEYS[:4]:
        assert store.get(key) is None
    assert store.local_stats()["misses"] == 4
    for i, key in enumerate(KEYS[:4]):
        store.put(key, {"v": i})
    assert store.get(KEYS[2]) == {"v": 2}
    # New entries go to the root, never into a shard directory.
    assert sorted(os.listdir(shard)) == before
    assert len(_segments(tmp_path)) == 1


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
    store = ShardedStore(root)
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
    store.close()  # publishes this worker's counters
    if missing:
        return ("LOST", sorted(missing)[:3], None)
    return ("OK", store.local_stats()["cross_hits"], None)


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
    store = ShardedStore(str(tmp_path))
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
            "measurement_seed": 0, "farm_dir": str(tmp_path)}
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


def test_process_pool_farm_holds_one_segment_per_writer(tmp_path):
    """A 2-worker process-mode batch leaves the farm flat: no shard
    directory, and no more segment files than processes that wrote."""
    workloads = load_suite("beebs")[:2]
    points = [(w, seq) for w in workloads for seq in SEQUENCES]
    farm = tmp_path / "farm"
    serial = EvaluationEngine(Platform("riscv", measurement_seed=9))
    farmed = EvaluationEngine(Platform("riscv", measurement_seed=9),
                              mode="process", workers=2,
                              farm_dir=str(farm))
    assert _rows(farmed.evaluate_batch(points)) == \
        _rows(serial.evaluate_batch(points))
    aggregate = farmed.cache.store.aggregate_stats()
    assert not [name for name in os.listdir(farm)
                if name.startswith("shard-")]
    assert 0 < len(_segments(farm)) <= aggregate["processes"]
    assert aggregate["stores"] >= len(points)


def test_no_cache_process_pool_leaves_the_farm_alone(tmp_path):
    """``cache=False`` turns the farm off for pool workers too: nothing
    reads or fills the farm directory, as ``stats()["farm"]`` says."""
    farm = tmp_path / "farm"
    engine = EvaluationEngine(Platform("riscv", measurement_seed=9),
                              cache=False, mode="process", workers=2,
                              farm_dir=str(farm))
    workload = load_suite("beebs")[0]
    results = engine.evaluate_batch([(workload, seq)
                                     for seq in SEQUENCES[:2]])
    assert not any(result.failed for result in results)
    assert engine.stats()["farm"] is None
    assert not farm.exists() or not _segments(farm)
