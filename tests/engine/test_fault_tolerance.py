"""Fault-tolerance layer (ISSUE 8 tentpole): failure taxonomy, retry
policy, poison-point quarantine, worker supervision, graceful
degradation, and store checksums.

Companion suite: ``test_faults.py`` covers the chaos harness itself
(seeded reproducibility and the injected-fault -> recovery matrix).
"""

import pytest

from repro.engine import (
    ChaosInjector,
    EvalFailure,
    EvalTimeout,
    EvaluationEngine,
    InjectedCrash,
    Quarantine,
    RetryPolicy,
    ShardedStore,
    classify_exception,
    point_fingerprint,
)
from repro.errors import CompilationError, SimulationError
from repro.sim import Platform
from repro.workloads import load_suite

SEQUENCES = ((), ("mem2reg", "simplifycfg"),
             ("mem2reg", "instcombine", "dce"))


@pytest.fixture
def workload():
    return load_suite("beebs")[0]


def _points(workload):
    return [(workload, seq) for seq in SEQUENCES]


def _rows(results):
    return [(r.result_fingerprint, tuple(sorted(r.metrics().items())),
             r.code_size, r.output, r.return_value) for r in results]


def _engine(**kwargs):
    return EvaluationEngine(Platform("riscv", measurement_seed=9),
                            **kwargs)


# -- taxonomy -------------------------------------------------------------

def test_classification_table():
    from concurrent.futures.process import BrokenProcessPool

    assert classify_exception(EvalTimeout("late")) == "timeout"
    assert classify_exception(BrokenProcessPool("died")) == "crash"
    assert classify_exception(InjectedCrash("boom")) == "crash"
    assert classify_exception(OSError("torn")) == "transient"
    assert classify_exception(CompilationError("bad")) == \
        "deterministic"
    assert classify_exception(SimulationError("fuel")) == \
        "deterministic"
    assert classify_exception(ValueError("nope")) == "deterministic"


def test_retry_policy_is_deterministic_and_bounded():
    policy = RetryPolicy(max_retries=2, backoff=0.02, factor=2.0)
    # Transient kinds retry up to max_retries; deterministic never.
    assert policy.should_retry("timeout", 1)
    assert policy.should_retry("crash", 2)
    assert not policy.should_retry("crash", 3)
    assert not policy.should_retry("deterministic", 1)
    # Backoff is a pure function of the attempt number (no jitter).
    assert [policy.delay(n) for n in (1, 2, 3)] == \
        [policy.delay(n) for n in (1, 2, 3)]
    assert policy.delay(2) == pytest.approx(0.04)
    assert RetryPolicy(max_retries=0).should_retry("timeout", 1) is False


# -- quarantine ledger ----------------------------------------------------

def test_quarantine_persists_across_instances(tmp_path):
    ledger_dir = str(tmp_path / "_quarantine")
    spec = {"name": "w", "source": "int main(){}", "sequence": ("dce",),
            "target": "riscv", "measurement_seed": 0, "fuel": 100}
    fp = point_fingerprint(spec)
    first = Quarantine(ledger_dir, threshold=2)
    assert first.blocked(fp) is None
    assert first.strike(fp, "w", ("dce",), "crash #1") == 1
    assert first.blocked(fp) is None  # below threshold
    assert first.strike(fp, "w", ("dce",), "crash #2") == 2
    assert first.blocked(fp)["strikes"] == 2
    # A fresh instance (another client/process) sees the record.
    second = Quarantine(ledger_dir, threshold=2)
    assert second.blocked(fp)["causes"] == ["crash #1", "crash #2"]
    assert len(second) == 1
    # Attempt decorations don't change the fingerprint.
    assert point_fingerprint({**spec, "attempt": 7, "timeout": 1}) == fp


def test_poison_point_is_quarantined_then_blocked(workload):
    chaos = ChaosInjector(seed=0, crash_points=[0], times=99)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=60, max_retries=6, degrade=False)
    points = [(workload, ("mem2reg",)), (workload, ("dce",))]
    results = engine.evaluate_batch(points, on_error="collect")
    assert isinstance(results[0], EvalFailure)
    assert results[0].kind == "quarantined"
    assert not results[1].failed  # innocent co-flyer still evaluated
    counters = engine.fault_stats.as_dict()
    assert counters["quarantined"] == 1
    assert counters["pool_respawns"] >= 3
    assert len(engine.quarantine) == 1
    # The second batch is answered from the ledger, without touching a
    # worker: zero attempts, the block counter moves, respawns don't.
    again = engine.evaluate_batch(points, on_error="collect")
    assert again[0].kind == "quarantined" and again[0].attempts == 0
    after = engine.fault_stats.as_dict()
    assert after["quarantine_blocks"] == 1
    assert after["pool_respawns"] == counters["pool_respawns"]


# -- supervision ----------------------------------------------------------

def test_timeout_failure_is_structured(workload):
    chaos = ChaosInjector(seed=0, stall_points=[0], times=99,
                          stall_seconds=1.5)
    engine = _engine(chaos=chaos, eval_timeout=0.3, max_retries=0)
    results = engine.evaluate_batch([(workload, ("mem2reg",))],
                                    on_error="collect")
    assert results[0].failed and results[0].kind == "timeout"
    assert "deadline" in results[0].error
    assert engine.fault_stats.as_dict()["timeouts"] == 1


def test_repeated_pool_breaks_degrade_to_serial(workload):
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    chaos = ChaosInjector(seed=0, crash_points={0: 2, 1: 2}, times=1)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=60, max_retries=6)
    rows = _rows(engine.evaluate_batch(_points(workload)))
    # The pool broke repeatedly -> stepped down, but every point still
    # produced its bit-identical row.
    assert engine.evaluator.degraded_mode == "serial"
    assert rows == serial_rows
    counters = engine.fault_stats.as_dict()
    assert counters["degradations"] == 1
    assert counters["pool_respawns"] >= 3
    assert engine.stats()["faults"]["degraded_to"] == "serial"


def test_no_degrade_pins_the_mode(workload):
    chaos = ChaosInjector(seed=0, crash_points={0: 2, 1: 2}, times=1)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=60, max_retries=6, degrade=False)
    results = engine.evaluate_batch(_points(workload),
                                    on_error="collect")
    assert engine.evaluator.degraded_mode is None
    assert all(not r.failed for r in results)
    assert engine.fault_stats.as_dict()["degradations"] == 0


def test_serial_tier_recovers_from_inprocess_crashes(workload):
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    chaos = ChaosInjector(seed=0, crash_points=[0, 2], times=1)
    engine = _engine(chaos=chaos, compose=False)
    rows = _rows(engine.evaluate_batch(_points(workload)))
    assert rows == serial_rows
    counters = engine.fault_stats.as_dict()
    assert counters["crashes"] == 2 and counters["retries"] == 2


# -- store checksums ------------------------------------------------------

def test_store_checksum_detects_bit_flip(tmp_path):
    import glob
    import os

    root = str(tmp_path / "farm")
    store = ShardedStore(root, shards=2)
    key = "ab" * 32
    store.put(key, {"metrics": {"t": 1.5}})
    assert store.get(key) == {"metrics": {"t": 1.5}}
    segment = glob.glob(os.path.join(root, "shard-*", "*.active"))[0]
    with open(segment, "rb") as handle:
        data = bytearray(handle.read())
    data[len(data) // 2] ^= 0x5A
    with open(segment, "wb") as handle:
        handle.write(bytes(data))
    # A fresh reader skips the flipped line like a torn one, and counts
    # it — a miss, not garbage data and not a crash.
    reader = ShardedStore(root, shards=2)
    assert reader.get(key) is None
    assert reader.stats.totals()["checksum_skips"] >= 1
    assert reader.stats.totals()["corrupt_lines"] == 0


def test_store_skips_lines_without_checksum(tmp_path):
    import json
    import os

    root = str(tmp_path / "farm")
    store = ShardedStore(root, shards=2)
    key = "cd" * 32
    shard_dir = os.path.join(root, f"shard-{store.shard_of(key):02x}")
    os.makedirs(shard_dir, exist_ok=True)
    line = json.dumps({"k": key, "p": {"v": 7}},
                      separators=(",", ":")) + "\n"
    with open(os.path.join(shard_dir, "seg-1-aaaa.jsonl"), "w") as out:
        out.write(line)
    assert store.get(key) is None
    assert store.stats.totals()["checksum_skips"] == 1
