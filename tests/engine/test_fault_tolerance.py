"""Fault-tolerance layer: failure taxonomy, the one supervisor's
recovery rules, and store checksums.

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
    ShardedStore,
    classify_exception,
)
from repro.errors import CompilationError, SimulationError
from repro.sim import Platform
from repro.workloads import load_suite

SEQUENCES = ((), ("mem2reg", "simplifycfg"),
             ("mem2reg", "instcombine", "dce"))


@pytest.fixture
def workload():
    return load_suite("beebs")[0]


def _points(workload, sequences=SEQUENCES):
    return [(workload, seq) for seq in sequences]


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


# -- supervision ----------------------------------------------------------

def test_poison_point_ends_as_crash_after_one_solo_rerun(workload,
                                                         tmp_path):
    farm = tmp_path / "farm"
    # The co-flyer stalls on its first attempt, so it is still in
    # flight when the poison point breaks the pool.
    chaos = ChaosInjector(seed=0, crash_points=[0], times=99,
                          stall_points={1: 1}, stall_seconds=2.0)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=60, farm_dir=str(farm))
    points = [(workload, ("mem2reg",)), (workload, ("dce",))]
    results = engine.evaluate_batch(points, on_error="collect")
    # Both points shared the broken pool, so both were re-run solo
    # once; the poison point crashed its solo run too.
    assert isinstance(results[0], EvalFailure)
    assert results[0].kind == "crash" and results[0].attempts == 2
    assert not results[1].failed  # innocent co-flyer still evaluated
    assert _rows(results[1:]) == _rows(
        _engine().evaluate_batch(points[1:]))
    counters = engine.fault_stats.as_dict()
    assert counters["crashes"] == 1
    assert counters["retries"] == 2
    assert counters["pool_respawns"] == 2
    # No ledger: the farm holds results and store counters only.
    assert not (farm / "_quarantine").exists()
    assert not (farm / "_faults").exists()


def test_timeout_failure_is_structured(workload):
    chaos = ChaosInjector(seed=0, stall_points=[0], times=99,
                          stall_seconds=1.5)
    engine = _engine(chaos=chaos, eval_timeout=0.3)
    results = engine.evaluate_batch([(workload, ("mem2reg",))],
                                    on_error="collect")
    assert results[0].failed and results[0].kind == "timeout"
    assert results[0].attempts == 1
    assert "deadline" in results[0].error
    assert engine.fault_stats.as_dict()["timeouts"] == 1


def test_repeated_pool_breaks_respawn_the_pool(workload):
    # Three pool breaks in one batch (each pair of co-flyers crashes
    # its first attempt), each resolved by solo re-runs: the evaluator
    # stays on its pool (in-process, every first attempt would fail as
    # an injected crash) and every row is exact.
    sequences = SEQUENCES + (("dce",), ("mem2reg",), ("mem2reg", "gvn"))
    points = _points(workload, sequences)
    serial_rows = _rows(_engine().evaluate_batch(points))
    chaos = ChaosInjector(seed=0, crash_points=range(6), times=1)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=60)
    results = engine.evaluate_batch(points, on_error="collect")
    assert _rows(results) == serial_rows
    counters = engine.fault_stats.as_dict()
    assert counters["pool_respawns"] == 3
    assert counters["retries"] == 6
    assert counters["crashes"] == 0
    assert engine.stats()["mode"] == "process"


def test_serial_tier_recovers_from_inprocess_crashes(workload):
    # In-process, an injected crash is final on its one attempt (a real
    # crash would take the client with it); the batch still completes
    # and the innocent point's row is exact.
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    chaos = ChaosInjector(seed=0, crash_points=[0, 2], times=1)
    engine = _engine(chaos=chaos, cache=False)
    results = engine.evaluate_batch(_points(workload),
                                    on_error="collect")
    assert [(r.kind, r.attempts) for r in (results[0], results[2])] == \
        [("crash", 1), ("crash", 1)]
    assert _rows(results[1:2]) == serial_rows[1:2]
    counters = engine.fault_stats.as_dict()
    assert counters["crashes"] == 2 and counters["retries"] == 0


# -- store checksums ------------------------------------------------------

def test_store_checksum_detects_bit_flip(tmp_path):
    import glob
    import os

    root = str(tmp_path / "farm")
    store = ShardedStore(root)
    key = "ab" * 32
    store.put(key, {"metrics": {"t": 1.5}})
    assert store.get(key) == {"metrics": {"t": 1.5}}
    segment = glob.glob(os.path.join(root, "seg-*.jsonl"))[0]
    with open(segment, "rb") as handle:
        data = bytearray(handle.read())
    data[len(data) // 2] ^= 0x5A
    with open(segment, "wb") as handle:
        handle.write(bytes(data))
    # A fresh reader skips the flipped line like a torn one, and counts
    # it — a miss, not garbage data and not a crash.
    reader = ShardedStore(root)
    assert reader.get(key) is None
    assert reader.local_stats()["checksum_skips"] >= 1
    assert reader.local_stats()["corrupt_lines"] == 0


def test_store_skips_lines_without_checksum(tmp_path):
    import json
    import os

    root = str(tmp_path / "farm")
    store = ShardedStore(root)
    key = "cd" * 32
    os.makedirs(root, exist_ok=True)
    line = json.dumps({"k": key, "p": {"v": 7}},
                      separators=(",", ":")) + "\n"
    with open(os.path.join(root, "seg-1-aaaa.jsonl"), "w") as out:
        out.write(line)
    assert store.get(key) is None
    assert store.local_stats()["checksum_skips"] == 1
