"""Parallel-vs-serial evaluator equivalence and failure propagation.

The engine derives each point's measurement noise from the final module
fingerprint, so the two execution modes must produce bit-identical
rows in the same order — on the deterministic RISC-V simulator AND on
the noisy x86 RAPL platform.
"""

import pytest

from repro.engine import (
    EvalFailure,
    EvaluationEngine,
    PointEvaluator,
    WorkerError,
)
from repro.sim import Platform
from repro.workloads import load_suite

SEQUENCES = ((), ("mem2reg", "simplifycfg"),
             ("mem2reg", "instcombine", "dce"))


def _points(n_workloads=2):
    workloads = load_suite("beebs")[:n_workloads]
    return [(w, seq) for w in workloads for seq in SEQUENCES]


def _rows(results):
    return [(r.result_fingerprint, tuple(sorted(r.metrics().items())),
             r.code_size, r.output, r.return_value) for r in results]


@pytest.mark.parametrize("target", ["riscv", "x86"])
@pytest.mark.parametrize("mode", ["process"])
def test_parallel_matches_serial(mode, target):
    points = _points()
    serial = EvaluationEngine(Platform(target, measurement_seed=9))
    parallel = EvaluationEngine(Platform(target, measurement_seed=9),
                                mode=mode, workers=4)
    serial_rows = _rows(serial.evaluate_batch(points))
    parallel_rows = _rows(parallel.evaluate_batch(points))
    assert serial_rows == parallel_rows
    # Same rows after an order-insensitive sort as well (dataset view).
    assert sorted(map(repr, serial_rows)) == \
        sorted(map(repr, parallel_rows))


def test_results_keep_input_order():
    points = _points()
    engine = EvaluationEngine(Platform("riscv"), mode="process",
                              workers=2)
    results = engine.evaluate_batch(points)
    for (workload, sequence), result in zip(points, results):
        assert result.sequence == tuple(sequence)
        assert result.fingerprint == \
            engine.workload_fingerprint(workload)


def test_mixed_hits_and_misses_preserve_order():
    points = _points()
    engine = EvaluationEngine(Platform("riscv"))
    warm = engine.evaluate_batch(points[::2])  # prime every other point
    results = engine.evaluate_batch(points)
    assert [r.cached for r in results] == \
        [i % 2 == 0 for i in range(len(points))]
    assert _rows(engine.evaluate_batch(points)) == _rows(results)
    assert warm[0].metrics() == results[0].metrics()


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_worker_failure_propagates(mode):
    workload = load_suite("beebs")[0]
    engine = EvaluationEngine(Platform("riscv"), mode=mode, workers=2)
    bad = [(workload, ("mem2reg", "no-such-phase"))]
    with pytest.raises(WorkerError) as excinfo:
        engine.evaluate_batch(_points(1) + bad)
    assert excinfo.value.name == workload.name
    assert "no-such-phase" in str(excinfo.value)


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_worker_failure_collect_keeps_good_points(mode):
    workload = load_suite("beebs")[0]
    engine = EvaluationEngine(Platform("riscv"), mode=mode, workers=2)
    points = [(workload, ("mem2reg",)),
              (workload, ("not-a-phase",)),
              (workload, ("dce",))]
    results = engine.evaluate_batch(points, on_error="collect")
    assert [r.failed for r in results] == [False, True, False]
    failure = results[1]
    assert isinstance(failure, EvalFailure)
    assert failure.sequence == ("not-a-phase",)
    assert "not-a-phase" in failure.error


def test_duplicate_points_evaluated_once_per_batch():
    workload = load_suite("beebs")[0]
    engine = EvaluationEngine(Platform("riscv"))
    sequence = ("mem2reg", "simplifycfg")
    results = engine.evaluate_batch([(workload, sequence)] * 4)
    # One fresh evaluation, three batch-level hits — identical rows.
    assert [r.cached for r in results] == [False, True, True, True]
    assert len({r.result_fingerprint for r in results}) == 1
    # One simulation: the point entry plus its result-index entry.
    assert engine.compose_stats == {"hits": 0, "misses": 1}
    assert engine.cache.stats.stores == 2


def test_unknown_mode_rejected():
    for mode in ("gpu", "thread"):
        with pytest.raises(ValueError):
            PointEvaluator(mode=mode)

