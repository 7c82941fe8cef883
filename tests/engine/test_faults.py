"""The deterministic fault-injection harness.

Three claims:

1. **Seeded injection is reproducible** — the same injector
   configuration makes identical decisions run to run (point selection
   and the rate-based store draws), so a chaos failure is a test case,
   not a flake.
2. **Every injected fault class maps to its documented recovery** —
   co-flying crash -> respawn + solo re-run, stall or hang -> final
   timeout (the hang via the parent's watchdog), store I/O error ->
   miss or unmirrored entry, corrupt/truncate -> checksum/framing skip.
3. **Faults never change results** — successful rows stay
   bit-identical across serial, process and farm-composed runs and a
   fault-free serial run; a batch under injection completes with every
   point either a valid result or a structured ``EvalFailure`` that
   got at most two attempts.
"""

import pytest

from repro.engine import (
    ChaosInjector,
    EvalFailure,
    EvalResult,
    EvaluationEngine,
    InjectedIOError,
    ShardedStore,
)
from repro.engine.chaos import _chance
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
             tuple(r.features), r.code_size, r.output, r.return_value)
            for r in results]


def _engine(**kwargs):
    return EvaluationEngine(Platform("riscv", measurement_seed=9),
                            **kwargs)


# -- claim 1: seeded injection is reproducible ----------------------------

def test_rate_draws_are_stable_and_order_independent():
    keys = [f"{n:064x}" for n in range(64)]
    first = [_chance(7, "store.get", key) for key in keys]
    second = [_chance(7, "store.get", key) for key in reversed(keys)]
    assert first == list(reversed(second))
    # Different seeds and sites decorrelate.
    assert first != [_chance(8, "store.get", key) for key in keys]
    assert first != [_chance(7, "store.put", key) for key in keys]
    assert all(0.0 <= draw < 1.0 for draw in first)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_same_seed_same_outcomes(seed, workload):
    def run():
        chaos = ChaosInjector(seed=seed, crash_points=[0], times=1,
                              io_error_rate=0.3)
        engine = _engine(chaos=chaos, cache=False, eval_timeout=60)
        results = engine.evaluate_batch(_points(workload),
                                        on_error="collect")
        outcome = [(type(r).__name__, getattr(r, "kind", None))
                   for r in results]
        return outcome, engine.fault_stats.as_dict(), _rows(
            [r for r in results if not r.failed])

    assert run() == run()


def test_point_selection_by_index_and_identity(workload):
    by_index = ChaosInjector(seed=0, crash_points=[1], times=2)
    spec = {"name": workload.name, "sequence": ("dce",),
            "chaos_point": 1, "attempt": 1}
    assert by_index._selected(by_index.crash_points, spec)
    assert by_index._selected(by_index.crash_points,
                              {**spec, "attempt": 2})
    assert not by_index._selected(by_index.crash_points,
                                  {**spec, "attempt": 3})
    assert not by_index._selected(by_index.crash_points,
                                  {**spec, "chaos_point": 0})
    by_identity = ChaosInjector(
        seed=0, stall_points=[(workload.name, ("dce",))])
    assert by_identity._selected(by_identity.stall_points, spec)
    assert not by_identity._selected(
        by_identity.stall_points, {**spec, "sequence": ("mem2reg",)})


# -- claim 2: every fault class maps to its recovery ----------------------

def test_crash_recovery_process_pool(workload):
    # Points 0 and 1 fly together and both crash their pool; each is
    # re-run solo once, gets past its one injected crash, and lands
    # bit-identical to the fault-free serial row.
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    chaos = ChaosInjector(seed=1, crash_points=[0, 1], times=1)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=60)
    rows = _rows(engine.evaluate_batch(_points(workload)))
    assert rows == serial_rows
    counters = engine.fault_stats.as_dict()
    assert counters["pool_respawns"] == 1
    assert counters["retries"] == 2
    assert counters["crashes"] == 0


def test_lone_crasher_gets_its_solo_rerun(workload):
    # One worker and a deadline cap the pool at one point in flight, so
    # the crasher is always alone when its worker dies.  Its first
    # attempt still earns the solo re-run, which gets past the one
    # injected crash.
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    chaos = ChaosInjector(seed=0, crash_points=[0], times=1)
    engine = _engine(mode="process", workers=1, chaos=chaos,
                     eval_timeout=60)
    rows = _rows(engine.evaluate_batch(_points(workload)))
    assert rows == serial_rows
    counters = engine.fault_stats.as_dict()
    assert counters["retries"] == 1
    assert counters["crashes"] == 0
    assert counters["pool_respawns"] == 1


def _assert_one_timeout(engine, results, serial_rows):
    assert results[0].failed and results[0].kind == "timeout"
    assert results[0].attempts == 1
    assert all(isinstance(r, EvalResult) for r in results[1:])
    assert _rows(results[1:]) == serial_rows[1:]
    counters = engine.fault_stats.as_dict()
    assert counters["timeouts"] == 1 and counters["retries"] == 0


def test_stall_recovery_worker_deadline(workload):
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    chaos = ChaosInjector(seed=0, stall_points=[0], times=1,
                          stall_seconds=1.5)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=0.4)
    results = engine.evaluate_batch(_points(workload),
                                    on_error="collect")
    _assert_one_timeout(engine, results, serial_rows)
    assert engine.fault_stats.as_dict()["pool_respawns"] == 0


def test_hard_hang_recovery_parent_watchdog(workload):
    # The hang blocks SIGALRM, so only the parent-side watchdog (which
    # kills the worker) can end it — and it must.
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    chaos = ChaosInjector(seed=0, hang_points=[0], times=1,
                          stall_seconds=5.0)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=0.3)
    results = engine.evaluate_batch(_points(workload),
                                    on_error="collect")
    _assert_one_timeout(engine, results, serial_rows)
    assert engine.fault_stats.as_dict()["pool_respawns"] == 1


def test_store_io_errors_degrade_to_misses(tmp_path, workload):
    # Fault-free engine against the same directory first: the farm has
    # the entries.  A chaos reader whose every store op errors still
    # answers every point (cache tier treats I/O errors as misses).
    farm = str(tmp_path / "farm")
    warm = _engine(farm_dir=farm)
    reference = _rows(warm.evaluate_batch(_points(workload)))
    chaos = ChaosInjector(seed=2, io_error_rate=1.0)
    cold = _engine(farm_dir=farm, chaos=chaos)
    rows = _rows(cold.evaluate_batch(_points(workload)))
    assert rows == reference
    assert cold.cache.stats.disk_errors > 0


def test_worker_farm_io_errors_are_best_effort(tmp_path, workload):
    # The farm root is a regular file, so no segment can be created in
    # it: each worker's farm get reads as a miss, each put raises an
    # OSError and leaves the entry unmirrored, and the point keeps its
    # payload.
    farm = tmp_path / "farm"
    farm.write_text("not a directory")
    reference = _rows(_engine().evaluate_batch(_points(workload)))
    engine = _engine(mode="process", workers=2, farm_dir=str(farm))
    results = engine.evaluate_batch(_points(workload))
    assert all(isinstance(r, EvalResult) for r in results)
    assert _rows(results) == reference
    assert engine.fault_stats.as_dict()["retries"] == 0
    assert engine.cache.stats.disk_errors > 0


def test_corrupt_and_truncated_lines_are_skipped(tmp_path):
    root = str(tmp_path / "farm")
    chaos = ChaosInjector(seed=3, corrupt_rate=0.5, truncate_rate=0.2)
    writer = ShardedStore(root, chaos=chaos)
    keys = [f"{n:064x}" for n in range(40)]
    for n, key in enumerate(keys):
        writer.put(key, {"n": n})
    mangled = chaos.injected["corrupted"] + chaos.injected["truncated"]
    assert mangled > 0
    # A clean reader serves every intact key and misses every mangled
    # one — garbage never comes back as data.
    reader = ShardedStore(root)
    served = 0
    for n, key in enumerate(keys):
        payload = reader.get(key)
        assert payload is None or payload == {"n": n}
        served += payload is not None
    assert served == len(keys) - mangled
    assert reader.local_stats()["checksum_skips"] >= \
        chaos.injected["corrupted"]


def test_injected_io_error_is_transient():
    from repro.engine import classify_exception

    assert classify_exception(InjectedIOError("boom")) == "transient"


# -- claim 3: faults never change results ---------------------------------

def test_all_tiers_bit_identical_under_transient_faults(workload,
                                                        tmp_path):
    points = _points(workload)
    reference = _rows(_engine().evaluate_batch(points))
    farm = tmp_path / "farm"

    def chaos():
        return ChaosInjector(seed=4, crash_points=[0, 1], times=1,
                             stall_points=[2], stall_seconds=0.1)

    configs = [
        dict(chaos=chaos()),
        dict(mode="process", workers=2, chaos=chaos(),
             eval_timeout=60),
        dict(mode="process", workers=2, chaos=chaos(),
             farm_dir=str(farm), eval_timeout=60),
    ]
    for config in configs:
        engine = _engine(**config)
        results = engine.evaluate_batch(points, on_error="collect")
        # In-process, the two injected crashes are final; on a pool
        # they co-fly and the solo re-run recovers both.
        crashed = [0, 1] if engine.evaluator.mode == "serial" else []
        assert [index for index, r in enumerate(results)
                if r.failed] == crashed, config
        assert all(results[index].kind == "crash"
                   and results[index].attempts == 1
                   for index in crashed)
        assert _rows(r for r in results if not r.failed) == \
            [row for index, row in enumerate(reference)
             if index not in crashed], config
    assert not (farm / "_quarantine").exists()
    assert not (farm / "_faults").exists()


def test_batch_always_completes_structurally(workload):
    # Mixed injection (poison crash point + a deterministic failure):
    # evaluate_batch must return a full row set of EvalResult /
    # EvalFailure — no hang, no raw exception.
    chaos = ChaosInjector(seed=5, crash_points={1: 99},
                          stall_points=[0], stall_seconds=0.1)
    engine = _engine(mode="process", workers=2, chaos=chaos,
                     eval_timeout=60)
    points = _points(workload) + [(workload, ("not-a-phase",))]
    results = engine.evaluate_batch(points, on_error="collect")
    assert len(results) == len(points)
    assert all(isinstance(r, (EvalResult, EvalFailure))
               for r in results)
    failures = [r for r in results if r.failed]
    assert sorted(r.kind for r in failures) == ["crash", "deterministic"]
    assert all(1 <= r.attempts <= 2 for r in failures)
