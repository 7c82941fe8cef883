"""The deterministic fault-injection harness (``faultinject.py``).

Three claims:

1. **Seeded injection is reproducible** — the same fault configuration
   makes identical decisions run to run (point selection and the
   rate-based store draws), so an injected failure is a test case, not
   a flake.
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
    EvalFailure,
    EvalResult,
    EvaluationEngine,
    ShardedStore,
)
from repro.sim import Platform
from repro.workloads import load_suite
from tests.engine.faultinject import (
    chance,
    fault_for,
    inject_point_faults,
    inject_store_faults,
)

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

def _faults(points, kind, indices, times=1):
    """``{point: (kind, times)}`` for the points at ``indices``."""
    return {points[index]: (kind, times) for index in indices}


def test_rate_draws_are_stable_and_order_independent():
    keys = [f"{n:064x}" for n in range(64)]
    first = [chance(7, "store.get", key) for key in keys]
    second = [chance(7, "store.get", key) for key in reversed(keys)]
    assert first == list(reversed(second))
    # Different seeds and sites decorrelate.
    assert first != [chance(8, "store.get", key) for key in keys]
    assert first != [chance(7, "store.put", key) for key in keys]
    assert all(0.0 <= draw < 1.0 for draw in first)
    # Not merely different: two seeds' draws over equal-length keys
    # must not differ by one fixed bit pattern (as a linear CRC's do).
    xors = {int(chance(0, "store.get", key) * 2 ** 32)
            ^ int(chance(1, "store.get", key) * 2 ** 32) for key in keys}
    assert len(xors) > 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_same_seed_same_outcomes(seed, workload, monkeypatch, tmp_path):
    inject_point_faults(monkeypatch,
                        _faults(_points(workload), "crash", [0]))
    # Store keys hash the compiler's sources, so every compiler change
    # re-rolls the nine store draws of this batch: at rate 0.5 a seed
    # fires no store fault with probability 0.5**9 (0.2%), at rate 0.3
    # with 0.7**9 (4%).
    inject_store_faults(monkeypatch, seed=seed, io_error_rate=0.5)

    def run(farm):
        # Each run gets an empty farm, so its store faults hit the same
        # keys in the same state.
        engine = _engine(farm_dir=str(tmp_path / farm), eval_timeout=60)
        results = engine.evaluate_batch(_points(workload),
                                        on_error="collect")
        outcome = [(type(r).__name__, getattr(r, "kind", None))
                   for r in results]
        return outcome, engine.fault_stats.as_dict(), \
            engine.cache.stats.disk_errors, _rows(
                [r for r in results if not r.failed])

    first = run("first")
    assert first == run("second")
    assert first[2] > 0  # the store faults fired


def test_point_selection_by_identity_and_attempt(workload):
    plan = {(workload.name, ("dce",)): ("crash", 2)}
    spec = {"name": workload.name, "sequence": ["dce"], "attempt": 1}
    assert fault_for(plan, spec) == "crash"
    assert fault_for(plan, {**spec, "attempt": 2}) == "crash"
    assert fault_for(plan, {**spec, "attempt": 3}) is None
    assert fault_for(plan, {**spec, "sequence": ("mem2reg",)}) is None
    assert fault_for(plan, {**spec, "name": "other"}) is None


# -- claim 2: every fault class maps to its recovery ----------------------

def test_crash_recovery_process_pool(workload, monkeypatch):
    # Points 0 and 1 fly together and both crash their pool; each is
    # re-run solo once, gets past its one injected crash, and lands
    # bit-identical to the fault-free serial row.
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    inject_point_faults(monkeypatch,
                        _faults(_points(workload), "crash", [0, 1]))
    engine = _engine(mode="process", workers=2, eval_timeout=60)
    rows = _rows(engine.evaluate_batch(_points(workload)))
    assert rows == serial_rows
    counters = engine.fault_stats.as_dict()
    assert counters["pool_respawns"] == 1
    assert counters["retries"] == 2
    assert counters["crashes"] == 0


def test_lone_crasher_gets_its_solo_rerun(workload, monkeypatch):
    # One worker and a deadline cap the pool at one point in flight, so
    # the crasher is always alone when its worker dies.  Its first
    # attempt still earns the solo re-run, which gets past the one
    # injected crash.
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    inject_point_faults(monkeypatch,
                        _faults(_points(workload), "crash", [0]))
    engine = _engine(mode="process", workers=1, eval_timeout=60)
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


def test_stall_recovery_worker_deadline(workload, monkeypatch):
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    inject_point_faults(monkeypatch,
                        _faults(_points(workload), "stall", [0]),
                        seconds=1.5)
    engine = _engine(mode="process", workers=2, eval_timeout=0.4)
    results = engine.evaluate_batch(_points(workload),
                                    on_error="collect")
    _assert_one_timeout(engine, results, serial_rows)
    assert engine.fault_stats.as_dict()["pool_respawns"] == 0


def test_hard_hang_recovery_parent_watchdog(workload, monkeypatch):
    # The hang blocks SIGALRM, so only the parent-side watchdog (which
    # kills the worker) can end it — and it must.
    serial_rows = _rows(_engine().evaluate_batch(_points(workload)))
    inject_point_faults(monkeypatch,
                        _faults(_points(workload), "hang", [0]),
                        seconds=5.0)
    engine = _engine(mode="process", workers=2, eval_timeout=0.3)
    results = engine.evaluate_batch(_points(workload),
                                    on_error="collect")
    _assert_one_timeout(engine, results, serial_rows)
    assert engine.fault_stats.as_dict()["pool_respawns"] == 1


def test_store_io_errors_degrade_to_misses(tmp_path, workload,
                                           monkeypatch):
    # Fault-free engine against the same directory first: the farm has
    # the entries.  A reader whose every store op errors still answers
    # every point (cache tier treats I/O errors as misses).
    farm = str(tmp_path / "farm")
    warm = _engine(farm_dir=farm)
    reference = _rows(warm.evaluate_batch(_points(workload)))
    inject_store_faults(monkeypatch, seed=2, io_error_rate=1.0)
    cold = _engine(farm_dir=farm)
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


def test_corrupt_and_truncated_lines_are_skipped(tmp_path, monkeypatch):
    root = str(tmp_path / "farm")
    inject_store_faults(monkeypatch, seed=3, corrupt_rate=0.5,
                        truncate_rate=0.2)
    writer = ShardedStore(root)
    keys = [f"{n:064x}" for n in range(40)]
    truncated = set()
    for n, key in enumerate(keys):
        try:
            writer.put(key, {"n": n})
        except OSError:
            truncated.add(key)
    corrupted = {key for key in keys if key not in truncated
                 and chance(3, "store.corrupt", key) < 0.5}
    assert truncated and corrupted
    monkeypatch.undo()
    # A clean reader serves every intact key and misses every mangled
    # one — garbage never comes back as data.
    reader = ShardedStore(root)
    for n, key in enumerate(keys):
        mangled = key in truncated or key in corrupted
        assert reader.get(key) == (None if mangled else {"n": n})
    assert reader.local_stats()["checksum_skips"] >= len(corrupted)


# -- claim 3: faults never change results ---------------------------------

def test_all_tiers_bit_identical_under_transient_faults(workload,
                                                        tmp_path,
                                                        monkeypatch):
    points = _points(workload)
    reference = _rows(_engine().evaluate_batch(points))
    farm = tmp_path / "farm"
    inject_point_faults(monkeypatch, {
        **_faults(points, "crash", [0, 1]),
        **_faults(points, "stall", [2])}, seconds=0.1)
    configs = [
        dict(),
        dict(mode="process", workers=2, eval_timeout=60),
        dict(mode="process", workers=2, farm_dir=str(farm),
             eval_timeout=60),
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


def test_batch_always_completes_structurally(workload, monkeypatch):
    # Mixed injection (poison crash point + a deterministic failure):
    # evaluate_batch must return a full row set of EvalResult /
    # EvalFailure — no hang, no raw exception.
    points = _points(workload) + [(workload, ("not-a-phase",))]
    inject_point_faults(monkeypatch, {
        **_faults(points, "crash", [1], times=99),
        **_faults(points, "stall", [0])}, seconds=0.1)
    engine = _engine(mode="process", workers=2, eval_timeout=60)
    results = engine.evaluate_batch(points, on_error="collect")
    assert len(results) == len(points)
    assert all(isinstance(r, (EvalResult, EvalFailure))
               for r in results)
    failures = [r for r in results if r.failed]
    assert sorted(r.kind for r in failures) == ["crash", "deterministic"]
    assert all(1 <= r.attempts <= 2 for r in failures)
