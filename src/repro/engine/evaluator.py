"""Deterministic serial/process evaluation of compile->profile points,
under fault supervision.

A *point* is one ``(program source, pass sequence)`` pair on one
platform.  :func:`evaluate_point` is a pure function of its spec dict —
it clones the program's parsed template, runs the sequence, lowers the
result once, and extracts features from and profiles that one machine
program — so the same spec yields the same payload whether
it runs inline or in a worker process, and *whether or not it had to be
retried*: fault recovery can never change a result, only whether one
exists.

Measurement noise is derived from the *final* module fingerprint (see
:func:`point_measurement_seed`), so identical programs measure
identically regardless of evaluation order or worker count.  That is
what makes the ``serial`` and ``process`` modes bit-for-bit equivalent
and cached results indistinguishable from fresh ones.

Supervision: :class:`PointEvaluator` does not trust its pool.

- **Per-point deadlines**: every dispatched spec carries the
  configured wall-clock ``timeout``; workers arm a ``SIGALRM`` alarm
  (:func:`repro.engine.faults.deadline`) and the parent keeps a
  watchdog with a grace factor, killing and respawning a pool whose
  worker is hard-hung.
- **BrokenProcessPool recovery**: a died worker (OOM kill, injected
  crash) breaks the pool; the supervisor respawns it and re-runs the
  in-flight specs *one at a time* so the poison point identifies
  itself — innocent co-flyers are re-enqueued without penalty, the
  crasher collects quarantine strikes.
- **Classification + bounded retries**: failures come back as
  :class:`repro.engine.faults.FailureInfo` with a kind; only transient
  kinds (timeout/crash/I-O) are retried, with deterministic backoff.
- **Graceful degradation**: when the pool breaks
  :data:`DEGRADE_AFTER` times in one batch, the evaluator steps down
  process -> serial for the remainder of the batch (and stays there
  for subsequent batches — a broken environment rarely heals itself
  mid-run).  Results stay bit-identical by construction.
"""

import hashlib
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool

from repro.engine.chaos import maybe_fail_point
from repro.engine.faults import (
    CRASH,
    QUARANTINED,
    TIMEOUT,
    FailureInfo,
    FaultStats,
    RetryPolicy,
    classify_exception,
    counter_for_kind,
    deadline,
    point_fingerprint,
    run_point_with_recovery,
)

EXECUTION_MODES = ("serial", "process")

#: Parent-side watchdog budget: the worker's own alarm should fire
#: first (factor x the deadline), the parent only steps in for hard
#: hangs the alarm cannot interrupt.
PROCESS_WATCHDOG_FACTOR = 2.0
PROCESS_WATCHDOG_SLACK = 0.25
#: Pool breaks (crashes or hard hangs) in one batch before the
#: evaluator gives up on the pool and finishes serially.
DEGRADE_AFTER = 3

#: Per-process handles on shared farm stores, keyed by directory — one
#: store instance per (process, farm) so pool workers open each farm
#: once and keep its reader index warm across points.
_PROCESS_STORES = {}


def process_store(farm_dir):
    """This process's handle on the shared farm store at ``farm_dir``
    (fork-safe: a pid change discards inherited handles so a child
    never appends to its parent's segment files)."""
    from repro.engine.store import ShardedStore

    root = os.path.abspath(farm_dir)
    entry = _PROCESS_STORES.get(root)
    if entry is None or entry[0] != os.getpid():
        entry = (os.getpid(), ShardedStore(root))
        _PROCESS_STORES[root] = entry
    return entry[1]


class WorkerError(RuntimeError):
    """An evaluation failed inside a worker; carries the point context
    and the failure classification."""

    def __init__(self, name, sequence, cause, kind=None):
        super().__init__(
            f"evaluation of {name!r} with sequence {tuple(sequence)!r} "
            f"failed: {cause}")
        self.name = name
        self.sequence = tuple(sequence)
        self.cause = cause
        self.kind = kind


def point_measurement_seed(measurement_seed, result_fingerprint):
    """Per-point noise seed: base platform seed x final program content.

    Deriving from the final fingerprint (rather than a shared stateful
    RNG stream) keeps x86 RAPL noise seeded *and* order-independent.
    """
    digest = hashlib.sha256(
        f"{measurement_seed}\x1f{result_fingerprint}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "little")


def optimize_point(spec):
    """Build the spec's module and run its sequence; returns
    ``(module, fingerprint, result_fingerprint, function_fingerprints)``.

    The module is a clone of the program's per-process template
    (:func:`repro.workloads.module_from_source`), so a worker runs the
    frontend once per program, not once per point.  The two fingerprint
    values are composed from per-function digests through the shared
    analysis manager, so the optimized module's content address only
    pays for the functions the sequence changed.
    """
    from repro.ir.printer import module_fingerprint
    from repro.passes import AnalysisManager, PassManager
    from repro.workloads import module_from_source

    module = module_from_source(spec["name"], spec["source"])
    # One analysis manager spans the whole sequence: passes share
    # dominator trees / loop nests, and the final fingerprint only
    # re-hashes functions the sequence actually changed.
    am = AnalysisManager()
    fingerprint = module_fingerprint(module, am)
    PassManager().run(module, list(spec["sequence"]), am=am)
    result_fingerprint = module_fingerprint(module, am)
    function_fingerprints = {function.name: am.fingerprint(function)
                             for function in module.defined_functions()}
    return module, fingerprint, result_fingerprint, function_fingerprints


def profile_optimized(spec, module, fingerprint, result_fingerprint,
                      function_fingerprints, am=None, partial_cache=None):
    """Feature-extract and profile an already-optimized module; returns
    the JSON-serializable cache payload.

    The module is lowered exactly once: the one machine program feeds
    both the platform features and the simulation.  ``am``/
    ``partial_cache`` let feature extraction reuse per-function static
    partials (see :func:`repro.features.extract_features`).  The payload
    holds content only — no wall-clock timing — so a stored row is the
    same whichever process measured it.
    """
    from repro.features import extract_features
    from repro.sim import Platform

    seed = point_measurement_seed(spec["measurement_seed"],
                                  result_fingerprint)
    platform = Platform(spec["target"], measurement_seed=seed,
                        sim_engine=spec.get("sim_engine"))
    program = platform.compile(module)
    features = extract_features(module, program, am=am,
                                partial_cache=partial_cache)
    measurement = platform.execute(program,
                                   fuel=spec.get("fuel") or 20_000_000)
    return {
        "fingerprint": fingerprint,
        "result_fingerprint": result_fingerprint,
        "function_fingerprints": function_fingerprints,
        "sequence": list(spec["sequence"]),
        "target": spec["target"],
        "measurement_seed": spec["measurement_seed"],
        "features": [float(v) for v in features],
        "metrics": {k: float(v)
                    for k, v in measurement.metrics().items()},
        "cycles": float(measurement.cycles),
        "code_size": int(measurement.code_size),
        "output": [[kind, value] for kind, value in measurement.output],
        "return_value": measurement.return_value,
    }


def evaluate_point(spec):
    """Run one compile->optimize->profile point from a plain spec dict.

    Spec keys: ``source``, ``name``, ``sequence``, ``target``,
    ``measurement_seed``, ``fuel`` (optional), ``farm_dir`` (optional).
    Returns a JSON-serializable payload dict (the cache entry format).
    Top-level so it is picklable for process pools.

    A fresh point passes through each stage once: the frontend at most
    once per program per process (:func:`optimize_point` clones a
    template), codegen exactly once (:func:`profile_optimized`).

    With ``farm_dir`` set, the point composes through the shared farm:
    after running the (cheap) pass pipeline, the optimized module's
    content address is looked up in the cross-process result index, and
    feature extraction + codegen + simulation only run when no worker
    or client anywhere has measured that code before (see
    :func:`compose_point`).
    """
    farm_dir = spec.get("farm_dir")
    if farm_dir:
        payload, _ = compose_point(spec, process_store(farm_dir))
        return payload
    module, fingerprint, result_fingerprint, function_fingerprints = \
        optimize_point(spec)
    return profile_optimized(spec, module, fingerprint,
                             result_fingerprint, function_fingerprints)


def farm_result_key(spec, result_fingerprint):
    """The result-index key of an optimized module's content —
    identical to ``EvaluationEngine.result_key_for`` for the same
    platform/seed/fuel, so workers and clients feed one index."""
    from repro.engine.cache import cache_key

    return cache_key(result_fingerprint, (), spec["target"],
                     spec["measurement_seed"],
                     spec.get("fuel") or 20_000_000)


def compose_point(spec, store):
    """Evaluate a point through the function-granular result index.

    Runs the (cheap) pass pipeline, content-addresses the optimized
    module by its composed per-function fingerprints, and only extracts
    features + profiles when ``store`` (anything with ``get``/``put``:
    the engine's :class:`~repro.engine.cache.EvaluationCache` or a
    farm :class:`~repro.engine.store.ShardedStore`) holds no
    measurement of that code; a fresh profile is indexed under the
    result key so later sequences reaching the same code compose
    instead of re-simulating.  Returns ``(payload, hit)``.
    """
    module, fingerprint, result_fingerprint, function_fingerprints = \
        optimize_point(spec)
    result_key = farm_result_key(spec, result_fingerprint)
    stored = store.get(result_key)
    if stored is not None:
        payload = dict(stored)
        payload.update({
            "fingerprint": fingerprint,
            "result_fingerprint": result_fingerprint,
            "function_fingerprints": function_fingerprints,
            "sequence": list(spec["sequence"]),
            "measurement_seed": spec["measurement_seed"],
        })
        return payload, True
    payload = profile_optimized(spec, module, fingerprint,
                                result_fingerprint,
                                function_fingerprints)
    index_entry = dict(payload)
    index_entry.update({
        "fingerprint": result_fingerprint,
        "sequence": [],
    })
    store.put(result_key, index_entry)
    return payload, False


def _guarded_evaluate(spec):
    """evaluate_point wrapped so failures travel back as *classified*
    values (pool futures would otherwise lose the point context).  Runs
    the spec's chaos hooks and arms the worker-side deadline."""
    try:
        with deadline(spec.get("timeout")):
            maybe_fail_point(spec)
            return evaluate_point(spec), None
    except Exception as error:  # noqa: BLE001 - propagated to caller
        return None, FailureInfo(spec["name"], tuple(spec["sequence"]),
                                 repr(error), classify_exception(error),
                                 int(spec.get("attempt", 1)))


class _PointState:
    """Supervision bookkeeping for one spec in one batch."""

    __slots__ = ("index", "spec", "attempt", "ready_at")

    def __init__(self, index, spec):
        self.index = index
        self.spec = spec
        self.attempt = 1
        self.ready_at = 0.0


class PointEvaluator:
    """Evaluates batches of specs in input order, under supervision.

    ``mode='serial'`` is the deterministic reference; ``process``
    sidesteps the GIL for CPU-bound simulation at the cost of
    per-worker interpreter startup.  Both share one failure contract:
    :meth:`run` returns ``(payload, FailureInfo | None)`` pairs in
    input order, and never lets a raw exception, a hung worker, or a
    broken pool escape or wedge the batch.
    """

    def __init__(self, mode="serial", workers=None, timeout=None,
                 retry=None, quarantine=None, degrade=True, chaos=None,
                 stats=None):
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {EXECUTION_MODES}")
        self.mode = mode
        self.workers = max(1, int(workers)) if workers else None
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.quarantine = quarantine
        self.degrade = degrade
        self.chaos = chaos
        self.faults = stats if stats is not None else FaultStats()
        #: Sticky degraded tier: once the pool proved broken, later
        #: batches run serially too.
        self.degraded_mode = None

    # -- batch entry ------------------------------------------------------
    def run(self, specs):
        """Evaluate all specs; returns ``(payload, error)`` pairs in the
        same order as the input (error is None on success, else a
        :class:`FailureInfo`)."""
        specs = list(specs)
        if not specs:
            return []
        results = [None] * len(specs)
        states = []
        for index, spec in enumerate(specs):
            blocked = self._quarantine_block(spec)
            if blocked is not None:
                results[index] = (None, blocked)
            else:
                states.append(_PointState(index, spec))
        if self.mode == "process" and self.degraded_mode is None \
                and len(states) > 1:
            states = self._run_pooled(states, results)
            if states:
                self.degraded_mode = "serial"
                self.faults.bump("degradations")
        self._run_serial(states, results)
        self.faults.flush()
        return results

    # -- quarantine -------------------------------------------------------
    def _quarantine_block(self, spec):
        if self.quarantine is None:
            return None
        record = self.quarantine.blocked(point_fingerprint(spec))
        if record is None:
            return None
        self.faults.bump("quarantine_blocks")
        return FailureInfo(
            spec["name"], tuple(spec["sequence"]),
            f"quarantined after {record['strikes']} worker-killing "
            f"strikes ({record.get('cause', 'worker crash')})",
            QUARANTINED, 0)

    # -- serial tier ------------------------------------------------------
    def _run_serial(self, states, results):
        for state in states:
            payload, failure = run_point_with_recovery(
                evaluate_point, state.spec, retry=self.retry,
                faults=self.faults, chaos=self.chaos,
                timeout=self.timeout, point_index=state.index,
                first_attempt=state.attempt)
            results[state.index] = (payload, failure)

    # -- process tier -----------------------------------------------------
    def _run_pooled(self, states, results):
        """Supervised process-pool execution; returns the states still
        owed a result when the pool must be abandoned (degradation),
        else ``[]``."""
        width = self.workers or min(8, len(states))
        # With a deadline, in-flight submissions are capped at the pool
        # width so a spec's watchdog clock starts when a worker can
        # actually start it (queued-behind-a-hang must not read as
        # hung).  Without one, prefetch keeps workers from idling
        # during the parent's harvest/refill round-trip.
        cap = width if self.timeout else width * 2
        try:
            pool = ProcessPoolExecutor(max_workers=width)
        except Exception:  # noqa: BLE001 - cannot build the pool: degrade
            return states
        pending = deque(states)
        isolate = deque()  # break suspects: re-run one at a time
        inflight = {}      # future -> state
        deadlines = {}     # future -> parent watchdog timestamp
        breaks = 0
        try:
            while pending or isolate or inflight:
                now = time.monotonic()
                broken = []  # states whose futures died with the pool
                # -- refill (isolation runs strictly solo)
                if isolate:
                    if not inflight and isolate[0].ready_at <= now:
                        state = isolate.popleft()
                        if not self._try_submit(pool, state, inflight,
                                                deadlines):
                            broken.append(state)
                elif pending:
                    while pending and len(inflight) < cap \
                            and pending[0].ready_at <= now:
                        state = pending.popleft()
                        if not self._try_submit(pool, state, inflight,
                                                deadlines):
                            broken.append(state)
                            break
                # -- wait, then settle worker-reported outcomes
                if inflight and not broken:
                    futures_wait(list(inflight), timeout=0.05,
                                 return_when=FIRST_COMPLETED)
                elif not inflight and not broken:
                    time.sleep(0.005)  # backoff window: nothing ready
                broken.extend(
                    self._harvest(inflight, deadlines, results, pending))
                # -- parent-side watchdog
                hung = None
                if self.timeout and not broken:
                    now = time.monotonic()
                    for future, state in inflight.items():
                        if deadlines.get(future, now + 1) <= now \
                                and not future.done():
                            hung = state
                            break
                if hung is not None:
                    # A hard-hung worker: kill the pool, respawn, put
                    # innocent co-flyers back, charge the hung point.
                    breaks += 1
                    self.faults.bump("pool_respawns")
                    self._kill_pool(pool)
                    others = [s for s in inflight.values()
                              if s is not hung]
                    inflight.clear()
                    deadlines.clear()
                    pool = ProcessPoolExecutor(max_workers=width)
                    for state in sorted(others, key=lambda s: s.index,
                                        reverse=True):
                        pending.appendleft(state)
                    self._charge_worker_kill(
                        hung, TIMEOUT,
                        f"hung past the {self.timeout}s deadline; "
                        f"worker killed", results, isolate)
                elif broken:
                    # The pool died under us (a worker crashed).  Any
                    # still-unharvested in-flight future is dead too.
                    breaks += 1
                    self.faults.bump("pool_respawns")
                    self._kill_pool(pool)
                    suspects = {id(s): s for s in broken}
                    suspects.update(
                        (id(s), s) for s in inflight.values())
                    inflight.clear()
                    deadlines.clear()
                    pool = ProcessPoolExecutor(max_workers=width)
                    ordered = sorted(suspects.values(),
                                     key=lambda s: s.index)
                    if len(ordered) == 1:
                        # Alone in flight: definitely the crasher.
                        self._charge_worker_kill(
                            ordered[0], CRASH,
                            "worker crashed (process pool broken)",
                            results, isolate)
                    else:
                        # Ambiguous: bisect by re-running each suspect
                        # solo so only the true crasher pays strikes.
                        isolate.extend(ordered)
                if (hung is not None or broken) and self.degrade \
                        and breaks >= DEGRADE_AFTER:
                    leftover = sorted(
                        list(pending) + list(isolate)
                        + list(inflight.values()),
                        key=lambda s: s.index)
                    return leftover
            return []
        finally:
            self._kill_pool(pool)

    def _try_submit(self, pool, state, inflight, deadlines):
        try:
            future = pool.submit(_guarded_evaluate,
                                 self._decorated(state))
        except BrokenProcessPool:
            return False
        inflight[future] = state
        if self.timeout:
            deadlines[future] = (time.monotonic()
                                 + self.timeout * PROCESS_WATCHDOG_FACTOR
                                 + PROCESS_WATCHDOG_SLACK)
        return True

    def _harvest(self, inflight, deadlines, results, pending):
        """Settle every finished future; returns states whose futures
        died with a broken pool."""
        suspects = []
        for future, state in list(inflight.items()):
            if not future.done():
                continue
            del inflight[future]
            deadlines.pop(future, None)
            error = future.exception()
            if error is None:
                payload, failure = future.result()
                self._settle(state, payload, failure, results, pending)
            elif isinstance(error, BrokenProcessPool):
                suspects.append(state)
            else:
                self._settle(state, None, FailureInfo(
                    state.spec["name"], tuple(state.spec["sequence"]),
                    repr(error), classify_exception(error),
                    state.attempt), results, pending)
        return suspects

    def _settle(self, state, payload, failure, results, requeue):
        """Record a worker-reported outcome: success, retryable
        failure (re-enqueued with deterministic backoff), or final."""
        if failure is None:
            results[state.index] = (payload, None)
            return
        self.faults.bump(counter_for_kind(failure.kind))
        if self.retry.should_retry(failure.kind, state.attempt):
            self.faults.bump("retries")
            state.ready_at = (time.monotonic()
                              + self.retry.delay(state.attempt))
            state.attempt += 1
            requeue.append(state)
        else:
            results[state.index] = (
                None, failure._replace(attempts=state.attempt))

    def _charge_worker_kill(self, state, kind, cause, results, requeue):
        """A point's worker had to be killed (crash or hard hang):
        strike the quarantine ledger, then retry or finalize."""
        self.faults.bump(counter_for_kind(kind))
        spec = state.spec
        if self.quarantine is not None:
            strikes = self.quarantine.strike(
                point_fingerprint(spec), spec["name"],
                tuple(spec["sequence"]), cause)
            if strikes >= self.quarantine.threshold:
                self.faults.bump("quarantined")
                results[state.index] = (None, FailureInfo(
                    spec["name"], tuple(spec["sequence"]),
                    f"quarantined after {strikes} worker-killing "
                    f"strikes ({cause})", QUARANTINED, state.attempt))
                return
        if self.retry.should_retry(kind, state.attempt):
            self.faults.bump("retries")
            state.ready_at = (time.monotonic()
                              + self.retry.delay(state.attempt))
            state.attempt += 1
            requeue.append(state)
        else:
            results[state.index] = (None, FailureInfo(
                spec["name"], tuple(spec["sequence"]), cause, kind,
                state.attempt))

    def _decorated(self, state):
        spec = dict(state.spec)
        spec["attempt"] = state.attempt
        if self.timeout:
            spec["timeout"] = self.timeout
        if self.chaos is not None:
            spec["chaos"] = self.chaos
            spec["chaos_point"] = state.index
        return spec

    @staticmethod
    def _kill_pool(pool):
        """Tear a pool down without waiting: terminate worker processes
        (hung ones included) and cancel anything queued."""
        try:
            processes = getattr(pool, "_processes", None)
            if processes:
                for process in list(processes.values()):
                    try:
                        process.terminate()
                    except Exception:  # noqa: BLE001 - already dead
                        pass
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - teardown is best effort
            pass
