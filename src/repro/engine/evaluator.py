"""Deterministic serial/process evaluation of compile->profile points,
under one supervisor.

A *point* is one ``(program source, pass sequence)`` pair on one
platform.  :func:`evaluate_point` is a pure function of its spec dict —
it clones the program's parsed template once, runs the sequence, lowers
the result once, profiles that one machine program and extracts
features from it and from the module, whose cost-model normalization
runs in place on that one clone — so the same spec yields the same
payload whether
it runs inline or in a worker process, and *whether or not it had to be
re-run*: fault recovery can never change a result, only whether one
exists.

Measurement noise is derived from the *final* module fingerprint (see
:func:`point_measurement_seed`), so identical programs measure
identically regardless of evaluation order or worker count.  That is
what makes the ``serial`` and ``process`` modes bit-for-bit equivalent
and cached results indistinguishable from fresh ones.

Supervision has one recovery path for every mode:

- **One attempt function.**  :func:`attempt_point` is the only place a
  point runs: it arms the per-point deadline
  (:func:`repro.engine.faults.deadline`), runs the point and classifies
  any exception into a
  :class:`~repro.engine.faults.EvalFailure`.  Pool workers, the serial
  tier and the engine's composed path all call it, and a failure it
  reports is final.
- **Pool breaks.**  A died worker (an OOM kill, say) breaks
  the pool; the supervisor respawns it.  Every point that was on its
  first attempt in the broken pool is re-run solo once, however many
  shared the pool with it, and nothing else flies with a solo re-run.
  A solo crash is a final ``crash`` (two attempts); the innocent
  points, and a crasher that only crashes once, get their results.
- **Hard hangs.**  A worker hung past the parent-side watchdog (the
  deadline times :data:`PROCESS_WATCHDOG_FACTOR`, plus
  :data:`PROCESS_WATCHDOG_SLACK`) gets the pool killed and respawned;
  the hung point is a final ``timeout`` and its co-flyers are
  re-enqueued without charge.

A pool that cannot be built is the caller's error: nothing falls back
to in-process evaluation, where a point that kills a worker would kill
the client.
"""

import hashlib
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool

from repro.engine.faults import (
    CRASH,
    TIMEOUT,
    EvalFailure,
    FaultStats,
    counter_for_kind,
    deadline,
    failure_of,
)

EXECUTION_MODES = ("serial", "process")

#: Parent-side watchdog budget: the worker's own alarm should fire
#: first (factor x the deadline), the parent only steps in for hard
#: hangs the alarm cannot interrupt.
PROCESS_WATCHDOG_FACTOR = 2.0
PROCESS_WATCHDOG_SLACK = 0.25

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
    ``(module, am, fingerprint, result_fingerprint,
    function_fingerprints)``.

    The module is a clone of the program's per-process template
    (:func:`repro.workloads.module_from_source`), so a worker runs the
    frontend once per program, not once per point.  The clone's manager
    starts with the template's fingerprints, module digest and static
    partials, so the input fingerprint is a memo hit and the optimized
    module's content address (composed from per-function digests) only
    pays for the functions the sequence changed; the manager is
    returned so feature extraction reads the pipeline's analyses too.
    """
    from repro.ir.printer import module_fingerprint
    from repro.passes import AnalysisManager, PassManager
    from repro.workloads import module_from_source

    # One analysis manager spans the whole sequence: passes share
    # dominator trees / loop nests, and the final fingerprint only
    # re-hashes functions the sequence actually changed.
    am = AnalysisManager()
    module = module_from_source(spec["name"], spec["source"], am=am)
    fingerprint = module_fingerprint(module, am)
    PassManager().run(module, list(spec["sequence"]), am=am)
    result_fingerprint = module_fingerprint(module, am)
    function_fingerprints = {function.name: am.fingerprint(function)
                             for function in module.defined_functions()}
    return module, am, fingerprint, result_fingerprint, \
        function_fingerprints


def profile_optimized(spec, module, am, fingerprint, result_fingerprint,
                      function_fingerprints, in_place=False):
    """Feature-extract and profile an already-optimized module; returns
    the JSON-serializable cache payload.

    The module is lowered exactly once: the one machine program feeds
    both the platform features and the simulation.  ``am`` is the
    analysis manager that optimized the module: feature extraction
    reads its per-function static partials and the loop, dominator and
    IV analyses behind them (see
    :func:`repro.features.extract_features`).  ``in_place=True`` is
    for a caller that built ``module`` and never reads it again (a
    fresh point): the cost model then normalizes the module itself
    under ``am`` instead of a clone, which leaves the module mutated.  The
    payload holds content only — no wall-clock timing — so a stored row
    is the same whichever process measured it.
    """
    from repro.features import extract_features
    from repro.sim import Platform

    seed = point_measurement_seed(spec["measurement_seed"],
                                  result_fingerprint)
    platform = Platform(spec["target"], measurement_seed=seed)
    program = platform.compile(module)
    features = extract_features(module, program, am=am, in_place=in_place)
    measurement = platform.execute(program)
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
    ``measurement_seed``, ``farm_dir`` (optional).
    Returns a JSON-serializable payload dict (the cache entry format).
    Top-level so it is picklable for process pools.

    A fresh point passes through each stage once: the frontend at most
    once per program per process, one clone of the program's template
    (:func:`optimize_point`; the cost model normalizes that clone in
    place rather than cloning again), codegen exactly once
    (:func:`profile_optimized`).

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
    return profile_optimized(spec, *optimize_point(spec), in_place=True)


def farm_result_key(spec, result_fingerprint):
    """The result-index key of an optimized module's content —
    identical to ``EvaluationEngine.result_key_for`` for the same
    platform and seed, so workers and clients feed one index."""
    from repro.engine.cache import cache_key

    return cache_key(result_fingerprint, (), spec["target"],
                     spec["measurement_seed"])


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

    Store I/O is best effort, as in the engine's cache: an ``OSError``
    on ``get`` is a miss and one on ``put`` leaves the entry
    unmirrored; either way the point keeps its payload.
    """
    module, am, fingerprint, result_fingerprint, function_fingerprints = \
        optimize_point(spec)
    result_key = farm_result_key(spec, result_fingerprint)
    try:
        stored = store.get(result_key)
    except OSError:
        stored = None
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
    payload = profile_optimized(spec, module, am, fingerprint,
                                result_fingerprint, function_fingerprints,
                                in_place=True)
    index_entry = dict(payload)
    index_entry.update({
        "fingerprint": result_fingerprint,
        "sequence": [],
    })
    try:
        store.put(result_key, index_entry)
    except OSError:
        pass
    return payload, False


def attempt_point(spec, run=evaluate_point):
    """One attempt at one point: the only place a point runs.

    Arms the spec's deadline, calls ``run`` (:func:`evaluate_point`, or
    the engine's in-process composed path) and classifies any
    exception, so the outcome travels back as a value:
    ``(payload, None)`` or ``(None, EvalFailure)``.  Top-level so pool
    workers can run it.
    """
    try:
        with deadline(spec.get("timeout")):
            return run(spec), None
    except Exception as error:  # noqa: BLE001 - classified, not raised
        return None, failure_of(spec, error)


class _PointState:
    """Supervision bookkeeping for one spec in one batch."""

    __slots__ = ("index", "spec", "attempt")

    def __init__(self, index, spec):
        self.index = index
        self.spec = spec
        self.attempt = 1


class PointEvaluator:
    """Evaluates batches of specs in input order, under supervision.

    ``mode='serial'`` is the deterministic reference; ``process``
    sidesteps the GIL for CPU-bound simulation at the cost of
    per-worker interpreter startup.  Both share one failure contract:
    :meth:`run` returns ``(payload, EvalFailure | None)`` pairs in
    input order, and never lets a raw exception, a hung worker, or a
    broken pool escape or wedge the batch.  ``timeout`` is the
    per-point deadline in seconds.
    """

    def __init__(self, mode="serial", workers=None, timeout=None):
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {EXECUTION_MODES}")
        self.mode = mode
        self.workers = max(1, int(workers)) if workers else None
        self.timeout = timeout
        self.faults = FaultStats()

    def run(self, specs, run=evaluate_point):
        """Evaluate all specs; returns ``(payload, error)`` pairs in the
        same order as the input (error is None on success, else a
        :class:`EvalFailure`).  In-process attempts call ``run``; pool
        workers always run :func:`evaluate_point`."""
        specs = list(specs)
        if self.mode == "process" and len(specs) > 1:
            return self._run_pooled(specs)
        return [self._count(attempt_point(self._decorated(spec, 1), run))
                for spec in specs]

    def _count(self, outcome):
        failure = outcome[1]
        if failure is not None:
            self.faults.bump(counter_for_kind(failure.kind))
        return outcome

    def _decorated(self, spec, attempt):
        spec = dict(spec)
        spec["attempt"] = attempt
        if self.timeout:
            spec["timeout"] = self.timeout
        return spec

    # -- process tier -----------------------------------------------------
    def _run_pooled(self, specs):
        """Supervised process-pool execution (see module docstring)."""
        results = [None] * len(specs)
        width = self.workers or min(8, len(specs))
        # With a deadline, in-flight submissions are capped at the pool
        # width so a spec's watchdog clock starts when a worker can
        # actually start it (queued-behind-a-hang must not read as
        # hung).  Without one, prefetch keeps workers from idling
        # during the parent's harvest/refill round-trip.
        cap = width if self.timeout else width * 2
        pool = ProcessPoolExecutor(max_workers=width)
        pending = deque(_PointState(index, spec)
                        for index, spec in enumerate(specs))
        solo = deque()  # break suspects: re-run one at a time
        inflight = {}   # future -> (state, parent watchdog timestamp)
        try:
            while pending or solo or inflight:
                # A solo re-run flies alone: nothing joins it until it
                # has settled.
                rerunning = solo or any(state.attempt > 1 for state, _
                                        in inflight.values())
                dead = self._refill(pool, solo if rerunning else pending,
                                    1 if rerunning else cap, inflight)
                if inflight and not dead:
                    futures_wait(list(inflight),
                                 timeout=self._watchdog_wait(inflight),
                                 return_when=FIRST_COMPLETED)
                dead += self._harvest(inflight, results)
                now = time.monotonic()
                hung = [] if dead or not self.timeout else [
                    state for future, (state, watchdog)
                    in inflight.items()
                    if watchdog <= now and not future.done()]
                if not (dead or hung):
                    continue
                # The pool is dead (a worker crashed) or must be killed
                # (a worker is hard-hung): respawn it, then settle what
                # was in flight.
                self.faults.bump("pool_respawns")
                self._kill_pool(pool)
                survivors = sorted(
                    (state for state, _ in inflight.values()),
                    key=lambda state: state.index)
                inflight.clear()
                pool = ProcessPoolExecutor(max_workers=width)
                if hung:
                    for state in hung:
                        self._charge(state, TIMEOUT,
                                     f"hung past the {self.timeout}s "
                                     f"deadline; worker killed", results)
                    pending.extendleft(reversed(
                        [state for state in survivors
                         if state not in hung]))
                    continue
                # A suspect on its solo re-run flew alone, so it is the
                # crasher; every first-attempt suspect is re-run solo
                # once, whether or not it had co-flyers.
                for state in sorted(dead + survivors,
                                    key=lambda state: state.index):
                    if state.attempt > 1:
                        self._charge(state, CRASH,
                                     "worker crashed (process pool "
                                     "broken)", results)
                    else:
                        state.attempt += 1
                        self.faults.bump("retries")
                        solo.append(state)
            return results
        finally:
            self._kill_pool(pool)

    def _refill(self, pool, queue, limit, inflight):
        """Submit from ``queue`` until ``limit`` points are in flight;
        returns ``[state]`` if submitting ``state`` found the pool
        broken (it joins the in-flight points as a suspect), else
        ``[]``."""
        while queue and len(inflight) < limit:
            state = queue.popleft()
            try:
                future = pool.submit(attempt_point, self._decorated(
                    state.spec, state.attempt))
            except BrokenProcessPool:
                return [state]
            watchdog = (time.monotonic()
                        + self.timeout * PROCESS_WATCHDOG_FACTOR
                        + PROCESS_WATCHDOG_SLACK) if self.timeout \
                else None
            inflight[future] = (state, watchdog)
        return []

    def _watchdog_wait(self, inflight):
        """How long to wait for a future before the next watchdog
        check (None: wait for one to finish)."""
        if not self.timeout:
            return None
        earliest = min(watchdog for _, watchdog in inflight.values())
        return max(0.0, earliest - time.monotonic())

    def _harvest(self, inflight, results):
        """Settle every finished future; returns the states whose
        futures died with a broken pool."""
        broken = []
        for future in [future for future in inflight if future.done()]:
            state, _ = inflight.pop(future)
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                broken.append(state)
            elif error is not None:
                results[state.index] = self._count((None, failure_of(
                    state.spec, error)._replace(attempts=state.attempt)))
            else:
                results[state.index] = self._count(future.result())
        return broken

    def _charge(self, state, kind, cause, results):
        """Finalize a point whose worker had to be killed."""
        results[state.index] = self._count((None, EvalFailure(
            state.spec["name"], tuple(state.spec["sequence"]), cause,
            kind, state.attempt)))

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
