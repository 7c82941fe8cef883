"""The evaluation engine: cached, parallel compile->profile
orchestration.

Every MLComp step (Fig. 2) needs the answer to one of two questions:

1. "What does program P optimized with sequence S measure like on
   platform T?"  — :meth:`EvaluationEngine.evaluate` /
   :meth:`evaluate_batch` / :meth:`profile_module` (content-addressed
   cache over full compile->simulate runs, optionally on a process
   pool).
2. "What does the PE predict for module M?" —
   :meth:`predicted_objectives` / :meth:`score_sequences` (in-memory
   cache over feature extraction + estimator inference, batched into
   one matrix call for candidate sets).

Data extraction, RL rollouts, baseline searches and deployment checks
all route through here, so repeated points are paid for once.
"""

import hashlib
import threading
import weakref

import numpy as np

from repro.engine.batched import objective_rows, predict_many
from repro.engine.cache import EvaluationCache, cache_key
from repro.engine.evaluator import (
    PointEvaluator,
    WorkerError,
    compose_point,
    evaluate_point,
    profile_optimized,
)
from repro.engine.faults import DETERMINISTIC
from repro.features import extract_features
from repro.ir.printer import module_fingerprint
from repro.passes.analysis import AnalysisManager


class EvalResult:
    """One evaluated point, hydrated from a cache payload."""

    failed = False

    def __init__(self, payload, key, cached):
        self.key = key
        self.cached = cached
        self.fingerprint = payload["fingerprint"]
        self.result_fingerprint = payload["result_fingerprint"]
        # Per-function canonical fingerprints of the optimized module
        # (absent in cache entries written before they existed).
        self.function_fingerprints = dict(
            payload.get("function_fingerprints", {}))
        self.sequence = tuple(payload["sequence"])
        self.target = payload["target"]
        self.features = np.asarray(payload["features"], dtype=float)
        self.cycles = payload.get("cycles", 0.0)
        self.code_size = payload["code_size"]
        self.output = tuple((kind, value)
                            for kind, value in payload["output"])
        self.return_value = payload["return_value"]
        self._metrics = dict(payload["metrics"])

    def metrics(self):
        """Metric dict (Measurement-compatible accessor)."""
        return dict(self._metrics)

    def __repr__(self):
        tag = "cached" if self.cached else "fresh"
        return (f"<EvalResult {tag} |seq|={len(self.sequence)} "
                f"t={self._metrics['exec_time_us']:.2f}us>")


class EvalFailure:
    """A point whose evaluation failed; kept in batch output order.

    ``kind`` is the failure taxonomy bucket (see
    :mod:`repro.engine.faults`): ``deterministic`` failures are the
    point's own fault, ``timeout`` points exceeded their deadline,
    ``crash`` points killed their worker, and ``transient`` points hit
    an I/O error they could not absorb.  ``attempts`` counts the runs
    the point got: 1, or 2 after a solo re-run that told a crasher from
    the innocent points sharing its broken pool.
    """

    failed = True

    def __init__(self, name, sequence, error, kind=DETERMINISTIC,
                 attempts=1):
        self.name = name
        self.sequence = tuple(sequence)
        self.error = error
        self.kind = kind
        self.attempts = attempts

    def __repr__(self):
        return (f"<EvalFailure {self.name} {self.sequence} "
                f"[{self.kind}]: {self.error}>")


class EvaluationEngine:
    """Cached (and optionally parallel) evaluation for one platform."""

    def __init__(self, platform, cache=None, cache_size=4096,
                 mode="serial", workers=None, fuel=20_000_000,
                 compose=True, farm_dir=None, eval_timeout=None,
                 chaos=None):
        self.platform = platform
        #: Compile-farm directory: a cross-process
        #: :class:`~repro.engine.store.ShardedStore` shared by every
        #: client and pool worker pointed at it.  Doubles as the disk
        #: tier behind this engine's LRU, and is propagated into
        #: process-pool specs so workers compose per-function results
        #: through it instead of re-simulating farm-known code.
        self.farm_dir = farm_dir
        #: Function-granular second-level cache consumer: on a
        #: sequence-key miss, in-process evaluations run the (cheap)
        #: pass pipeline and look the *optimized* module's
        #: per-function content up in the result index, skipping
        #: feature extraction, codegen and simulation when any earlier
        #: point (or PSS deployment check) produced the same code.
        self.compose = compose
        self.compose_stats = {"hits": 0, "misses": 0}
        # Counter updates are read-modify-write; the lock keeps the
        # engine safe to share across threads.
        self._compose_lock = threading.Lock()
        if cache is False:
            self.cache = None
        else:
            self.cache = cache if cache is not None else \
                EvaluationCache(max_entries=cache_size,
                                store_dir=farm_dir)
        # PE scores are keyed by a per-process estimator token, so they
        # live in a memory-only tier (never the disk store).
        self.pe_cache = EvaluationCache(max_entries=cache_size)
        #: One supervisor runs every fresh point, in-process or pooled;
        #: its fault counters are the engine's.
        self.evaluator = PointEvaluator(
            mode=mode, workers=workers, timeout=eval_timeout, chaos=chaos)
        self.fault_stats = self.evaluator.faults
        if chaos is not None and self.cache is not None and \
                self.cache.store is not None:
            self.cache.store.chaos = chaos
        self.fuel = fuel
        # Function-granular reuse for PE-side feature extraction: static
        # per-function partials keyed by function fingerprint, shared by
        # every module this engine scores (bounded; cleared when full).
        self._feature_partials = {}
        self._feature_partials_cap = 4096
        self._workload_fingerprints = {}
        self._estimator_tokens = weakref.WeakKeyDictionary()
        self._token_counter = 0

    # -- identity ---------------------------------------------------------
    @property
    def measurement_seed(self):
        return getattr(self.platform, "measurement_seed", 0)

    def workload_fingerprint(self, workload):
        """Canonical fingerprint of the workload's unoptimized module,
        memoized by source content (compiling is pure)."""
        source = workload.source
        memo_key = (workload.name,
                    hashlib.sha256(source.encode("utf-8")).hexdigest())
        fingerprint = self._workload_fingerprints.get(memo_key)
        if fingerprint is None:
            fingerprint = module_fingerprint(workload.compile())
            self._workload_fingerprints[memo_key] = fingerprint
        return fingerprint

    def key_for(self, workload, sequence, fuel=None):
        return cache_key(self.workload_fingerprint(workload),
                         tuple(sequence), self.platform.target,
                         self.measurement_seed, fuel or self.fuel)

    def result_key_for(self, result_fingerprint, fuel=None):
        """The result-index key of an *optimized* module's content.

        ``result_fingerprint`` is composed from the module's
        per-function fingerprints (plus the globals header), so any two
        points whose sequences produce per-function-identical code
        share this key — and it coincides with
        :meth:`profile_module`'s key, so deployment-check profiles and
        sequence evaluations feed each other.
        """
        return cache_key(result_fingerprint, (), self.platform.target,
                         self.measurement_seed, fuel or self.fuel)

    def _estimator_token(self, estimator):
        token = self._estimator_tokens.get(estimator)
        if token is None:
            self._token_counter += 1
            token = f"estimator-{self._token_counter}"
            self._estimator_tokens[estimator] = token
        return token

    def _spec(self, workload, sequence, fuel):
        return {
            "source": workload.source,
            "name": workload.name,
            "sequence": list(sequence),
            "target": self.platform.target,
            "measurement_seed": self.measurement_seed,
            "fuel": fuel or self.fuel,
            "sim_engine": self.platform.sim_engine,
            # Process-pool workers compose through the shared farm; the
            # serial path composes in-process via _evaluate_miss (whose
            # cache already fronts the same store).
            "farm_dir": self.farm_dir
            if self.evaluator.mode == "process" else None,
        }

    # -- profiled evaluations --------------------------------------------
    def _evaluate_miss(self, spec):
        """One fresh point, composed in-process through the cache's
        result index (:func:`~repro.engine.evaluator.compose_point`);
        the caller stores the payload under the sequence key."""
        if self.cache is None or not self.compose:
            return evaluate_point(spec)
        payload, hit = compose_point(spec, self.cache)
        with self._compose_lock:
            self.compose_stats["hits" if hit else "misses"] += 1
        return payload

    def evaluate(self, workload, sequence, fuel=None):
        """Evaluate one (workload, sequence) point, cache-first."""
        key = self.key_for(workload, sequence, fuel)
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                return EvalResult(payload, key, cached=True)
        payload, error = self.evaluator.attempt(
            self._spec(workload, sequence, fuel), run=self._evaluate_miss)
        if error is not None:
            raise WorkerError(error.name, error.sequence, error.error,
                              kind=error.kind)
        if self.cache is not None:
            self.cache.put(key, payload)
        return EvalResult(payload, key, cached=False)

    def evaluate_batch(self, points, fuel=None, on_error="raise"):
        """Evaluate ``[(workload, sequence), ...]`` in input order.

        Cache hits are served inline; misses go through the configured
        executor.  ``on_error='collect'`` replaces failed points with
        :class:`EvalFailure` entries instead of raising
        :class:`WorkerError` on the first failure.
        """
        points = list(points)
        results = [None] * len(points)
        pending = {}  # key -> (spec, [indices]) — dedup within a batch
        for index, (workload, sequence) in enumerate(points):
            key = self.key_for(workload, sequence, fuel)
            if key in pending:
                pending[key][1].append(index)
                continue
            payload = self.cache.get(key) if self.cache is not None \
                else None
            if payload is not None:
                results[index] = EvalResult(payload, key, cached=True)
            else:
                pending[key] = (self._spec(workload, sequence, fuel),
                                [index])
        specs = [spec for spec, _ in pending.values()]
        if self.evaluator.mode == "serial" and \
                self.cache is not None and self.compose:
            # Serial misses compose through the in-process result index
            # (identical payloads; process workers compose through the
            # farm instead, since they cannot see this process's cache).
            outcomes = self._run_composed(specs)
        else:
            outcomes = self.evaluator.run(specs)
        for (key, (spec, indices)), (payload, error) in zip(
                pending.items(), outcomes):
            if error is not None:
                if on_error == "raise":
                    raise WorkerError(error.name, error.sequence,
                                      error.error, kind=error.kind)
                for index in indices:
                    results[index] = EvalFailure(
                        error.name, error.sequence, error.error,
                        kind=error.kind, attempts=error.attempts)
                continue
            if self.cache is not None:
                self.cache.put(key, payload)
            for position, index in enumerate(indices):
                # The first occurrence is the fresh evaluation; any
                # duplicate of it in the same batch is a cache hit.
                results[index] = EvalResult(payload, key,
                                            cached=position > 0)
        return results

    def _run_composed(self, specs):
        """Run miss specs through :meth:`_evaluate_miss` in order,
        returning ``(payload, error)`` pairs (the evaluator-run
        contract), one supervised attempt each."""
        return [self.evaluator.attempt(spec, index,
                                       run=self._evaluate_miss)
                for index, spec in enumerate(specs)]

    def profile_module(self, module, fuel=None, am=None):
        """Profile an already-optimized module, content-addressed by its
        final fingerprint (used by PSS deployment checks).  An analysis
        manager carrying warm per-function fingerprints makes the
        content-addressing incremental."""
        if am is None:
            am = AnalysisManager()
        fingerprint = module_fingerprint(module, am)
        key = self.result_key_for(fingerprint, fuel)
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                return EvalResult(payload, key, cached=True)
        spec = {"sequence": [], "target": self.platform.target,
                "measurement_seed": self.measurement_seed,
                "fuel": fuel or self.fuel,
                "sim_engine": self.platform.sim_engine}
        payload = profile_optimized(
            spec, module, fingerprint, fingerprint,
            {function.name: am.fingerprint(function)
             for function in module.defined_functions()},
            am=am, partial_cache=self._partials())
        if self.cache is not None:
            self.cache.put(key, payload)
        return EvalResult(payload, key, cached=False)

    # -- PE-predicted evaluations ----------------------------------------
    def _partials(self):
        """The per-function feature partial cache (bounded; dropped
        wholesale when full)."""
        if len(self._feature_partials) > self._feature_partials_cap:
            self._feature_partials.clear()
        return self._feature_partials

    def _extract_features(self, module, am):
        """Feature extraction with the engine's per-function partials,
        on the module lowered for this engine's platform."""
        return extract_features(module, self.platform.compile(module),
                                am=am, partial_cache=self._partials())

    def predicted_objectives(self, module, estimator, fingerprint=None,
                             am=None):
        """PE-predicted {time, energy, size} for a module, cached by
        content (the RL reward path; no simulation involved)."""
        if am is None:
            am = AnalysisManager()
        if fingerprint is None:
            fingerprint = module_fingerprint(module, am)
        key = "\x1f".join(("pe", fingerprint, self.platform.target,
                           self._estimator_token(estimator)))
        payload = self.pe_cache.get(key)
        if payload is not None:
            return dict(payload)
        features = self._extract_features(module, am)
        predicted = predict_many(estimator, features)
        objectives = objective_rows(predicted, features)[0]
        self.pe_cache.put(key, objectives)
        return dict(objectives)

    def score_sequences(self, workload, sequences, estimator):
        """PE-predicted objectives for many candidate sequences, with
        all uncached predictions made in ONE batched matrix call.

        Searchers use this instead of per-sequence predict loops; the
        expensive parts that remain (compile + passes + feature
        extraction) only run for sequences not seen before.  A
        candidate whose pipeline fails scores as ``None``.
        """
        sequences = [tuple(sequence) for sequence in sequences]
        base_fingerprint = self.workload_fingerprint(workload)
        token = self._estimator_token(estimator)
        results = [None] * len(sequences)
        pending = {}  # key -> (sequence, [indices]) — batch-level dedup
        for index, sequence in enumerate(sequences):
            key = "\x1f".join(
                ("pe-seq", base_fingerprint, "\x1e".join(sequence),
                 self.platform.target, token))
            if key in pending:
                pending[key][1].append(index)
                continue
            payload = self.pe_cache.get(key)
            if payload is not None:
                results[index] = dict(payload)
            else:
                pending[key] = (sequence, [index])
        if pending:
            from repro.passes import PassManager
            rows = []
            prepared = []  # (key, indices) for candidates that compiled
            for key, (sequence, indices) in pending.items():
                # A candidate whose pipeline raises scores as None
                # instead of aborting the whole batch (mirrors the
                # per-candidate guards of the profiled search path).
                # Each candidate gets its own analysis manager (fresh
                # module), but all share the engine's per-function
                # feature partials: candidates that leave a function
                # untouched reuse its static analysis.
                try:
                    module = workload.compile()
                    am = AnalysisManager()
                    PassManager().run(module, list(sequence), am=am)
                    rows.append(self._extract_features(module, am))
                except Exception:  # noqa: BLE001 - candidate skipped
                    continue
                prepared.append((key, indices))
            if rows:
                matrix = np.vstack(rows)
                fresh = objective_rows(predict_many(estimator, matrix),
                                       matrix)
                for (key, indices), objectives in zip(prepared, fresh):
                    self.pe_cache.put(key, objectives)
                    for index in indices:
                        results[index] = dict(objectives)
        return results

    # -- reporting --------------------------------------------------------
    def stats(self):
        """Hit/miss statistics for every tier.

        ``evaluations`` and ``pe`` are the LRU caches.  ``farm`` is None
        without a farm directory, else ``dir``, ``local`` (this
        process's store counters: ``hits``, ``misses``, ``stores``,
        ``cross_hits``, ``corrupt_lines``, ``checksum_skips`` and
        ``hit_rate``) and ``aggregate`` (the same counters summed over
        every process that used the farm, plus ``processes``).
        ``faults`` holds the supervisor's counters.  ``tape`` counts the
        simulator's per-process program decodes (``misses``,
        ``decode_seconds``); ``hits`` is always 0."""
        from repro.sim import tape_cache_stats

        out = {"pe": self.pe_cache.stats.as_dict(),
               "mode": self.evaluator.mode,
               "compose": dict(self.compose_stats)}
        out["evaluations"] = (self.cache.stats.as_dict()
                              if self.cache is not None else None)
        out["tape"] = tape_cache_stats()
        store = self.cache.store if self.cache is not None else None
        out["farm"] = None if store is None else {
            "dir": store.root,
            "local": store.local_stats(),
            "aggregate": store.aggregate_stats(),
        }
        out["faults"] = {"local": self.fault_stats.as_dict()}
        return out

    def __repr__(self):
        size = len(self.cache) if self.cache is not None else 0
        return (f"<EvaluationEngine {self.platform.target} "
                f"mode={self.evaluator.mode} entries={size}>")
