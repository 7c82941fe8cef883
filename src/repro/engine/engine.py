"""The evaluation engine: cached, parallel compile->profile
orchestration.

Every MLComp step (Fig. 2) needs the answer to one of two questions:

1. "What does program P optimized with sequence S measure like on
   platform T?"  — :meth:`EvaluationEngine.evaluate` /
   :meth:`evaluate_batch` / :meth:`profile_module` (content-addressed
   cache over full compile->simulate runs, optionally on a process
   pool).
2. "What does the PE predict for module M?" —
   :meth:`predicted_objectives` (in-memory cache over feature
   extraction + estimator inference; the RL reward's only PE query).

Data extraction, RL rollouts, baseline searches and deployment checks
all route through here, so repeated points are paid for once.
"""

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
from repro.features import extract_features
from repro.ir.printer import module_fingerprint
from repro.passes.analysis import AnalysisManager
from repro.workloads.registry import template


class EvalResult:
    """One evaluated point, hydrated from a cache payload."""

    failed = False

    def __init__(self, payload, key, cached):
        self.key = key
        self.cached = cached
        self.fingerprint = payload["fingerprint"]
        self.result_fingerprint = payload["result_fingerprint"]
        # Per-function canonical fingerprints of the optimized module.
        self.function_fingerprints = dict(payload["function_fingerprints"])
        self.sequence = tuple(payload["sequence"])
        self.target = payload["target"]
        self.features = np.asarray(payload["features"], dtype=float)
        self.cycles = payload["cycles"]
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


class EvaluationEngine:
    """Cached (and optionally parallel) evaluation for one platform.

    ``farm_dir`` names a compile farm: a cross-process
    :class:`~repro.engine.store.ShardedStore` shared by every client and
    pool worker pointed at it.  It is the disk tier behind this engine's
    LRU, and process-pool workers compose per-function results through
    it instead of re-simulating farm-known code.  ``cache=False`` turns
    the evaluation cache off, farm included, so every ``evaluate`` call
    runs its point afresh.
    """

    def __init__(self, platform, cache=True, mode="serial", workers=None,
                 farm_dir=None, eval_timeout=None):
        self.platform = platform
        #: Function-granular second-level cache consumer: on a
        #: sequence-key miss, in-process evaluations run the (cheap)
        #: pass pipeline and look the *optimized* module's
        #: per-function content up in the result index, skipping
        #: feature extraction, codegen and simulation when any earlier
        #: point (or PSS deployment check) produced the same code.
        self.compose_stats = {"hits": 0, "misses": 0}
        # Counter updates are read-modify-write; the lock keeps the
        # engine safe to share across threads.
        self._compose_lock = threading.Lock()
        self.cache = EvaluationCache(store_dir=farm_dir) if cache \
            else None
        # PE scores are keyed by a per-process estimator token, so they
        # live in a memory-only tier (never the disk store).
        self.pe_cache = EvaluationCache()
        #: One supervisor runs every fresh point, in-process or pooled;
        #: its fault counters are the engine's.
        self.evaluator = PointEvaluator(
            mode=mode, workers=workers, timeout=eval_timeout)
        self.fault_stats = self.evaluator.faults
        self._estimator_tokens = weakref.WeakKeyDictionary()
        self._token_counter = 0

    # -- identity ---------------------------------------------------------
    @property
    def measurement_seed(self):
        return getattr(self.platform, "measurement_seed", 0)

    def workload_fingerprint(self, workload):
        """Canonical fingerprint of the workload's unoptimized module:
        the digest of the registry's per-process template
        (:class:`repro.workloads.registry.Template`), so no clone is
        made and no source is re-hashed."""
        return template(workload.name, workload.source).digest

    def key_for(self, workload, sequence):
        return cache_key(self.workload_fingerprint(workload),
                         tuple(sequence), self.platform.target,
                         self.measurement_seed)

    def result_key_for(self, result_fingerprint):
        """The result-index key of an *optimized* module's content.

        ``result_fingerprint`` is composed from the module's
        per-function fingerprints (plus the globals header), so any two
        points whose sequences produce per-function-identical code
        share this key — and it coincides with
        :meth:`profile_module`'s key, so deployment-check profiles and
        sequence evaluations feed each other.
        """
        return cache_key(result_fingerprint, (), self.platform.target,
                         self.measurement_seed)

    def _estimator_token(self, estimator):
        token = self._estimator_tokens.get(estimator)
        if token is None:
            self._token_counter += 1
            token = f"estimator-{self._token_counter}"
            self._estimator_tokens[estimator] = token
        return token

    def _spec(self, workload, sequence):
        pooled = self.evaluator.mode == "process" and \
            self.cache is not None
        return {
            "source": workload.source,
            "name": workload.name,
            "sequence": list(sequence),
            "target": self.platform.target,
            "measurement_seed": self.measurement_seed,
            # Process-pool workers compose through the shared farm;
            # in-process attempts compose via _evaluate_miss (whose
            # cache already fronts the same store).
            "farm_dir": self.cache.store_dir if pooled else None,
        }

    # -- profiled evaluations --------------------------------------------
    def _evaluate_miss(self, spec):
        """One fresh point, composed in-process through the cache's
        result index (:func:`~repro.engine.evaluator.compose_point`);
        the caller stores the payload under the sequence key."""
        if self.cache is None:
            return evaluate_point(spec)
        payload, hit = compose_point(spec, self.cache)
        with self._compose_lock:
            self.compose_stats["hits" if hit else "misses"] += 1
        return payload

    def evaluate(self, workload, sequence):
        """Evaluate one (workload, sequence) point, cache-first."""
        return self.evaluate_batch([(workload, sequence)])[0]

    def evaluate_batch(self, points, on_error="raise"):
        """Evaluate ``[(workload, sequence), ...]`` in input order.

        Cache hits are served inline; misses go through the configured
        executor.  ``on_error='collect'`` replaces failed points with
        :class:`~repro.engine.faults.EvalFailure` entries instead of raising
        :class:`WorkerError` on the first failure.
        """
        points = list(points)
        results = [None] * len(points)
        pending = {}  # key -> (spec, [indices]) — dedup within a batch
        for index, (workload, sequence) in enumerate(points):
            key = self.key_for(workload, sequence)
            if key in pending:
                pending[key][1].append(index)
                continue
            payload = self.cache.get(key) if self.cache is not None \
                else None
            if payload is not None:
                results[index] = EvalResult(payload, key, cached=True)
            else:
                pending[key] = (self._spec(workload, sequence), [index])
        # In-process misses compose through this process's result index
        # (identical payloads; pool workers compose through the farm
        # instead, since they cannot see this process's cache).
        outcomes = self.evaluator.run(
            [spec for spec, _ in pending.values()],
            run=self._evaluate_miss)
        for (key, (spec, indices)), (payload, error) in zip(
                pending.items(), outcomes):
            if error is not None:
                if on_error == "raise":
                    raise WorkerError(error.name, error.sequence,
                                      error.error, kind=error.kind)
                for index in indices:
                    results[index] = error
                continue
            if self.cache is not None:
                self.cache.put(key, payload)
            for position, index in enumerate(indices):
                # The first occurrence is the fresh evaluation; any
                # duplicate of it in the same batch is a cache hit.
                results[index] = EvalResult(payload, key,
                                            cached=position > 0)
        # Publish the farm counters once per batch, not once per put.
        if self.cache is not None and self.cache.store is not None:
            self.cache.store.publish_stats()
        return results

    def profile_module(self, module, am=None):
        """Profile an already-optimized module, content-addressed by its
        final fingerprint (used by PSS deployment checks).  An analysis
        manager carrying warm per-function fingerprints makes the
        content-addressing incremental."""
        if am is None:
            am = AnalysisManager()
        fingerprint = module_fingerprint(module, am)
        key = self.result_key_for(fingerprint)
        if self.cache is not None:
            payload = self.cache.get(key)
            if payload is not None:
                return EvalResult(payload, key, cached=True)
        spec = {"sequence": [], "target": self.platform.target,
                "measurement_seed": self.measurement_seed}
        payload = profile_optimized(
            spec, module, am, fingerprint, fingerprint,
            {function.name: am.fingerprint(function)
             for function in module.defined_functions()})
        if self.cache is not None:
            self.cache.put(key, payload)
        return EvalResult(payload, key, cached=False)

    # -- PE-predicted evaluations ----------------------------------------
    def _extract_features(self, module, am):
        """Feature extraction on the module lowered for this engine's
        platform, with per-function static partials from ``am``."""
        return extract_features(module, self.platform.compile(module),
                                am=am)

    def predicted_objectives(self, module, estimator, fingerprint, am):
        """PE-predicted {time, energy, size} for a module, cached by
        content (the RL reward path; no simulation involved).
        ``fingerprint`` is the module's :func:`module_fingerprint` under
        ``am``, which also serves the per-function static partials."""
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
