"""Cached parallel evaluation engine for the compile->profile loop."""

from repro.engine.batched import objective_rows, predict_many
from repro.engine.cache import CacheStats, EvaluationCache, cache_key
from repro.engine.engine import EvalResult, EvaluationEngine
from repro.engine.evaluator import (
    EXECUTION_MODES,
    PointEvaluator,
    WorkerError,
    evaluate_point,
    point_measurement_seed,
    process_store,
)
from repro.engine.faults import (
    EvalFailure,
    EvalTimeout,
    FaultStats,
    classify_exception,
)
from repro.engine.store import ShardedStore

__all__ = [
    "CacheStats",
    "EXECUTION_MODES",
    "EvalFailure",
    "EvalResult",
    "EvalTimeout",
    "EvaluationCache",
    "EvaluationEngine",
    "FaultStats",
    "PointEvaluator",
    "ShardedStore",
    "WorkerError",
    "cache_key",
    "classify_exception",
    "evaluate_point",
    "objective_rows",
    "point_measurement_seed",
    "predict_many",
    "process_store",
]
