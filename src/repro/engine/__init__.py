"""Cached parallel evaluation engine for the compile->profile loop."""

from repro.engine.batched import (
    feature_matrix,
    objective_rows,
    predict_many,
)
from repro.engine.cache import CacheStats, EvaluationCache, cache_key
from repro.engine.chaos import (
    ChaosInjector,
    InjectedCrash,
    InjectedFault,
    InjectedIOError,
)
from repro.engine.engine import (
    EvalFailure,
    EvalResult,
    EvaluationEngine,
)
from repro.engine.evaluator import (
    EXECUTION_MODES,
    PointEvaluator,
    WorkerError,
    evaluate_point,
    point_measurement_seed,
    process_store,
)
from repro.engine.faults import (
    EvalTimeout,
    FailureInfo,
    FaultStats,
    classify_exception,
)
from repro.engine.store import ShardedStore, StoreStats

__all__ = [
    "CacheStats",
    "ChaosInjector",
    "EXECUTION_MODES",
    "EvalFailure",
    "EvalResult",
    "EvalTimeout",
    "EvaluationCache",
    "EvaluationEngine",
    "FailureInfo",
    "FaultStats",
    "InjectedCrash",
    "InjectedFault",
    "InjectedIOError",
    "PointEvaluator",
    "ShardedStore",
    "StoreStats",
    "WorkerError",
    "cache_key",
    "classify_exception",
    "evaluate_point",
    "feature_matrix",
    "objective_rows",
    "point_measurement_seed",
    "predict_many",
    "process_store",
]
