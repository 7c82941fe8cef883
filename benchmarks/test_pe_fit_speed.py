"""Benchmark record of PE model search (the ``pe.model_fit`` layer).

Builds the mlcomp-flow dataset (the first 8 riscv beebs workloads x 8
extraction sequences at seed 0: 112 points x 115 features) and times
the 36 fits of fast-mode Alg. 1 on its 84-row training split: every
model of ``FAST_MODELS`` on each of the four metrics, through the same
pipeline ``model_search`` builds (mean-std scaling, log targets for
time, energy and instructions).  Three passes; per family, the median
of the passes' summed seconds is recorded, with the whole
``PerformanceEstimator.train(mode="fast")`` call timed the same way.
Every pass must predict the test split byte-identically, so a
timing can never come from a different fit.

Slow tier, and no wall-clock bound: the numbers are recorded, not
gated.  Running with ``REPRO_BENCH_RECORD=1`` appends them to
``BENCH_pe.json`` at the repo root.
"""

import os
import statistics
import time

from repro.pe import FAST_MODELS, PerformanceEstimator
from repro.pe.model_search import FittedPipeline
from repro.models import create_model
from repro.pipeline import MLComp
from repro.preprocess import create_preprocessor

from bench_record import record

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_pe.json")
PASSES = 3


def _flow_dataset():
    mlcomp = MLComp(target="riscv", eval_mode="serial")
    mlcomp.workloads = mlcomp.workloads[:8]
    return mlcomp.extract_data(n_sequences=8, seed=0)


def test_pe_fit_speed_record():
    dataset = _flow_dataset()
    X = dataset.X
    train_idx, test_idx = dataset.split(0.25, seed=0)
    seconds = {name: [] for name in FAST_MODELS}
    predictions = {}
    for _ in range(PASSES):
        for name in FAST_MODELS:
            elapsed = 0.0
            for metric in dataset.METRICS:
                y = dataset.y(metric)
                pipeline = FittedPipeline(
                    create_preprocessor("mean-std"), create_model(name),
                    target_transform=None if metric == "avg_power_w"
                    else "log")
                started = time.perf_counter()
                pipeline.fit(X[train_idx], y[train_idx])
                elapsed += time.perf_counter() - started
                prediction = pipeline.predict(X[test_idx]).tobytes()
                assert predictions.setdefault((name, metric),
                                              prediction) == prediction
            seconds[name].append(elapsed)
    train = []
    for _ in range(PASSES):
        started = time.perf_counter()
        PerformanceEstimator().train(dataset, mode="fast", seed=0)
        train.append(time.perf_counter() - started)
    families = {name: round(statistics.median(values), 4)
                for name, values in seconds.items()}
    fits = round(sum(families.values()), 4)
    print(f"\n[pe-bench] {X.shape[0]} points x {X.shape[1]} features, "
          f"{len(train_idx)} training rows, "
          f"{len(FAST_MODELS) * len(dataset.METRICS)} fits: "
          f"{fits:.3f}s fitting, train(fast) "
          f"{statistics.median(train):.3f}s")
    for name, value in sorted(families.items(), key=lambda kv: -kv[1]):
        print(f"  {name:16s} {value:.4f}s")
    record(BENCH_PATH, {
        "benchmark": "pe_fast_model_search",
        "points": int(X.shape[0]),
        "features": int(X.shape[1]),
        "fits": len(FAST_MODELS) * len(dataset.METRICS),
        "fit_seconds": fits,
        "train_fast_seconds": round(statistics.median(train), 4),
        "family_seconds": families,
    })
