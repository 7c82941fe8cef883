"""The Performance Estimator (paper Fig. 2, box 2).

One searched (preprocessing, model) pipeline per dynamic metric; trained
per target platform from a Data-Extraction dataset; predicts the four
metrics of the paper's Fig. 4 (execution time, energy, executed
instructions, average power) from code features.
"""

import time

import numpy as np

from repro.models import (
    TABLE_IV_MODELS,
    max_percentage_error,
    mean_absolute_percentage_error,
    r2_score,
)
from repro.pe.model_search import heuristic_model_search, model_search


# Models cheap enough for the quick (non-heuristic) search path.
FAST_MODELS = ("ridge", "kernel-ridge", "bayesian-ridge", "linear",
               "huber", "lasso", "elasticnet", "random-forest",
               "decision-tree")


class PerformanceEstimator:
    """Multi-output PE: one fitted pipeline per metric."""

    def __init__(self, metrics=("exec_time_us", "energy_uj",
                                "instructions", "avg_power_w")):
        self.metrics = tuple(metrics)
        self.pipelines = {}
        self.accuracies = {}
        self.report = {}
        self.training_seconds = 0.0

    def train(self, dataset, mode="fast", n_trials=25,
              accuracy_threshold=0.97, seed=0, model_names=None,
              preprocessor_names=None, test_fraction=0.25):
        """Fit all metric pipelines from a Dataset.

        ``mode='fast'`` runs the literal Alg. 1 over a fixed model list;
        ``mode='heuristic'`` runs the Optuna-like joint search (paper
        Fig. 3).
        """
        started = time.perf_counter()
        X = dataset.X
        train_idx, test_idx = dataset.split(test_fraction, seed=seed)
        for metric in self.metrics:
            y = dataset.y(metric)
            X_train, y_train = X[train_idx], y[train_idx]
            X_test, y_test = X[test_idx], y[test_idx]
            # Time/energy/instruction counts span orders of magnitude
            # across programs: fit those in log space so the search
            # optimizes relative error (the paper's accuracy currency).
            transform = "log" if metric != "avg_power_w" else None
            if mode == "heuristic":
                pipeline, accuracy, _ = heuristic_model_search(
                    X_train, y_train, X_test, y_test,
                    model_names or TABLE_IV_MODELS,
                    preprocessor_names or
                    ("mean-std", "robust", "pca", "power", "quantile"),
                    n_trials=n_trials,
                    accuracy_threshold=accuracy_threshold, seed=seed,
                    target_transform=transform)
            else:
                pipeline, accuracy, _ = model_search(
                    X_train, y_train, X_test, y_test,
                    model_names or FAST_MODELS,
                    accuracy_threshold=accuracy_threshold,
                    target_transform=transform)
            if pipeline is None:
                raise RuntimeError(f"no model fits metric {metric!r}")
            self.pipelines[metric] = pipeline
            self.accuracies[metric] = accuracy
            prediction = pipeline.predict(X_test)
            self.report[metric] = {
                "r2": r2_score(y_test, prediction),
                "mape": mean_absolute_percentage_error(y_test, prediction),
                "max_pct_error": max_percentage_error(y_test, prediction),
                "model": type(pipeline.model).model_name,
                "preprocessor":
                    type(pipeline.preprocessor).preprocessor_name,
            }
        self.training_seconds = time.perf_counter() - started
        return self

    def predict(self, features):
        """Predict the metric dict for one feature vector (or a matrix)."""
        features = np.asarray(features, dtype=float)
        single = features.ndim == 1
        if single:
            features = features[None, :]
        out = {metric: self.pipelines[metric].predict(features)
               for metric in self.metrics}
        if single:
            return {metric: float(values[0])
                    for metric, values in out.items()}
        return out

    def predict_module(self, module, platform):
        """Predict metrics straight from an IR module (extract features,
        never execute) — this is what makes PSS training fast."""
        from repro.features import extract_features
        return self.predict(extract_features(module,
                                             platform.compile(module)))

    def summary(self):
        lines = []
        for metric in self.metrics:
            r = self.report[metric]
            lines.append(
                f"{metric:14s} r2={r['r2']:6.3f} "
                f"mape={100 * r['mape']:5.2f}% "
                f"maxerr={100 * r['max_pct_error']:6.2f}% "
                f"({r['preprocessor']} + {r['model']})")
        return "\n".join(lines)
