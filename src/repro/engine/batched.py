"""Batched PE inference.

Searchers and deployment tools used to score candidate sequences one
``estimator.predict`` call at a time.  These helpers stack the feature
vectors of a whole candidate set into a matrix so each metric pipeline
runs exactly once per batch (the preprocessors and models are all
vectorized NumPy underneath).
"""

import numpy as np

from repro.features import FEATURE_NAMES, extract_features

SIZE_INDEX = FEATURE_NAMES.index("code_size_bytes")


def feature_matrix(modules, platform):
    """Stack full PE feature vectors of many modules into one matrix."""
    return np.vstack([extract_features(module, platform.compile(module))
                      for module in modules])


def predict_many(estimator, features):
    """One batched prediction over a feature matrix.

    Returns ``{metric: ndarray of len(features)}`` — a single call into
    each metric pipeline rather than a per-row loop.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[None, :]
    return estimator.predict(features)


def objective_rows(predicted, features):
    """Per-row {time, energy, size} objective dicts from a batched
    prediction (`size` is the measured static code size feature)."""
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[None, :]
    rows = []
    for index in range(features.shape[0]):
        rows.append({
            "time": max(float(predicted["exec_time_us"][index]), 1e-9),
            "energy": max(float(predicted["energy_uj"][index]), 1e-9),
            "size": float(features[index][SIZE_INDEX]),
        })
    return rows
