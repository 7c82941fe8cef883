"""PE inference over feature rows.

:func:`predict_many` is the one call into the estimator: the RL reward
(:meth:`repro.engine.EvaluationEngine.predicted_objectives`) passes it
a module's feature vector, and the estimator's metric pipelines (all
vectorized NumPy underneath) take a matrix of any number of rows.
"""

import numpy as np

from repro.features import FEATURE_NAMES

SIZE_INDEX = FEATURE_NAMES.index("code_size_bytes")


def _rows(features):
    features = np.asarray(features, dtype=float)
    return features[None, :] if features.ndim == 1 else features


def predict_many(estimator, features):
    """One prediction over a feature vector or matrix.

    Returns ``{metric: ndarray of len(rows)}`` — a single call into
    each metric pipeline rather than a per-row loop.
    """
    return estimator.predict(_rows(features))


def objective_rows(predicted, features):
    """Per-row {time, energy, size} objective dicts from a prediction
    (`size` is the measured static code size feature)."""
    return [{"time": max(float(predicted["exec_time_us"][index]), 1e-9),
             "energy": max(float(predicted["energy_uj"][index]), 1e-9),
             "size": float(row[SIZE_INDEX])}
            for index, row in enumerate(_rows(features))]
