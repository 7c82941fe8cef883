"""PE inference and the PE-score cache tier.

``predict_many`` makes one estimator call per feature matrix, and the
engine serves repeated module states from the PE cache, so the RL
environment predicts each module content once.
"""

import numpy as np
import pytest

from repro.engine import EvaluationEngine, objective_rows, predict_many
from repro.features import extract_features
from repro.rl.environment import PhaseSequenceEnv
from repro.sim import Platform
from repro.workloads import load_suite


class CountingEstimator:
    """Deterministic stand-in PE that counts predict() batches."""

    def __init__(self):
        self.calls = 0
        self.rows_seen = 0

    def predict(self, features):
        features = np.asarray(features, dtype=float)
        self.calls += 1
        if features.ndim == 1:
            features = features[None, :]
        self.rows_seen += len(features)
        total = features.sum(axis=1)
        return {
            "exec_time_us": total + 1.0,
            "energy_uj": total * 0.5 + 1.0,
            "instructions": total,
            "avg_power_w": np.ones(len(features)),
        }


@pytest.fixture
def workload():
    return load_suite("beebs")[0]


def test_predict_many_and_objective_rows(workload):
    platform = Platform("riscv")
    modules = [workload.compile(), workload.compile()]
    matrix = np.vstack([extract_features(module, platform.compile(module))
                        for module in modules])
    assert matrix.shape[0] == 2
    estimator = CountingEstimator()
    predicted = predict_many(estimator, matrix)
    assert estimator.calls == 1
    rows = objective_rows(predicted, matrix)
    assert len(rows) == 2
    assert rows[0] == rows[1]  # identical modules, identical objectives
    assert rows[0]["size"] > 0


def test_env_reuses_pe_scores_across_episodes(workload):
    platform = Platform("riscv")
    engine = EvaluationEngine(platform)
    estimator = CountingEstimator()
    phases = ["mem2reg", "simplifycfg", "instcombine", "dce"]

    env = PhaseSequenceEnv(workload, platform, estimator, phases,
                           max_steps=3, engine=engine)
    env.reset()
    calls_after_first_reset = estimator.calls
    assert calls_after_first_reset == 1

    # A second episode on the same workload starts from the same module
    # content: its reset must be served from the PE cache.
    env2 = PhaseSequenceEnv(workload, platform, estimator, phases,
                            max_steps=3, engine=engine)
    env2.reset()
    assert estimator.calls == calls_after_first_reset

    # Replaying the same actions replays cached scores.
    for action in (0, 1):
        env.step(action)
    calls_after_steps = estimator.calls
    for action in (0, 1):
        env2.step(action)
    assert estimator.calls == calls_after_steps
