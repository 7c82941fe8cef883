"""Batched PE inference and the PE-score cache tier.

The engine must (a) make exactly one estimator call per uncached
candidate batch, (b) serve repeated module states / candidate sequences
from the PE cache, and (c) give searchers and the RL environment the
same numbers the unbatched path would.
"""

import numpy as np
import pytest

from repro.baselines.searchers import GeneticSearch, RandomPhaseSearch
from repro.engine import EvaluationEngine, objective_rows, predict_many
from repro.rl.environment import PhaseSequenceEnv
from repro.sim import Platform
from repro.workloads import load_suite

SEQUENCES = [("mem2reg",), ("mem2reg", "simplifycfg"),
             ("mem2reg", "instcombine"), ("dce",)]


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


def test_score_sequences_is_one_matrix_call(workload):
    engine = EvaluationEngine(Platform("riscv"))
    estimator = CountingEstimator()
    scores = engine.score_sequences(workload, SEQUENCES, estimator)
    assert len(scores) == len(SEQUENCES)
    assert estimator.calls == 1
    assert estimator.rows_seen == len(SEQUENCES)
    for objectives in scores:
        assert set(objectives) == {"time", "energy", "size"}
        assert objectives["time"] > 0

    # Re-scoring the same candidates is free (PE cache tier).
    again = engine.score_sequences(workload, SEQUENCES, estimator)
    assert estimator.calls == 1
    assert again == scores

    # A half-new batch predicts only the new rows — still in one call.
    extended = SEQUENCES + [("gvn",), ("licm",)]
    engine.score_sequences(workload, extended, estimator)
    assert estimator.calls == 2
    assert estimator.rows_seen == len(SEQUENCES) + 2


def test_score_sequences_dedupes_and_guards_failures(workload):
    engine = EvaluationEngine(Platform("riscv"))
    estimator = CountingEstimator()
    candidates = [("mem2reg",), ("not-a-phase",), ("mem2reg",),
                  ("dce",)]
    scores = engine.score_sequences(workload, candidates, estimator)
    # Duplicates share one prediction row; the bad candidate scores
    # None instead of aborting the batch.
    assert estimator.rows_seen == 2
    assert scores[0] == scores[2]
    assert scores[1] is None
    assert scores[3] is not None


def test_batched_matches_unbatched(workload):
    engine = EvaluationEngine(Platform("riscv"))
    estimator = CountingEstimator()
    batched = engine.score_sequences(workload, SEQUENCES, estimator)
    from repro.passes import PassManager
    for sequence, expected in zip(SEQUENCES, batched):
        module = workload.compile()
        PassManager().run(module, list(sequence))
        single = engine.predicted_objectives(module, estimator)
        assert single == pytest.approx(expected)


def test_predict_many_and_objective_rows(workload):
    from repro.engine import feature_matrix
    platform = Platform("riscv")
    modules = [workload.compile(), workload.compile()]
    matrix = feature_matrix(modules, platform)
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


def test_genetic_search_batches_per_generation(workload):
    platform = Platform("riscv")
    engine = EvaluationEngine(platform)
    estimator = CountingEstimator()
    searcher = GeneticSearch(population=4, generations=2, seed=0,
                             phases=["mem2reg", "simplifycfg", "dce",
                                     "instcombine"],
                             engine=engine, estimator=estimator)
    sequence, value = searcher.search(workload, platform)
    # One batched call for the initial population + one per generation.
    assert estimator.calls <= 3
    assert value > 0  # validated by a real (engine-cached) measurement
    assert isinstance(sequence, tuple)


def test_random_search_with_estimator_validates_top(workload):
    platform = Platform("riscv")
    engine = EvaluationEngine(platform)
    estimator = CountingEstimator()
    searcher = RandomPhaseSearch(n_trials=8, max_length=4, seed=1,
                                 phases=["mem2reg", "simplifycfg",
                                         "dce"],
                                 engine=engine, estimator=estimator,
                                 validate_top=2)
    sequence, value = searcher.search(workload, platform)
    assert estimator.calls == 1          # one matrix call for 8 trials
    # Only baseline + top candidates were actually profiled (each
    # profile stores a point entry plus its result-index entry).
    assert engine.compose_stats["misses"] <= 1 + 2
    assert engine.cache.stats.stores <= 2 * (1 + 2)
    assert value > 0
