"""Search-based phase-ordering baselines (the autotuning literature the
paper positions itself against: random search and genetic search, plus an
iterative-elimination pass pruner).

All searchers evaluate through an :class:`repro.engine.EvaluationEngine`
so repeated candidate sequences (identical children across generations,
re-tried eliminations) hit the evaluation cache instead of re-running
the compile->simulate loop.  Every candidate is scored by profiling:
the baselines measure, they do not estimate.
"""

import numpy as np

from repro.engine import EvaluationEngine
from repro.passes import available_phases


def _evaluate(workload, platform, sequence, objective, engine=None):
    engine = engine or EvaluationEngine(platform)
    result = engine.evaluate(workload, tuple(sequence))
    return objective(result), result


def _default_objective(measurement):
    return measurement.metrics()["exec_time_us"]


class RandomPhaseSearch:
    """Sample random sequences; keep the best (lower objective wins)."""

    def __init__(self, n_trials=30, max_length=12, seed=0,
                 objective=_default_objective, phases=None,
                 engine=None):
        self.n_trials = n_trials
        self.max_length = max_length
        self.seed = seed
        self.objective = objective
        self.phases = list(phases or available_phases())
        self.engine = engine

    def _sequences(self, rng):
        sequences = []
        for _ in range(self.n_trials):
            length = int(rng.integers(1, self.max_length + 1))
            sequences.append(tuple(str(rng.choice(self.phases))
                                   for _ in range(length)))
        return sequences

    def search(self, workload, platform):
        rng = np.random.default_rng(self.seed)
        engine = self.engine or EvaluationEngine(platform)
        best_sequence = ()
        best_value, _ = _evaluate(workload, platform, (),
                                  self.objective, engine)
        for sequence in self._sequences(rng):
            try:
                value, _ = _evaluate(workload, platform, sequence,
                                     self.objective, engine)
            except Exception:
                continue
            if value < best_value:
                best_value = value
                best_sequence = sequence
        return best_sequence, best_value


class GeneticSearch:
    """Small genetic algorithm over phase sequences."""

    def __init__(self, population=12, generations=6, max_length=14,
                 mutation_rate=0.25, seed=0,
                 objective=_default_objective, phases=None,
                 engine=None):
        self.population = population
        self.generations = generations
        self.max_length = max_length
        self.mutation_rate = mutation_rate
        self.seed = seed
        self.objective = objective
        self.phases = list(phases or available_phases())
        self.engine = engine

    def search(self, workload, platform):
        rng = np.random.default_rng(self.seed)
        engine = self.engine or EvaluationEngine(platform)

        def random_sequence():
            length = int(rng.integers(2, self.max_length + 1))
            return tuple(str(rng.choice(self.phases))
                         for _ in range(length))

        def fitness(sequence):
            try:
                value, _ = _evaluate(workload, platform, sequence,
                                     self.objective, engine)
                return value
            except Exception:
                return float("inf")

        def score_population(sequences):
            return [(fitness(s), s) for s in sequences]

        population = [random_sequence() for _ in range(self.population)]
        scored = score_population(population)
        for _ in range(self.generations):
            scored.sort(key=lambda fs: fs[0])
            elites = [s for _, s in scored[:max(2, self.population // 3)]]
            children = list(elites)
            while len(children) < self.population:
                a = elites[rng.integers(len(elites))]
                b = elites[rng.integers(len(elites))]
                if a and b:
                    cut_a = rng.integers(0, len(a) + 1)
                    cut_b = rng.integers(0, len(b) + 1)
                    child = (a[:cut_a] + b[cut_b:])[:self.max_length]
                else:
                    child = a or b
                child = list(child) or [str(rng.choice(self.phases))]
                for i in range(len(child)):
                    if rng.random() < self.mutation_rate:
                        child[i] = str(rng.choice(self.phases))
                children.append(tuple(child))
            scored = score_population(children)
        scored.sort(key=lambda fs: fs[0])
        return scored[0][1], scored[0][0]


class IterativeElimination:
    """Start from a full pipeline and drop phases that do not help."""

    def __init__(self, base_sequence=None, objective=_default_objective,
                 engine=None):
        from repro.baselines.standard import STANDARD_LEVELS
        self.base_sequence = list(base_sequence
                                  or STANDARD_LEVELS["-O2"])
        self.objective = objective
        self.engine = engine

    def search(self, workload, platform):
        engine = self.engine or EvaluationEngine(platform)
        current = list(self.base_sequence)
        best_value, _ = _evaluate(workload, platform, current,
                                  self.objective, engine)
        improved = True
        while improved and len(current) > 1:
            improved = False
            for i in range(len(current)):
                candidate = current[:i] + current[i + 1:]
                try:
                    value, _ = _evaluate(workload, platform, candidate,
                                         self.objective, engine)
                except Exception:
                    continue
                if value < best_value:
                    best_value = value
                    current = candidate
                    improved = True
                    break
        return tuple(current), best_value
