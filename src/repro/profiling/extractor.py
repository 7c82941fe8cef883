"""Data Extraction (paper Fig. 2, box 1).

For each (workload, phase sequence) pair: optimize, extract static +
platform features, profile on the target platform, and record the dynamic
features into a :class:`Dataset`.

All evaluations route through an :class:`repro.engine.EvaluationEngine`,
so repeated points (re-extractions, overlapping sequence sets, other
consumers sharing the engine) are served from the evaluation cache, and
cold points can run on a process pool.
"""

import time

from repro.engine import EvaluationEngine
from repro.profiling.dataset import Dataset
from repro.profiling.permutations import extraction_sequences


class DataExtractor:
    def __init__(self, platform, workloads, verbose=False, engine=None):
        self.platform = platform
        self.workloads = list(workloads)
        self.verbose = verbose
        self.engine = engine or EvaluationEngine(platform)
        self.failures = []
        self.extraction_seconds = 0.0

    def extract(self, n_sequences=20, seed=0, sequences=None):
        """Build a dataset of ~len(workloads) * n_sequences points.

        The paper's datasets hold 200–600 points; 30 workloads x 10–20
        sequences lands in the same range.
        """
        started = time.perf_counter()
        if sequences is None:
            sequences = extraction_sequences(n_sequences, seed=seed)
        points = [(workload, sequence) for workload in self.workloads
                  for sequence in sequences]
        outcomes = self.engine.evaluate_batch(points, on_error="collect")
        dataset = Dataset()
        for (workload, sequence), outcome in zip(points, outcomes):
            if outcome.failed:
                self.failures.append((workload.name, tuple(sequence),
                                      outcome.error))
                continue
            dataset.add(outcome.features, outcome.metrics(),
                        workload.name, sequence,
                        code_size=outcome.code_size)
            if self.verbose:
                hit = "cache" if outcome.cached else "fresh"
                print(f"  [{len(dataset):4d}] {workload.name:16s} "
                      f"|seq|={len(sequence):2d} {hit} "
                      f"t={outcome.metrics()['exec_time_us']:9.2f}us")
        self.extraction_seconds = time.perf_counter() - started
        return dataset
