"""MLComp: the four-step methodology orchestration (paper Fig. 2).

1. Data Extraction         -> :class:`repro.profiling.DataExtractor`
2. PE model training       -> :class:`repro.pe.PerformanceEstimator`
3. Policy training (RL)    -> :class:`repro.rl.ReinforceTrainer`
4. Deployment (PSS)        -> :class:`repro.pss.PhaseSequenceSelector`

All compile->profile evaluations across the four steps flow through one
shared :class:`repro.engine.EvaluationEngine`, so repeated points (the
same workload under the same sequence, revisited module states during
RL) are computed once and the extraction loop can run on a worker pool.
"""

from repro.engine import EvaluationEngine
from repro.passes import available_phases
from repro.pe import PerformanceEstimator
from repro.profiling import DataExtractor
from repro.pss import PhaseSequenceSelector
from repro.rl import ReinforceTrainer, RewardConfig, TrainingConfig
from repro.sim import Platform
from repro.workloads import default_suite_for, load_suite


class MLComp:
    """End-to-end MLComp for one (platform, application domain) pair.

    Engine knobs: ``cache=False`` disables the evaluation cache (a
    4096-entry LRU), ``eval_mode`` picks the executor (``serial`` or
    ``process``) and ``workers`` the process pool's width.
    ``farm_dir`` is the only on-disk directory: it persists the
    evaluation cache and joins the shared compile farm there, a
    cross-process result store that other clients (processes pointed
    at the same directory) and process-pool workers reuse.
    ``eval_timeout`` puts a wall-clock deadline on every point.  A
    point that fails ends as a structured
    :class:`repro.engine.EvalFailure`; the only re-run is the solo
    re-run of points that shared a broken process pool.
    """

    def __init__(self, target="x86", suite=None, phases=None,
                 measurement_seed=0, cache=True, eval_mode="serial",
                 workers=None, farm_dir=None, eval_timeout=None):
        self.platform = Platform(target, measurement_seed)
        suite = suite or default_suite_for(target)
        self.workloads = load_suite(suite)
        self.suite = suite
        self.phases = list(phases or available_phases())
        self.engine = EvaluationEngine(
            self.platform, cache=cache, mode=eval_mode, workers=workers,
            farm_dir=farm_dir, eval_timeout=eval_timeout)
        self.dataset = None
        self.estimator = None
        self.trainer = None
        self.selector = None

    # -- step 1 ----------------------------------------------------------
    def extract_data(self, n_sequences=15, seed=0, verbose=False):
        extractor = DataExtractor(self.platform, self.workloads,
                                  verbose=verbose, engine=self.engine)
        self.dataset = extractor.extract(n_sequences=n_sequences,
                                         seed=seed)
        self._extractor = extractor
        return self.dataset

    # -- step 2 -----------------------------------------------------------
    def train_estimator(self, mode="fast", **kwargs):
        if self.dataset is None:
            self.extract_data()
        self.estimator = PerformanceEstimator().train(self.dataset,
                                                      mode=mode, **kwargs)
        return self.estimator

    # -- step 3 ------------------------------------------------------------
    def train_policy(self, config=None, reward_config=None,
                     progress=None):
        if self.estimator is None:
            self.train_estimator()
        self.trainer = ReinforceTrainer(
            self.workloads, self.platform, self.estimator, self.phases,
            config=config or TrainingConfig(),
            reward_config=reward_config or RewardConfig(),
            engine=self.engine)
        policy = self.trainer.train(progress=progress)
        self.selector = PhaseSequenceSelector(
            policy, self.trainer.encoder, self.phases,
            max_sequence_length=(config or TrainingConfig())
            .max_sequence_length * 2,
            max_inactive_length=8)
        return self.selector

    # -- step 4 -------------------------------------------------------------
    def optimize(self, module):
        """Apply the trained PSS to an IR module (in place)."""
        if self.selector is None:
            raise RuntimeError("train_policy() first")
        return self.selector.optimize(module)

    def evaluate_workload(self, workload, sequence=None):
        """Measurement of a workload under the PSS (or a fixed
        sequence).  Returns a cached :class:`repro.engine.EvalResult`."""
        if sequence is not None:
            return self.engine.evaluate(workload, sequence)
        module = workload.compile()
        self.optimize(module)
        return self.engine.profile_module(module)

    def engine_stats(self):
        """Cache hit/miss statistics across all four steps."""
        return self.engine.stats()
